"""Command line interface.

Commands: ``analyze`` (single-table pipeline), ``matched`` (two matched
tables), ``bowker`` (symmetry test only), ``scan`` (lam grid search).
Defaults can come from a key=value config file named by --config or the
SKEWCA_CONFIG environment variable; explicit flags win over the file.

Exit codes: 0 success, 2 input error (including a named path that cannot be
read or written), 3 numeric or degenerate-data error. Any other exception is
a bug and propagates: Python prints its traceback and exits 1.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from .decomposition import METRICS
from .errors import AnalysisError, InputError
from .reporting import (
    OUTPUT_FORMATS,
    PLOT_AXES,
    AnalysisConfig,
    AnalysisReport,
    matched_svg_paths,
    render_report,
    run_analyze,
    run_bowker,
    run_matched,
    run_scan,
)
from .tableio import load_table, read_text

CONFIG_ENV_VAR = "SKEWCA_CONFIG"

# config-file key (also the dest of its flag) -> AnalysisConfig field
_SETTINGS = {
    "lambda": "lam", "alpha": "alpha", "metric": "metric", "dims": "dims",
    "format": "output_format", "svg": "svg_path", "axes": "plot_axes",
}

# Largest --grid a scan accepts: 25 times the default 400-point grid. Each point
# costs one eigensolve of an R x R matrix, so this bounds the time and memory of a
# scan; a grid with more points exits 2 before any of it is built.
MAX_GRID_POINTS = 10_000


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InputError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _SETTINGS:
            raise InputError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = value.strip()
    return values


def _parse_dims(text: str) -> tuple[int, int]:
    parts = [part.strip() for part in text.split(",")]
    if len(parts) != 2:
        raise InputError(f"--dims expects two comma-separated dimensions, got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise InputError(f"--dims expects integers, got {text!r}") from None


def _parse_grid(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise InputError(f"--grid expects START:STOP:STEP, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise InputError(f"--grid expects numbers, got {text!r}") from None
    if not all(map(math.isfinite, (start, stop, step))):
        raise InputError(f"--grid needs finite numbers, got {text!r}")
    if step <= 0 or stop < start:
        raise InputError(f"--grid needs step > 0 and stop >= start, got {text!r}")
    # the grid ends at the last point not past STOP, floor(last) steps from START; the
    # slack keeps a STOP that the division lands just below
    last = (stop - start) / step + 1e-9
    # "not <" also rejects a span that overflowed to infinity
    if not last < MAX_GRID_POINTS:
        raise InputError(f"--grid holds more than {MAX_GRID_POINTS} points, got {text!r}")
    points = [round(start + k * step, 12) for k in range(math.floor(last) + 1)]
    if len(set(points)) < len(points):
        raise InputError(f"--grid points coincide after rounding to 12 decimals, got {text!r}")
    return points


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewca",
        description="Quantify and visualize departures from symmetry in square contingency tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(cmd: argparse.ArgumentParser, with_analysis_flags: bool = True) -> None:
        cmd.add_argument("--config", help="key=value config file (default: $SKEWCA_CONFIG)")
        cmd.add_argument(
            "--format",
            choices=OUTPUT_FORMATS,
            help=f"report format (default {AnalysisConfig.output_format})",
        )
        cmd.add_argument("-o", "--output", help="write the report here instead of stdout")
        if with_analysis_flags:
            cmd.add_argument(
                "--lambda",
                metavar="LAM",
                help="divergence parameter: a number > -1 or one of "
                "hellinger, kl, cressie-read, pearson (default pearson)",
            )
            cmd.add_argument(
                "--metric", choices=METRICS, help="default averaged for analyze, identity for matched"
            )
            cmd.add_argument("--dims", help="two plot dimensions, e.g. 1,2")
            cmd.add_argument("--svg", help="write an SVG plot to this path")
            cmd.add_argument("--axes", choices=PLOT_AXES)

    analyze = sub.add_parser("analyze", help="single-table asymmetry analysis")
    analyze.add_argument("table", help="CSV or JSON table file")
    analyze.add_argument(
        "--alpha", type=float, help=f"confidence level (default {AnalysisConfig.alpha})"
    )
    add_common(analyze)

    matched = sub.add_parser("matched", help="sum/difference analysis of two matched tables")
    matched.add_argument("table1", help="first CSV or JSON table file")
    matched.add_argument("table2", help="second CSV or JSON table file")
    add_common(matched)

    bowker = sub.add_parser("bowker", help="symmetry chi-square test")
    bowker.add_argument("table", help="CSV or JSON table file")
    add_common(bowker, with_analysis_flags=False)

    scan = sub.add_parser("scan", help="lam grid scan maximizing the dims 1-2 contribution")
    scan.add_argument("table", help="CSV or JSON table file")
    scan.add_argument("--grid", help="lam grid as START:STOP:STEP (default -0.99:3.00:0.01)")
    scan.add_argument(
        "--metric",
        choices=METRICS,
        help="recorded in the report; contributions do not depend on the metric",
    )
    add_common(scan, with_analysis_flags=False)

    return parser


def _build_config(args: argparse.Namespace) -> AnalysisConfig:
    config_path = getattr(args, "config", None) or os.environ.get(CONFIG_ENV_VAR)
    values: dict = _read_config_file(config_path) if config_path else {}
    for key in _SETTINGS:
        if getattr(args, key, None) is not None:
            values[key] = getattr(args, key)
    if "alpha" in values:
        try:
            values["alpha"] = float(values["alpha"])
        except ValueError:
            raise InputError(f"alpha must be a number, got {values['alpha']!r}") from None
    if "dims" in values:
        values["dims"] = _parse_dims(values["dims"])
    return AnalysisConfig(**{_SETTINGS[key]: value for key, value in values.items()})


def _emit(report: AnalysisReport, config: AnalysisConfig, output: str | None) -> None:
    text = render_report(report, config.output_format)
    if output:
        Path(output).write_text(text, encoding="utf-8")
        if config.output_format == "csv":
            # full-precision companion next to the rounded CSV
            Path(output).with_suffix(".json").write_text(report.to_json(), encoding="utf-8")
    else:
        sys.stdout.write(text)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    created: list[Path] = []
    try:
        config = _build_config(args)
        output = getattr(args, "output", None)
        if output and config.output_format == "csv" and Path(output).suffix.lower() == ".json":
            raise InputError(f"a CSV report to {output!r} would be overwritten by its JSON companion")
        written = [Path(output)] if output else []
        if output and config.output_format == "csv":
            written.append(Path(output).with_suffix(".json"))
        if config.svg_path and args.command == "analyze":
            written.append(Path(config.svg_path))
        if config.svg_path and args.command == "matched":
            written += matched_svg_paths(config.svg_path).values()
        outputs = [str(path.resolve()).casefold() for path in written]
        if len(set(outputs)) < len(outputs):
            raise InputError(f"two outputs of this run name the same file: {[str(p) for p in written]}")
        named = [getattr(args, key, None) for key in ("table", "table1", "table2")]
        named.append(args.config or os.environ.get(CONFIG_ENV_VAR))  # the config file it reads
        reads = {str(Path(p).resolve()).casefold() for p in named if p}  # two inputs may name one file
        if clash := [str(path) for path, key in zip(written, outputs) if key in reads]:
            raise InputError(f"an output of this run names a file that it reads: {clash}")
        created = [path for path in written if not path.exists()]
        if args.command == "analyze":
            report = run_analyze(config, load_table(args.table))
        elif args.command == "matched":
            report = run_matched(config, load_table(args.table1), load_table(args.table2))
        elif args.command == "bowker":
            report = run_bowker(config, load_table(args.table))
        else:
            grid = _parse_grid(args.grid) if args.grid else None
            report = run_scan(config, load_table(args.table), grid)
        _emit(report, config, output)
        return 0
    except (InputError, OSError) as exc:
        # every path the CLI opens was named by the user
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    except AnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 3
    # a failed run leaves none of the files that it set out to create
    for path in created:
        path.unlink(missing_ok=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
