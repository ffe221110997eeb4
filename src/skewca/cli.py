"""Command line interface.

Commands: ``analyze`` (single-table pipeline), ``matched`` (two matched
tables), ``bowker`` (symmetry test only), ``scan`` (lam grid search).
Defaults can come from a key=value config file named by --config or the
SKEWCA_CONFIG environment variable; explicit flags win over the file.

Exit codes: 0 success, 2 input error, 3 numeric or degenerate-data error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from .decomposition import default_lambda_grid
from .errors import AnalysisError, InputError, InvalidAlphaError, SkewcaError
from .reporting import (
    AnalysisConfig,
    AnalysisReport,
    render_report,
    resolve_lambda,
    run_analyze,
    run_bowker,
    run_matched,
    run_scan,
)
from .tableio import load_table

CONFIG_ENV_VAR = "SKEWCA_CONFIG"

_CONFIG_KEYS = ("lambda", "alpha", "metric", "dims", "format", "svg", "axes")

# Largest --grid a scan accepts: 25 times the default 400-point grid. Each point
# costs one eigensolve of an R x R matrix, so this bounds the time and memory of a
# scan; a grid with more points exits 2 before any of it is built.
MAX_GRID_POINTS = 10_000


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InputError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
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


def _parse_alpha(value: str | float) -> float:
    try:
        alpha = float(value)
    except ValueError:
        raise InvalidAlphaError(f"alpha must be a number, got {value!r}") from None
    if not 0.0 < alpha < 1.0:
        raise InvalidAlphaError(f"alpha must be in (0, 1), got {alpha}")
    return alpha


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
    span = (stop - start) / step
    # "not <=" also rejects a span that overflowed to infinity
    if not span <= MAX_GRID_POINTS or round(span) + 1 > MAX_GRID_POINTS:
        raise InputError(f"--grid holds more than {MAX_GRID_POINTS} points, got {text!r}")
    count = int(round(span)) + 1
    return [round(start + k * step, 12) for k in range(count)]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewca",
        description="Quantify and visualize departures from symmetry in square contingency tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(cmd: argparse.ArgumentParser, with_analysis_flags: bool = True) -> None:
        cmd.add_argument("--config", help="key=value config file (default: $SKEWCA_CONFIG)")
        cmd.add_argument("--format", choices=("json", "csv"), help="report format (default json)")
        cmd.add_argument("-o", "--output", help="write the report here instead of stdout")
        if with_analysis_flags:
            cmd.add_argument(
                "--lambda",
                dest="lam",
                help="divergence parameter: a number > -1 or one of "
                "hellinger, kl, cressie-read, pearson (default pearson)",
            )
            cmd.add_argument("--metric", choices=("averaged", "identity"))
            cmd.add_argument("--dims", help="two plot dimensions, e.g. 1,2")
            cmd.add_argument("--svg", help="write an SVG plot to this path")
            cmd.add_argument("--axes", choices=("rows", "columns", "both"))

    analyze = sub.add_parser("analyze", help="single-table asymmetry analysis")
    analyze.add_argument("table", help="CSV or JSON table file")
    analyze.add_argument("--alpha", type=float, help="confidence level (default 0.05)")
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
        choices=("averaged", "identity"),
        help="recorded in the report; contributions do not depend on the metric",
    )
    add_common(scan, with_analysis_flags=False)

    return parser


def _setting(args: argparse.Namespace, file_values: dict[str, str], flag: str, key: str):
    value = getattr(args, flag, None)
    if value is not None:
        return value
    return file_values.get(key)


def _build_config(args: argparse.Namespace) -> AnalysisConfig:
    config_path = getattr(args, "config", None) or os.environ.get(CONFIG_ENV_VAR)
    file_values: dict[str, str] = {}
    if config_path:
        file_values = _read_config_file(config_path)

    lam_text = _setting(args, file_values, "lam", "lambda")
    lam = resolve_lambda(lam_text) if lam_text is not None else 1.0
    alpha_raw = _setting(args, file_values, "alpha", "alpha")
    alpha = _parse_alpha(alpha_raw) if alpha_raw is not None else 0.05
    metric = _setting(args, file_values, "metric", "metric")
    if metric is None:
        metric = "identity" if args.command == "matched" else "averaged"
    dims_raw = _setting(args, file_values, "dims", "dims")
    dims = _parse_dims(dims_raw) if isinstance(dims_raw, str) else (dims_raw or (1, 2))
    output_format = _setting(args, file_values, "format", "format") or "json"
    svg_path = _setting(args, file_values, "svg", "svg")
    plot_axes = _setting(args, file_values, "axes", "axes") or "rows"
    if plot_axes not in ("rows", "columns", "both"):
        raise InputError(f"axes must be rows, columns, or both, got {plot_axes!r}")
    if metric not in ("averaged", "identity"):
        raise InputError(f"metric must be averaged or identity, got {metric!r}")
    if output_format not in ("json", "csv"):
        raise InputError(f"format must be json or csv, got {output_format!r}")
    return AnalysisConfig(
        lam=lam,
        alpha=alpha,
        metric=metric,
        output_format=output_format,
        svg_path=svg_path,
        dims=dims,
        plot_axes=plot_axes,
    )


def _emit(report: AnalysisReport, config: AnalysisConfig, output: str | None) -> None:
    text = render_report(report, config.output_format)
    if output:
        out_path = Path(output)
        out_path.write_text(text, encoding="utf-8")
        if config.output_format == "csv":
            # full-precision companion next to the rounded CSV
            out_path.with_suffix(".json").write_text(report.to_json(), encoding="utf-8")
    else:
        sys.stdout.write(text)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _build_config(args)
        if args.command == "analyze":
            report = run_analyze(config, load_table(args.table))
        elif args.command == "matched":
            report = run_matched(config, load_table(args.table1), load_table(args.table2))
        elif args.command == "bowker":
            report = run_bowker(config, load_table(args.table))
        else:
            grid = _parse_grid(args.grid) if args.grid else default_lambda_grid()
            report = run_scan(config, load_table(args.table), grid)
        _emit(report, config, getattr(args, "output", None))
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AnalysisError, SkewcaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
