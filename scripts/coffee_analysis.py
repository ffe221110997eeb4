#!/usr/bin/env python3
"""Run the coffee brand-switching analysis at the four named divergences.

Writes one JSON report and one SVG plot per divergence, plus a lam grid
scan, into out/ under the current directory. Reports record the SVG path
relative to that directory (out/coffee_pearson.svg), so they do not depend
on where the checkout lives. Run from the repository root, it regenerates
the tracked out/:

    python scripts/coffee_analysis.py
"""

import json
from pathlib import Path

import numpy as np

from skewca import AnalysisConfig, run_analyze, run_scan
from skewca.divergence import NAMED_DIVERGENCES
from skewca.tableio import load_table

ROOT = Path(__file__).resolve().parent.parent
OUT = Path("out")


def write_report(name: str, report) -> None:
    """Write a report into out/ indented, so that a change to the tracked copy reads as a diff."""
    text = json.dumps(report.to_dict(), indent=2, sort_keys=True, allow_nan=False) + "\n"
    (OUT / name).write_text(text, encoding="utf-8")


def main() -> None:
    """Write the reports into out/ under the current directory."""
    OUT.mkdir(exist_ok=True)
    table = load_table(ROOT / "data" / "coffee.csv")
    for name, lam in sorted(NAMED_DIVERGENCES.items()):
        config = AnalysisConfig(lam=lam, svg_path=(OUT / f"coffee_{name}.svg").as_posix())
        report = run_analyze(config, table)
        write_report(f"coffee_{name}.json", report)
        dec = report.decomposition
        dists = report.coordinates["row_origin_distances"]
        closest = table.labels[int(np.argmin(dists))]
        print(
            f"{name:12s} lam={lam:+.4f} phi={report.asymmetry['phi_total']:.6f} "
            f"dims 1-2 carry {dec['contributions'][0] + dec['contributions'][1]:.2f}% "
            f"closest to origin: {closest}"
        )

    scan_report = run_scan(AnalysisConfig(), table)
    write_report("coffee_scan.json", scan_report)
    print(
        f"scan: best lam {scan_report.scan['best_lambda']:+.2f} with "
        f"{scan_report.scan['best_contribution']:.2f}% on dims 1-2"
    )


if __name__ == "__main__":
    main()
