#!/usr/bin/env python3
"""Joint sum/difference analysis of the matched opinion tables.

The two groups differ five-fold in sample size; the measure-based scaling
makes their skew matrices directly comparable anyway. Writes the report
and the two component plots into out/ under the current directory; the
report records the SVG path relative to it (out/opinions.svg). Run from the
repository root, it regenerates the tracked out/:

    python scripts/matched_opinions.py
"""

import json
from pathlib import Path

import numpy as np

from skewca import AnalysisConfig, run_matched
from skewca.tableio import load_table

ROOT = Path(__file__).resolve().parent.parent
OUT = Path("out")


def main() -> None:
    """Write the report and plots into out/ under the current directory."""
    OUT.mkdir(exist_ok=True)
    t1 = load_table(ROOT / "data" / "opinions_teens.csv")
    t2 = load_table(ROOT / "data" / "opinions_adults.csv")
    config = AnalysisConfig(lam=1.0, metric="identity", svg_path=(OUT / "opinions.svg").as_posix())
    report = run_matched(config, t1, t2)
    # indented, so that a change to the tracked copy reads as a diff
    text = json.dumps(report.to_dict(), indent=2, sort_keys=True, allow_nan=False) + "\n"
    (OUT / "opinions_matched.json").write_text(text, encoding="utf-8")

    matched = report.matched
    values = np.array(matched["block_singular_values"])
    tags = [c["component"] for c in matched["dimension_classes"]]
    print("block singular values:", np.round(values, 3))
    print("component per dimension:", tags)
    sum_d = np.linalg.norm(np.array(matched["sum_rows"])[:, :2], axis=1)
    diff_d = np.linalg.norm(np.array(matched["difference_rows"])[:, :2], axis=1)
    for i, label in enumerate(report.table["labels"]):
        print(
            f"category {label}: shared-asymmetry distance {sum_d[i]:.3f}, "
            f"between-group distance {diff_d[i]:.3f}"
        )


if __name__ == "__main__":
    main()
