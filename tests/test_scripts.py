"""The example scripts reproduce the tracked reports and plots in out/.

Both scripts are rerun into a temporary directory. Their JSON reports must
match the tracked ones in structure, strings, integers and booleans, with
floats equal to 1e-12 relative (an absolute floor of 1e-15 admits the
rounding noise around exact zeros); their SVG plots must match byte for
byte. Run as programs, they write into out/ under the directory they run
from and leave the repository's own out/ untouched.
"""

import json
import math
import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ("coffee_analysis.py", "matched_opinions.py")


def assert_same(ours, golden, where: str) -> None:
    if isinstance(golden, dict):
        assert isinstance(ours, dict) and ours.keys() == golden.keys(), where
        for key in golden:
            assert_same(ours[key], golden[key], f"{where}.{key}")
    elif isinstance(golden, list):
        assert isinstance(ours, list) and len(ours) == len(golden), where
        for i, (a, b) in enumerate(zip(ours, golden)):
            assert_same(a, b, f"{where}[{i}]")
    elif isinstance(golden, float):
        assert isinstance(ours, float), where
        assert math.isclose(ours, golden, rel_tol=1e-12, abs_tol=1e-15), (where, ours, golden)
    else:
        assert type(ours) is type(golden) and ours == golden, (where, ours, golden)


def test_scripts_reproduce_tracked_out(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for script in SCRIPTS:
        runpy.run_path(str(ROOT / "scripts" / script))["main"]()
    capsys.readouterr()
    golden_dir, ours_dir = ROOT / "out", tmp_path / "out"
    names = sorted(path.name for path in golden_dir.iterdir())
    assert sorted(path.name for path in ours_dir.iterdir()) == names
    for name in names:
        golden, ours = golden_dir / name, ours_dir / name
        if name.endswith(".svg"):
            assert ours.read_bytes() == golden.read_bytes(), name
        else:
            assert_same(json.loads(ours.read_text()), json.loads(golden.read_text()), name)


def test_scripts_write_under_the_directory_they_run_from(tmp_path, monkeypatch, capsys):
    def snapshot(directory: Path) -> dict:
        return {path.name: (path.read_bytes(), path.stat().st_mtime_ns) for path in directory.iterdir()}

    tracked = snapshot(ROOT / "out")
    monkeypatch.chdir(tmp_path)
    for script in SCRIPTS:
        runpy.run_path(str(ROOT / "scripts" / script), run_name="__main__")
    capsys.readouterr()
    assert sorted(snapshot(tmp_path / "out")) == sorted(tracked)
    assert snapshot(ROOT / "out") == tracked
