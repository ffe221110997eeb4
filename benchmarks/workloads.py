"""Inputs and operation lists of the benchmark's three workloads.

Everything here depends only on numpy and the seed, so the process that
runs the operations and the process that checks them build identical
inputs. A workload is a fixed list of operations (one pass); the seed
draws the counts of the generated tables but never the sizes or kinds,
so every seed costs about the same.

The lists are laid out so that the median and the 90th percentile of the
operation latencies fall inside a run of operations of one size and kind,
not on the edge between two sizes: that keeps ``op_p50_ms`` and
``op_p90_ms`` from jumping when a run completes one pass more or less.
"""

from __future__ import annotations

import io
import csv
from dataclasses import dataclass

import numpy as np

# the paper's four named divergences
LAMBDAS = {"hellinger": -0.5, "kl": 0.0, "cressie-read": 2.0 / 3.0, "pearson": 1.0}
LAMBDA_NAMES = tuple(LAMBDAS)

# R = q + 1 for the primes q = 3 (mod 4) that give a skew Paley conference matrix
PALEY_SIZES = (4, 8, 12, 20, 24, 32, 44, 48, 60, 68, 72, 80)

WORKLOADS = ("paper_cli", "large_tables", "measure_screen")


@dataclass(frozen=True)
class Table:
    kind: str  # dense, sparse, odd, cyclic, or data
    labels: tuple[str, ...]
    counts: np.ndarray

    @property
    def size(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class Op:
    """One operation of a pass.

    ``kind`` is ``analyze`` or ``matched`` (in-process report pipelines),
    ``screen`` (parse CSV text and compute the test and the measure at the
    four named lambdas), or ``cli`` (one command line run). ``scale`` is
    the integer factor of the sample-size invariance check.
    """

    label: str
    kind: str
    tables: tuple[Table, ...] = ()
    lam: float = 1.0
    metric: str = "averaged"
    scale: int = 2
    text: str = ""
    argv: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()  # files a command writes besides its standard output


def _labels(size: int) -> tuple[str, ...]:
    return tuple(f"c{i:03d}" for i in range(size))


def _dense(rng: np.random.Generator, size: int) -> np.ndarray:
    counts = rng.integers(1, 60, size=(size, size))
    counts[np.diag_indices(size)] += rng.integers(20, 200, size=size)
    return counts


def _sparse(rng: np.random.Generator, size: int) -> np.ndarray:
    """About 60% empty off-diagonal cells, so about a third of the pairs are empty."""
    counts = _dense(rng, size)
    mask = rng.random((size, size)) < 0.6
    np.fill_diagonal(mask, False)
    counts[mask] = 0
    counts[0, 1] += 1  # never fully diagonal
    return counts


def _cyclic(rng: np.random.Generator, size: int) -> np.ndarray:
    """Circulant Paley tournament: every pair departs equally, so all singular values are equal.

    With q = size - 1 prime and q = 3 (mod 4), the quadratic-residue sign
    pattern chi(j - i), bordered by a row of +1, is a skew-symmetric
    matrix C with C C^T = q I. Every off-diagonal pair holds (heavy,
    light) counts in the direction C gives, so the skew matrix is a
    multiple of C. Categories are relabelled by a random permutation.
    """
    q = size - 1
    residues = {(x * x) % q for x in range(1, q)}
    chi = np.array([0] + [1 if d in residues else -1 for d in range(1, q)])
    sign = np.zeros((size, size), dtype=np.int64)
    sign[0, 1:] = 1
    sign[1:, 0] = -1
    sign[1:, 1:] = chi[(np.arange(q)[None, :] - np.arange(q)[:, None]) % q]
    middle = int(rng.integers(20, 60))
    spread = int(rng.integers(1, middle))
    counts = np.where(sign > 0, middle + spread, middle - spread)
    np.fill_diagonal(counts, rng.integers(0, 100, size=size))
    perm = rng.permutation(size)
    return counts[np.ix_(perm, perm)]


_MAKERS = {"dense": _dense, "sparse": _sparse, "odd": _dense, "cyclic": _cyclic}


def make_table(rng: np.random.Generator, kind: str, size: int) -> Table:
    if kind == "cyclic" and size not in PALEY_SIZES:
        raise ValueError(f"no cyclic table of size {size}")
    if kind == "odd" and size % 2 == 0:
        raise ValueError(f"odd table of even size {size}")
    return Table(kind, _labels(size), _MAKERS[kind](rng, size).astype(np.int64))


def csv_text(table: Table) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([""] + list(table.labels))
    for label, row in zip(table.labels, table.counts):
        writer.writerow([label] + [int(x) for x in row])
    return out.getvalue()


def read_csv_table(path, kind: str = "data") -> Table:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = [row for row in csv.reader(handle) if row]
    labels = tuple(cell.strip() for cell in rows[0][1:])
    counts = np.array([[int(x) for x in row[1:]] for row in rows[1:]], dtype=np.int64)
    return Table(kind, labels, counts)


# (kind, R) of each operation, in cost order; comments give list positions
_LARGE_ANALYZE = (
    # 0-10; the cyclic tables have all singular values equal
    ("cyclic", 20), ("cyclic", 24), ("cyclic", 32), ("dense", 20), ("sparse", 20), ("odd", 21),
    ("sparse", 21), ("dense", 22), ("sparse", 22), ("odd", 23), ("sparse", 23),
    # 11-18: the median falls here
    *(("dense", 24),) * 8,
    # 19-24
    ("sparse", 28), ("odd", 29), ("dense", 30), ("cyclic", 60), ("odd", 35), ("dense", 40),
)
# 25-27: three matched R=20 pairs, where the 90th percentile falls;
# 28: analyze R=80 dense; 29: matched R=40
_LARGE_MATCHED = ((20,) * 3, 40)

_SMOKE_ANALYZE = (("cyclic", 8), ("dense", 6), ("sparse", 8), ("odd", 7), ("cyclic", 12))

_SCREEN_SIZES = (
    # 0-15
    ("dense", 5), ("sparse", 5), ("dense", 6), ("odd", 7), ("cyclic", 8), ("odd", 9),
    ("dense", 10), ("sparse", 10), ("odd", 11), ("cyclic", 12), ("odd", 13), ("sparse", 14),
    ("odd", 15), ("dense", 16), ("odd", 17), ("sparse", 18),
    # 16-23: the median falls here
    *(("dense", 24),) * 8,
    # 24-33
    ("sparse", 30), ("cyclic", 32), ("dense", 42), ("cyclic", 48), ("odd", 55),
    ("sparse", 60), ("odd", 67), ("cyclic", 72), ("dense", 80), ("sparse", 90),
    # 34-37: the 90th percentile falls here
    *(("dense", 100),) * 4,
    # 38-39
    ("sparse", 150), ("dense", 200),
)

_SMOKE_SCREEN = (("dense", 5), ("sparse", 6), ("odd", 7), ("cyclic", 8), ("dense", 20))


def large_tables_ops(seed: int, smoke: bool = False) -> list[Op]:
    """run_analyze + to_json on R = 20..80 and run_matched on R = 20..40."""
    rng = np.random.default_rng([seed, 2])
    specs = _SMOKE_ANALYZE if smoke else _LARGE_ANALYZE
    ops = []
    for k, (kind, size) in enumerate(specs):
        name = LAMBDA_NAMES[k % 4]
        ops.append(
            Op(
                label=f"analyze-{kind}-{size}-{name}",
                kind="analyze",
                tables=(make_table(rng, kind, size),),
                lam=LAMBDAS[name],
                scale=2 + k % 5,
            )
        )
    small_matched, big_matched = ((6,), 8) if smoke else _LARGE_MATCHED

    def matched(size: int, k: int) -> Op:
        kinds = ("dense", "sparse") if k % 2 else ("dense", "dense")
        return Op(
            label=f"matched-{size}-{LAMBDA_NAMES[k % 4]}",
            kind="matched",
            tables=tuple(make_table(rng, kind, size) for kind in kinds),
            lam=LAMBDAS[LAMBDA_NAMES[k % 4]],
            metric="identity",
        )

    ops += [matched(size, k) for k, size in enumerate(small_matched)]
    if not smoke:
        ops.append(Op(label="analyze-dense-80-pearson", kind="analyze",
                      tables=(make_table(rng, "dense", 80),), lam=1.0, scale=3))
    ops.append(matched(big_matched, 1))
    return ops


def measure_screen_ops(seed: int, smoke: bool = False) -> list[Op]:
    """Parse, validate, test and measure many tables with R = 5..200."""
    rng = np.random.default_rng([seed, 3])
    ops = []
    for k, (kind, size) in enumerate(_SMOKE_SCREEN if smoke else _SCREEN_SIZES):
        table = make_table(rng, kind, size)
        ops.append(
            Op(
                label=f"screen-{kind}-{size}",
                kind="screen",
                tables=(table,),
                lam=LAMBDAS[LAMBDA_NAMES[k % 4]],  # lambda of the scaling check
                scale=2 + k % 5,
                text=csv_text(table),
            )
        )
    return ops


def paper_cli_ops(seed: int, data_dir, work_dir) -> list[Op]:
    """The paper's analyses as command lines on the bundled tables, in a seed-drawn order."""
    coffee = read_csv_table(f"{data_dir}/coffee.csv")
    teens = read_csv_table(f"{data_dir}/opinions_teens.csv")
    adults = read_csv_table(f"{data_dir}/opinions_adults.csv")
    src = f"{work_dir}/coffee.csv"
    ops = [
        Op(label=f"analyze-{name}-svg", kind="cli", tables=(coffee,), lam=lam,
           argv=("analyze", src, "--lambda", name, "--svg", f"{work_dir}/coffee_{name}.svg"),
           outputs=(f"{work_dir}/coffee_{name}.svg",))
        for name, lam in LAMBDAS.items()
    ]
    ops += [
        Op(label="analyze-kl-csv", kind="cli", tables=(coffee,), lam=0.0,
           argv=("analyze", src, "--lambda", "kl", "--format", "csv",
                 "-o", f"{work_dir}/coffee_kl.csv"),
           outputs=(f"{work_dir}/coffee_kl.csv", f"{work_dir}/coffee_kl.json")),
        Op(label="bowker", kind="cli", tables=(coffee,), argv=("bowker", src)),
        Op(label="matched-pearson-svg", kind="cli", tables=(teens, adults), lam=1.0,
           metric="identity",
           argv=("matched", f"{work_dir}/opinions_teens.csv", f"{work_dir}/opinions_adults.csv",
                 "--lambda", "pearson", "--svg", f"{work_dir}/opinions.svg"),
           outputs=(f"{work_dir}/opinions_sum.svg", f"{work_dir}/opinions_difference.svg")),
        # two scans, so that the 90th percentile falls among the scans, not on
        # the edge between the slowest other command and the fastest scan
        Op(label="scan", kind="cli", tables=(coffee,), argv=("scan", src)),
        Op(label="scan-identity", kind="cli", tables=(coffee,),
           argv=("scan", src, "--metric", "identity")),
    ]
    order = np.random.default_rng([seed, 1]).permutation(len(ops))
    return [ops[i] for i in order]


def warmup_indices(ops: list[Op]) -> list[int]:
    """The cheapest operation of each kind (CLI commands: of each subcommand and output form)."""
    best: dict[str, int] = {}
    for i, op in enumerate(ops):
        key = op.kind if op.kind != "cli" else op.label.split("-")[0] + ("-csv" if "csv" in op.label else "")
        cost = sum(t.size for t in op.tables)
        if key not in best or cost < sum(t.size for t in ops[best[key]].tables):
            best[key] = i
    return sorted(best.values())
