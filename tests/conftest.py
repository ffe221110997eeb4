"""Shared fixtures and independent oracle implementations.

The oracle functions here recompute everything from the raw formulas with
plain loops and numpy.linalg (LAPACK) factorizations of S or -S^2; the
package itself pairs the singular vectors from a Hermitian eigensolve of
i S, so agreement between the two is a real cross-check, not a tautology.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from skewca import chisquare
from skewca.divergence import departures, require_lambda
from skewca.reporting import AnalysisReport
from skewca.table import CategoryPairs, validate_table
from skewca.tableio import load_table

DATA = Path(__file__).resolve().parent.parent / "data"

# a pair of 2^53 + 1 against 2^53: distinct in int64, one double once divided by n
COUNTS_PAST_DOUBLE_PRECISION = [[0, 2**53 + 1, 5], [2**53, 0, 5], [5, 5, 0]]
# an asymmetric table whose measure underflows to 0 at lam = 1000 but not at lam = 700
COUNTS_UNDERFLOWING = [[0, 10**15 + 1, 5], [10**15, 0, 5], [5, 5, 0]]


def abc_table(counts):
    return validate_table(["a", "b", "c"], counts)


def abc_csv(path: Path, counts) -> Path:
    """Write a 3x3 table over the labels a, b, c as CSV and return its path."""
    rows = "".join(f"{label},{','.join(map(str, row))}\n" for label, row in zip("abc", counts))
    path.write_text(",a,b,c\n" + rows, encoding="utf-8")
    return path

# ---------------------------------------------------------------- fixtures


@pytest.fixture(scope="session")
def coffee():
    return load_table(DATA / "coffee.csv")


@pytest.fixture(scope="session")
def opinions():
    return load_table(DATA / "opinions_teens.csv"), load_table(DATA / "opinions_adults.csv")


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(autouse=True)
def reports_round_trip_through_json(monkeypatch):
    """Every report a test builds must read back from ``to_json`` as its own ``to_dict``.

    A tuple, which JSON reads back as a list, or a value JSON cannot write
    fails here, whichever test built the report.
    """
    built = []
    init = AnalysisReport.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(AnalysisReport, "__init__", recording_init)
    yield
    for report in built:
        assert json.loads(report.to_json()) == report.to_dict(), report.command


# ------------------------------------------------------- oracle functions


def oracle_phi_cell(p: np.ndarray, lam: float, i: int, j: int) -> float:
    """Per-cell departure straight from the defining formula."""
    delta = p.sum() - np.trace(p)
    a, b = p[i, j], p[j, i]
    if a + b == 0 or a == b:
        return 0.0
    pre = (a + b) / (2.0 * delta)
    pc, qc = a / (a + b), b / (a + b)
    if abs(lam) < 1e-10:
        ent = sum(s * math.log(s) for s in (pc, qc) if s > 0)
        return pre * (1.0 + ent / math.log(2.0))
    h = (1.0 - pc ** (lam + 1.0) - qc ** (lam + 1.0)) / lam
    coef = lam * 2.0**lam / (2.0**lam - 1.0)
    return max(pre * (1.0 - coef * h), 0.0)


def oracle_phi_total(p: np.ndarray, lam: float) -> float:
    size = p.shape[0]
    return sum(
        oracle_phi_cell(p, lam, i, j) for i in range(size) for j in range(size) if i != j
    )


def oracle_phi_divergence_form(p: np.ndarray, lam: float) -> float:
    """The divergence-definition route, with the textbook (not expm1) arithmetic."""
    delta = p.sum() - np.trace(p)
    size = p.shape[0]
    total = 0.0
    for i in range(size):
        for j in range(size):
            if i == j or p[i, j] == 0:
                continue
            star = p[i, j] / delta
            sym = (p[i, j] + p[j, i]) / (2.0 * delta)
            if abs(lam) < 1e-10:
                total += star * math.log(star / sym)
            else:
                total += star * ((star / sym) ** lam - 1.0)
    if abs(lam) < 1e-10:
        return total / math.log(2.0)
    return total / (2.0**lam - 1.0)


def chi_square_cdf(dof: int, x: float) -> float:
    """Chi-square CDF, the lower tail of the package's one tail split; the round-trip
    oracle of the quantile, which nothing in the package itself calls."""
    return chisquare._tails(dof, x)[0]


def pair_departures(a: np.ndarray, b: np.ndarray, delta: float, lams):
    """The package's ``departures`` of the pairs (a[k], b[k]) normalized by ``delta``,
    each lam checked first: the kernel's entry from raw pairs, without a table."""
    lams = [require_lambda(lam) for lam in np.ravel(lams)]
    return departures(CategoryPairs(a + b, a - b, delta), lams)


def oracle_skew(p: np.ndarray, lam: float) -> np.ndarray:
    size = p.shape[0]
    s = np.zeros((size, size))
    for i in range(size):
        for j in range(size):
            if i != j:
                s[i, j] = np.sign(p[i, j] - p[j, i]) * math.sqrt(
                    oracle_phi_cell(p, lam, i, j)
                )
    return s


def oracle_metric_weights(p: np.ndarray) -> np.ndarray:
    return ((p.sum(axis=1) + p.sum(axis=0)) / 2.0) ** -0.5


def oracle_origin_distances(p: np.ndarray, lam: float) -> np.ndarray:
    """Row distances as metric weight times skew row norm (metric-form identity)."""
    s = oracle_skew(p, lam)
    return oracle_metric_weights(p) * np.linalg.norm(s, axis=1)


def oracle_plane_coords(p: np.ndarray, lam: float) -> np.ndarray:
    """Dims 1-2 row coordinates from LAPACK, in an arbitrary rotation gauge.

    Only gauge-invariant functions of the result (norms, angles, pairwise
    dot products) are comparable across implementations.
    """
    s = oracle_skew(p, lam)
    gram = -s @ s
    eigvals, eigvecs = np.linalg.eigh(gram)
    order = np.argsort(eigvals)[::-1]
    eigvals, eigvecs = eigvals[order], eigvecs[:, order]
    mu1 = math.sqrt(max(eigvals[0], 0.0))
    return oracle_metric_weights(p)[:, None] * eigvecs[:, :2] * mu1


def oracle_reconstruct(svd) -> np.ndarray:
    """U D V^T from a paired SVD's factors."""
    return (svd.left_vectors * svd.singular_values) @ svd.right_vectors.T


def block_components(m) -> list[str]:
    """The component of each block dimension of a matched analysis, "sum" or "difference"."""
    return ["sum" if i < m.size else "difference" for i in m.block_order]


def oracle_block_rotation(n_dims: int) -> np.ndarray:
    """J, the block-diagonal orthogonal skew matrix of [[0, 1], [-1, 0]] blocks."""
    j = np.zeros((n_dims, n_dims))
    for k in range(n_dims // 2):
        j[2 * k, 2 * k + 1] = 1.0
        j[2 * k + 1, 2 * k] = -1.0
    return j


def oracle_table_csv(table) -> str:
    """A table's CSV form: a header with an empty corner cell, then one labelled row each."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([""] + list(table.labels))
    for label, row in zip(table.labels, table.counts):
        writer.writerow([label] + [int(x) for x in row])
    return out.getvalue()


def oracle_bowker(counts: np.ndarray) -> tuple[float, int]:
    size = counts.shape[0]
    stat = 0.0
    for i in range(size):
        for j in range(i + 1, size):
            tot = counts[i, j] + counts[j, i]
            if tot > 0:
                stat += (counts[i, j] - counts[j, i]) ** 2 / tot
    return float(stat), size * (size - 1) // 2


def random_table(rng: np.random.Generator, size: int, high: int = 30):
    """Random table with guaranteed off-diagonal mass."""
    while True:
        counts = rng.integers(0, high, size=(size, size))
        off = counts.copy()
        np.fill_diagonal(off, 0)
        if off.sum() > 0:
            labels = [f"c{k}" for k in range(size)]
            return validate_table(labels, counts)


def planted_skew(basis, values):
    """Sum of mu_k (q_2k q_2k+1^T - q_2k+1 q_2k^T) over orthonormal columns q."""
    s = np.zeros((basis.shape[0], basis.shape[0]))
    for k, mu in enumerate(values):
        a, b = basis[:, 2 * k], basis[:, 2 * k + 1]
        s += mu * (np.outer(a, b) - np.outer(b, a))
    return s


def symmetrized(table):
    return validate_table(table.labels, table.counts + table.counts.T)


def one_sided(table):
    """Zero the smaller side of every off-diagonal pair (ties keep the upper)."""
    counts = table.counts.copy()
    size = counts.shape[0]
    for i in range(size):
        for j in range(i + 1, size):
            if counts[i, j] >= counts[j, i]:
                counts[j, i] = 0
            else:
                counts[i, j] = 0
    return validate_table(table.labels, counts)


# -------------------------------------------- acceptance criteria summary

ACCEPTANCE_RESULTS: list[tuple[int, str, bool]] = []


def record_criterion(number: int, description: str, passed: bool) -> None:
    ACCEPTANCE_RESULTS.append((number, description, passed))
    print(f"criterion {number:2d} {'PASS' if passed else 'FAIL'}: {description}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, description, passed in sorted(ACCEPTANCE_RESULTS):
        terminalreporter.write_line(
            f"criterion {number:2d} {'PASS' if passed else 'FAIL'}: {description}"
        )
