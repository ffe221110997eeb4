import decimal
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    one_sided,
    oracle_bowker,
    oracle_phi_cell,
    oracle_phi_divergence_form,
    oracle_phi_total,
    pair_departures,
    random_table,
    symmetrized,
)
from skewca import divergence
from skewca.divergence import (
    LAMBDA_ZERO_TOL,
    NAMED_DIVERGENCES,
    asymmetry_measure,
    bowker_statistic,
    power_divergence_scale,
    power_divergence_statistic,
)
from skewca.errors import AnalysisError, InputError
from skewca.table import upper_triangle, validate_table

LAMBDA_GRID = (-0.9, -0.5, 0.0, 0.5, 2.0 / 3.0, 1.0, 2.0, 5.0)


def table22(a, b):
    return validate_table(["x", "y"], [[0, a], [b, 0]])


# ------------------------------------------------------------------ bowker


def test_bowker_symmetric_table_is_zero():
    res = bowker_statistic(validate_table(["a", "b"], [[1, 2], [2, 1]]))
    assert res.statistic == 0.0
    assert res.dof == 1
    assert res.p_value == 1.0


def test_bowker_2x2_closed_form():
    res = bowker_statistic(table22(3, 1))
    assert res.statistic == pytest.approx(1.0, abs=1e-15)
    assert res.dof == 1


def test_bowker_coffee_against_brute_force(coffee):
    oracle_stat, oracle_dof = oracle_bowker(coffee.counts.astype(float))
    res = bowker_statistic(coffee)
    assert res.statistic == pytest.approx(oracle_stat, abs=1e-12)
    assert res.statistic == pytest.approx(20.41235813366961, abs=1e-10)
    assert res.dof == oracle_dof == 10
    assert res.p_value == pytest.approx(0.025585065792773316, abs=1e-9)


def test_bowker_skips_empty_pairs():
    # only the (1,2) pair carries observations
    res = bowker_statistic(validate_table(["a", "b", "c"], [[0, 3, 0], [1, 0, 0], [0, 0, 0]]))
    assert res.statistic == pytest.approx(1.0)
    assert res.dof == 3


# ---------------------------------------------------------- cell departure


def test_equal_pair_has_zero_departure():
    p = validate_table(["a", "b"], [[5, 7], [7, 2]])
    for lam in LAMBDA_GRID:
        assert asymmetry_measure(p, lam).phi_cells[0, 1] == 0.0


def test_2x2_pearson_cell_value():
    p = table22(3, 1)
    assert asymmetry_measure(p, 1.0).phi_cells[0, 1] == pytest.approx(0.125, abs=1e-15)
    assert asymmetry_measure(p, 1.0).phi_cells[1, 0] == pytest.approx(0.125, abs=1e-15)
    # the two directions are the same float
    assert asymmetry_measure(p, 1.0).phi_cells[0, 1] == asymmetry_measure(p, 1.0).phi_cells[1, 0]


def test_cell_departure_errors():
    p = table22(3, 1)
    with pytest.raises(InputError, match="lam must be a finite number > -1, got -1.0"):
        asymmetry_measure(p, -1.0).phi_cells[0, 1]
    diag = validate_table(["a", "b"], [[5, 0], [0, 5]])
    with pytest.raises(AnalysisError, match="all mass on the diagonal: asymmetry is undefined"):
        asymmetry_measure(diag, 1.0).phi_cells[0, 1]


def test_zero_pair_cell_returns_zero_and_is_recorded():
    t = validate_table(["a", "b", "c"], [[0, 3, 0], [1, 0, 0], [0, 0, 0]])
    assert asymmetry_measure(t, 1.0).phi_cells[1, 2] == 0.0
    profile = asymmetry_measure(t, 1.0)
    assert (1, 2) in profile.zero_pair_cells
    assert (0, 2) in profile.zero_pair_cells


# ------------------------------------------------------- asymmetry measure


def test_symmetric_table_measures_zero():
    p = validate_table(["a", "b", "c"], [[1, 2, 3], [2, 5, 1], [3, 1, 4]])
    for lam in (2.0 / 3.0, -0.5, 0.0, 1.0):
        assert asymmetry_measure(p, lam).phi_total == 0.0


def test_2x2_pearson_total():
    p = table22(3, 1)
    profile = asymmetry_measure(p, 1.0)
    assert profile.phi_total == pytest.approx(0.25, abs=1e-15)
    assert p.delta == 1.0


def test_one_sided_table_measures_one():
    for lam in LAMBDA_GRID:
        p = validate_table(["a", "b"], [[0, 7], [0, 0]])
        assert asymmetry_measure(p, lam).phi_total == pytest.approx(1.0, abs=1e-14)


def test_degenerate_table_raises():
    p = validate_table(["a", "b"], [[5, 0], [0, 5]])
    with pytest.raises(AnalysisError, match="all mass on the diagonal: asymmetry is undefined"):
        asymmetry_measure(p, 1.0)


def test_profile_matches_cell_oracle(coffee):
    for lam in LAMBDA_GRID:
        profile = asymmetry_measure(coffee, lam)
        for i in range(5):
            for j in range(5):
                if i != j:
                    expected = oracle_phi_cell(np.asarray(coffee.p), lam, i, j)
                    assert profile.phi_cells[i, j] == pytest.approx(expected, abs=1e-13)
        assert profile.phi_total == pytest.approx(oracle_phi_total(np.asarray(coffee.p), lam), abs=1e-12)


def test_phi_cells_symmetric_and_sum(rng):
    for _ in range(25):
        t = random_table(rng, int(rng.integers(2, 6)))
        lam = float(rng.uniform(-0.95, 4.0))
        profile = asymmetry_measure(t, lam)
        assert np.array_equal(profile.phi_cells, profile.phi_cells.T)
        assert np.all(profile.phi_cells >= 0.0)
        assert np.all(np.diag(profile.phi_cells) == 0.0)
        off_sum = float(profile.phi_cells.sum())
        assert abs(off_sum - profile.phi_total) <= 1e-12


def test_dual_formula_agreement_on_random_tables(rng):
    for _ in range(40):
        t = random_table(rng, int(rng.integers(2, 6)))
        for lam in LAMBDA_GRID:
            profile = asymmetry_measure(t, lam)
            oracle = oracle_phi_divergence_form(np.asarray(t.p), lam)
            assert abs(profile.phi_total - oracle) <= 1e-12


def test_theorem_bounds_on_random_tables(rng):
    for _ in range(40):
        t = random_table(rng, int(rng.integers(3, 6)))
        for lam in LAMBDA_GRID:
            phi = asymmetry_measure(t, lam).phi_total
            assert 0.0 <= phi <= 1.0
        sym = symmetrized(t)
        assert asymmetry_measure(sym, 1.0).phi_total == 0.0
        lop = one_sided(t)
        assert asymmetry_measure(lop, 0.5).phi_total == pytest.approx(1.0, abs=1e-12)


def test_continuity_at_zero(rng):
    for _ in range(20):
        t = random_table(rng, int(rng.integers(2, 6)))
        base = asymmetry_measure(t, 0.0).phi_total
        assert abs(asymmetry_measure(t, 1e-6).phi_total - base) < 1e-4
        assert abs(asymmetry_measure(t, -1e-6).phi_total - base) < 1e-4


def test_sample_size_invariance(coffee):
    for k in (2, 10, 100):
        p2 = coffee.scaled(k)
        for lam in (-0.5, 0.0, 1.0):
            a = asymmetry_measure(coffee, lam).phi_total
            b = asymmetry_measure(p2, lam).phi_total
            assert abs(a - b) <= 1e-12


@given(st.integers(1, 30), st.integers(1, 30), st.sampled_from(LAMBDA_GRID))
@settings(max_examples=80)
def test_2x2_measure_range(a, b, lam):
    p = table22(a, b)
    phi = asymmetry_measure(p, lam).phi_total
    assert 0.0 <= phi <= 1.0
    if a == b:
        assert phi == 0.0
    else:
        assert phi > 0.0


# --------------------------------------------- power-divergence statistic


def test_statistic_zero_for_symmetric_table():
    t = validate_table(["a", "b", "c"], [[1, 2, 3], [2, 5, 1], [3, 1, 4]])
    for lam in (0.0, 0.5, 1.0):
        assert power_divergence_statistic(t, lam) == pytest.approx(0.0, abs=1e-14)


def test_statistic_2x2_pearson_equals_bowker():
    # direct evaluation oracle: 2n I at lam=1 reduces to the symmetry
    # chi-square statistic, here (3-1)^2/(3+1) = 1
    t = table22(3, 1)
    assert power_divergence_statistic(t, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_statistic_matches_bowker_at_pearson(coffee, rng):
    assert power_divergence_statistic(coffee, 1.0) == pytest.approx(
        bowker_statistic(coffee).statistic, abs=1e-10
    )
    for _ in range(10):
        t = random_table(rng, int(rng.integers(2, 6)))
        assert power_divergence_statistic(t, 1.0) == pytest.approx(
            bowker_statistic(t).statistic, rel=1e-12
        )


def test_statistic_identity_with_measure(coffee):
    for lam in LAMBDA_GRID:
        stat = power_divergence_statistic(coffee, lam)
        profile = asymmetry_measure(coffee, lam)
        expected = 2.0 * coffee.n * coffee.delta * profile.phi_total / power_divergence_scale(lam)
        assert stat == pytest.approx(expected, rel=1e-10)


def test_scale_factor_branches():
    assert power_divergence_scale(0.0) == pytest.approx(1.0 / math.log(2.0), rel=1e-15)
    assert power_divergence_scale(1.0) == pytest.approx(2.0, rel=1e-15)
    assert power_divergence_scale(-0.5) == pytest.approx(
        (-0.5 * 0.5) / (2.0**-0.5 - 1.0), rel=1e-14
    )
    # continuity across the branch point
    assert abs(power_divergence_scale(1e-9) - 1.0 / math.log(2.0)) < 1e-6


def test_lambda_validation():
    t = table22(3, 1)
    for bad in (-1.0, -2.0, float("nan"), float("inf")):
        with pytest.raises(InputError, match=f"lam must be a finite number > -1, got {bad}"):
            power_divergence_statistic(t, bad)


def test_extreme_lambda_overflow_is_a_clean_error():
    t = validate_table(["a", "b", "c"], [[0, 5, 2], [1, 0, 3], [4, 1, 0]])
    # still finite far into the tail of the usable range
    assert asymmetry_measure(t, 500.0).phi_total >= 0.0
    with pytest.raises(InputError, match="measure overflows double precision at lam=5000.0"):
        asymmetry_measure(t, 5000.0)
    with pytest.raises(InputError, match="measure overflows double precision at lam=5000.0"):
        power_divergence_statistic(t, 5000.0)
    # the measure stays finite (a cyclic table has Phi = 1), but the statistic
    # scales the divergence by 2n / (lam (lam + 1)) past double precision
    big = 10**15
    cyclic = validate_table(["a", "b", "c"], [[0, big, 0], [0, 0, big], [big, 0, 0]])
    assert asymmetry_measure(cyclic, 1000.0).phi_total == 1.0
    with pytest.raises(InputError, match="statistic overflows double precision at lam=1000.0"):
        power_divergence_statistic(cyclic, 1000.0)


def test_statistic_reuses_the_measure_of_its_table(coffee, rng, monkeypatch):
    calls = []
    kernel = divergence.departures
    monkeypatch.setattr(divergence, "departures", lambda *args: calls.append(args) or kernel(*args))
    lams = tuple(NAMED_DIVERGENCES.values())
    for source in (coffee, random_table(rng, 7)):
        t = validate_table(source.labels, source.counts)  # the session's coffee stays unmeasured
        calls.clear()
        for lam in lams:
            asymmetry_measure(t, lam)
        stats = [power_divergence_statistic(t, lam) for lam in lams]
        assert len(calls) == 4
        power_divergence_statistic(t, 3.0)
        power_divergence_statistic(t, 3.0)
        assert len(calls) == 5
        for lam, stat in zip(lams, stats):
            assert stat == power_divergence_statistic(validate_table(t.labels, t.counts), lam)


def test_measure_record_holds_floats_per_table(coffee):
    t = validate_table(coffee.labels, coffee.counts)
    profiles = [asymmetry_measure(t, lam) for lam in (-0.5, -0.0, 0.0, 2.0 / 3.0, np.float64(1))]
    record = t.pairs.measured
    assert list(record) == [-0.5, 0.0, 2.0 / 3.0, 1.0]
    assert math.copysign(1.0, list(record)[1]) == 1.0  # -0.0 is recorded as +0.0
    assert all(type(lam) is float and type(phi) is float for lam, phi in record.items())
    assert list(record.values()) == [profiles[k].phi_total for k in (0, 2, 3, 4)]
    assert t.scaled(2).pairs.measured == {}
    # a lam whose kernel raised records nothing, and the statistic raises the same error
    with pytest.raises(InputError, match="measure overflows double precision at lam=5000.0") as measure_error:
        asymmetry_measure(t, 5000.0)
    assert 5000.0 not in record
    with pytest.raises(InputError) as statistic_error:
        power_divergence_statistic(t, 5000.0)
    assert str(statistic_error.value) == str(measure_error.value)
    assert 5000.0 not in record
    # a recorded Phi still meets the statistic's own overflow check
    big = 10**15
    cyclic = validate_table(["a", "b", "c"], [[0, big, 0], [0, 0, big], [big, 0, 0]])
    assert asymmetry_measure(cyclic, 1000.0).phi_total == 1.0
    assert cyclic.pairs.measured == {1000.0: 1.0}
    with pytest.raises(InputError, match="statistic overflows double precision at lam=1000.0"):
        power_divergence_statistic(cyclic, 1000.0)


# ------------------------------------------------------ the measure kernel

LN2 = math.log(2.0)

# lam = 0, the band around the branch point, and ordinary values
KERNEL_LAMBDAS = (
    0.0, 1e-11, -1e-11, 1e-9, -1e-9,
    LAMBDA_ZERO_TOL, -LAMBDA_ZERO_TOL,
    math.nextafter(LAMBDA_ZERO_TOL, 0.0), math.nextafter(LAMBDA_ZERO_TOL, 1.0),
    0.999 * LAMBDA_ZERO_TOL, 1.001 * LAMBDA_ZERO_TOL, -1.001 * LAMBDA_ZERO_TOL,
    -0.99, -0.5, 2.0 / 3.0, 1.0, 3.0, 40.0,
)

# (a, b) pairs: ordinary, one-sided both ways, empty, equal, lopsided
KERNEL_PAIRS = (
    (3.0, 1.0), (1.0, 3.0), (5.0, 0.0), (0.0, 2.0), (0.0, 0.0), (4.0, 4.0), (1.0, 999.0),
)


def scalar_pair(a: float, b: float, delta: float, lam: float) -> float:
    """One pair's per-cell departure, one scalar at a time with the math module."""
    if a == b or a + b == 0.0:
        return 0.0
    prefactor = (a + b) / (2.0 * delta)
    s1 = a / (a + b)
    s2 = 1.0 - s1
    if abs(lam) < LAMBDA_ZERO_TOL:
        ent = sum(s * math.log(s) for s in (s1, s2) if s > 0.0)
        return max(prefactor * (1.0 + ent / LN2), 0.0)
    tail = -sum(s * math.expm1(lam * math.log(s)) for s in (s1, s2) if s > 0.0)
    return max(prefactor * (1.0 - (1.0 + 1.0 / math.expm1(lam * LN2)) * tail), 0.0)


def kernel_inputs():
    a = np.array([x for x, _ in KERNEL_PAIRS]) / 1024.0
    b = np.array([y for _, y in KERNEL_PAIRS]) / 1024.0
    return a, b, float((a + b).sum())


def test_kernel_matches_scalar_oracle():
    a, b, delta = kernel_inputs()
    cells, totals = pair_departures(a, b, delta, KERNEL_LAMBDAS)
    assert cells.shape == (len(KERNEL_LAMBDAS), len(KERNEL_PAIRS))
    for row, lam in enumerate(KERNEL_LAMBDAS):
        for k, (x, y) in enumerate(zip(a, b)):
            expected = scalar_pair(float(x), float(y), delta, lam)
            assert cells[row, k] == pytest.approx(expected, rel=1e-14, abs=1e-17)
        assert totals[row] == pytest.approx(2.0 * cells[row].sum(), abs=1e-15)


def test_kernel_closed_forms_at_zero_and_one():
    a, b, delta = kernel_inputs()
    cells, _ = pair_departures(a, b, delta, [0.0, 1.0])
    for k, (x, y) in enumerate(zip(a, b)):
        x, y = float(x), float(y)
        # Pearson: (a - b)^2 / (2 delta (a + b)); KL: prefactor times 1 - binary entropy in bits
        pearson = 0.0 if x + y == 0.0 else (x - y) ** 2 / (2.0 * delta * (x + y))
        kl = 0.0
        if x + y > 0.0:
            bits = -sum(s * math.log2(s) for s in (x / (x + y), y / (x + y)) if s > 0.0)
            kl = (x + y) / (2.0 * delta) * (1.0 - bits)
        assert cells[0, k] == pytest.approx(kl, abs=1e-16)
        assert cells[1, k] == pytest.approx(pearson, abs=1e-16)


def test_kernel_special_pairs():
    a, b, delta = kernel_inputs()
    cells, _ = pair_departures(a, b, delta, KERNEL_LAMBDAS)
    empty, equal = KERNEL_PAIRS.index((0.0, 0.0)), KERNEL_PAIRS.index((4.0, 4.0))
    assert np.all(cells[:, [empty, equal]] == 0.0)
    # a one-sided pair departs completely: its two cells carry its whole mass share
    for k in (KERNEL_PAIRS.index((5.0, 0.0)), KERNEL_PAIRS.index((0.0, 2.0))):
        share = float(a[k] + b[k]) / (2.0 * delta)
        assert np.allclose(cells[:, k], share, rtol=1e-13, atol=0.0)
    # a lone one-sided table measures exactly one at every lam
    _, lone = pair_departures(np.array([0.25]), np.array([0.0]), 0.25, KERNEL_LAMBDAS)
    assert np.allclose(lone, 1.0, rtol=0.0, atol=1e-15)
    # a negligible pair beside a dominant one keeps its own digits at large lam
    beside, _ = pair_departures(np.array([0.3, 0.2]), np.array([0.0, 0.1]), 0.6, [100.0])
    assert beside[0, 0] == 0.25
    assert beside[0, 1] == pytest.approx(4.0994240442977433e-19, rel=1e-12, abs=0.0)


def test_kernel_is_continuous_across_the_branch_point():
    a, b, delta = kernel_inputs()
    lams = sorted(KERNEL_LAMBDAS[:12])
    _, totals = pair_departures(a, b, delta, lams)
    # within |lam| <= 1e-9 the measure moves by O(1e-9), the limit branch included;
    # a defect at the branch switch would jump by far more
    assert np.ptp(totals) < 1e-9


def test_kernel_batch_equals_single_calls(rng):
    for _ in range(10):
        p = random_table(rng, int(rng.integers(2, 9)))
        upper = upper_triangle(p.size)
        a, b = p.p[upper], p.p.T[upper]
        lams = np.concatenate((KERNEL_LAMBDAS, rng.uniform(-0.95, 4.0, size=5)))
        batch_cells, batch_totals = pair_departures(a, b, p.delta, lams)
        for row, lam in enumerate(lams):
            single_cells, single_totals = pair_departures(a, b, p.delta, lam)
            assert np.array_equal(batch_cells[row], single_cells[0])
            assert batch_totals[row] == single_totals[0]


def test_kernel_overflow_raises_without_warning():
    a, b, delta = kernel_inputs()
    nearly_equal = np.array([0.5]), np.array([0.49])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for pair in ((a, b, delta), (*nearly_equal, 0.99)):
            with pytest.raises(InputError, match="measure overflows double precision at lam=2000.0"):
                pair_departures(*pair, 2000.0)
            with pytest.raises(InputError, match="measure overflows double precision at lam=2000.0"):
                pair_departures(*pair, [1.0, 2000.0])
        # ratios never exceed 2, so below the overflow of 2^lam everything is finite
        _, finite = pair_departures(a, b, delta, [0.5, 1000.0])
        assert np.all((finite >= 0.0) & (finite <= 1.0 + 1e-12))
        with pytest.raises(InputError, match="measure overflows double precision at lam=2000.0"):
            pair_departures(a, b, delta, [0.5, 1000.0, 2000.0])
        p = validate_table(["a", "b", "c"], [[0, 5, 2], [1, 0, 3], [4, 1, 0]])
        with pytest.raises(InputError, match="measure overflows double precision at lam=2000.0"):
            asymmetry_measure(p, 2000.0)
        with pytest.raises(InputError, match="measure overflows double precision at lam=2000.0"):
            asymmetry_measure(p, 2000.0).phi_cells[0, 1]


def test_kernel_rejects_bad_lambdas():
    a, b, delta = kernel_inputs()
    for bad in ([0.5, -1.0], [float("nan")], [float("inf")], -3.0):
        with pytest.raises(InputError, match="lam must be a finite number > -1, got"):
            pair_departures(a, b, delta, bad)
    # no off-diagonal mass: the measure is undefined, reported after a bad lam
    for pair in ((0.25, 0.0), (0.0, 0.0)):
        a, b = np.array([pair[0]]), np.array([pair[1]])
        with pytest.raises(AnalysisError, match="all mass on the diagonal: asymmetry is undefined"):
            pair_departures(a, b, 0.0, [1.0])
        with pytest.raises(InputError, match="lam must be a finite number > -1, got -1.0"):
            pair_departures(a, b, 0.0, [-1.0])


def decimal_phi(counts, lam: float) -> float:
    """The measure from its definition in 80-digit decimal arithmetic; the log form at lam = 0.

    80 digits, not 50: at lam = 1e-9 and r = 1e-15 each exp(lam ln x) - 1 is about
    lam r = 1e-24, and the two cells' terms cancel to lam r^2, so 50 keep only about 11.
    """
    with decimal.localcontext(decimal.Context(prec=80)):
        c = [[decimal.Decimal(int(x)) for x in row] for row in counts]
        off = [(c[i][j], c[j][i]) for i in range(len(c)) for j in range(len(c)) if i != j]
        delta = sum(x for x, _ in off)
        if lam == 0:
            num = sum(x * (2 * x / (x + y)).ln() for x, y in off if x > 0)
            return float(num / (delta * decimal.Decimal(2).ln()))
        lam = decimal.Decimal(lam)
        num = sum(x * (((2 * x / (x + y)).ln() * lam).exp() - 1) for x, y in off if x > 0)
        return float(num / (delta * ((decimal.Decimal(2).ln() * lam).exp() - 1)))


def decimal_statistic(counts, lam: float) -> float:
    """2/(lam(lam+1)) sum over cells off the diagonal of n_ij [(2 n_ij/(n_ij + n_ji))^lam - 1]
    in 80-digit decimal arithmetic; 2 sum n_ij ln(2 n_ij/(n_ij + n_ji)) at lam = 0. An empty
    cell adds 0, its limit for every lam > -1."""
    with decimal.localcontext(decimal.Context(prec=80)):
        c = [[decimal.Decimal(int(x)) for x in row] for row in counts]
        size = len(c)
        logs = [
            (c[i][j], (2 * c[i][j] / (c[i][j] + c[j][i])).ln())
            for i in range(size)
            for j in range(size)
            if i != j and c[i][j] > 0
        ]
        if lam == 0:
            return float(2 * sum(x * log for x, log in logs))
        lam = decimal.Decimal(lam)
        total = sum(x * ((log * lam).exp() - 1) for x, log in logs)
        return float(2 / (lam * (lam + 1)) * total)


def test_statistic_against_decimal_definition(coffee, rng):
    tables = [coffee.counts, [[0, 100000001, 5], [100000000, 0, 5], [5, 5, 0]]]
    tables += [random_table(rng, int(rng.integers(2, 9))).counts for _ in range(20)]
    for counts in tables:
        t = validate_table([f"c{k}" for k in range(len(counts))], counts)
        for lam in (-0.5, 0.0, 2.0 / 3.0, 1.7, 3.0):
            expected = decimal_statistic(counts, lam)
            assert power_divergence_statistic(t, lam) == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_measure_and_statistic_near_lambda_zero_against_decimal(coffee, rng):
    # the lam -> 0 limit errs by O(lam); only a lam below 1e-300 may take it
    tables = [coffee.counts] + [random_table(rng, int(rng.integers(2, 9))).counts for _ in range(10)]
    for counts in tables:
        for lam in (1e-11, -1e-11, 9e-11, -9e-11, 1e-13):
            t = validate_table([f"c{k}" for k in range(len(counts))], counts)
            expected = decimal_statistic(counts, lam)
            assert power_divergence_statistic(t, lam) == pytest.approx(expected, rel=1e-13, abs=0.0)
            expected = decimal_phi(counts, lam)
            assert asymmetry_measure(t, lam).phi_total == pytest.approx(expected, rel=1e-13, abs=0.0)


def test_measure_keeps_its_digits_at_large_lambda(rng):
    # past lam ~ 60 the per-cell route cancels to 0; the kernel falls back per lam
    tables = [[[50, 30, 10], [20, 40, 25], [12, 18, 60]]]
    tables += [rng.integers(1, 40, size=(size, size)) for size in (2, 4, 6, 8)]
    for counts in tables:
        size = len(counts)
        p = validate_table([f"c{k}" for k in range(size)], counts)
        for lam in (20, 60, 100, 300, 700):
            expected = decimal_phi(counts, lam)
            assert asymmetry_measure(p, lam).phi_total == pytest.approx(expected, rel=1e-10, abs=0.0)


def test_statistic_is_consistent_near_minus_one_and_at_large_lambda(rng):
    for _ in range(40):
        t = random_table(rng, int(rng.integers(2, 9)))
        for lam in (-0.999999999, 20.0, 100.0, 700.0):
            assert math.isfinite(power_divergence_statistic(t, lam))


def test_measure_matches_kernel_cells(coffee):
    upper = upper_triangle(coffee.size)
    for lam in KERNEL_LAMBDAS:
        profile = asymmetry_measure(coffee, lam)
        cells, totals = pair_departures(
            coffee.counts[upper], coffee.counts.T[upper], coffee.n - np.trace(coffee.counts), lam
        )
        assert np.array_equal(profile.phi_cells[upper], cells[0])
        assert np.array_equal(profile.phi_cells.T[upper], cells[0])
        assert profile.phi_total == float(totals[0])
        for i in range(coffee.size):
            for j in range(coffee.size):
                if i != j:
                    assert asymmetry_measure(coffee, lam).phi_cells[i, j] == pytest.approx(
                        profile.phi_cells[i, j], rel=1e-15, abs=1e-18
                    )


def test_single_pairs_against_decimal():
    # r from 1e-15 to 1 on pairs of about 1e15 counts: the series and the definition
    # each take some of these, the whole lams 1 and 3 the series for every r
    s = 2 * 10**15
    diffs = sorted({round(s * 10.0**e) for e in np.arange(-15.0, 0.01, 0.5)} | {s - 2, s})
    lams = (-0.99, -0.5, -1e-3, 0.0, 1e-9, 1e-3, 2.0 / 3.0, 1.0, 3.0, 20.0, 100.0, 700.0)
    for d in diffs:
        a, b = (s + d) // 2, (s - d) // 2
        _, totals = pair_departures(np.array([a], float), np.array([b], float), float(s), lams)
        for lam, total in zip(lams, totals):
            expected = decimal_phi([[0, a], [b, 0]], lam)
            assert total == pytest.approx(expected, rel=1e-12, abs=0.0), (d, lam)


def test_asymmetry_below_double_precision_of_the_pair_sums():
    # r = 1 / 200000001, far below double precision of the pair sums
    t = validate_table(["a", "b", "c"], [[0, 100000001, 5], [100000000, 0, 5], [5, 5, 0]])
    profile = asymmetry_measure(t, 1.0)
    assert profile.phi_total == pytest.approx(2.4999997250000290e-17, rel=1e-12, abs=0.0)
    assert profile.phi_total == pytest.approx(decimal_phi(t.counts, 1.0), rel=1e-12, abs=0.0)
    statistic = power_divergence_statistic(t, 1.0)
    assert statistic == pytest.approx(bowker_statistic(t).statistic, rel=1e-12, abs=0.0)


def test_measure_near_minus_one_against_decimal(rng):
    for _ in range(30):
        size = int(rng.integers(2, 8))
        counts = rng.integers(1, 40, size=(size, size))
        p = validate_table([f"c{k}" for k in range(size)], counts)
        expected = decimal_phi(counts, -0.999999)
        assert asymmetry_measure(p, -0.999999).phi_total == pytest.approx(expected, rel=1e-12, abs=0.0)
