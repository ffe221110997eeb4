import math
import sys

import numpy as np
import pytest
from scipy import integrate, special, stats

from conftest import chi_square_cdf, random_table
from skewca import chisquare
from skewca.chisquare import chi_square_quantile, chi_square_sf
from skewca.confidence import confidence_regions
from skewca.decomposition import decompose, skew_matrix
from skewca.divergence import (
    asymmetry_measure,
    power_divergence_scale,
    power_divergence_statistic,
)
from skewca.errors import (
    FullySymmetricError,
    IdentityMetricUnsupportedError,
    InvalidAlphaError,
    InvalidDofError,
    UnsupportedDimensionError,
)
from skewca.table import to_probabilities, validate_table

# frozen from the quadrature-inversion oracle (see test_quantile_quadrature_oracle)
CHI2_1_005 = 3.8414588206941285
CHI2_10_005 = 18.307038053275146


def analyze(table, lam=1.0):
    p = to_probabilities(table)
    profile = asymmetry_measure(p, lam)
    dec = decompose(skew_matrix(p, lam), p)
    return p, profile, dec


# ------------------------------------------------------------ CDF numerics


def test_cdf_at_zero():
    assert chi_square_cdf(3, 0.0) == 0.0
    assert chi_square_cdf(3, -1.0) == 0.0


def test_cdf_dof2_closed_form():
    # chi-square with 2 dof is exponential: CDF(x) = 1 - exp(-x/2)
    for x in (0.1, 0.5, 2 * math.log(2.0), 5.0, 20.0):
        assert chi_square_cdf(2, x) == pytest.approx(1.0 - math.exp(-x / 2.0), abs=1e-14)
    assert chi_square_cdf(2, 2.0 * math.log(2.0)) == pytest.approx(0.5, abs=1e-14)


def test_cdf_against_scipy_grid():
    for dof in (1, 2, 3, 7, 10, 25, 50):
        for x in (0.01, 0.5, 1.0, 3.0, dof / 2.0, float(dof), 2.0 * dof, 5.0 * dof):
            assert chi_square_cdf(dof, x) == pytest.approx(
                float(special.gammainc(dof / 2.0, x / 2.0)), abs=1e-12
            )
    # the Bowker dof of R = 155 and R = 200; below x = dof + 2 the series needs
    # about 9 sqrt(dof / 2) terms
    for dof in (12_000, 19_900):
        for x in (dof - 3.0, dof - 0.5, float(dof), dof + 1.0, dof + 1.99, dof + 2.5):
            assert chi_square_cdf(dof, x) == pytest.approx(
                float(special.gammainc(dof / 2.0, x / 2.0)), abs=1e-12
            )


def test_cdf_against_scipy_up_to_dof_19900():
    # every dof a Bowker test of R <= 200 can have, six standard deviations either side
    for dof in [*range(1, 19_900, 199), 19_900]:
        spread = 6.0 * math.sqrt(2.0 * dof)
        for x in np.linspace(max(dof - spread, 0.0), dof + spread, 13):
            assert abs(chi_square_cdf(dof, x) - special.gammainc(dof / 2.0, x / 2.0)) < 1e-11


def test_upper_tail_and_quantile_against_scipy(monkeypatch):
    # the tail is computed directly, so it keeps its digits where 1 - CDF reads 0
    assert chi_square_sf(10, 100.0) == pytest.approx(stats.chi2.sf(100.0, 10), rel=1e-10)
    assert chi_square_sf(10, 100.0) > 5e-17
    assert chi_square_sf(3, 0.0) == chi_square_sf(3, -1.0) == 1.0
    assert math.isnan(chi_square_sf(10, math.nan))
    assert math.isnan(chi_square_cdf(10, math.nan))
    with pytest.raises(InvalidDofError):
        chi_square_sf(0, 1.0)
    calls = []
    tails = chisquare._tails

    def counted_tails(dof, x):
        calls.append(x)
        return tails(dof, x)

    monkeypatch.setattr(chisquare, "_tails", counted_tails)
    log_alphas = (-300, -200, -100, -50, -16, -5, -2, math.log10(0.05), -0.3, -0.2, -0.05, -0.01)
    # alpha near 1, where the CDF is the smaller tail
    near_one = (1 - 1e-7, 1 - 1e-12, 0.999999999999999)
    for dof in [*range(1, 60, 4), *range(60, 19_900, 797), 19_900]:
        for alpha in (
            *(10.0**k for k in (*log_alphas, math.log10(0.99), math.log10(0.999), -0.001)),
            *near_one,
            # the smallest alpha accepted; a subnormal one has too few bits to define the quantile
            sys.float_info.min,
        ):
            x = float(stats.chi2.isf(alpha, dof))
            assert chi_square_sf(dof, x) == pytest.approx(stats.chi2.sf(x, dof), rel=1e-10)
            calls.clear()
            assert chi_square_quantile(dof, alpha) == pytest.approx(x, rel=1e-10)
            # Newton on the log tail needs a few tails; the bracket stop ends rounding-noise ping-pong
            assert len(calls) <= (16 if alpha in near_one else 12), (dof, alpha, len(calls))


def test_cdf_dof_validation():
    with pytest.raises(InvalidDofError):
        chi_square_cdf(0, 1.0)


# ------------------------------------------------------- quantile numerics


def test_quantile_frozen_values():
    assert chi_square_quantile(1, 0.05) == pytest.approx(CHI2_1_005, abs=1e-9)
    assert chi_square_quantile(10, 0.05) == pytest.approx(CHI2_10_005, abs=1e-9)


def test_quantile_quadrature_oracle():
    # independent oracle: adaptive quadrature of the density, inverted by bisection
    for dof, alpha, frozen in ((1, 0.05, CHI2_1_005), (10, 0.05, CHI2_10_005)):
        def density(x, half=dof / 2.0):
            return x ** (half - 1.0) * math.exp(-x / 2.0) / (2.0**half * math.gamma(half))

        lo, hi = 0.0, 200.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            mass = integrate.quad(density, 0.0, mid, limit=300)[0]
            if mass < 1.0 - alpha:
                lo = mid
            else:
                hi = mid
        oracle = 0.5 * (lo + hi)
        assert oracle == pytest.approx(frozen, abs=1e-8)
        assert chi_square_quantile(dof, alpha) == pytest.approx(oracle, abs=1e-4)


def test_quantile_median_round_trip():
    q = chi_square_quantile(3, 0.5)
    assert chi_square_cdf(3, q) == pytest.approx(0.5, abs=1e-10)


def test_quantile_cdf_round_trip_grid():
    for dof in range(1, 51):
        for alpha in (0.2, 0.1, 0.05, 0.01):
            q = chi_square_quantile(dof, alpha)
            assert abs(chi_square_cdf(dof, q) - (1.0 - alpha)) < 1e-9


def test_quantile_monotone_in_alpha():
    qs = [chi_square_quantile(7, a) for a in (0.2, 0.1, 0.05, 0.01)]
    assert qs == sorted(qs)


def test_quantile_validation():
    # a subnormal alpha has too few bits to define the quantile
    for alpha in (0.0, 1.0, 5e-324, 1e-315):
        with pytest.raises(InvalidAlphaError):
            chi_square_quantile(3, alpha)
    with pytest.raises(InvalidDofError):
        chi_square_quantile(0, 0.05)


# -------------------------------------------------------------- regions


def test_coffee_regions_exclude_origin_all_divergences(coffee):
    for lam in (-0.5, 0.0, 2.0 / 3.0, 1.0):
        _, profile, dec = analyze(coffee, lam)
        regions = confidence_regions(dec, coffee, profile, 0.05)
        assert len(regions) == 10  # five rows + five columns
        assert all(not r.contains_origin for r in regions)


def test_region_circularity_and_positivity(coffee):
    # one radius per region: circularity holds by construction, as mu_1 == mu_2
    _, profile, dec = analyze(coffee)
    assert dec.singular_values[0] == dec.singular_values[1]
    for region in confidence_regions(dec, coffee, profile, 0.05):
        assert region.radius > 0.0


def test_region_centers_are_coordinates(coffee):
    _, profile, dec = analyze(coffee)
    regions = confidence_regions(dec, coffee, profile, 0.05)
    rows = [r for r in regions if r.axis == "row"]
    for i, region in enumerate(rows):
        assert region.center[0] == pytest.approx(dec.row_coords[i, 0], abs=1e-15)
        assert region.center[1] == pytest.approx(dec.row_coords[i, 1], abs=1e-15)


def test_radii_scale_inverse_sqrt_n(coffee):
    _, profile1, dec1 = analyze(coffee)
    scaled = coffee.scaled(4)
    _, profile4, dec4 = analyze(scaled)
    r1 = confidence_regions(dec1, coffee, profile1, 0.05)
    r4 = confidence_regions(dec4, scaled, profile4, 0.05)
    for a, b in zip(r1, r4):
        assert b.radius == pytest.approx(a.radius / 2.0, abs=1e-10)
        assert b.center[0] == pytest.approx(a.center[0], abs=1e-12)
        assert b.center[1] == pytest.approx(a.center[1], abs=1e-12)


def test_radii_shrink_with_alpha(coffee):
    _, profile, dec = analyze(coffee)
    r20 = confidence_regions(dec, coffee, profile, 0.20)
    r05 = confidence_regions(dec, coffee, profile, 0.05)
    r01 = confidence_regions(dec, coffee, profile, 0.01)
    for a, b, c in zip(r20, r05, r01):
        assert a.radius < b.radius < c.radius


def test_category_on_null_dimension_gets_zero_radius():
    # category c is symmetric with everyone, so it lives entirely on the
    # dropped null dimension of this 3x3 table
    t = validate_table(["a", "b", "c"], [[0, 3, 1], [1, 0, 1], [1, 1, 0]])
    _, profile, dec = analyze(t)
    assert np.hypot(dec.left_vectors[2, 0], dec.left_vectors[2, 1]) < 1e-12
    regions = confidence_regions(t=t, dec=dec, profile=profile, alpha=0.05)
    region_c = next(r for r in regions if r.axis == "row" and r.label == "c")
    assert region_c.radius == pytest.approx(0.0, abs=1e-12)
    assert region_c.contains_origin  # degenerate circle at the origin


def test_region_errors():
    t22 = validate_table(["a", "b"], [[0, 3], [1, 0]])
    _, profile, dec = analyze(t22)
    with pytest.raises(UnsupportedDimensionError):
        confidence_regions(dec, t22, profile, 0.05)

    t = validate_table(["a", "b", "c"], [[0, 3, 1], [1, 0, 1], [2, 1, 0]])
    p = to_probabilities(t)
    profile = asymmetry_measure(p, 1.0)
    dec_id = decompose(skew_matrix(p, 1.0), p, metric="identity")
    with pytest.raises(IdentityMetricUnsupportedError):
        confidence_regions(dec_id, t, profile, 0.05)

    sym = validate_table(["a", "b", "c"], [[1, 2, 3], [2, 1, 4], [3, 4, 1]])
    psym = to_probabilities(sym)
    profile_sym = asymmetry_measure(psym, 1.0)
    dec_sym = decompose(skew_matrix(psym, 1.0), psym)
    with pytest.raises(FullySymmetricError):
        confidence_regions(dec_sym, sym, profile_sym, 0.05)

    _, profile, dec = analyze(t)
    with pytest.raises(InvalidAlphaError):
        confidence_regions(dec, t, profile, 1.5)


def test_exclusion_matches_test_rejection(coffee, rng):
    # with the in-plane radius form, every region excludes the origin exactly
    # when the power-divergence statistic exceeds the chi-square point
    for lam in (-0.5, 0.0, 1.0):
        _, profile, dec = analyze(coffee, lam)
        regions = confidence_regions(dec, coffee, profile, 0.05)
        stat = power_divergence_statistic(coffee, lam)
        critical = chi_square_quantile(10, 0.05)
        rejects = stat > critical
        positive = [r for r in regions if r.radius > 1e-12]
        assert all(r.contains_origin != rejects for r in positive)
    # at levels within 4 ulp of the p-value of the statistic the circles rebuild
    # from the inertia, every circle off the origin reads the one table-level verdict
    for t in [coffee] + [random_table(rng, int(rng.integers(3, 9))) for _ in range(40)]:
        dof = t.size * (t.size - 1) // 2
        for lam in (-0.5, 0.0, 2.0 / 3.0, 1.0):
            p, profile, dec = analyze(t, lam)
            if dec.fully_symmetric:
                continue
            p_value = chi_square_sf(dof, 2.0 * t.n * p.delta * dec.total_inertia / power_divergence_scale(lam))
            alphas = [p_value + k * math.ulp(p_value) for k in (-4, 4)]
            if t is coffee and lam == 1.0:
                alphas.append(0.025585065792773396)
            for alpha in (a for a in alphas if sys.float_info.min <= a < 1.0):
                regions = confidence_regions(dec, t, profile, alpha)
                assert len({r.contains_origin for r in regions if r.radius > 0.0}) == 1, (t.counts, lam, alpha)


def loop_radii(dec, t, profile, alpha):
    """Oracle: the per-category loop and ellipse test the circles had before the closed form.

    Returns (radius_x, radius_y, contains_origin) per region, rows then columns.
    """
    size = dec.size
    quantile = chi_square_quantile(size * (size - 1) // 2, alpha)
    calibration = (
        quantile * power_divergence_scale(profile.lam)
        / (2.0 * t.n * profile.delta * dec.total_inertia)
    )
    mu1, mu2 = float(dec.singular_values[0]), float(dec.singular_values[1])
    out = []
    for vectors, coords in ((dec.left_vectors, dec.row_coords), (dec.right_vectors, dec.col_coords)):
        for i in range(size):
            in_plane = float(vectors[i, 0] ** 2 + vectors[i, 1] ** 2)
            root = math.sqrt(max(calibration * in_plane, 0.0))
            rx = float(dec.metric_weights[i]) * mu1 * root
            ry = float(dec.metric_weights[i]) * mu2 * root
            dx, dy = 0.0 - float(coords[i, 0]), 0.0 - float(coords[i, 1])
            if rx <= 0.0 or ry <= 0.0:
                covers = dx == 0.0 and dy == 0.0
            else:
                covers = (dx / rx) ** 2 + (dy / ry) ** 2 <= 1.0
            out.append((rx, ry, covers))
    return out


def test_radius_closed_form_identity():
    # radius_i = sqrt(q / T) * ||f_i|| on dims 1-2, with T the power-divergence
    # statistic, and every circle off the origin covers it exactly when T <= q
    rng = np.random.default_rng(6)
    outcomes = set()
    tables = 0
    while tables < 300:
        size = int(rng.integers(3, 12))
        counts = rng.integers(0, 30, size=(size, size))
        if tables % 3 == 0:
            # one category symmetric with every other: it has no in-plane mass
            k = int(rng.integers(size))
            counts[k, :] = counts[:, k]
        t = validate_table([f"c{i}" for i in range(size)], counts)
        p = to_probabilities(t)
        if p.delta == 0.0 or not np.any(counts != counts.T):
            continue
        tables += 1
        dof = size * (size - 1) // 2
        for lam in (-0.5, 0.0, 2.0 / 3.0, 1.0, 1.7):
            profile = asymmetry_measure(p, lam)
            dec = decompose(skew_matrix(p, lam), p)
            stat = power_divergence_statistic(t, lam)
            # one fixed level, and two a hair either side of the test's p-value,
            # where q and T differ by about 1e-6 relative
            p_value = 1.0 - chi_square_cdf(dof, stat)
            alphas = (float(rng.choice([0.05, 0.5, 0.95])), p_value * (1 - 1e-6), p_value * (1 + 1e-6))
            for alpha in (a for a in alphas if 0.0 < a < 1.0):
                regions = confidence_regions(dec, t, profile, alpha)
                q = chi_square_quantile(dof, alpha)
                rows, cols = regions[:size], regions[size:]
                assert [r.radius for r in rows] == [r.radius for r in cols]
                for region, (rx, ry, covers) in zip(regions, loop_radii(dec, t, profile, alpha)):
                    coords = dec.row_coords if region.axis == "row" else dec.col_coords
                    expected = math.sqrt(q / stat) * math.hypot(*coords[region.index, :2])
                    assert abs(region.radius - expected) <= 1e-13 * expected
                    assert abs(region.radius - rx) <= 2 * math.ulp(rx)
                    assert abs(region.radius - ry) <= 2 * math.ulp(ry)
                    assert region.contains_origin == covers
                    if region.radius > 0.0:
                        assert region.contains_origin == (stat <= q)
                        outcomes.add((region.contains_origin, abs(stat / q - 1.0) < 1e-5))
    assert outcomes == {(True, False), (False, False), (True, True), (False, True)}
