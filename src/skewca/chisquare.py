"""Chi-square CDF, upper tail and quantile, in-house so golden outputs stay bit-stable.

One split gives both tails: below x = dof + 2 the power series of the
regularized lower incomplete gamma P gives the CDF, from there the Lentz
continued fraction of the upper Q gives the tail, and the other is 1 minus
it. The quantile takes bracketed Newton steps on the log of the smaller tail.
"""

from __future__ import annotations

import math
import sys

from .errors import InvalidAlphaError, InvalidDofError

_GAMMA_EPS = 1e-16
_GAMMA_MAX_ITER = 500


def _max_terms(a: float) -> int:
    # near x = a the series takes about 9 sqrt(a) terms and the continued fraction fewer
    return _GAMMA_MAX_ITER + int(10.0 * math.sqrt(a))


def _gamma_prefix(a: float, x: float) -> float:
    """x^a e^-x / Gamma(a); past a = 100, where the direct logs cancel to an error
    near 1e-16 a log x, as a (log1p(t) - t) with t = x/a - 1 and Stirling's series."""
    if a <= 100.0 or x < 1e-3 * a:
        return math.exp(-x + a * math.log(x) - math.lgamma(a))
    t = (x - a) / a
    stirling = (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / (1260.0 * a * a)) / (a * a)) / a
    return math.sqrt(a / (2.0 * math.pi)) * math.exp(a * (math.log1p(t) - t) - stirling)


def _lower_gamma_series(a: float, x: float) -> float:
    """Regularized P(a, x) by the power series, for 0 < x < a + 1."""
    term = total = 1.0 / a
    denom = a
    for _ in range(_max_terms(a)):
        denom += 1.0
        term *= x / denom
        total += term
        if abs(term) < abs(total) * _GAMMA_EPS:
            break
    return total * _gamma_prefix(a, x)


def _upper_gamma_cf(a: float, x: float) -> float:
    """Regularized Q(a, x) by modified Lentz continued fraction, for x >= a + 1."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = h = 1.0 / b
    for i in range(1, _max_terms(a) + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _GAMMA_EPS:
            break
    return h * _gamma_prefix(a, x)


def _tails(dof: int, x: float) -> tuple[float, float]:
    """(CDF, upper tail) at x, from the one split the module docstring describes."""
    if dof < 1:
        raise InvalidDofError(f"dof must be >= 1, got {dof}")
    if x <= 0.0:
        return 0.0, 1.0
    if x < dof + 2.0:
        cdf = min(_lower_gamma_series(dof / 2.0, x / 2.0), 1.0)
        return cdf, 1.0 - cdf
    tail = _upper_gamma_cf(dof / 2.0, x / 2.0)
    return max(1.0 - tail, 0.0), tail


def chi_square_sf(dof: int, x: float) -> float:
    """Upper tail 1 - CDF; from x = dof + 2 on it keeps its relative accuracy far
    below 1e-16, where 1 - CDF reads 0."""
    return _tails(dof, x)[1]


def _normal_upper_quantile(alpha: float) -> float:
    """z with P(Z > z) = alpha, via a low-order rational fit (initial guesses only)."""
    # Hastings-style approximation from the smaller tail; percent-level accuracy suffices here
    t = math.sqrt(-2.0 * math.log(min(alpha, 1.0 - alpha)))
    z = t - (2.515517 + 0.802853 * t + 0.010328 * t * t) / (
        1.0 + 1.432788 * t + 0.189269 * t * t + 0.001308 * t**3
    )
    return z if alpha < 0.5 else -z


def chi_square_quantile(dof: int, alpha: float) -> float:
    """Upper-alpha point: q with chi_square_sf(q) = alpha, for a normal double alpha < 1.

    Takes Newton steps on the log of the smaller tail, read with its relative
    accuracy: log sf toward log alpha for alpha <= 1/2, else log CDF toward
    log(1 - alpha), which is exact there. The start is the Wilson-Hilferty cube,
    or P(a, y) ~ y^a / Gamma(a + 1) when 1 - alpha < 1e-3. Each tail narrows the
    bracket (lo, hi) around the root; a step that leaves it doubles x while hi
    is unbounded and bisects once it is not. It stops when the step or the
    bracket is below 1e-15 x.
    """
    if dof < 1:
        raise InvalidDofError(f"dof must be >= 1, got {dof}")
    if not sys.float_info.min <= alpha < 1.0:
        raise InvalidAlphaError(f"alpha must be a normal double in (0, 1), got {alpha}")
    upper = alpha <= 0.5
    target = alpha if upper else 1.0 - alpha
    z = _normal_upper_quantile(alpha)
    x = max(dof * (1.0 - 2.0 / (9.0 * dof) + z * math.sqrt(2.0 / (9.0 * dof))) ** 3, 1e-8)
    if target < 1e-3 and not upper:
        x = 2.0 * math.exp((math.log(target) + math.lgamma(dof / 2.0 + 1.0)) / (dof / 2.0))
    lo, hi = 0.0, math.inf
    for _ in range(200):
        cdf, sf = _tails(dof, x)
        tail = sf if upper else cdf
        if (tail > target) == upper:  # x is below the root
            lo = x
        else:
            hi = x
        # the density is the gamma prefix at x / 2 over x; either it or the tail can
        # underflow to 0 (an overshoot far into the tail), and NaN then means no step
        density = _gamma_prefix(dof / 2.0, x / 2.0) / x
        step = math.log(tail / target) * tail / density if tail > 0.0 and density > 0.0 else math.nan
        nxt = x + step if upper else x - step
        if abs(nxt - x) <= 1e-15 * x:
            return nxt
        if not lo < nxt < hi:
            nxt = 2.0 * x if hi == math.inf else 0.5 * (lo + hi)
        if hi - lo <= 1e-15 * x:
            return nxt
        x = nxt
    return x
