"""Chi-square CDF, upper tail and quantile.

Implemented in-house on top of the regularized incomplete gamma functions
(series expansion of the lower one for small arguments, Lentz continued
fraction of the upper one for large), so golden outputs stay bit-stable
across library versions.
"""

from __future__ import annotations

import math

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
    """Regularized P(a, x) by the power series, for x < a + 1."""
    if x == 0.0:
        return 0.0
    term = 1.0 / a
    total = term
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
    d = 1.0 / b
    h = d
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


def regularized_gamma_p(a: float, x: float) -> float:
    """Regularized lower incomplete gamma function P(a, x)."""
    if a <= 0.0:
        raise ValueError("shape parameter must be positive")
    if x < 0.0:
        raise ValueError("argument must be non-negative")
    if x == 0.0:
        return 0.0
    if x < a + 1.0:
        return min(_lower_gamma_series(a, x), 1.0)
    return max(1.0 - _upper_gamma_cf(a, x), 0.0)


def chi_square_cdf(dof: int, x: float) -> float:
    """CDF of the chi-square distribution with ``dof`` degrees of freedom."""
    if dof < 1:
        raise InvalidDofError(f"dof must be >= 1, got {dof}")
    if x < 0.0:
        return 0.0
    return regularized_gamma_p(dof / 2.0, x / 2.0)


def chi_square_sf(dof: int, x: float) -> float:
    """Upper tail 1 - CDF. From x = dof + 2 on it is the continued fraction itself,
    which keeps its relative accuracy far below 1e-16, where 1 - CDF reads 0."""
    if dof >= 1 and x >= dof + 2.0:
        return _upper_gamma_cf(dof / 2.0, x / 2.0)
    return 1.0 - chi_square_cdf(dof, x)


def _chi_square_pdf(dof: int, x: float) -> float:
    if x <= 0.0:
        return 0.0
    half = dof / 2.0
    return math.exp((half - 1.0) * math.log(x) - x / 2.0 - half * math.log(2.0) - math.lgamma(half))


def _normal_upper_quantile(alpha: float) -> float:
    """z with P(Z > z) = alpha, via a low-order rational fit (initial guesses only)."""
    if alpha == 0.5:
        return 0.0
    if alpha > 0.5:
        return -_normal_upper_quantile(1.0 - alpha)
    # Hastings-style approximation; percent-level accuracy suffices here
    t = math.sqrt(-2.0 * math.log(alpha))
    return t - (2.515517 + 0.802853 * t + 0.010328 * t * t) / (
        1.0 + 1.432788 * t + 0.189269 * t * t + 0.001308 * t**3
    )


def chi_square_quantile(dof: int, alpha: float) -> float:
    """Upper-alpha point: q with chi_square_sf(q) = alpha.

    Starts from the Wilson-Hilferty cube approximation, brackets the root,
    and polishes with bisection-safeguarded Newton steps on the upper tail,
    or on its log while the tail exceeds 2 alpha: far from a tiny alpha's
    quantile a step on the tail itself moves x by only about 2.
    """
    if dof < 1:
        raise InvalidDofError(f"dof must be >= 1, got {dof}")
    if not 0.0 < alpha < 1.0:
        raise InvalidAlphaError(f"alpha must be in (0, 1), got {alpha}")
    z = _normal_upper_quantile(alpha)
    wh = dof * (1.0 - 2.0 / (9.0 * dof) + z * math.sqrt(2.0 / (9.0 * dof))) ** 3
    guess = max(wh, 1e-8)
    lo, hi = 0.0, guess
    while chi_square_sf(dof, hi) > alpha:
        lo = hi
        hi *= 2.0
        if hi > 1e12:
            raise ArithmeticError("failed to bracket the chi-square quantile")
    x = min(max(guess, lo), hi)
    for _ in range(200):
        tail = chi_square_sf(dof, x)
        f = alpha - tail
        if f > 0.0:
            hi = x
        else:
            lo = x
        df = _chi_square_pdf(dof, x)
        step_ok = df > 0.0
        if step_ok:
            if tail > 2.0 * alpha:
                nxt = x + math.log(tail / alpha) * tail / df
            else:
                nxt = x - f / df
            step_ok = lo < nxt < hi
        if not step_ok:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - x) <= 1e-15 * max(1.0, x):
            x = nxt
            break
        x = nxt
    return x
