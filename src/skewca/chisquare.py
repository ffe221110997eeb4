"""Chi-square CDF and quantile.

Implemented in-house on top of the regularized lower incomplete gamma
function (series expansion for small arguments, Lentz continued fraction
for large), so golden outputs stay bit-stable across library versions.
"""

from __future__ import annotations

import math

from .errors import InvalidAlphaError, InvalidDofError

_GAMMA_EPS = 1e-16
_GAMMA_MAX_ITER = 500


def _lower_gamma_series(a: float, x: float) -> float:
    """Regularized P(a, x) by the power series, for x < a + 1."""
    if x == 0.0:
        return 0.0
    term = 1.0 / a
    total = term
    denom = a
    for _ in range(_GAMMA_MAX_ITER):
        denom += 1.0
        term *= x / denom
        total += term
        if abs(term) < abs(total) * _GAMMA_EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _upper_gamma_cf(a: float, x: float) -> float:
    """Regularized Q(a, x) by modified Lentz continued fraction, for x >= a + 1."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _GAMMA_MAX_ITER + 1):
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
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


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
    """Upper-alpha point: q with 1 - CDF(q) = alpha.

    Starts from the Wilson-Hilferty cube approximation, brackets the root,
    and polishes with bisection-safeguarded Newton steps on the CDF.
    """
    if dof < 1:
        raise InvalidDofError(f"dof must be >= 1, got {dof}")
    if not 0.0 < alpha < 1.0:
        raise InvalidAlphaError(f"alpha must be in (0, 1), got {alpha}")
    target = 1.0 - alpha
    z = _normal_upper_quantile(alpha)
    wh = dof * (1.0 - 2.0 / (9.0 * dof) + z * math.sqrt(2.0 / (9.0 * dof))) ** 3
    guess = max(wh, 1e-8)
    lo, hi = 0.0, guess
    while chi_square_cdf(dof, hi) < target:
        lo = hi
        hi *= 2.0
        if hi > 1e12:
            raise ArithmeticError("failed to bracket the chi-square quantile")
    x = min(max(guess, lo), hi)
    for _ in range(200):
        f = chi_square_cdf(dof, x) - target
        if f > 0.0:
            hi = x
        else:
            lo = x
        df = _chi_square_pdf(dof, x)
        step_ok = df > 0.0
        if step_ok:
            nxt = x - f / df
            step_ok = lo < nxt < hi
        if not step_ok:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - x) <= 1e-15 * max(1.0, x):
            x = nxt
            break
        x = nxt
    return x
