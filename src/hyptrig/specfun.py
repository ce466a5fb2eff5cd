"""Special functions backing the closed forms in the catalog.

Everything here is implemented from scratch on real arguments: Gamma and
log-Gamma via a fixed Lanczos approximation, the Hurwitz zeta via
Euler-Maclaurin summation, and the Dirichlet beta, Bessel-J and theta
series directly from their defining sums.  All routines are pure and
deterministic: the same input gives bit-identical output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .quad import euler_transform

_EPS = 2.220446049250313e-16

# relative accuracy every series aims for, and the cap on its term count
_TARGET_REL_ERROR = 1e-12
_MAX_TERMS = 200_000


@dataclass(frozen=True)
class SpecialValue:
    """A computed value together with an estimated relative-error bound."""

    value: float
    est_rel_error: float


# Lanczos approximation, g = 7, 9 coefficients.  Gives ~1e-14 relative
# accuracy on the real axis once the argument is shifted to x >= 1.5.
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _lanczos_series(x: float) -> float:
    s = _LANCZOS_C[0]
    for k in range(1, 9):
        s += _LANCZOS_C[k] / (x - 1.0 + k)
    return s


def _log_gamma_raw(x: float) -> float:
    # valid for x >= 1.5; callers shift smaller arguments up by recurrence
    t = x + _LANCZOS_G - 0.5
    return _LN_SQRT_2PI + (x - 0.5) * math.log(t) - t + math.log(_lanczos_series(x))


def log_gamma(x: float) -> SpecialValue:
    """ln Gamma(x) for x > 0, usable up to x = 1e4 without overflow.

    est_rel_error is the estimated relative error of Gamma itself, i.e.
    the absolute error of the returned logarithm.
    """
    if not (x > 0.0):
        raise DomainError("log_gamma requires x > 0")
    shift = 0.0
    y = x
    while y < 1.5:
        shift += math.log(y)
        y += 1.0
    val = _log_gamma_raw(y) - shift
    return SpecialValue(val, 5e-14)


def gamma(x: float) -> SpecialValue:
    """Gamma(x) for 0 < x <= 142.2.

    Past x = 142.215 the factor t^(x-1/2) of the direct product overflows,
    although Gamma itself stays finite up to x ~ 171.6; there, and for x
    so close to 0 that Gamma(x) ~ 1/x overflows, DomainError is raised.
    log_gamma covers large x.
    """
    if not (x > 0.0):
        raise DomainError("gamma requires x > 0")
    scale = 1.0
    y = x
    while y < 1.5:
        scale *= y
        y += 1.0
    t = y + _LANCZOS_G - 0.5
    try:
        val = (math.sqrt(2.0 * math.pi) * t ** (y - 0.5) * math.exp(-t)
               * _lanczos_series(y) / scale)
    except OverflowError:
        val = math.inf
    if not math.isfinite(val):
        raise DomainError(f"gamma({x!r}) overflows a double; use log_gamma")
    return SpecialValue(val, 5e-14)


# B_{2j}/(2j)! for j = 1..10, from the exact rationals
# B2..B20 = 1/6, -1/30, 1/42, -1/30, 5/66, -691/2730, 7/6, -3617/510,
#           43867/798, -174611/330.
_B2J_OVER_FACT = (
    1.0 / 6.0 / 2.0,
    -1.0 / 30.0 / 24.0,
    1.0 / 42.0 / 720.0,
    -1.0 / 30.0 / 40320.0,
    5.0 / 66.0 / 3628800.0,
    -691.0 / 2730.0 / 479001600.0,
    7.0 / 6.0 / 87178291200.0,
    -3617.0 / 510.0 / 20922789888000.0,
    43867.0 / 798.0 / 6402373705728000.0,
    -174611.0 / 330.0 / 2432902008176640000.0,
)


def _hurwitz_em(s: float, a: float, n: int) -> float:
    # Euler-Maclaurin: direct sum of n terms, integral tail, midpoint term,
    # and 10 Bernoulli correction terms.
    direct = 0.0
    for k in range(n - 1, -1, -1):  # small-to-large summation
        direct += (k + a) ** (-s)
    z = n + a
    total = direct + z ** (1.0 - s) / (s - 1.0) + 0.5 * z ** (-s)
    poch = s  # rising product s(s+1)...(s+2j-2)
    zpow = z ** (-s - 1.0)
    for j in range(10):
        total += _B2J_OVER_FACT[j] * poch * zpow
        poch *= (s + 2 * j + 1) * (s + 2 * j + 2)
        zpow /= z * z
    return total


def hurwitz_zeta(s: float, a: float) -> SpecialValue:
    """Hurwitz zeta(s, a) for s > 1, a > 0 by Euler-Maclaurin summation.

    The direct-sum length starts at max(20, ceil(a + s)) and doubles until
    two successive evaluations agree to the requested target.
    """
    if not (s > 1.0):
        raise DomainError("hurwitz_zeta requires s > 1")
    if not (a > 0.0):
        raise DomainError("hurwitz_zeta requires a > 0")
    n = max(20, math.ceil(a + s))
    prev = _hurwitz_em(s, a, n)
    while True:
        n *= 2
        cur = _hurwitz_em(s, a, n)
        if abs(cur - prev) <= _TARGET_REL_ERROR * abs(cur) or n > _MAX_TERMS:
            err = abs(cur - prev) / abs(cur) if cur != 0.0 else abs(cur - prev)
            return SpecialValue(cur, max(err, 1e-15))
        prev = cur


def _alternating_series(step: int, s: float) -> SpecialValue:
    """sum_k (-1)^k / (step k + 1)^s from 60 terms, Euler-accelerated."""
    partial = []
    total = 0.0
    for k in range(60):
        total += (-1.0) ** k / (step * k + 1) ** s
        partial.append(total)
    return SpecialValue(euler_transform(partial, 30), 1e-14)


def dirichlet_beta(p: float) -> SpecialValue:
    """Dirichlet beta(p) = sum (-1)^k / (2k+1)^p for p > 0.

    For p > 1 this reduces to 4^(-p) [zeta(p, 1/4) - zeta(p, 3/4)]; for
    p <= 1 the alternating series is accelerated with the Euler transform
    (the Hurwitz route needs s > 1).
    """
    if not (p > 0.0):
        raise DomainError("dirichlet_beta requires p > 0")
    if p > 1.0:
        za = hurwitz_zeta(p, 0.25)
        zb = hurwitz_zeta(p, 0.75)
        diff = za.value - zb.value
        val = 4.0 ** (-p) * diff
        cancel = 4.0 * _EPS * max(abs(za.value), abs(zb.value)) / abs(diff)
        return SpecialValue(val, max(za.est_rel_error, zb.est_rel_error, 1e-15, cancel))
    return _alternating_series(2, p)


def dirichlet_eta(s: float) -> SpecialValue:
    """Dirichlet eta(s) = (1 - 2^(1-s)) zeta(s), regular at s = 1.

    Needed down to s = 0 where the zeta factorisation is unusable, so the
    alternating series with Euler acceleration is the primary route there.
    """
    if s < 0.0:
        raise DomainError("dirichlet_eta requires s >= 0")
    if s > 1.25:
        z = hurwitz_zeta(s, 1.0)  # the Riemann zeta
        return SpecialValue((1.0 - 2.0 ** (1.0 - s)) * z.value, z.est_rel_error)
    return _alternating_series(1, s)


def bessel_j(nu: float, x: float) -> SpecialValue:
    """Bessel J_nu(x) by the ascending series, for nu >= -1 and |x| <= 50.

    Negative x is folded by parity for integer nu (J_n(-x) = (-1)^n J_n(x));
    non-integer orders are restricted to x >= 0.  est_rel_error accounts for
    the cancellation between alternating terms, which dominates once
    |x| grows past ~15.
    """
    if nu < -1.0:
        raise DomainError("bessel_j requires nu >= -1")
    if abs(x) > 50.0:
        raise DomainError("bessel_j series is restricted to |x| <= 50")
    is_int = abs(nu - round(nu)) < 1e-12
    if x < 0.0:
        if not is_int:
            raise DomainError("negative x needs an integer order")
        sv = bessel_j(nu, -x)
        sign = -1.0 if round(nu) % 2 else 1.0
        return SpecialValue(sign * sv.value, sv.est_rel_error)
    if is_int and round(nu) == -1:
        sv = bessel_j(1.0, x)
        return SpecialValue(-sv.value, sv.est_rel_error)
    if x == 0.0:
        if nu == 0.0:
            return SpecialValue(1.0, 1e-16)
        if nu > 0.0:
            return SpecialValue(0.0, 0.0)
        raise DomainError("J_nu(0) is unbounded for nu < 0")
    term = (0.5 * x) ** nu / gamma(nu + 1.0).value
    q = 0.25 * x * x
    total = term
    abs_total = abs(term)
    k = 0
    while True:
        k += 1
        term *= -q / (k * (k + nu))
        total += term
        abs_total += abs(term)
        if abs(term) <= 0.25 * _TARGET_REL_ERROR * max(abs(total), 1e-300):
            if q / ((k + 1) * (k + 1 + nu)) < 0.5:
                break
        if k > _MAX_TERMS:
            break
    denom = max(abs(total), 1e-300)
    est = max(_TARGET_REL_ERROR, 4.0 * _EPS * abs_total / denom)
    return SpecialValue(total, est)


def theta1_prime0(q: float) -> SpecialValue:
    """d/dz theta_1(z, q) at z = 0: 2 sum (-1)^(n+1) (2n-1) q^((n-1/2)^2).

    Direct truncated summation; terms first grow for q near 1, so the stop
    rule only fires past the term peak.  The reported est_rel_error includes
    the cancellation penalty, which becomes ruinous as q -> 1 (the true
    value decays faster than any honest double-precision summation).
    """
    if not (0.0 < q < 1.0):
        raise DomainError("theta1_prime0 requires 0 < q < 1")
    total = 0.0
    abs_total = 0.0
    prev_mag = 0.0
    n = 0
    while True:
        n += 1
        mag = (2 * n - 1) * q ** ((n - 0.5) ** 2)
        term = mag if n % 2 == 1 else -mag
        total += term
        abs_total += mag
        if mag < prev_mag and mag <= 0.5 * _TARGET_REL_ERROR * max(abs(total), 1e-300):
            break
        if n > _MAX_TERMS:
            break
        prev_mag = mag
    total *= 2.0
    abs_total *= 2.0
    denom = max(abs(total), 1e-300)
    est = max(_TARGET_REL_ERROR, 4.0 * _EPS * abs_total / denom, mag / denom)
    return SpecialValue(total, est)
