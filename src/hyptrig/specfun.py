"""Special functions backing the closed forms in the catalog.

Everything here is implemented from scratch on real arguments: Gamma and
log-Gamma via a fixed Lanczos approximation, the Hurwitz zeta via one
Euler-Maclaurin sum cut where Johansson's bound on its remainder
(Numer. Algorithms 69 (2015), Thm. 1) falls below eps/8 of the value,
and the Dirichlet beta, Bessel-J and theta series directly from their
defining sums.  All routines are pure and deterministic: the same input
gives bit-identical output.  A series whose rounding bound reaches its
own value reports est_rel_error inf, as does hurwitz_zeta when the value
is below the smallest normal double.  The ascending Bessel series is one
private loop, _bessel_series(nu, x, lead), which bessel_j calls with
lead = (x/2)^nu / Gamma(nu+1) and catalog.cf_4_124_1_ext with each
term's leading term, built from the last one's without a Gamma call.
"""

from __future__ import annotations

import math
import sys
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


# Lanczos approximation, g = 7, 9 coefficients, on the real axis once the
# argument is shifted to x >= 1.5.  Its sum tends to c_0 where the exact
# one tends to 1: its relative error, about 1e-15 up to x = 20, grows
# toward 1 - c_0 = 1.9e-13 at large x (_lanczos_error bounds it).
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


def _lanczos_error(y: float) -> float:
    # (1 - c_0) y/(y + 50) bounds the formula's relative error at every
    # y >= 1.5 (checked against mpmath up to 1e9); 5e-14 its rounding
    return 5e-14 + (1.0 - _LANCZOS_C[0]) * y / (y + 50.0)


def log_gamma(x: float) -> SpecialValue:
    """ln Gamma(x) for x > 0, usable up to x = 1e4 without overflow.

    est_rel_error is the estimated relative error of Gamma itself, i.e.
    the absolute error of the returned logarithm: the Lanczos formula's
    error plus 4 eps times the terms the sum rounds, (x - 1/2) ln t, t
    and the shift's logarithms, so it grows like eps x ln x.
    """
    if not (x > 0.0):
        raise DomainError("log_gamma requires x > 0")
    shift = 0.0
    y = x
    while y < 1.5:
        shift += math.log(y)
        y += 1.0
    t = y + _LANCZOS_G - 0.5
    lead = (y - 0.5) * math.log(t)
    val = _LN_SQRT_2PI + lead - t + math.log(_lanczos_series(y)) - shift
    return SpecialValue(val, _lanczos_error(y) + 4.0 * _EPS * (abs(lead) + t + abs(shift)))


def gamma(x: float) -> SpecialValue:
    """Gamma(x) for 0 < x <= 142.2.

    Past x = 142.215 the factor t^(x-1/2) of the direct product overflows,
    although Gamma itself stays finite up to x ~ 171.6; there, and for x
    so close to 0 that Gamma(x) ~ 1/x overflows, DomainError is raised.
    log_gamma covers large x.  est_rel_error is _lanczos_error, from
    5e-14 at small x to 1.9e-13 at the top of the range.
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
    return SpecialValue(val, _lanczos_error(y))


# bessel_j's Gamma(1) and Gamma(2) (J0, J1); gamma(1.0) is 1.0000000000000002
_GAMMA_1, _GAMMA_2 = gamma(1.0).value, gamma(2.0).value

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
    # Euler-Maclaurin: direct sum of n terms, then the tail T(z) at z = n + a:
    # integral, midpoint term and 10 Bernoulli terms B_2j/(2j)! (s)_(2j-1)
    # z^(-s-2j+1), each from the last by ratios so that none overflows.
    # A base x = k + a is rounded, and x^-s turns its rounding error lo into
    # s lo/x, so lo (exact by TwoSum) is added back to first order: as
    # -s lo/x per term, and as lo T'(z), with T' summed alongside T.
    direct = 0.0
    for k in range(n - 1, 0, -1):  # small-to-large summation
        x = k + a
        b = x - k
        lo = (k - (x - b)) + (a - b)
        direct += x ** (-s) * (1.0 - s * (lo / x))
    z = n + a
    b = z - n
    lo = (n - (z - b)) + (a - b)
    zs = z ** (-s)
    total = direct + a ** (-s) + z ** (1.0 - s) / (s - 1.0) + 0.5 * zs
    slope = zs + 0.5 * s * zs / z  # -T'(z)
    term = s * zs / z
    for j in range(10):
        total += _B2J_OVER_FACT[j] * term
        term = term * (s + 2 * j + 1) / z
        slope += _B2J_OVER_FACT[j] * term
        term = term * (s + 2 * j + 2) / z
    return total - lo * slope


# ln 4/(2 pi)^21, the constant of hurwitz_zeta's remainder bound, and ln
# eps/8, the share of the value the bound may take
_LN_EM_BOUND = math.log(4.0) - 21.0 * math.log(2.0 * math.pi)
_LN_CUT = math.log(_EPS / 8.0)
_LN_HALF_DBL_MAX = math.log(0.5 * sys.float_info.max)
_LN_DBL_MIN = math.log(sys.float_info.min)


def hurwitz_zeta(s: float, a: float) -> SpecialValue:
    """Hurwitz zeta(s, a) for s > 1, a > 0 by one Euler-Maclaurin sum.

    After a direct sum of n terms and the 10 Bernoulli terms of
    _hurwitz_em, the remainder is at most
    4 (s)_21 / ((2 pi)^21 (s + 20)) (n + a)^(-s-20)
    (F. Johansson, Numer. Algorithms 69 (2015), Thm. 1), and zeta(s, a)
    is at least L = max(a^-s, a^(1-s)/(s-1)).  n is the smallest n >= 1
    for which the bound is below eps/8 L, found in logarithms, so that
    nothing overflows for any s > 1 and a > 0; n is at most 9 on a dense
    grid over that whole domain.  est_rel_error is the bound over L plus
    (n + 20) eps of rounding.

    DomainError when 2L exceeds the largest double (as at s = 200,
    a = 0.01, where a^-s = 1e400).  When L is below the smallest normal
    double, 2.2e-308 (as at s = 500, a = 5), the value, 0 or subnormal,
    comes with est_rel_error inf.
    """
    if not (s > 1.0):
        raise DomainError("hurwitz_zeta requires s > 1")
    if not (a > 0.0):
        raise DomainError("hurwitz_zeta requires a > 0")
    ln_a = math.log(a)
    ln_l = max(-s * ln_a, (1.0 - s) * ln_a - math.log(s - 1.0))
    if ln_l > _LN_HALF_DBL_MAX:
        raise DomainError(f"hurwitz_zeta({s!r}, {a!r}) overflows a double")
    # (s)_21 / (s + 20) = (s)_20 <= (s + 9.5)^20, the AM-GM bound
    ln_c = _LN_EM_BOUND + 20.0 * math.log(s + 9.5)
    # ln of the smallest n + a that meets the cut; a tiny L cuts at DBL_MIN
    ln_z = (ln_c - _LN_CUT - max(ln_l, _LN_DBL_MIN)) / (s + 20.0)
    n = max(1, math.ceil(a * math.expm1(ln_z - ln_a)))
    value = _hurwitz_em(s, a, n)
    if ln_l < _LN_DBL_MIN:
        return SpecialValue(value, math.inf)
    bound = math.exp(ln_c - (s + 20.0) * math.log(n + a) - ln_l)
    return SpecialValue(value, bound + (n + 20) * _EPS)


def _rel_bound(total: float, bound: float) -> float:
    """Relative error of a sum `total` that is off by at most `bound`:
    bound over the least |true value| that leaves, inf when that is 0."""
    return bound / (abs(total) - bound) if bound < abs(total) else math.inf


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
    any other order, however near an integer, is restricted to x >= 0.
    est_rel_error accounts for
    the cancellation between alternating terms, which dominates once
    |x| grows past ~15, and is inf once the rounding bound reaches the sum.
    """
    if nu < -1.0:
        raise DomainError("bessel_j requires nu >= -1")
    if abs(x) > 50.0:
        raise DomainError("bessel_j series is restricted to |x| <= 50")
    is_int = float(nu).is_integer()
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
    g = _GAMMA_1 if nu == 0.0 else _GAMMA_2 if nu == 1.0 else gamma(nu + 1.0).value
    total, abs_total = _bessel_series(nu, x, (0.5 * x) ** nu / g)
    est = _rel_bound(total, 4.0 * _EPS * abs_total)
    return SpecialValue(total, max(_TARGET_REL_ERROR, est))


# _bessel_series stops at a term of at most _STOP of the sum, _STOP_FLOOR
# when the sum is below 1e-300
_STOP = 0.25 * _TARGET_REL_ERROR
_STOP_FLOOR = _STOP * 1e-300


def _bessel_series(nu: float, x: float, lead: float) -> tuple[float, float]:
    """lead times sum_k (-x^2/4)^k / (k! (nu+1)_k), the ascending series
    of J_nu(x) (DLMF 10.2.2) when lead = (x/2)^nu / Gamma(nu+1), and the
    sum of its terms' absolute values; x >= 0 and nu > -1.  Summed until
    a term is below 2.5e-13 of the sum and the terms shrink by more than
    half per step."""
    q = 0.25 * x * x
    term = total = lead
    abs_total = abs(lead)
    k = 0
    while True:
        k += 1
        term *= -q / (k * (k + nu))
        total += term
        size = abs(term)
        abs_total += size
        # size <= _STOP max(|total|, 1e-300), without the call to max
        if ((size <= _STOP * abs(total) or size <= _STOP_FLOOR)
                and q / ((k + 1) * (k + 1 + nu)) < 0.5):
            break
        if k > _MAX_TERMS:
            break
    return total, abs_total


def theta1_prime0(q: float) -> SpecialValue:
    """d/dz theta_1(z, q) at z = 0: 2 sum (-1)^(n+1) (2n-1) q^((n-1/2)^2).

    Direct truncated summation; terms first grow for q near 1, so the stop
    rule only fires past the term peak.  The reported est_rel_error includes
    the cancellation penalty, which becomes ruinous as q -> 1 (the true
    value decays faster than any honest double-precision summation): from
    about q = 0.95 the rounding bound exceeds the sum and it is inf.
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
    # rounding, and the first omitted term (< mag) of the doubled sum
    bound = 8.0 * _EPS * abs_total + 2.0 * mag
    return SpecialValue(total, max(_TARGET_REL_ERROR, _rel_bound(total, bound)))
