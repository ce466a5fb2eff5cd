"""Special-function accuracy against independent oracles.

Oracles are computed inside the tests: recurrence products from
Gamma(1/2), log-factorial sums, direct series with tail bounds, and the
theta product formula.  They never reuse the implementation path they
check.
"""

import math
import random
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hyptrig import catalog, quad, specfun
from hyptrig.errors import DomainError
from hyptrig.specfun import (gamma, log_gamma, hurwitz_zeta, dirichlet_beta,
                             dirichlet_eta, bessel_j, theta1_prime0)

SQRT_PI = math.sqrt(math.pi)
EPS = sys.float_info.epsilon
DBL_MAX, DBL_MIN = sys.float_info.max, sys.float_info.min


class TestGamma:
    def test_gamma_one(self):
        assert gamma(1.0).value == pytest.approx(1.0, rel=1e-14)

    def test_gamma_half(self):
        # forced by the reflection formula: Gamma(1/2)^2 = pi
        assert gamma(0.5).value == pytest.approx(SQRT_PI, rel=1e-14)

    def test_gamma_recurrence_oracle(self):
        # Gamma(7.5) from Gamma(0.5) via Gamma(x+1) = x Gamma(x)
        expected = SQRT_PI
        for k in range(7):
            expected *= 0.5 + k
        assert gamma(7.5).value == pytest.approx(expected, rel=1e-13)

    def test_accuracy_claim_along_axis(self):
        # recurrence oracle at integer+half points through x = 49.5
        expected = SQRT_PI
        for k in range(49):
            expected *= 0.5 + k
            x = 1.5 + k
            got = gamma(x).value
            oracle = expected
            assert abs(got - oracle) <= 1e-12 * oracle
        assert gamma(49.5).est_rel_error <= 1e-12

    def test_reflection_property(self):
        rng = random.Random(12345)
        for _ in range(50):
            z = rng.uniform(0.05, 0.95)
            # Gamma(1-z) via recurrence from Gamma(2-z) keeps x > 0
            g1mz = gamma(2.0 - z).value / (1.0 - z)
            lhs = gamma(z).value * g1mz * math.sin(math.pi * z) / math.pi
            assert abs(lhs - 1.0) <= 1e-11

    def test_duplication_property(self):
        # Gamma(2n+1) = 2^(2n)/sqrt(pi) Gamma(n+1/2) Gamma(n+1)
        for n in range(1, 11):
            lhs = gamma(2.0 * n + 1.0).value
            rhs = (4.0 ** n / SQRT_PI * gamma(n + 0.5).value
                   * gamma(float(n + 1)).value)
            assert abs(lhs - rhs) <= 1e-11 * abs(rhs)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            gamma(0.0)
        with pytest.raises(DomainError):
            gamma(-1.5)

    def test_overflow_is_a_domain_error(self):
        # t^(x - 1/2) in the direct product overflows past x = 142.215
        for x in (142.3, 143.0, 150.0):
            with pytest.raises(DomainError):
                gamma(x)
        g = gamma(142.0).value
        assert g == 1.8981437590760007e+243
        assert abs(g - math.factorial(141)) <= 1e-12 * math.factorial(141)


class TestLogGamma:
    def test_zeros(self):
        assert abs(log_gamma(1.0).value) <= 1e-13
        assert abs(log_gamma(2.0).value) <= 1e-13

    def test_log_factorial_oracle(self):
        # ln Gamma(100) = sum of ln k, k = 1..99
        oracle = sum(math.log(k) for k in range(1, 100))
        assert log_gamma(100.0).value == pytest.approx(oracle, rel=1e-14)

    def test_large_argument(self):
        oracle = math.fsum(math.log(k) for k in range(1, 10_000))
        assert log_gamma(1e4).value == pytest.approx(oracle, rel=1e-13)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            log_gamma(-3.0)


class TestHurwitzZeta:
    def test_basel(self):
        assert hurwitz_zeta(2.0, 1.0).value == pytest.approx(math.pi ** 2 / 6, rel=1e-13)

    def test_direct_sum_oracle(self):
        # large s converges fast enough for naive summation
        for (s, a) in [(8.0, 1.0), (6.0, 0.3), (10.0, 2.5)]:
            oracle = sum((n + a) ** (-s) for n in range(200_000, -1, -1))
            assert hurwitz_zeta(s, a).value == pytest.approx(oracle, rel=1e-12)

    def test_half_offset_reduction(self):
        # zeta(s, 1/2) = (2^s - 1) zeta(s)
        s = 3.0
        lhs = hurwitz_zeta(s, 0.5).value
        rhs = (2.0 ** s - 1.0) * hurwitz_zeta(s, 1.0).value
        assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_functional_equation_point(self):
        a = 0.7
        lhs = hurwitz_zeta(2.0, a + 1.0).value
        rhs = hurwitz_zeta(2.0, a).value - a ** (-2.0)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_functional_equation_property(self):
        rng = random.Random(777)
        for _ in range(100):
            s = rng.uniform(1.1, 20.0)
            a = rng.uniform(0.1, 10.0)
            za = hurwitz_zeta(s, a).value
            zb = hurwitz_zeta(s, a + 1.0).value
            assert abs(zb - za + a ** (-s)) <= 1e-11 * abs(za)

    def test_wide_domain(self):
        # spot checks across the contractual (s, a) box
        for (s, a) in [(1.01, 0.01), (60.0, 100.0), (1.5, 99.5), (59.0, 0.5)]:
            v = hurwitz_zeta(s, a)
            assert math.isfinite(v.value) and v.value > 0.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            hurwitz_zeta(1.0, 1.0)
        with pytest.raises(DomainError):
            hurwitz_zeta(2.0, 0.0)


def _ln_lower_bound(s, a):
    # zeta(s, a) >= max(a^-s, a^(1-s)/(s-1)): its first term, and the
    # integral of x^-s from a
    return max(-s * math.log(a), (1.0 - s) * math.log(a) - math.log(s - 1.0))


def _zeta_reference(s, a):
    """mp.zeta(s, a) at 80 digits beyond the value's decimal exponent.

    mpmath sums in fixed point, so its error is absolute: at 80 digits it
    is 2e-9 relative at s = 57.7, a = 1357, where zeta is 3.6e-180.
    """
    digits = 80 + max(0, math.ceil(-_ln_lower_bound(s, a) / math.log(10.0)))
    with mpmath.workdps(digits):
        return mpmath.zeta(mpmath.mpf(s), mpmath.mpf(a))


@pytest.fixture
def em_lengths(monkeypatch):
    """The direct-sum length n of every _hurwitz_em call, in order."""
    lengths = []
    em = specfun._hurwitz_em
    monkeypatch.setattr(specfun, "_hurwitz_em",
                        lambda s, a, n: lengths.append(n) or em(s, a, n))
    return lengths


class TestHurwitzAgainstMpmath:
    """hurwitz_zeta over s in (1, 150], a in [1e-3, 1e4] against mp.zeta."""

    @settings(max_examples=500, derandomize=True, database=None, deadline=None)
    @given(s=st.one_of(st.floats(-6.0, math.log10(149.0)).map(lambda u: 1.0 + 10.0 ** u),
                       st.floats(1.0, 150.0, exclude_min=True)),
           a=st.one_of(st.floats(-3.0, 4.0).map(lambda v: 10.0 ** v),
                       st.floats(1e-3, 1e4)))
    @example(s=1.0 + 1e-6, a=1e-3)
    @example(s=22.594, a=44.985)  # mp.zeta at 40 digits is 6.5e-13 off here
    # k + a rounds, and x^-s makes that s times worse: 24 and 45 ulps
    # without _hurwitz_em's first-order correction
    @example(s=142.0, a=127.88248031740285)
    @example(s=100.0, a=1024.0 - 2.0 ** -43)
    @example(s=150.0, a=1e-3)  # a^-s overflows
    @example(s=150.0, a=1e4)  # below the smallest normal double
    def test_within_estimate_and_32_ulps(self, s, a):
        ln_l = _ln_lower_bound(s, a)
        if ln_l + math.log(2.0) > math.log(DBL_MAX):
            with pytest.raises(DomainError):
                hurwitz_zeta(s, a)
            return
        sv = hurwitz_zeta(s, a)
        if ln_l < math.log(DBL_MIN):
            assert sv.est_rel_error == math.inf
            assert 0.0 <= sv.value < 4.0 * DBL_MIN
            return
        ref = _zeta_reference(s, a)
        err = float(abs(sv.value - ref) / ref)
        assert err <= sv.est_rel_error
        assert err <= 32 * EPS


def _assert_within_estimate(sv, ref, relative=True):
    """|sv.value - ref| is at most sv.est_rel_error, times |ref| unless
    relative is False (log_gamma's estimate is absolute), or 2 ulps of
    ref: no double is nearer than half an ulp."""
    ref = mpmath.mpf(ref)
    err = float(abs(mpmath.mpf(sv.value) - ref))
    bound = sv.est_rel_error * (abs(float(ref)) if relative else 1.0)
    assert err <= max(bound, 2.0 * math.ulp(float(ref))), (sv, ref)


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda u: 10.0 ** u)


class TestAgainstMpmath:
    """The rest of specfun over its documented domains against mpmath at 40
    digits: the error is within est_rel_error, up to 2 ulps.  A series
    that reports est_rel_error inf promises nothing."""

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(x=st.one_of(_log_uniform(1e-300, 142.2), st.floats(1e-3, 142.2)))
    @example(x=141.8968717595409)  # 9e-14, where the Lanczos sum tends to c_0
    def test_gamma(self, x):
        with mpmath.workdps(40):
            _assert_within_estimate(gamma(x), mpmath.gamma(x))

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(x=st.one_of(_log_uniform(1e-300, 1e4), st.floats(1e-3, 1e4)))
    @example(x=2157.140191797621)  # 5.6e-12, eps x ln x of rounding
    @example(x=1e-300)
    def test_log_gamma(self, x):
        with mpmath.workdps(40):
            _assert_within_estimate(log_gamma(x), mpmath.loggamma(x), relative=False)

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(nu=st.one_of(st.integers(-1, 30).map(float), st.floats(-1.0, 30.0)),
           x=st.one_of(st.floats(-50.0, 50.0), _log_uniform(1e-3, 50.0)))
    def test_bessel_j(self, nu, x):
        try:
            sv = bessel_j(nu, x)
        except DomainError:
            # a non-integer order takes x >= 0, and J_nu(0) is unbounded for nu < 0
            assert nu != round(nu) and (x < 0.0 or x == 0.0 and nu < 0.0)
            return
        if sv.est_rel_error < math.inf:
            with mpmath.workdps(40):
                _assert_within_estimate(sv, mpmath.besselj(nu, x))

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(q=st.one_of(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                       _log_uniform(1e-300, 0.5)))
    def test_theta1_prime0(self, q):
        sv = theta1_prime0(q)
        if sv.est_rel_error < math.inf:
            with mpmath.workdps(40):
                _assert_within_estimate(sv, mpmath.jtheta(1, 0, q, 1))

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(p=st.one_of(_log_uniform(1e-3, 100.0), st.floats(0.0, 100.0, exclude_min=True)))
    @example(p=1.0 + 1e-6)  # two Hurwitz zetas near 1e6 cancel
    def test_dirichlet_beta(self, p):
        with mpmath.workdps(40):
            _assert_within_estimate(dirichlet_beta(p), mpmath.dirichlet(p, [0, 1, 0, -1]))

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(s=st.one_of(_log_uniform(1e-3, 100.0), st.floats(0.0, 100.0)))
    @example(s=1.25)  # the last point of the CRVZ-accelerated series
    def test_dirichlet_eta(self, s):
        with mpmath.workdps(40):
            _assert_within_estimate(dirichlet_eta(s), mpmath.altzeta(s))


class TestHurwitzEdges:
    """The ends of the domain: overflow, underflow, huge a and huge s."""

    def test_overflow_is_a_domain_error_before_any_sum(self, em_lengths):
        for s, a in ((200.0, 0.01), (2.0, 1e-200), (1.5, 5e-324), (1e308, 0.5)):
            with pytest.raises(DomainError):
                hurwitz_zeta(s, a)
        assert em_lengths == []

    def test_underflow_reports_an_infinite_estimate(self):
        for s, a in ((1e6, 2.0), (500.0, 5.0), (DBL_MAX, DBL_MAX)):
            sv = hurwitz_zeta(s, a)
            assert sv.value == 0.0 and sv.est_rel_error == math.inf
        # the largest value below the threshold is still returned
        sv = hurwitz_zeta(2.0, 1e308)
        assert sv.est_rel_error == math.inf and 0.0 < sv.value < DBL_MIN

    def test_lemma5_sum_runs_into_underflow(self):
        # zeta(500, 5) ~ 1e-350 is among its terms; the sum is ln 1.25
        lhs = catalog.lemma5_lhs(1.0, 5.0, 250)
        assert abs(lhs - 0.2231435513142) < 1e-13
        assert lhs == pytest.approx(catalog.lemma5_rhs(1.0, 5.0), rel=1e-14)

    def test_large_a_costs_one_evaluation(self, em_lengths):
        for a in (1e7, 1e300):
            sv = hurwitz_zeta(2.0, a)
            ref = _zeta_reference(2.0, a)
            assert sv.value == float(ref)
            assert float(abs(sv.value - ref) / ref) <= sv.est_rel_error
        hurwitz_zeta(2.0, DBL_MAX)
        assert em_lengths == [1, 1, 1]

    def test_huge_s(self):
        assert hurwitz_zeta(1e308, 1.0).value == 1.0
        assert hurwitz_zeta(1e308, 1.0).est_rel_error < 1e-14
        assert hurwitz_zeta(DBL_MAX, 1.0).value == 1.0

    def test_no_overflow_error_anywhere(self, em_lengths):
        for s in (1.0 + EPS, 1.0 + 1e-6, 1.5, 2.0, 150.0, 1e6, 1e15, 1e308, DBL_MAX):
            for a in (5e-324, DBL_MIN, 1e-300, 1e-3, 0.5, 1.0, 2.0, 1e4, 1e300, DBL_MAX):
                try:
                    sv = hurwitz_zeta(s, a)
                except DomainError:
                    continue
                assert math.isfinite(sv.value) and sv.value >= 0.0, (s, a)
                assert sv.est_rel_error >= 21 * EPS, (s, a)
        assert 0 < max(em_lengths) <= 9


class TestHurwitzCounts:
    """One Euler-Maclaurin sum per call, and a few terms in it."""

    def test_lemma5(self, em_lengths):
        # the sum stops at its first term that leaves it unchanged
        catalog.lemma5_lhs(0.5, 2.0, 60)
        assert len(em_lengths) == 17
        assert sum(em_lengths) <= 300

    def test_seed17_audit(self, full_audit):
        echo = full_audit.config_echo
        assert echo["hurwitz_em_calls"] == echo["hurwitz_zeta_calls"] == 108
        assert echo["hurwitz_em_terms"] <= 1000


class TestRiemannZeta:
    """The Riemann zeta, zeta(s) = hurwitz_zeta(s, 1)."""

    def test_basel(self):
        assert hurwitz_zeta(2.0, 1.0).value == pytest.approx(math.pi ** 2 / 6, rel=1e-13)

    def test_zeta_four(self):
        # direct summation oracle: tail below 1e-13 by n = 2000
        oracle = sum(n ** (-4.0) for n in range(2000, 0, -1)) + 2000 ** (-3.0) / 3.0
        assert hurwitz_zeta(4.0, 1.0).value == pytest.approx(math.pi ** 4 / 90, rel=1e-13)
        assert hurwitz_zeta(4.0, 1.0).value == pytest.approx(oracle, rel=1e-12)

    def test_pole_excluded(self):
        with pytest.raises(DomainError):
            hurwitz_zeta(1.0, 1.0)


class TestPolygamma:
    """The trigamma function through psi'(z) = zeta(2, z)."""

    def test_trigamma_half(self):
        # zeta(2, 1/2) = 3 zeta(2) so psi'(1/2) = pi^2/2
        assert hurwitz_zeta(2.0, 0.5).value == pytest.approx(math.pi ** 2 / 2, rel=1e-12)

    def test_trigamma_one(self):
        assert hurwitz_zeta(2.0, 1.0).value == pytest.approx(math.pi ** 2 / 6, rel=1e-12)

    def test_trigamma_reflection_point(self):
        z = 0.3
        lhs = hurwitz_zeta(2.0, z).value + hurwitz_zeta(2.0, 1.0 - z).value
        rhs = math.pi ** 2 / math.sin(math.pi * z) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_trigamma_reflection_property(self):
        rng = random.Random(4242)
        for _ in range(40):
            z = rng.uniform(0.05, 0.95)
            lhs = hurwitz_zeta(2.0, z).value + hurwitz_zeta(2.0, 1.0 - z).value
            rhs = math.pi ** 2 / math.sin(math.pi * z) ** 2
            assert abs(lhs - rhs) <= 1e-10 * abs(rhs)


def _alternating_oracle(terms):
    # Aitken-accelerated partial sums at two depths, for frozen-free checks
    sums = list(np.cumsum(terms))

    def aitken_pass(s):
        out = []
        for k in range(len(s) - 2):
            d1, d2 = s[k + 1] - s[k], s[k + 2] - s[k + 1]
            den = d2 - d1
            out.append(s[k + 2] - d2 * d2 / den if abs(den) > 1e-300 else s[k + 2])
        return out

    depth1 = sums
    for _ in range(6):
        depth1 = aitken_pass(depth1)
    depth2 = sums
    for _ in range(8):
        depth2 = aitken_pass(depth2)
    assert abs(depth1[-1] - depth2[-1]) < 1e-12
    return depth2[-1]


class TestDirichletBeta:
    def test_leibniz(self):
        assert dirichlet_beta(1.0).value == pytest.approx(math.pi / 4, rel=1e-13)

    def test_catalan(self):
        oracle = _alternating_oracle([(-1.0) ** k / (2 * k + 1) ** 2
                                      for k in range(40)])
        assert dirichlet_beta(2.0).value == pytest.approx(oracle, rel=1e-12)

    def test_beta_three(self):
        assert dirichlet_beta(3.0).value == pytest.approx(math.pi ** 3 / 32, rel=1e-13)

    def test_hurwitz_consistency_property(self):
        for p in (1.5, 2.0, 3.0, 5.0):
            b = dirichlet_beta(p).value
            hz = 4.0 ** (-p) * (hurwitz_zeta(p, 0.25).value
                                - hurwitz_zeta(p, 0.75).value)
            assert abs(b - hz) <= 1e-11 * abs(b)

    def test_small_p(self):
        oracle = _alternating_oracle([(-1.0) ** k / (2 * k + 1) ** 0.5
                                      for k in range(40)])
        assert dirichlet_beta(0.5).value == pytest.approx(oracle, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            dirichlet_beta(0.0)

    def test_estimate_covers_cancellation_near_one(self):
        # zeta(p, 1/4) and zeta(p, 3/4) both grow like 1/(p - 1)
        import mpmath
        with mpmath.workdps(40):
            for p in (1.0021, 1.0001, 1.0 + 1e-6):
                ref = float(mpmath.dirichlet(p, [0, 1, 0, -1]))
                sv = dirichlet_beta(p)
                assert abs(sv.value - ref) <= sv.est_rel_error * abs(ref)


class TestDirichletEta:
    def test_ln2(self):
        assert dirichlet_eta(1.0).value == pytest.approx(math.log(2.0), rel=1e-13)

    def test_zeta_relation(self):
        s = 3.0
        assert dirichlet_eta(s).value == pytest.approx(
            (1.0 - 2.0 ** (1.0 - s)) * hurwitz_zeta(s, 1.0).value, rel=1e-13)

    def test_eta_zero(self):
        # eta(0) = 1/2 (Abel sum of 1 - 1 + 1 - ...)
        assert dirichlet_eta(0.0).value == pytest.approx(0.5, rel=1e-12)

    def test_branch_continuity(self):
        below = dirichlet_eta(1.2499).value
        above = dirichlet_eta(1.2501).value
        assert abs(below - above) < 1e-4


class TestAlternatingSeries:
    """eta on [0, 1.25] and beta on (0, 1], the CRVZ sums of 22 terms."""

    GRID = (0.0, 1e-300, 1e-12, 1e-6, 1e-3, 0.1, 0.25, 0.5, 0.75, 0.9, 0.999,
            1.0, 1.1, 1.2, 1.25)

    def test_eta_against_altzeta(self):
        assert dirichlet_eta(0.0).value == 0.5
        with mpmath.workdps(40):
            for s in self.GRID:
                ref = mpmath.altzeta(s)
                assert abs(dirichlet_eta(s).value - ref) <= 2.5e-15 * abs(ref), s

    def test_beta_against_dirichlet(self):
        with mpmath.workdps(40):
            for p in self.GRID[1:12]:
                ref = mpmath.dirichlet(p, [0, 1, 0, -1])
                assert abs(dirichlet_beta(p).value - ref) <= 2.5e-15 * abs(ref), p

    def test_crvz_of_the_first_22_terms(self):
        terms = [(-1.0) ** k / (2 * k + 1) ** 0.5 for k in range(22)]
        assert dirichlet_beta(0.5).value == quad._crvz(terms)
        assert dirichlet_beta(0.5).est_rel_error == 1e-14


class TestBesselJ:
    def test_j0_origin(self):
        assert bessel_j(0.0, 0.0).value == 1.0

    def test_j0_even(self):
        x = 2.3
        assert bessel_j(0.0, -x).value == bessel_j(0.0, x).value

    def test_half_order_closed_form(self):
        # J_{1/2}(x) = sqrt(2/(pi x)) sin x, checked at x = 1
        oracle = math.sqrt(2.0 / math.pi) * math.sin(1.0)
        assert bessel_j(0.5, 1.0).value == pytest.approx(oracle, rel=1e-13)

    def test_minus_one_order(self):
        assert bessel_j(-1.0, 1.7).value == pytest.approx(
            -bessel_j(1.0, 1.7).value, rel=1e-14)

    def test_odd_parity(self):
        assert bessel_j(1.0, -2.0).value == pytest.approx(
            -bessel_j(1.0, 2.0).value, rel=1e-14)

    def test_recurrence_oracle(self):
        # J_{n-1}(x) + J_{n+1}(x) = (2n/x) J_n(x)
        for x in (0.7, 3.0, 8.0):
            for n in (1, 2, 5):
                lhs = bessel_j(n - 1.0, x).value + bessel_j(n + 1.0, x).value
                rhs = 2.0 * n / x * bessel_j(float(n), x).value
                assert abs(lhs - rhs) <= 1e-11 * max(1e-6, abs(rhs))

    def test_addition_identity_5_1(self):
        # sum_k (-1)^k t^k ((2z+t)/(2z))^k J_k(z)/k! = J0(z+t), K = 30
        for (z, t) in ((2.0, 0.5), (3.0, -1.0), (1.0, 1.0)):
            total = 0.0
            for k in range(31):
                coef = (-t * (2.0 * z + t) / (2.0 * z)) ** k / math.factorial(k)
                total += coef * bessel_j(float(k), z).value
            assert abs(total - bessel_j(0.0, z + t).value) <= 1e-9

    def test_estimate_bounds_the_error_against_mpmath(self):
        # the rounding bound reaches the sum itself at x = 45.6: the
        # estimate must then be inf (it read 211 against an error of 426)
        assert bessel_j(1.34, 45.6).est_rel_error == math.inf
        for nu in (0.0, 0.5, 1.0, 1.34, 2.7, -0.5, -1.0):
            for x in (5.0, 15.0, 25.0, 30.0, 35.0, 40.0, 45.6, 50.0):
                sv = bessel_j(nu, x)
                with mpmath.workdps(30):
                    ref = mpmath.besselj(nu, x)
                assert abs(sv.value - ref) <= sv.est_rel_error * abs(ref), (nu, x)

    def test_est_rel_error_honesty(self):
        # the claimed bound must cover the cancellation at larger x
        sv = bessel_j(0.0, 20.0)
        oracle_terms = []
        term = 1.0
        q = 100.0  # (x/2)^2
        oracle_terms.append(term)
        for k in range(1, 80):
            term *= -q / (k * k)
            oracle_terms.append(term)
        oracle = math.fsum(sorted(oracle_terms, key=abs))
        assert abs(sv.value - oracle) <= max(sv.est_rel_error * abs(oracle), 1e-15)

    # J0 and J1 take Gamma(1) and Gamma(2) from module constants; their
    # values must keep the bits of the Lanczos gamma they replace
    PINNED = {
        0.0: {0.25: "0x1.f807fc72aa862p-1", 1.0: "0x1.87c7fdbd7b8eep-1",
              2.404825557695773: "-0x1.b6d6048bf1427p-54", 3.7: "-0x1.98cfcd6c38015p-2",
              7.5: "0x1.10bb57e0e569bp-2", 12.0: "0x1.86abbbc7c4146p-5"},
        1.0: {0.25: "0x1.fc02a9c749ee8p-4", 1.0: "0x1.c29c9ee970c6bp-2",
              2.404825557695773: "0x1.09cdb3655127ep-1", 3.7: "0x1.b9020e18f5f3ep-5",
              7.5: "0x1.14fd20aa52782p-3", 12.0: "-0x1.c99ea2b162222p-3"},
    }

    @pytest.mark.parametrize("nu", [0.0, 1.0])
    def test_integer_orders_keep_their_bits(self, nu):
        for x, pinned in self.PINNED[nu].items():
            assert bessel_j(nu, x).value.hex() == pinned, x
        assert specfun._GAMMA_1.hex() == gamma(1.0).value.hex() == "0x1.0000000000001p+0"
        assert specfun._GAMMA_2.hex() == gamma(2.0).value.hex()

    def test_domain(self):
        with pytest.raises(DomainError):
            bessel_j(-2.0, 1.0)
        with pytest.raises(DomainError):
            bessel_j(0.5, -1.0)
        with pytest.raises(DomainError):
            bessel_j(0.0, 60.0)


def _theta_product(q: float) -> float:
    # independent oracle: theta1'(0, q) = 2 q^(1/4) prod (1 - q^(2n))^3
    prod = 1.0
    n = 1
    while True:
        factor = 1.0 - q ** (2 * n)
        prod *= factor ** 3
        if q ** (2 * n) < 1e-18:
            return 2.0 * q ** 0.25 * prod
        n += 1


class TestTheta1Prime:
    def test_small_q_leading_term(self):
        q = 1e-12
        assert theta1_prime0(q).value == pytest.approx(2.0 * q ** 0.25, rel=1e-8)

    def test_frozen_point(self):
        # 50-term direct-summation oracle at q = e^-2
        q = math.exp(-2.0)
        oracle = 2.0 * math.fsum((-1.0) ** (n + 1) * (2 * n - 1) * q ** ((n - 0.5) ** 2)
                                 for n in range(1, 51))
        assert theta1_prime0(q).value == pytest.approx(oracle, rel=1e-13)

    def test_product_formula_agreement(self):
        for q in (0.1, 0.3, 0.5, 0.67):
            assert theta1_prime0(q).value == pytest.approx(
                _theta_product(q), rel=1e-12)

    def test_estimate_bounds_the_error_against_mpmath(self):
        # oracle: the product formula, no cancellation; mpmath's jtheta
        # cancels below about 120 digits at q = 0.99 (9.3e-39 at 30 digits)
        with mpmath.workdps(40):
            def ref(q):
                q = mpmath.mpf(q)
                return 2 * q ** 0.25 * mpmath.qp(q * q, q * q) ** 3

            assert ref(0.99) == pytest.approx(2.644249982975e-103, rel=1e-12)
            # the sum is 2.4e-15 there; the estimate read 74
            assert theta1_prime0(0.99).est_rel_error == math.inf
            for q in (0.1, 0.5, 0.8, 0.9, 0.93, 0.95, 0.97, 0.99):
                sv = theta1_prime0(q)
                assert abs(sv.value - ref(q)) <= sv.est_rel_error * ref(q), q

    def test_large_q_honest_estimate(self):
        # at q = 0.99 the true value (2.6e-103) is beneath the double-precision
        # cancellation floor; the summation must terminate and report that
        # honestly rather than claim accuracy
        sv = theta1_prime0(0.99)
        assert abs(sv.value) <= 1e-12
        assert sv.est_rel_error > 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            theta1_prime0(0.0)
        with pytest.raises(DomainError):
            theta1_prime0(1.0)


class TestAccuracySpec:
    """Every series runs to one fixed accuracy target and term cap."""

    def test_deterministic(self):
        a = hurwitz_zeta(3.7, 1.9).value
        b = hurwitz_zeta(3.7, 1.9).value
        assert a == b
