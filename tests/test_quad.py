"""Quadrature engine tests: elementary oracles, kernels finite at a
removable point, the engine each interval picks, acceleration, and the
kernel/product identities the integrand rewrites rely on."""

import functools
import math
import random

import mpmath
import numpy as np
import pytest

from hyptrig import catalog, quad
from hyptrig.auditor import sample_params
from hyptrig.errors import DomainError
from hyptrig.quad import (Integrand, IntervalSpec, integrate, euler_transform,
                          STATUS_CONVERGED, STATUS_DIVERGENT)

PI = math.pi

# the domains most of the engine tests integrate over
UNIT_ENDS = IntervalSpec(0.0, 1.0)
SINE_HALF_PERIODS = IntervalSpec(0.0, osc_hint=1.0)


def _decay_spec(decay_hint, **hints):
    return IntervalSpec(0.0, decay_hint=decay_hint, **hints)


class TestIntegrateFinite:
    """Adaptive Gauss-Kronrod on finite intervals (the gauss_kronrod
    fixture), and the finite bounds integrate requires."""

    def test_sine(self, gauss_kronrod):
        r = gauss_kronrod(Integrand(eval=np.sin), 0.0, PI, 1e-12)
        assert r.status == STATUS_CONVERGED
        assert r.value == pytest.approx(2.0, abs=1e-12)
        assert abs(r.value - 2.0) <= r.abs_error_est <= 1e-12

    def test_cubic(self, gauss_kronrod):
        r = gauss_kronrod(Integrand(eval=lambda x: x ** 3), 0.0, 1.0, 1e-12)
        assert r.value == pytest.approx(0.25, abs=1e-13)

    def test_removable_point_vs_midpoint_oracle(self, gauss_kronrod):
        # sin(x) x/(x^2 - pi^2) over [0, 2 pi], written finite at its 0/0
        # at pi, the first panel's midpoint: sin x/(x - pi) = -sinc((x - pi)/pi)
        f = Integrand(eval=lambda x: -np.sinc((x - PI) / PI) * x / (x + PI))
        r = gauss_kronrod(f, 0.0, 2.0 * PI, 1e-11)
        xs = (np.arange(1_000_000) + 0.5) * (2.0 * PI / 1_000_000)
        oracle = float(np.sum(np.sin(xs) * xs / (xs * xs - PI ** 2))
                       * (2.0 * PI / 1_000_000))
        assert r.status == STATUS_CONVERGED
        assert r.value == pytest.approx(oracle, abs=5e-11)

    def test_bad_interval(self):
        with pytest.raises(DomainError):
            integrate(Integrand(eval=np.sin), IntervalSpec(1.0, 1.0), 1e-10)

    def test_linearity_property(self, gauss_kronrod):
        rng = random.Random(99)
        f = Integrand(eval=np.sin)
        g = Integrand(eval=lambda x: x * x)
        rf = gauss_kronrod(f, 0.0, 2.0, 1e-12)
        rg = gauss_kronrod(g, 0.0, 2.0, 1e-12)
        for _ in range(10):
            al = rng.uniform(-2.0, 2.0)
            be = rng.uniform(-2.0, 2.0)
            h = Integrand(eval=lambda x, al=al, be=be: al * np.sin(x) + be * x * x)
            rh = gauss_kronrod(h, 0.0, 2.0, 1e-12)
            bound = 2.0 * (rh.abs_error_est
                           + abs(al) * rf.abs_error_est + abs(be) * rg.abs_error_est)
            assert abs(rh.value - (al * rf.value + be * rg.value)) <= max(bound, 1e-13)

    def test_interval_additivity_property(self, gauss_kronrod):
        f = Integrand(eval=lambda x: np.exp(-x) * np.cos(3.0 * x))
        whole = gauss_kronrod(f, 0.0, 5.0, 1e-12)
        left = gauss_kronrod(f, 0.0, 1.7, 1e-12)
        right = gauss_kronrod(f, 1.7, 5.0, 1e-12)
        bound = whole.abs_error_est + left.abs_error_est + right.abs_error_est
        assert abs(whole.value - left.value - right.value) <= max(bound, 1e-13)

    def test_elementary_antiderivative_oracles(self, gauss_kronrod):
        # 20 integrands with known antiderivatives on assorted intervals
        cases = [
            (lambda x: np.cos(x), lambda x: math.sin(x), 0.0, 1.3),
            (lambda x: np.sin(2 * x), lambda x: -math.cos(2 * x) / 2, 0.0, 2.0),
            (lambda x: np.exp(x), lambda x: math.exp(x), -1.0, 1.0),
            (lambda x: np.exp(-3 * x), lambda x: -math.exp(-3 * x) / 3, 0.0, 2.0),
            (lambda x: x ** 4, lambda x: x ** 5 / 5, -1.0, 2.0),
            (lambda x: 1.0 / (1.0 + x * x), lambda x: math.atan(x), 0.0, 4.0),
            (lambda x: np.cosh(x), lambda x: math.sinh(x), -0.5, 1.5),
            (lambda x: np.sinh(2 * x), lambda x: math.cosh(2 * x) / 2, 0.0, 1.0),
            (lambda x: 1.0 / x, lambda x: math.log(x), 1.0, 7.0),
            (lambda x: np.sqrt(x), lambda x: x ** 1.5 / 1.5, 0.0, 4.0),
            (lambda x: x * np.exp(-x * x), lambda x: -math.exp(-x * x) / 2, 0.0, 3.0),
            (lambda x: np.tanh(x) / np.cosh(x) ** 2,
             lambda x: math.tanh(x) ** 2 / 2, 0.0, 2.0),
            (lambda x: np.sin(x) ** 2, lambda x: x / 2 - math.sin(2 * x) / 4, 0.0, PI),
            (lambda x: 1.0 / np.cosh(x) ** 2, lambda x: math.tanh(x), -2.0, 2.0),
            (lambda x: x * np.cos(x), lambda x: math.cos(x) + x * math.sin(x), 0.0, 5.0),
            (lambda x: np.log(x), lambda x: x * math.log(x) - x, 1.0, 4.0),
            (lambda x: 1.0 / (x * x), lambda x: -1.0 / x, 1.0, 9.0),
            (lambda x: np.exp(x) * np.sin(x),
             lambda x: math.exp(x) * (math.sin(x) - math.cos(x)) / 2, 0.0, 2.0),
            (lambda x: 3.0 * x * x + 2.0 * x + 1.0,
             lambda x: x ** 3 + x ** 2 + x, -2.0, 2.0),
            (lambda x: np.sin(x) / np.exp(x),
             lambda x: -math.exp(-x) * (math.sin(x) + math.cos(x)) / 2, 0.0, 6.0),
        ]
        assert len(cases) == 20
        for fe, F, a, b in cases:
            r = gauss_kronrod(Integrand(eval=fe), a, b, 1e-11)
            exact = F(b) - F(a)
            assert r.status == STATUS_CONVERGED
            assert abs(r.value - exact) <= max(r.abs_error_est, 2e-13 * max(1, abs(exact)))
            assert r.abs_error_est <= 1e-11


class TestEndpointSingular:
    def test_arcsine(self):
        f = Integrand(eval=lambda x: 1.0 / np.sqrt((1.0 - x) * (1.0 + x)),
                      eval_upper_dist=lambda d: 1.0 / np.sqrt(d * (2.0 - d)))
        r = integrate(f, UNIT_ENDS, 1e-12)
        assert r.status == STATUS_CONVERGED
        assert r.value == pytest.approx(PI / 2.0, abs=1e-12)

    def test_inverse_sqrt(self):
        f = Integrand(eval=lambda x: 1.0 / np.sqrt(x))
        r = integrate(f, UNIT_ENDS, 1e-12)
        assert r.value == pytest.approx(2.0, abs=1e-12)

    def test_cosine_kernel_vs_theta_substitution(self, gauss_kronrod):
        # int_0^u cos(px)/sqrt(u^2-x^2) dx vs the theta-substituted oracle
        p, u = 1.0, 1.0
        f = Integrand(
            eval=lambda x: np.cos(p * x) / np.sqrt((u - x) * (u + x)),
            eval_upper_dist=lambda d: np.cos(p * (u - d)) / np.sqrt(d * (2.0 * u - d)))
        r = integrate(f, IntervalSpec(0.0, u), 1e-12)
        oracle = gauss_kronrod(
            Integrand(eval=lambda t: np.cos(p * u * np.cos(t))), 0.0, PI / 2.0, 1e-13)
        assert r.value == pytest.approx(oracle.value, abs=1e-11)

    def test_each_node_counts_once(self):
        # both halves are one request, so the calls go level by level: each
        # level is one call per kernel, on the rows of the live halves (one
        # call of both rows when the halves share their kernel, one call of
        # one row each when the right half has a distance callback);
        # evaluations is the nodes they hold
        shapes = []

        def ev(x):
            shapes.append(x.shape)
            return np.cos(x) / np.sqrt(x)

        def ev_upper(d):
            shapes.append(d.shape)
            return np.cos(1.0 - d)

        sizes = [quad._ts_level(level)[1].size for level in range(13)]
        for f, rows in ((Integrand(eval=ev), [2]),
                        (Integrand(eval=ev, eval_upper_dist=ev_upper), [1, 1])):
            del shapes[:]
            r = integrate(f, UNIT_ENDS, 1e-12)
            assert r.status == STATUS_CONVERGED
            levels = [sizes.index(n) for _, n in shapes]
            assert levels == sorted(levels)
            assert all(levels.count(level) <= len(rows) for level in levels)
            assert shapes[:len(rows)] == [(k, sizes[0]) for k in rows]
            widths = [k * n for k, n in shapes]
            assert r.evaluations == sum(widths)

    def test_smooth_integrand_also_fine(self):
        r = integrate(Integrand(eval=np.cos), UNIT_ENDS, 1e-12)
        assert r.value == pytest.approx(math.sin(1.0), abs=1e-12)


def _fresh_ts_level(level):
    # the tanh-sinh level (w, x) straight from the formulas, for comparison
    # with the tables the engine builds once and keeps
    h = 1.0 / (1 << level)
    n = int(quad._TS_CUTOFF / h)
    j = np.arange(-n, n + 1) if level == 0 else np.arange(-(n | 1), n + 1, 2)
    u = j * h
    with np.errstate(over="ignore"):
        sh = 0.5 * PI * np.sinh(u)
        keep = np.abs(sh) < 38.0
        sh = sh[keep]
        t = np.tanh(sh)
        w = 0.5 * PI * np.cosh(u[keep]) / np.cosh(sh) ** 2
        dist = 2.0 / (1.0 + np.exp(2.0 * np.abs(sh)))
    return w, np.where(t < 0.0, 0.5 * dist, 0.5 * (t + 1.0))


class TestTanhSinhNodes:
    def test_cached_levels_equal_a_fresh_computation(self):
        integrate(Integrand(eval=lambda x: 1.0 / np.sqrt(x)), UNIT_ENDS, 1e-15)
        nbytes = 0
        for level in range(13):
            w, x = quad._ts_level(level)
            fresh_w, fresh_x = _fresh_ts_level(level)
            assert w.tobytes() == fresh_w.tobytes()
            assert x.tobytes() == fresh_x.tobytes()
            nbytes += w.nbytes + x.nbytes
        assert nbytes <= 0.51e6

    def test_tables_are_read_only(self):
        f = Integrand(eval=lambda x: 1.0 / np.sqrt(x))
        before = integrate(f, UNIT_ENDS, 1e-12)
        for level in range(13):
            w, x = quad._ts_level(level)
            assert not w.flags.writeable and not x.flags.writeable

            with pytest.raises(ValueError):
                x[0] = 0.5

        def writes_into_its_argument(v):
            v *= 2.0
            return v

        # an integrand or distance callback that writes into its argument
        # writes into its own abscissae, never into the shared tables
        g = Integrand(eval=writes_into_its_argument, eval_upper_dist=writes_into_its_argument)
        with np.errstate(all="ignore"):
            # tol -1 never converges: every level runs
            quad._tanh_sinh_many([(quad._Job(g), [(0.0, 1.0, -1.0)])])
        for level in range(13):
            w, x = quad._ts_level(level)
            fresh_w, fresh_x = _fresh_ts_level(level)
            assert w.tobytes() == fresh_w.tobytes() and x.tobytes() == fresh_x.tobytes()
        assert integrate(f, UNIT_ENDS, 1e-12) == before


class TestDecay:
    def test_exponential(self):
        r = integrate(Integrand(eval=lambda x: np.exp(-x)), _decay_spec(1.0), 1e-11)
        assert r.status == STATUS_CONVERGED
        assert r.value == pytest.approx(1.0, abs=1e-11)

    def test_gamma_two(self):
        r = integrate(Integrand(eval=lambda x: x * np.exp(-2.0 * x)), _decay_spec(2.0), 1e-11)
        assert r.value == pytest.approx(0.25, abs=1e-11)

    def test_sech_squared_vs_series_oracle(self):
        # int_0^inf x/cosh^2 x dx = ln 2; oracle: Euler transform of the
        # alternating series sum (-1)^(m+1)/m
        r = integrate(Integrand(eval=lambda x: x / np.cosh(x) ** 2), _decay_spec(2.0), 1e-11)
        partials = list(np.cumsum([(-1.0) ** (m + 1) / m for m in range(1, 41)]))
        oracle = euler_transform(partials, 20)
        assert r.value == pytest.approx(math.log(2.0), abs=1e-11)
        assert r.value == pytest.approx(oracle, abs=1e-10)

    def test_lower_singular(self):
        # x^(-1/2) e^(-x): Gamma(1/2) = sqrt(pi)
        f = Integrand(eval=lambda x: np.exp(-x) / np.sqrt(x))
        r = integrate(f, _decay_spec(1.0, lower_singular=True), 1e-11)
        assert r.value == pytest.approx(math.sqrt(PI), abs=1e-10)

    @pytest.mark.parametrize("alpha", [0.05, 1.3, 3.7])
    def test_non_integer_power_at_lower(self, alpha, monkeypatch):
        # x^alpha e^(-x) = Gamma(alpha + 1): lower_singular puts [0, 1] on
        # tanh-sinh, so Gauss-Kronrod no longer bisects toward x = 0 (38
        # rounds at alpha = 0.05 without the flag)
        rounds = []
        gk_batch = quad._gk_batch
        monkeypatch.setattr(quad, "_gk_batch", lambda *a: rounds.append(1) or gk_batch(*a))
        f = Integrand(eval=lambda x, alpha: x ** alpha * np.exp(-x), args=(alpha,))
        r = integrate(f, _decay_spec(1.0, lower_singular=True), 1e-11)
        assert r.status == STATUS_CONVERGED
        assert abs(r.value - math.gamma(alpha + 1.0)) <= 1e-11
        if alpha == 0.05:
            assert len(rounds) <= 8

    def test_divergence_detected(self):
        # not actually decaying at the promised rate
        f = Integrand(eval=lambda x: 1.0 / (1.0 + x))
        r = integrate(f, _decay_spec(1.0), 1e-10)
        assert r.status in (STATUS_DIVERGENT, "max_effort")
        assert r.status != STATUS_CONVERGED

    def test_needs_positive_hint(self):
        with pytest.raises(DomainError):
            integrate(Integrand(eval=lambda x: np.exp(-x)), _decay_spec(0.0), 1e-10)

    @pytest.mark.parametrize("lam, omega, tol", [(1.0, 3.0, 1e-10), (1.0, 7.0, 1e-10),
                                                 (0.5, 5.0, 1e-9)])
    @pytest.mark.parametrize("where", [0.1, 0.5, 0.9])
    def test_bump_inside_the_first_block(self, lam, omega, tol, where):
        # a Gaussian bump that no probe sees, inside the first confirmation
        # block, whose panels are wider than the main range's: the engine
        # must find its mass, or not claim convergence
        def amplitude(x):
            return np.exp(-lam * x) * np.cos(omega * x)

        spec = _decay_spec(lam, osc_hint=omega)
        engine = quad._decay(quad._Job(Integrand(eval=amplitude)), spec, tol)
        _, probes = next(engine)
        _, [_, (lo, hi, *_)] = engine.send(amplitude(probes))
        engine.close()
        x0, sigma, height = lo + where * (hi - lo), 0.3, 1e-5
        assert probes[-1] + 10.0 * sigma < x0

        r = integrate(Integrand(eval=lambda x: amplitude(x)
                                + height * np.exp(-((x - x0) / sigma) ** 2)), spec, tol)
        with mpmath.workdps(30):
            exact = mpmath.quad(lambda x: mpmath.exp(-lam * x) * mpmath.cos(omega * x)
                                + height * mpmath.exp(-((x - x0) / sigma) ** 2),
                                [0, x0 - 8 * sigma, x0, x0 + 8 * sigma, mpmath.inf])
        assert r.status != STATUS_CONVERGED or abs(r.value - float(exact)) <= tol

    def test_capped_confirmation_block_is_not_converged(self, monkeypatch):
        # a kink of height 1e-9 at x = 30, inside the first confirmation
        # block [25.3, 50.7], keeps that block refining until the cap stops
        # it short of its tol: the job must not be reported converged
        monkeypatch.setattr(quad, "MAX_EVALUATIONS", 500)
        f = Integrand(eval=lambda x: np.exp(-x) + 1e-9 * np.sign(x - 30.0)
                      * np.sqrt(np.abs(x - 30.0)) * (np.abs(x - 30.0) < 4.0))
        r = integrate(f, _decay_spec(1.0), 1e-10)
        assert r.status == quad.STATUS_MAX_EFFORT
        assert r.evaluations <= 500

    def test_probes_are_dropped_once_read(self):
        # an engine's frame lives until its job ends, so past its probe
        # request it keeps no array of probes or amplitudes
        engine = quad._decay(quad._Job(Integrand(eval=lambda x: np.exp(-x))),
                             _decay_spec(1.0), 1e-10)
        kind, probes = next(engine)
        assert kind == quad._POINTS
        kind, _ = engine.send(np.exp(-probes))
        assert kind == quad._GK
        assert not [name for name, v in engine.gi_frame.f_locals.items()
                    if isinstance(v, np.ndarray)]
        engine.close()


class TestOscillatory:
    def test_sinc(self):
        # tanh-sinh's nodes nearest 0 are about 1e-66 from it, where
        # sin(x)/x is 1.0
        f = Integrand(eval=lambda x: np.sin(x) / x)
        r1 = integrate(f, SINE_HALF_PERIODS, 1e-10)
        assert r1.status == STATUS_CONVERGED
        assert r1.value == pytest.approx(PI / 2.0, abs=1e-9)
        # two depths agreeing: rerun at a tighter tolerance
        r2 = integrate(f, SINE_HALF_PERIODS, 1e-11)
        assert abs(r1.value - r2.value) <= 1e-9

    def test_damped_sine(self):
        f = Integrand(eval=lambda x: np.sin(x) * np.exp(-x))
        r = integrate(f, SINE_HALF_PERIODS, 1e-10)
        assert r.value == pytest.approx(0.5, abs=1e-10)

    def test_suspect_form_reported_divergent(self):
        # the as-printed suspect integrand: sqrt of a negative quantity
        def printed(x):
            w = 1.0 - x * x  # negative on (1, inf)
            return np.cos(x) * np.cosh(np.sqrt(w)) / np.sqrt(w)

        r = integrate(Integrand(eval=printed),
                      IntervalSpec(1.0, osc_hint=1.0), 1e-9)
        assert r.status == STATUS_DIVERGENT

    def test_effort_cap_ends_the_job(self, monkeypatch):
        # once the cap stops a half-period the job ends max_effort there,
        # within the cap, instead of asking for more half-periods
        monkeypatch.setattr(quad, "MAX_EVALUATIONS", 3000)
        requests = []
        gk = quad._SOLVERS[quad._GK]
        monkeypatch.setitem(quad._SOLVERS, quad._GK,
                            lambda asked: requests.append(asked) or gk(asked))
        f = Integrand(eval=lambda x: np.sin(x) / np.sqrt(x + 1.0)
                      * (1.0 + 1e-3 * np.sqrt(np.abs(np.sin(37.0 * x)))))
        r = integrate(f, IntervalSpec(0.0, osc_hint=1.0), 1e-14)
        assert r.status == quad.STATUS_MAX_EFFORT and r.abs_error_est == math.inf
        assert r.evaluations <= 3000
        assert len(requests) < 10

    def test_resonant_rewrite_reported_divergent(self):
        # rewritten with cos: at a = sqrt(beta) the tail is same-signed ~1/x
        def rewritten(x):
            w = x * x - 1.0
            return np.cos(x) * np.cos(np.sqrt(np.abs(w))) / np.sqrt(np.abs(w))

        r = integrate(Integrand(eval=rewritten),
                      IntervalSpec(1.0, osc_hint=1.0), 1e-9)
        assert r.status == STATUS_DIVERGENT

    def test_needs_period(self):
        with pytest.raises(DomainError):
            integrate(Integrand(eval=np.sin),
                      IntervalSpec(0.0, osc_hint=0.0), 1e-9)


class TestOscillatoryStop:
    """The oscillatory engine's stopping point, pinned.

    Half-periods are integrated in blocks, so the evaluation count alone
    does not show at which segment the engine stopped; the CRVZ error
    estimate does.  Recorded values: 1013 evaluations each, and the
    estimates below (actual errors 1.3e-13 and 6.6e-14; the Euler stop
    took 1553 evaluations for errors of 1.0e-12 and 1.6e-13)."""

    CASES = [
        # int_0^inf x sin x / (1 + x^2) dx = pi / (2e)
        (lambda: Integrand(eval=lambda x: x * np.sin(x) / (1.0 + x * x)),
         PI / (2.0 * math.e), 1013, 2.0178782220687e-11),
        # int_0^inf sin x / x dx = pi / 2
        (lambda: Integrand(eval=lambda x: np.sin(x) / x),
         PI / 2.0, 1013, 8.910077976477267e-12),
    ]

    @pytest.mark.parametrize("make, exact, evaluations, estimate", CASES,
                             ids=["x_sin_x_over_1_plus_x2", "sin_x_over_x"])
    def test_value_estimate_and_work(self, make, exact, evaluations, estimate):
        r = integrate(make(), SINE_HALF_PERIODS, 1e-10)
        assert r.status == STATUS_CONVERGED
        assert abs(r.value - exact) <= 1e-10
        assert abs(r.value - exact) <= r.abs_error_est
        assert r.evaluations == evaluations
        # the estimate moves with the stopping segment; last-bit changes
        # of the segment values move it far less
        assert r.abs_error_est == pytest.approx(estimate, rel=1e-2, abs=0.0)


def _reference_partition(a, b, panel_width):
    # the Python-set construction the numpy one must reproduce bit for bit
    bounds = {a, b}
    if panel_width > 0.0 and (b - a) > panel_width:
        count = min(int(math.ceil((b - a) / panel_width)), 4096)
        bounds.update(a + (b - a) * j / count for j in range(1, count))
    return sorted(bounds)


class TestPartition:
    def test_matches_the_set_construction_bit_for_bit(self):
        rng = random.Random(5)
        cases = [(0.0, 1.0, 0.0), (0.0, 1.0, 0.25), (0.0, 10.0, 1.25),
                 (1e10, 1e10 + 1e-3, 1e-7),  # grid spacing near the ulp
                 (-3.0, 5000.0, 0.1)]  # capped at 4096 panels
        for _ in range(200):
            a = rng.uniform(-50.0, 50.0)
            b = a + rng.uniform(1e-3, 200.0)
            cases.append((a, b, rng.choice([0.0, rng.uniform(1e-2, 50.0)])))
        # one pass over all intervals gives each its own panels, in order
        lo, hi, owner = quad._initial_panels([(a, b, 1e-10, width) for a, b, width in cases])
        want_lo, want_hi, want_owner = [], [], []
        for i, (a, b, width) in enumerate(cases):
            bounds = _reference_partition(a, b, width)
            want_lo += bounds[:-1]
            want_hi += bounds[1:]
            want_owner += [i] * (len(bounds) - 1)
        assert [float(x).hex() for x in lo] == [x.hex() for x in want_lo]
        assert [float(x).hex() for x in hi] == [x.hex() for x in want_hi]
        assert owner.tolist() == want_owner


def _counting(f):
    """f with a record of the abscissae of each of its eval calls."""
    calls = []

    def ev(x):
        calls.append(np.array(x))
        return f.eval(x)

    return Integrand(eval=ev), calls


def _one_owner(f, interval):
    g, calls = _counting(f)
    with np.errstate(all="ignore"):
        [[r]] = quad._adaptive_gk_many([(quad._Job(g), [interval])])
    return r, len(calls)


def _many(f, intervals):
    # intervals as _adaptive_gk_many takes them: (a, b, tol, panel_width)
    g, calls = _counting(f)
    with np.errstate(all="ignore"):
        [out] = quad._adaptive_gk_many([(quad._Job(g), intervals)])
    return out, calls


class TestManyIntervals:
    INTEGRANDS = [
        Integrand(eval=lambda x: np.exp(-0.3 * x) * np.cos(5.0 * x)),
        Integrand(eval=lambda x: 1.0 / (1.0 + x * x)),
        Integrand(eval=lambda x: np.sqrt(np.abs(x - 1.3))),
        Integrand(eval=lambda x: np.sinc(x / PI)),
    ]

    def test_each_owner_as_if_alone(self):
        rng = random.Random(11)
        for f in self.INTEGRANDS:
            for _ in range(6):
                intervals = []
                width = rng.choice([0.0, 0.7])
                for _ in range(rng.randrange(1, 9)):
                    a = rng.uniform(-5.0, 5.0)
                    intervals.append((a, a + rng.uniform(0.1, 8.0),
                                      10.0 ** rng.uniform(-13.0, -4.0), width))
                out, calls = _many(f, intervals)
                alone = [_one_owner(f, iv) for iv in intervals]
                for r, (solo, _) in zip(out, alone):
                    assert r.status == solo.status
                    assert r.value.hex() == solo.value.hex()
                    assert r.abs_error_est.hex() == solo.abs_error_est.hex()
                # one integrand call per round: as many as the owner that
                # needed the most rounds alone
                assert len(calls) == max(n for _, n in alone)

    def test_non_finite_owner_alone_is_divergent(self):
        f = Integrand(eval=lambda x: np.where((x > 4.0) & (x < 4.5), np.nan, np.cos(x)))
        intervals = [(0.0, 3.0, 1e-12, 0.0), (3.5, 5.0, 1e-12, 0.0), (6.0, 9.0, 1e-12, 0.0)]
        out, _ = _many(f, intervals)
        assert out[1].status == STATUS_DIVERGENT
        assert math.isnan(out[1].value) and out[1].abs_error_est == math.inf
        for i in (0, 2):
            a, b, _, _ = intervals[i]
            solo, _ = _one_owner(f, intervals[i])
            assert out[i].status == solo.status == STATUS_CONVERGED
            assert abs(out[i].value - (math.sin(b) - math.sin(a))) <= out[i].abs_error_est
            assert abs(out[i].value - solo.value) <= out[i].abs_error_est + solo.abs_error_est

    def test_largest_panel_fallback_per_owner(self):
        # owners 0 and 2 meet their loose tols on 3 panels in round 0, so
        # no panel exceeds its share and each splits only its own
        # largest-error panel; owner 1 (tight tol) splits by share as usual
        f = Integrand(eval=lambda x: np.exp(2.0 * x) * np.cos(15.0 * x))

        def antiderivative(x):
            return math.exp(2.0 * x) * (2.0 * math.cos(15.0 * x)
                                        + 15.0 * math.sin(15.0 * x)) / 229.0

        # a panel width of 0.34 cuts owners 0 and 2 into thirds; owner 1
        # starts on one panel
        width = 0.34
        largest, tols = {}, {}
        for k, a in ((0, 0.0), (2, 4.0)):
            lo, hi, _ = quad._initial_panels([(a, a + 1.0, 0.0, width)])
            with np.errstate(all="ignore"):
                pe = quad._Job(f)
                groups = quad._member_groups([(f.eval, f.args)])
                _, errs, _ = quad._gk_batch([pe], groups, np.zeros(3, dtype=int), lo, hi)
            largest[k] = (lo[np.argmax(errs)], hi[np.argmax(errs)])
            tols[k] = 8.0 * errs.max()  # share tol / 6 is above every panel
        intervals = [(0.0, 1.0, tols[0], width), (2.0, 3.0, 1e-11, 0.0),
                     (4.0, 5.0, tols[2], width)]
        out, calls = _many(f, intervals)
        assert [r.status for r in out] == [STATUS_CONVERGED] * 3
        for k, (a, b, _, _) in enumerate(intervals):
            exact = antiderivative(b) - antiderivative(a)
            assert abs(out[k].value - exact) <= out[k].abs_error_est
        assert calls[0].size == 7 * 15
        second = calls[1]
        for k, (lo, hi) in largest.items():
            own = second[(second > intervals[k][0]) & (second < intervals[k][1])]
            assert own.size == 30 and ((own > lo) & (own < hi)).all()
        assert ((second > 2.0) & (second < 3.0)).sum() >= 30

    def test_effort_cap_stops_every_live_owner(self, monkeypatch):
        monkeypatch.setattr(quad, "MAX_EVALUATIONS", 600)
        f = Integrand(eval=lambda x: np.sqrt(np.abs(x - 0.3)))
        intervals = [(0.0, 1.0, 1e-15, 0.0), (2.0, 3.0, 1e-15, 0.0), (5.0, 6.0, 1e-2, 0.25)]
        out, _ = _many(f, intervals)
        assert [r.status for r in out] == [quad.STATUS_MAX_EFFORT] * 2 + [STATUS_CONVERGED]

    def test_effort_cap_is_never_passed(self, monkeypatch):
        # the cap stops a job before the round that would pass it: its
        # owners keep the sums of the last round that fit, and a cap at
        # exactly the evaluations spent gives the same result
        f = Integrand(eval=lambda x: np.sqrt(np.abs(x - 0.3)))
        intervals = [(0.0, 1.0, 1e-15, 0.0), (2.0, 3.0, 1e-15, 0.0)]
        monkeypatch.setattr(quad, "MAX_EVALUATIONS", 20000)
        _, longer = _many(f, intervals)
        for cap in (300, 601, 2000, 7777):
            monkeypatch.setattr(quad, "MAX_EVALUATIONS", cap)
            out, calls = _many(f, intervals)
            spent = sum(x.size for x in calls)
            assert {r.status for r in out} == {quad.STATUS_MAX_EFFORT}
            assert all(r.evaluations == spent for r in out) and spent <= cap
            # the rounds that fit are those of a higher cap, the next is not
            assert all((a == b).all() for a, b in zip(calls, longer))
            assert spent + longer[len(calls)].size > cap
            monkeypatch.setattr(quad, "MAX_EVALUATIONS", spent)
            again, _ = _many(f, intervals)
            assert [_same(r, s) for r, s in zip(again, out)] == [True, True]

    def test_effort_cap_before_the_first_round(self, monkeypatch):
        # initial panels that alone pass the cap are not evaluated: the
        # owner returns 0 with an infinite error
        monkeypatch.setattr(quad, "MAX_EVALUATIONS", 100)
        f = Integrand(eval=lambda x: np.cos(x))
        out, calls = _many(f, [(0.0, 10.0, 1e-8, 1.0)])
        assert calls == []
        assert out == [quad.QuadResult(0.0, math.inf, 0, quad.STATUS_MAX_EFFORT)]


def _same(r, solo):
    return ((r.status, r.evaluations, r.value.hex(), r.abs_error_est.hex())
            == (solo.status, solo.evaluations, solo.value.hex(), solo.abs_error_est.hex()))


def _recorded(jobs):
    """jobs with each integrand recording the abscissae of its calls."""
    out, calls = [], []
    for f, spec, tol in jobs:
        g, c = _counting(f)
        out.append((g, spec, tol))
        calls.append(c)
    return out, calls


def _tagged(jobs):
    """jobs whose kernels and distance callbacks record the rows they get.

    Each kernel k becomes one wrapper, shared by every job of k, that
    takes the job's index as its first arg and logs each row of x under
    that job before calling k; a keyword-partial callback becomes a
    partial of one shared wrapper of its function the same way, and a
    closure callback logs its own calls.  So the jobs batch exactly as
    before.  Returns (tagged jobs, rows), rows[j] the rows of job j in
    call order.
    """
    rows = [[] for _ in jobs]
    wrappers = {}

    def shared(fn, wrap):
        if fn not in wrappers:
            wrappers[fn] = wrap(fn)
        return wrappers[fn]

    def kernel_wrapper(kernel):
        def rec(x, job, *args):
            for row, j in zip(x, job[:, 0].tolist()):
                rows[int(j)].append(np.array(row))
            return kernel(x, *args)
        return rec

    def keyword_wrapper(func):
        def rec(d, job, **kw):
            for row, j in zip(d, job[:, 0].tolist()):
                rows[int(j)].append(np.array(row))
            return func(d, **kw)
        return rec

    def closure(cb, j):
        def rec(d):
            rows[j].extend(np.array(row) for row in d)
            return cb(d)
        return rec

    out = []
    for j, (f, spec, tol) in enumerate(jobs):
        callbacks = {}
        for name in ("eval_lower_dist", "eval_upper_dist"):
            cb = getattr(f, name)
            if isinstance(cb, functools.partial):
                cb = functools.partial(shared(cb.func, keyword_wrapper), job=float(j),
                                       **cb.keywords)
            elif cb is not None:
                cb = closure(cb, j)
            callbacks[name] = cb
        g = Integrand(eval=shared(f.eval, kernel_wrapper), args=(float(j), *f.args), **callbacks)
        out.append((g, spec, tol))
    return out, rows


def _check_tagged_against_solo(jobs):
    """Run jobs batched and each alone, all _tagged; every result and the
    rows each job's kernels got must be the same.  Returns the batch."""
    tagged, rows = _tagged(jobs)
    batch = quad.integrate_many(tagged)
    for j, (job, r) in enumerate(zip(jobs, batch)):
        [solo_job], [solo_rows] = _tagged([job])
        assert _same(r, integrate(*solo_job))
        assert len(rows[j]) > 0
        assert np.concatenate(rows[j]).tobytes() == np.concatenate(solo_rows).tobytes()
    return batch


def _bessel_jobs(n):
    # the seed-17 points of 4.124.1 and its nu = -1 member, whose upper
    # ends are integrated by keyword-partial distance kernels
    return [(*catalog.integrand(eid, pp), 1e-10)
            for eid in ("4.124.1", "4.124.1-nu-1")
            for pp in sample_params(catalog.get_entry(eid), n, 17)]


class TestIntegrateMany:
    """Jobs batched by integrate_many share their Gauss-Kronrod rounds, yet
    each ends bit for bit as when it runs alone."""

    @staticmethod
    def light_jobs():
        return [
            (Integrand(eval=lambda x: np.exp(-x)),
             IntervalSpec(0.0, decay_hint=1.0), 1e-11),
            (Integrand(eval=lambda x: x / np.cosh(x) ** 2),
             IntervalSpec(0.0, decay_hint=2.0), 1e-12),
            (Integrand(eval=lambda x: np.exp(-x) / np.sqrt(x)),
             IntervalSpec(0.0, decay_hint=1.0, lower_singular=True), 1e-11),
            (Integrand(eval=lambda x: np.sin(x) / x),
             IntervalSpec(0.0, osc_hint=1.0), 1e-10),
            (Integrand(eval=lambda x: x * np.sin(x) / (1.0 + x * x)),
             IntervalSpec(0.0, osc_hint=1.0), 1e-9),
            (Integrand(eval=np.sin), IntervalSpec(0.0, PI), 1e-12),
            (Integrand(eval=lambda x: 1.0 / np.sqrt(x)),
             IntervalSpec(0.0, 1.0), 1e-12),
        ]

    # 3158 evaluations alone, over 37 rounds
    HEAVY = (Integrand(eval=lambda x: np.sqrt(np.abs(x - 0.3)) * np.exp(-x)), _decay_spec(1.0),
             1e-14)

    def _check_against_solo(self, jobs):
        """Run jobs batched and alone; every result and every integrand
        call must be the same.  Returns the batched results."""
        recorded, calls = _recorded(jobs)
        batch = quad.integrate_many(recorded)
        for job, r, batch_calls in zip(jobs, batch, calls):
            [solo_job], [solo_calls] = _recorded([job])
            assert _same(r, integrate(*solo_job))
            # each round called the integrand once, on its own abscissae
            assert len(batch_calls) == len(solo_calls)
            for x, x_solo in zip(batch_calls, solo_calls):
                assert x.tobytes() == x_solo.tobytes()
        return batch

    def test_each_job_as_if_alone(self, monkeypatch):
        jobs = self.light_jobs() + [
            (Integrand(eval=lambda x: np.exp(-0.5 * x) * np.cos(7.0 * x)),
             IntervalSpec(0.0, decay_hint=0.5, osc_hint=7.0), 1e-10),
            self.HEAVY]
        rounds = []
        gk_batch = quad._gk_batch
        monkeypatch.setattr(quad, "_gk_batch", lambda *a: rounds.append(1) or gk_batch(*a))
        batch = self._check_against_solo(jobs)
        assert {r.status for r in batch} == {STATUS_CONVERGED}
        del rounds[:]
        quad.integrate_many(jobs)
        batched = len(rounds)
        del rounds[:]
        for job in jobs:
            integrate(*job)
        assert batched < len(rounds)

    def test_effort_cap_stops_only_its_own_job(self, monkeypatch):
        monkeypatch.setattr(quad, "MAX_EVALUATIONS", 2000)
        batch = self._check_against_solo([self.HEAVY] + self.light_jobs())
        assert batch[0].status == quad.STATUS_MAX_EFFORT
        assert batch[0].evaluations <= 2000
        assert {r.status for r in batch[1:]} == {STATUS_CONVERGED}

    def test_divergent_job_leaves_its_neighbours_alone(self):
        divergent = [
            (Integrand(eval=lambda x: np.where(x > 0.5, np.nan, np.exp(-x))),
             _decay_spec(1.0), 1e-12),
            # the as-printed 4.124.2 form: sqrt of a negative quantity
            (Integrand(eval=lambda x: np.cos(x) / np.sqrt(1.0 - x * x)),
             IntervalSpec(1.0, osc_hint=1.0), 1e-9),
        ]
        light = self.light_jobs()
        batch = self._check_against_solo(light[:3] + divergent + light[3:])
        assert [r.status for r in batch[3:5]] == [STATUS_DIVERGENT] * 2
        assert {r.status for r in batch[:3] + batch[5:]} == {STATUS_CONVERGED}

    def test_shared_kernels_and_closures_together(self):
        # the points of each entry share its kernel, each closure is a
        # batch of one, and every job still ends as when it runs alone
        jobs = [(*catalog.integrand(entry.id, pp), 1e-10)
                for entry in (catalog.get_entry("L1"), catalog.get_entry("4.119"))
                for pp in sample_params(entry, 6, 17)]
        jobs += self.light_jobs()
        batch = quad.integrate_many(jobs)
        for job, r in zip(jobs, batch):
            assert _same(r, integrate(*job))


    @staticmethod
    def tanh_sinh_jobs():
        u = 1.5
        return _bessel_jobs(5) + [
            # a closure distance callback: a batch of its own
            (Integrand(eval=lambda x: np.cos(x) / np.sqrt((u - x) * (u + x)),
                       eval_upper_dist=lambda d: np.cos(u - d) / np.sqrt(d * (2.0 * u - d))),
             IntervalSpec(0.0, u), 1e-12),
            # non-finite at the nodes nearest 0 of every level: snapped
            (Integrand(eval=lambda x: np.where(x < 1e-14, np.nan, np.cos(x))),
             IntervalSpec(0.0, 1.0), 1e-10),
            # nan everywhere: divergent
            (Integrand(eval=lambda x: np.full_like(x, np.nan)),
             IntervalSpec(0.0, 1.0), 1e-12),
        ]

    def test_tanh_sinh_jobs_as_if_alone(self, monkeypatch):
        snapped = []
        snap = quad._snap_to_finite
        monkeypatch.setattr(quad, "_snap_to_finite", lambda *a: snapped.append(1) or snap(*a))
        jobs = self.tanh_sinh_jobs()
        batch = _check_tagged_against_solo(jobs + self.light_jobs())
        assert snapped
        n = len(jobs)
        assert [r.status for r in batch[n - 3:n]] == [STATUS_CONVERGED, STATUS_CONVERGED,
                                                      STATUS_DIVERGENT]
        assert {r.status for r in batch[:n - 3] + batch[n:]} == {STATUS_CONVERGED}
        for i, ((f, spec, _), r) in enumerate(zip(jobs[:10], batch)):
            pp = dict(zip(("p", "q", "u"), f.args))
            entry = "4.124.1" if i < 5 else "4.124.1-nu-1"
            assert abs(r.value - catalog.closed_form(entry, pp)) <= 1e-8

    def test_tanh_sinh_levels_of_many_chunks_as_if_alone(self, monkeypatch):
        # 160 Bessel jobs whose lower halves run on their kernels and upper
        # halves on two keyword-partial distance kernels, with closures in
        # between: their levels span several chunks of rows from several
        # groups, and each level's sums are taken chunk by chunk
        chunks = []
        eval_chunks = quad._eval_chunks

        def counted(*args):
            chunks.append(0)
            for chunk in eval_chunks(*args):
                chunks[-1] += 1
                yield chunk

        monkeypatch.setattr(quad, "_eval_chunks", counted)
        closures = self.tanh_sinh_jobs()[-3:-1]
        jobs = [(f, spec, 1e-14) for f, spec, _ in _bessel_jobs(80)]
        jobs = jobs[:40] + closures + jobs[40:120] + closures + jobs[120:]
        batch = _check_tagged_against_solo(jobs)
        assert max(chunks) >= 2
        assert {r.status for r in batch} == {STATUS_CONVERGED}

    def test_tanh_sinh_effort_cap_stops_only_its_own_job(self, monkeypatch):
        monkeypatch.setattr(quad, "MAX_EVALUATIONS", 2000)
        # at the kink, no two levels of the left half agree within 1e-15
        capped = (Integrand(eval=lambda x: np.abs(x - 1.0 / 3.0)), UNIT_ENDS, 1e-15)
        batch = _check_tagged_against_solo([capped] + _bessel_jobs(3) + self.light_jobs())
        assert batch[0].status == quad.STATUS_MAX_EFFORT
        # a level the cap refuses is neither run nor counted
        [tagged], [rows] = _tagged([capped])
        integrate(*tagged)
        assert batch[0].evaluations == sum(row.size for row in rows) <= 2000
        assert {r.status for r in batch[1:]} == {STATUS_CONVERGED}

    def test_every_kernel_call_takes_columns(self):
        # probes, tanh-sinh levels and Gauss-Kronrod rounds all hand a
        # kernel 2-D abscissae with each arg a (rows, 1) column
        seen = []

        def kernel(x, a):
            seen.append((x.shape, np.shape(a)))
            return np.exp(-a * x) / np.sqrt(x)

        def upper(d, a, u):
            seen.append((d.shape, np.shape(a), np.shape(u)))
            return np.exp(-a * (u - d)) / np.sqrt(u - d)

        jobs = [(Integrand(eval=kernel, args=(a,)),
                 IntervalSpec(0.0, decay_hint=a, lower_singular=True), 1e-10)
                for a in (1.0, 2.0)]
        jobs += [(Integrand(eval=kernel, args=(a,),
                            eval_upper_dist=functools.partial(upper, a=a, u=2.0)),
                  IntervalSpec(0.0, 2.0), 1e-10) for a in (0.5, 3.0)]
        for batch in ([jobs], [[job] for job in jobs]):
            del seen[:]
            for part in batch:
                quad.integrate_many(part)
            widths = {x[1] for x, *_ in seen}
            assert {8, len(quad._XK), quad._ts_level(0)[1].size} <= widths
            for x, *args in seen:
                assert len(x) == 2 and all(a == (x[0], 1) for a in args)

    @pytest.mark.parametrize("p", [2.0, 3.0, 1.5])
    def test_l1_at_special_exponents_alone_and_batched(self, p):
        # x ** (p - 1) at exponents 1, 2 and 0.5: numpy's scalar-exponent
        # shortcuts must not make a point's bits depend on its batch
        entry = catalog.get_entry("L1")
        points = [{"p": p, "a": 1.0, "b": 0.5}] + sample_params(entry, 5, 17)
        jobs = [(*catalog.integrand("L1", pp), 1e-10) for pp in points]
        batch = quad.integrate_many(jobs)
        assert batch[0].status == STATUS_CONVERGED
        assert _same(batch[0], integrate(*jobs[0]))


class TestKernelChunks:
    """A Gauss-Kronrod round, a tanh-sinh level and a probe wave hand a
    shared kernel at most _MAX_ABSCISSAE abscissae per call, however many
    rows their jobs hold."""

    def test_heavy_job_never_hands_its_kernel_more_than_the_cap(self):
        sizes = []

        def kernel(x, k):
            sizes.append(x.size)
            return np.abs(x - k)

        def run(ks):
            # 4096 panels per interval from round 0 on
            pes = [quad._Job(Integrand(eval=kernel, args=(k,))) for k in ks]
            with np.errstate(all="ignore"):
                return quad._adaptive_gk_many([(pe, [(0.0, 4096.0, 1e-6, 1.0)])
                                               for pe in pes])

        ks = (1000.5 + 1.0 / 3.0, 3000.25 + 1.0 / 7.0)  # kinks off the grid
        batch = run(ks)
        assert len(sizes) > 2 * 4096 // quad._CHUNK  # round 0 alone takes 8 calls
        for k, [r] in zip(ks, batch):
            exact = 0.5 * (k * k + (4096.0 - k) ** 2)
            assert r.status == STATUS_CONVERGED
            assert abs(r.value - exact) <= r.abs_error_est
            [[solo]] = run([k])
            assert _same(r, solo)
        # batched and alone
        assert max(sizes) <= quad._MAX_ABSCISSAE

    def test_no_tanh_sinh_level_hands_its_kernel_more_than_the_cap(self):
        sizes = []

        def kernel(x, k):
            sizes.append(x.size)
            return np.abs(np.sin(40.0 * k * x))

        def lower(d, k):
            sizes.append(d.size)
            return np.abs(np.sin(40.0 * k * d))

        # at the kinks no two levels agree within 1e-15, so every half runs
        # through level 12, whose rows hold 15,770 nodes each; the halves of
        # 40 jobs share each level's calls
        ks = 1.0 + np.arange(40) / 7.0
        jobs = [(Integrand(eval=kernel, args=(k,),
                           eval_lower_dist=functools.partial(lower, k=k)),
                 UNIT_ENDS, 1e-15) for k in ks]
        batch = quad.integrate_many(jobs)
        assert max(sizes) <= quad._MAX_ABSCISSAE
        assert len(sizes) < 2 * 13 * len(ks)  # levels are shared
        for k, r in zip(ks[:3], batch):
            assert r.status == quad.STATUS_MAX_EFFORT
            assert _same(r, integrate(*jobs[int(round((k - 1.0) * 7.0))]))


    def test_no_probe_wave_hands_its_kernel_more_than_the_cap(self):
        sizes = []

        def kernel(x, k):
            sizes.append(x.size)
            return np.exp(-k * x)

        def other(x, k):
            sizes.append(x.size)
            return np.cos(k * x) * np.exp(-x)

        # 2,100 jobs of 8 probes each, more than the 2,048 rows one chunk
        # holds, every third on a second kernel, so the rows come out of
        # kernel order
        rng = np.random.default_rng(5)
        requests = [(quad._Job(Integrand(eval=other if j % 3 == 2 else kernel,
                                         args=(1.0 + j / 700.0,))),
                     np.sort(rng.uniform(0.0, 20.0, 8))) for j in range(2100)]
        with np.errstate(all="ignore"):
            batch = quad._points_many(requests)
        assert max(sizes) <= quad._MAX_ABSCISSAE
        # kernel's 1,400 rows, then other's 700, cut at row 2,048
        assert sizes == [1400 * 8, 648 * 8, 52 * 8]
        for (pe, x), y in zip(requests, batch):
            assert pe.used == 8
            with np.errstate(all="ignore"):
                [solo] = quad._points_many([(quad._Job(pe.f), x)])
            assert y.tobytes() == solo.tobytes()


class TestDispatch:
    def test_all_shapes(self):
        cases = [
            (Integrand(eval=lambda x: 1.0 / np.sqrt(x)),
             IntervalSpec(0.0, 1.0), 2.0),
            (Integrand(eval=lambda x: np.exp(-x)),
             IntervalSpec(0.0, decay_hint=1.0), 1.0),
            (Integrand(eval=lambda x: np.sin(x) * np.exp(-x)),
             IntervalSpec(0.0, osc_hint=1.0), 0.5),
        ]
        for f, spec, exact in cases:
            r = integrate(f, spec, 1e-10)
            assert r.value == pytest.approx(exact, abs=1e-9)

    def test_the_interval_picks_the_engine(self):
        cases = [(IntervalSpec(-3.0, 1e300), quad._endpoint),
                 (IntervalSpec(-3.0, decay_hint=1.0), quad._decay),
                 (IntervalSpec(-3.0, decay_hint=1.0, osc_hint=2.0), quad._decay),
                 (IntervalSpec(-3.0, decay_hint=1.0, lower_singular=True), quad._decay),
                 (IntervalSpec(-3.0, osc_hint=1.0), quad._oscillatory)]
        for spec, engine in cases:
            assert quad._engine(spec) is engine

    def test_spec_validation(self):
        # every engine starts from a finite lower bound below upper, and a
        # nan bound fits none, whatever the hints
        hints = ({}, {"decay_hint": 1.0}, {"osc_hint": 1.0}, {"lower_singular": True})
        for hint in hints:
            for bounds in ((1.0, 0.0), (1.0, 1.0), (0.0, math.nan), (0.0, -math.inf),
                           (-math.inf, 0.0), (-math.inf, math.inf), (math.nan, 1.0),
                           (math.nan, math.inf)):
                with pytest.raises(DomainError, match="no engine"):
                    IntervalSpec(*bounds, **hint)
        # tanh-sinh reads no hint, so a finite interval takes none
        for hint in hints[1:]:
            for upper in (1.0, 1e300):
                with pytest.raises(DomainError):
                    IntervalSpec(0.0, upper, **hint)
        # [lower, inf) needs a decay rate > 0, or else an angular frequency > 0
        for hint in ({}, {"lower_singular": True}, {"decay_hint": -1.0},
                     {"decay_hint": math.nan}, {"decay_hint": -1.0, "osc_hint": 1.0},
                     {"decay_hint": math.nan, "osc_hint": 1.0}, {"osc_hint": 0.0},
                     {"osc_hint": -1.0}, {"osc_hint": math.nan}):
            with pytest.raises(DomainError):
                IntervalSpec(0.0, **hint)

    def test_tol_must_be_finite_and_positive(self):
        good = (Integrand(eval=lambda x: np.exp(-x)), _decay_spec(1.0), 1e-10)
        for tol in (-1.0, 0.0, -0.0, math.nan, math.inf):
            for f, spec, _ in (good, (Integrand(eval=np.cos), UNIT_ENDS, 1e-10)):
                with pytest.raises(DomainError, match="tol"):
                    integrate(f, spec, tol)
            # one bad job fails the whole batch
            with pytest.raises(DomainError, match="tol"):
                quad.integrate_many([good, (good[0], good[1], tol), good])
        assert integrate(*good).status == STATUS_CONVERGED


def _crvz_algorithm_1(terms):
    # Cohen, Rodriguez Villegas and Zagier's Algorithm 1 as printed, in
    # floats: the sum of the alternating series sum_k (-1)^k a_k from its
    # first n terms c_k = (-1)^k a_k
    n = len(terms)
    d = (3.0 + math.sqrt(8.0)) ** n
    d = 0.5 * (d + 1.0 / d)
    b, c, s = -1.0, -d, 0.0
    for k, term in enumerate(terms):
        c = b - c
        s += c * (-1.0) ** k * term
        b = (k + n) * (k - n) * b / ((k + 0.5) * (k + 1.0))
    return s / d


class TestCRVZ:
    @pytest.mark.parametrize("term, exact", [
        (lambda k: 1.0 / (k + 1), math.log(2.0)),
        (lambda k: 1.0 / (2 * k + 1), PI / 4.0),
        (lambda k: 1.0 / math.sqrt(k + 1), float(mpmath.altzeta(0.5)))],
        ids=["ln2", "leibniz", "eta_one_half"])
    def test_twenty_terms(self, term, exact):
        # the error falls like 5.83^-n: 20 terms reach double precision
        terms = [(-1.0) ** k * term(k) for k in range(20)]
        assert abs(quad._crvz(terms) - exact) <= 1e-15 * abs(exact)
        assert quad._crvz(terms) == pytest.approx(_crvz_algorithm_1(terms), rel=1e-14)

    def test_weights(self):
        for n in (1, 2, 14, 60, 402, 512):
            w = quad._crvz_weights(n)
            assert len(w) == n
            # each weight in (0, 1], falling with k; past n = 402 the
            # printed algorithm's d overflows, the exact weights do not
            assert all(1.0 >= x >= y for x, y in zip(w, w[1:])) and w[-1] > 0.0
        # n = 1: d = T_1(3) = 3, b = (1, 2), so w_0 = 2/3
        assert quad._crvz_weights(1) == (2.0 / 3.0,)


class TestEulerTransform:
    def test_ln2(self):
        partials = list(np.cumsum([(-1.0) ** k / (k + 1) for k in range(20)]))
        assert abs(euler_transform(partials, 12) - math.log(2.0)) <= 1e-10

    def test_constant_fixed_point(self):
        assert euler_transform([3.7] * 10, 5) == 3.7

    def test_leibniz(self):
        partials = list(np.cumsum([(-1.0) ** k / (2 * k + 1) for k in range(20)]))
        assert abs(euler_transform(partials, 12) - math.atan(1.0)) <= 1e-10

    def test_too_few_entries(self):
        with pytest.raises(DomainError):
            euler_transform([1.0, 2.0], 5)

    def test_window_and_running_diagonal_match_the_full_table(self):
        # reference: average the whole sequence depth times, keep the last
        def full_table(s, depth):
            t = np.asarray(s, dtype=float)
            for _ in range(depth):
                t = 0.5 * (t[:-1] + t[1:])
            return float(t[-1])

        for seed in range(6):
            rng = random.Random(seed)
            if seed % 2:
                terms = [rng.uniform(-1e3, 1e3) for _ in range(40)]
            else:
                terms = [(-1.0) ** k * rng.uniform(0.5, 2.0) / (k + 1) for k in range(40)]
            partial = []
            for term in terms:
                partial.append((partial[-1] if partial else 0.0) + term)
                for d in range(min(24, len(partial) - 2) + 1):
                    assert euler_transform(partial, d).hex() == full_table(partial, d).hex()


class TestKernelIdentities:
    def test_transform_to_damped_sine_series(self):
        # int_0^inf f(x)/(cosh x - cos x) dx
        #   = 2 sum_n (1/n) int_0^inf f(x/n)/sin(x/n) e^-x sin x dx
        # with f(x) = x^6 e^-x (integrable at 0) and N = 40
        def chmc(t):
            return 2.0 * (np.sinh(0.5 * t) ** 2 + np.sin(0.5 * t) ** 2)

        lhs = integrate(Integrand(eval=lambda x: x ** 6 * np.exp(-x) / chmc(x)),
                        _decay_spec(1.0), 1e-12)
        assert lhs.status == STATUS_CONVERGED
        total = 0.0
        for n in range(1, 41):
            def gn(x, n=n):
                # sin(x)/sin(x/n) = sin(ny)/sin y, y = x/n, written as the
                # sum of cos((n - 1 - 2j) y): finite at every 0/0 x = k n pi
                y = x / n
                ratio = sum(np.cos((n - 1 - 2 * j) * y) for j in range(n))
                return y ** 6 * np.exp(-y) * ratio * np.exp(-x)

            r = integrate(Integrand(eval=gn), _decay_spec(1.0), 1e-12)
            assert r.status == STATUS_CONVERGED
            total += r.value / n
        assert abs(lhs.value - 2.0 * total) <= 1e-8 * abs(lhs.value)

    def test_log_cosh_factorization_partial_products(self):
        # ln cosh z = sum ln(1 + 4 z^2/((2k+1)^2 pi^2)), tail <= z^2/(pi^2 K)
        k = np.arange(100_000)
        for z in (0.5, 1.0, 2.0):
            s = float(np.sum(np.log1p(4.0 * z * z / ((2 * k + 1) ** 2 * PI ** 2))))
            assert abs(s - math.log(math.cosh(z))) <= z * z / 100_000.0

    def test_log_sinh_factorization_partial_products(self):
        k = np.arange(1, 100_001)
        for z in (0.5, 1.0, 2.0):
            s = float(np.sum(np.log1p(z * z / (k * k * PI ** 2))))
            exact = math.log(math.sinh(z) / z)
            assert abs(s - exact) <= z * z / 100_000.0

    def test_csc_partial_fraction_truncation(self):
        # csc(pi x) = 1/(pi x) + (2x/pi) sum (-1)^k/(x^2-k^2), error < 3/(pi K)
        for x in (0.1, 0.37, 0.8):
            for kmax in (100, 1000):
                k = np.arange(1, kmax + 1)
                s = 1.0 / (PI * x) + (2.0 * x / PI) * float(
                    np.sum((-1.0) ** k / (x * x - k * k)))
                assert abs(s - 1.0 / math.sin(PI * x)) <= 3.0 / (PI * kmax)

    def test_result_error_bounds_honest(self):
        # converged results must carry abs_error_est covering the true error
        f = Integrand(eval=lambda x: np.cos(3.0 * x) * np.exp(-0.5 * x))
        r = integrate(f, _decay_spec(0.5), 1e-10)
        exact = 0.5 / (0.25 + 9.0)
        assert abs(r.value - exact) <= max(r.abs_error_est, 1e-13)
        assert r.abs_error_est <= 1e-10
