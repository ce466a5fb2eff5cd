"""Catalog tests: closed-form spot values, validity enforcement, integrand
annotations, the helper identities, and the cross-entry relations."""

import dataclasses
import math
import operator
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import time_limit
from hyptrig.errors import DomainError, UnknownEntryError
from hyptrig import catalog
from hyptrig.catalog import (closed_form, integrand, list_entries, get_entry,
                             lemma5_lhs, lemma5_rhs, rhs_4_123_5, cf_3_532_1,
                             cf_4_124_1_ext, lemniscatic_period)
from hyptrig.quad import integrate, Integrand
from hyptrig.auditor import sample_params
from hyptrig import quad
from hyptrig import specfun as sf

PI = math.pi


class TestClosedFormSpotValues:
    def test_4119(self):
        assert closed_form("4.119", {"p": 1.0, "q": 1.0}) == pytest.approx(
            math.log(math.cosh(PI / 2.0)), rel=1e-14)

    def test_41212_antisymmetry(self):
        assert closed_form("4.121.2", {"a": 1.0, "b": 1.0, "beta": 1.0}) == 0.0

    def test_41231(self):
        assert closed_form("4.123.1", {"a": 1.0}) == pytest.approx(
            PI / 4.0 - 1.0, rel=1e-14)

    def test_hw2(self):
        assert closed_form("HW2", {}) == 16.0

    def test_41241_equal_rates(self):
        # p = q: J0(0) = 1
        assert closed_form("4.124.1", {"p": 2.0, "q": 2.0, "u": 2.0}) == pytest.approx(
            PI / 2.0, rel=1e-14)

    def test_4118_small_a_against_mpmath(self):
        # -2 + a pi coth(a pi/2) cancels as a -> 0; below a = 0.2 a series
        # takes over, down to a = 1e-300 without underflow
        for a in np.geomspace(1e-300, 400.0, 301).tolist():
            # 50 digits after the cancellation of h coth h - 1 ~ h^2/3
            with mpmath.workdps(50 + 2 * max(0, int(-math.log10(a)))):
                h = mpmath.pi * mpmath.mpf(a) / 2
                ref = mpmath.pi / 2 * (h * mpmath.coth(h) - 1) / mpmath.sinh(h)
                assert abs(closed_form("4.118", {"a": a}) / ref - 1) <= 1e-13, a

    def test_41179c_large_a_against_mpmath(self):
        # log(1/tanh(a/2)) loses digits as tanh -> 1 (0.5 relative at
        # a = 100), and 2 cosh(a) overflows from a ~ 709.8; above a = 6
        # the closed form is written in t = e^-a, and is 2 once t
        # underflows.  The reference is written in the atanh form too: at
        # 60 digits mpmath's own log form returns 1.0 from a = 300
        for a in np.geomspace(6.0, 1e4, 401).tolist() + [709.8, 710.0, 710.6, 746.0, 1e300]:
            with mpmath.workdps(60):
                x = mpmath.mpf(a)
                ref = (-mpmath.pi / 2 * mpmath.exp(-x) + 2 * mpmath.cosh(x) * mpmath.atan(mpmath.exp(-x))
                       + 2 * mpmath.sinh(x) * mpmath.atanh(mpmath.exp(-x)))
                assert abs(closed_form("4.117.9c", {"a": a}) / ref - 1) <= 1e-14, a

    def test_bessel_closed_forms_with_no_correct_digits_raise(self):
        # J's ascending series near x = 45-50 cancels past every digit and
        # bessel_j reports an infinite est_rel_error; 4.124.1 at p = 50 gave
        # 3888.86 against mpmath's 0.0861.  At p = 30 the value stands:
        # bessel_j bounds its error by 0.0078 of J0 and it is 1.3e-4 off
        for eid, pp in (("4.124.1", {"p": 50.0, "q": 1.0, "u": 1.0}),
                        ("4.124.1-nu-1", {"p": 45.0, "q": 1.0, "u": 1.0}),
                        ("4.124.2", {"a": 1.0, "beta": 0.5, "u": 40.0})):
            with pytest.raises(DomainError, match="no correct digits"):
                closed_form(eid, pp)
        with mpmath.workdps(30):
            ref = mpmath.pi / 2 * mpmath.besselj(0, mpmath.sqrt(899))
        assert closed_form("4.124.1", {"p": 30.0, "q": 1.0, "u": 1.0}) == pytest.approx(
            float(ref), rel=1e-3)

    def test_l4_zero(self):
        assert closed_form("L4", {"a": 0.0, "beta": 1.0}) == pytest.approx(0.0, abs=1e-15)

    def test_unknown_entry(self):
        with pytest.raises(UnknownEntryError):
            closed_form("9.999", {})

    def test_domain_error_names_predicate(self):
        with pytest.raises(DomainError, match=r"\|b\| < a"):
            closed_form("L1", {"p": 2.0, "a": 1.0, "b": 2.0})
        with pytest.raises(DomainError, match="p > 1"):
            closed_form("L1", {"p": 0.5, "a": 1.0, "b": 0.0})
        with pytest.raises(DomainError, match="missing parameter"):
            closed_form("4.119", {"p": 1.0})


_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _reads(predicate: str, x: float) -> bool:
    """The predicate text ("a > 0", "0 <= beta < 1") as a comparison chain,
    with x in place of its one name."""
    tokens = predicate.split()
    values = [float(t) if t[-1].isdigit() else x for t in tokens[::2]]
    return all(_OPS[op](lhs, rhs)
               for lhs, op, rhs in zip(values, tokens[1::2], values[1:]))


class TestSinhMinusSin:
    """catalog._sinh_minus_sin (HW1's kernel) against 40-digit mpmath."""

    @staticmethod
    def _worst(us):
        got = catalog._sinh_minus_sin(us)
        worst = 0.0
        for u, v in zip(us.tolist(), got.tolist()):
            with mpmath.workdps(40):
                ref = float(mpmath.sinh(mpmath.mpf(u)) - mpmath.sin(mpmath.mpf(u)))
            worst = max(worst, abs(v - ref) / abs(ref))
        return worst / sys.float_info.epsilon

    def test_series_below_the_switch(self):
        # the series was 7.6e-10 off at u = 0.45 with a wrong u^8 divisor
        below = np.nextafter(0.5, 0.0)
        us = np.concatenate([np.linspace(1e-6, 0.5, 400, endpoint=False), [0.45, 0.499, below]])
        assert self._worst(us) <= 4.0
        assert self._worst(-us) <= 4.0

    def test_direct_difference_above_the_switch(self):
        # sinh u - sin u ~ u^3/3 cancels about 12 to 1 at u = 0.5
        us = np.concatenate([[0.5], np.linspace(0.5, 0.75, 200)])
        assert self._worst(us) <= 16.0
        assert self._worst(-us) <= 16.0


class TestSchema:
    @pytest.mark.parametrize("entry", [e for e in list_entries() if e.params],
                             ids=lambda e: e.id)
    def test_each_finite_end_and_its_neighbours_as_the_text_says(self, entry):
        # a sampled point, with one parameter moved to an end or one ulp off it
        base = sample_params(entry, 1, 0)[0]
        checked = 0
        for p in entry.params:
            for end in (p.lo, p.hi):
                if not math.isfinite(end):
                    continue
                for x in (math.nextafter(end, -math.inf), end, math.nextafter(end, math.inf)):
                    try:
                        entry.validate(dict(base, **{p.name: x}))
                        named = False
                    except DomainError as exc:
                        named = str(exc) == f"{entry.id}: violated {p.predicate}"
                    assert named != _reads(p.predicate, x), (p.name, x)
                    checked += 1
        assert checked >= 3

    def test_names_then_params_in_order_then_relations(self):
        with pytest.raises(DomainError, match=r"parameter 'p' must be finite$"):
            closed_form("4.119", {"p": math.inf, "q": -1.0, "r": 1.0})
        with pytest.raises(DomainError, match=r"unknown parameters \['r', 's'\]$"):
            closed_form("4.119", {"p": 1.0, "q": -1.0, "s": 1.0, "r": 1.0})
        # a = 0 and |b| < a both fail; the Param is named
        with pytest.raises(DomainError, match=r"violated a > 0$"):
            closed_form("C1", {"a": 0.0, "b": 1.0})
        with pytest.raises(DomainError, match=r"violated q > 0$"):
            closed_form("4.124.1-nu-1", {"p": -1.0, "q": -0.5, "u": 1.0})
        with pytest.raises(DomainError, match=r"violated p > q$"):
            closed_form("4.124.1-nu-1", {"p": 0.5, "q": 1.0, "u": 1.0})


def _domain_values(p):
    """Floats of p's domain, its finite ends included, with 1e-300, 1e300
    and the floats next to each end drawn often."""
    ends = [end for end in (p.lo, p.hi) if math.isfinite(end)]
    edges = ends + [math.nextafter(end, d) for end in ends for d in (-math.inf, math.inf)]
    return st.one_of(
        st.sampled_from(edges + [1e-300, 1e300, -1e-300, -1e300]),
        st.floats(max(p.lo, -sys.float_info.max), min(p.hi, sys.float_info.max)))


_DOMAIN_POINTS = st.sampled_from([e for e in list_entries() if e.params]).flatmap(
    lambda e: st.fixed_dictionaries({p.name: _domain_values(p) for p in e.params})
    .map(lambda pp: (e.id, pp)))


class TestSchemaDomain:
    """At any point of an entry's schema that validate accepts, the closed
    form and the integrand return or raise DomainError, within 2 s."""

    @settings(max_examples=1000, derandomize=True, database=None, deadline=None)
    @given(_DOMAIN_POINTS)
    @example(("4.118", {"a": 1000.0}))  # sinh overflows
    @example(("4.124.1", {"p": 1.0, "q": 10.0, "u": 80.0}))  # I0(796) overflows
    @example(("4.123.1", {"a": 1e-300}))  # the closed form is about -1/a
    @example(("L3b", {"a": 1e-300, "b": 1e-300}))
    @example(("4.123.5", {"a": 5e-324, "beta": 0.5, "gamma": 5.722234971514057e307}))  # cos(inf)
    @example(("4.122.2", {"a": 1e300, "beta": 0.5}))  # numpy's sinh overflows
    def test_returns_or_raises_domain_error_in_time(self, point):
        entry_id, pp = point
        try:
            get_entry(entry_id).validate(pp)
        except DomainError:
            return
        with time_limit(2.0), np.errstate(all="ignore"):
            for fn in (closed_form, integrand):
                try:
                    fn(entry_id, pp)
                except DomainError:
                    pass

    def test_arithmetic_errors_name_the_entry_and_the_point(self):
        with time_limit(5.0):
            with pytest.raises(DomainError, match=r"^4\.118: overflows a double at \{'a': 1000\.0\}$"):
                closed_form("4.118", {"a": 1000.0})
            with pytest.raises(DomainError,
                               match=r"^4\.122\.2: divides by zero at \{'a': 1\.0, 'beta': 0\.9999999999999999\}$"):
                closed_form("4.122.2", {"a": 1.0, "beta": 1 - 2 ** -53})  # 1 + cos(beta pi) = 0
            with pytest.raises(DomainError, match=r"^3\.981\.5: leaves a math function's domain at"):
                closed_form("3.981.5", {"a": 1e308, "beta": 8e307, "gamma": 1e308})  # sin(inf)
            with pytest.raises(DomainError,
                               match=r"^4\.122\.2: overflows a double at \{'a': 1e\+300, 'beta': 0\.5\}$"):
                closed_form("4.122.2", {"a": 1e300, "beta": 0.5})
            with pytest.raises(DomainError, match=r"^I0\(795\.98\d*\) overflows a double$"):
                closed_form("4.124.1", {"p": 1.0, "q": 10.0, "u": 80.0})
            # just below I0's overflow the closed form still returns, near e^z/sqrt(2 pi z)
            assert closed_form("4.124.1", {"p": 1.0, "q": 10.0, "u": 71.0}) == pytest.approx(
                0.5 * PI * math.exp(math.sqrt(99.0) * 71.0)
                / math.sqrt(2.0 * PI * math.sqrt(99.0) * 71.0), rel=1e-3)

    @pytest.mark.parametrize("entry_id, params, value", [
        ("4.121.1", {"a": 1e-300, "b": 1e300, "beta": 1e-300}, "nan"),
        ("4.121.2", {"a": 1e-300, "b": 1e300, "beta": 1e-300}, "inf"),
        ("4.119", {"p": 1e300, "q": 1e-300}, "inf"),
        ("4.122.1", {"beta": 1e300, "gamma": 1e300, "delta": 1e-300}, "nan"),
    ])
    def test_non_finite_closed_forms_name_the_entry_and_the_point(self, entry_id, params, value):
        # these closed forms overflow into inf or nan without an exception
        with np.errstate(all="ignore"):
            raw = get_entry(entry_id).closed_form(params)
            assert repr(raw) == value
            with pytest.raises(DomainError) as info:
                closed_form(entry_id, params)
        assert str(info.value) == f"{entry_id}: closed form is {value} at {params}"


class TestIntegrandMetadata:
    def test_the_interval_picks_the_engine(self):
        # one engine per entry at all its seed-17 points: 26 decay, 3
        # oscillatory and 2 on tanh-sinh
        by_engine = {}
        for entry in list_entries():
            engines = {quad._engine(integrand(entry.id, pp)[1])
                       for pp in sample_params(entry, 25, 17)}
            assert len(engines) == 1, entry.id
            by_engine.setdefault(engines.pop(), set()).add(entry.id)
        assert by_engine.pop(quad._oscillatory) == {"4.123.7", "4.124.2", "4.117.9c"}
        assert by_engine.pop(quad._endpoint) == {"4.124.1", "4.124.1-nu-1"}
        assert len(by_engine.pop(quad._decay)) == 26
        assert not by_engine

    def test_4118_shape(self):
        f, spec = integrand("4.118", {"a": 1.0})
        assert quad._engine(spec) is quad._decay
        xs = np.array([0.5, 1.0, 2.0])
        expect = xs * np.sin(xs) / np.cosh(xs) ** 2
        assert np.allclose(f.eval(xs, *f.args), expect, rtol=1e-14)

    @pytest.mark.parametrize("entry_id, point, power", [
        ("L1", {"a": 1.0, "b": 0.5}, lambda p: p - 1.0),
        ("3.527.3", {"a": 1.0}, lambda mu: mu - 1.0),
        ("3.532.1", {"a": 1.0, "b": 2.0}, lambda n: n)], ids=["L1", "3.527.3", "3.532.1"])
    def test_lower_singular_exactly_at_non_integer_powers(self, entry_id, point, power):
        # x^power is analytic at x = 0 only for an integer power
        name = get_entry(entry_id).params[0].name
        for value in (-0.5, 0.0, 1.0, 1.05, 1.5, 2.0, 3.0, 3.7):
            pp = {name: value, **point}
            try:
                get_entry(entry_id).validate(pp)
            except DomainError:
                continue
            _, spec = integrand(entry_id, pp)
            assert spec.lower_singular == (not float(power(value)).is_integer()), pp
        # C1 is L1 at p = 2: weight x, on Gauss-Kronrod
        assert not integrand("C1", {"a": 1.0, "b": 0.5})[1].lower_singular

    def test_41241_shape(self):
        f, spec = integrand("4.124.1", {"p": 2.0, "q": 1.0, "u": 1.0})
        assert (spec.lower, spec.upper) == (0.0, 1.0)
        assert f.eval_upper_dist is not None

    def test_41232_removable_points(self):
        # the kernel itself is finite at its 0/0 points x = pi and x -> 0,
        # and equals the limits the factory once supplied there
        for a in (0.05, 1.0, 5.0, 150.0):
            f, _ = integrand("4.123.2", {"a": a})
            with np.errstate(divide="ignore"):  # the direct branch at pi, not taken
                at0, atpi = f.eval(np.array([1e-100, PI]), *f.args).tolist()
            assert at0 == pytest.approx(-2.0 / ((a * a + 1.0) * PI ** 2), rel=1e-13)
            assert atpi == pytest.approx(-1.0 / (2.0 * (math.cosh(a * PI) + 1.0)), rel=1e-13)

    def test_41237_substituted_variable(self):
        f, spec = integrand("4.123.7", {"a": 1.0})
        assert quad._engine(spec) is quad._oscillatory
        assert spec.osc_hint == 0.5  # half-periods of pi/(a/2) in t
        # value at t corresponds to x = sqrt(t/2) in the original variable
        t = np.array([2.0])
        x = math.sqrt(1.0)
        g = (math.sin(PI * x / 2) * math.sinh(PI * x / 2)
             / (math.cos(PI * x) + math.cosh(PI * x)))
        assert float(f.eval(t, *f.args)[0]) == pytest.approx(0.5 * math.sin(1.0) * g, rel=1e-13)

    def test_41242_undefined_as_printed(self):
        f, spec = integrand("4.124.2", {"a": 1.0, "beta": 0.5, "u": 1.0})
        assert spec.lower == 1.0 and quad._engine(spec) is quad._oscillatory
        with np.errstate(invalid="ignore"):
            vals = f.eval(np.array([1.5, 2.0, 10.0]), *f.args)
        assert np.all(~np.isfinite(vals))


def _hex(y):
    return [v.hex() for v in y.ravel().tolist()]


class TestKernelBatch:
    """One kernel call over many points of an entry gives each point, bit
    for bit, the node values of its own call with scalar args (the
    arithmetic of a closure over the point's parameters)."""

    @pytest.mark.parametrize("entry", [e for e in list_entries() if e.param_names],
                             ids=lambda e: e.id)
    def test_batched_nodes_equal_each_points_own_call(self, entry, monkeypatch):
        fs = [entry.integrand_factory(pp)[0] for pp in sample_params(entry, 25, 17)]
        rng = np.random.default_rng(list_entries().index(entry))
        # random panels on (0, 30), more than one kernel call holds
        n = quad._CHUNK + 300
        ends = np.sort(rng.uniform(0.0, 30.0, (n, 2)), axis=1)
        lo, hi = ends[:, 0], ends[:, 1]
        job = rng.integers(len(fs), size=n)
        calls = []
        evaluate = quad._evaluate
        with monkeypatch.context() as mp:
            mp.setattr(quad, "_evaluate", lambda kernel, x, *rest: calls.append(
                (x, evaluate(kernel, x, *rest))) or calls[-1][1])
            with np.errstate(all="ignore"):
                pes = [quad._Job(f) for f in fs]
                groups = quad._member_groups([(pe.f.eval, pe.f.args) for pe in pes])
                quad._gk_batch(pes, groups, job, lo, hi)
        assert len(calls) == 2
        assert max(x.size for x, _ in calls) <= quad._MAX_ABSCISSAE
        x = np.concatenate([x for x, _ in calls])
        y = np.concatenate([y for _, y in calls])
        c, s = 0.5 * (lo + hi), 0.5 * (hi - lo)
        assert x.tobytes() == (np.multiply.outer(s, quad._XK) + c[:, None]).tobytes()
        for j, f in enumerate(fs):
            mine = job == j
            with np.errstate(all="ignore"):
                own = quad._evaluate(f.eval, x[mine], f.args)
            assert _hex(y[mine]) == _hex(own)


class TestKernelContract:
    """Every kernel is finite at every x inside its interval that the
    engines can produce: tanh-sinh's nodes come within about 1e-66 times
    a half's length of an end, and a Gauss-Kronrod node can land on a
    removable 0/0 point such as pi.  Checked at each entry's seed-17
    points on a log grid from 1e-70 past the lower end, plus math.pi and
    its two neighbours.  4.124.2's printed integrand is nan past u by
    design, so it is nan everywhere there."""

    @pytest.mark.parametrize("entry", list_entries(), ids=lambda e: e.id)
    def test_finite_inside_the_interval(self, entry):
        for pp in sample_params(entry, 25, 17):
            f, spec = integrand(entry.id, pp)
            engine = quad._engine(spec)
            if engine is quad._endpoint:
                reach = spec.upper - spec.lower
            elif engine is quad._oscillatory:
                reach = quad._OSC_MAX_SEGMENTS * PI / spec.osc_hint
            else:
                # T solves C e^(-lambda T)/lambda = tol/10, so no block
                # reaches e^(-lambda x) = 1e-300
                reach = 690.0 / spec.decay_hint
            x = spec.lower + np.logspace(-70.0, math.log10(reach), 400)
            x = np.concatenate([x, [np.nextafter(PI, 0.0), PI, np.nextafter(PI, 4.0)]])
            x = x[(spec.lower < x) & (x < spec.upper)]
            with np.errstate(all="ignore"):
                y = f.eval(x, *f.args)
            if entry.id == "4.124.2":
                assert not np.isfinite(y).any()
            else:
                assert np.isfinite(y).all(), (pp, x[~np.isfinite(y)])


# Each entry below calls the kernel of the entry whose integrand it
# specialises.  These are the kernels they had of their own, kept as the
# references the shared kernels must equal bit for bit.

def _c1_kernel(x, bb, a):
    return x * catalog._cosh_over_sinh(bb, a, x)


def _l4_kernel(x, a, beta):
    return np.sin(a * x) / (x * np.cosh(beta * x))


def _e41211_kernel(x, half_sum, half_diff, beta):
    return (2.0 * np.cos(half_sum * x) * np.sin(half_diff * x)
            / (x * np.cosh(beta * x)))


def _e4119_kernel(x, half_p, q):
    return 2.0 * np.sin(half_p * x) ** 2 / (x * np.sinh(q * x))


def _e41241_kernel(x, p, q, u):
    w = (u - x) * (u + x)
    return np.cos(p * x) * np.cosh(q * np.sqrt(w)) / np.sqrt(w)


def _e41241_upper(d, p, q, u):
    w = d * (2.0 * u - d)
    return np.cos(p * (u - d)) * np.cosh(q * np.sqrt(w)) / np.sqrt(w)


def _e41241m1_kernel(x, p, q, u):
    w = (u - x) * (u + x)
    return np.cos(p * x) * np.cosh(q * np.sqrt(w)) * np.sqrt(w)


def _e41241m1_upper(d, p, q, u):
    w = d * (2.0 * u - d)
    return np.cos(p * (u - d)) * np.cosh(q * np.sqrt(w)) * np.sqrt(w)


# entry id -> (reference kernel, its args at a point, reference distance kernel)
_MERGED = {
    "C1": (_c1_kernel, lambda pp: (abs(pp["b"]), pp["a"]), None),
    "L4": (_l4_kernel, lambda pp: (pp["a"], pp["beta"]), None),
    "4.119": (_e4119_kernel, lambda pp: (0.5 * pp["p"], pp["q"]), None),
    "4.121.1": (_e41211_kernel, lambda pp: (0.5 * (pp["a"] + pp["b"]),
                                            0.5 * (pp["a"] - pp["b"]), pp["beta"]), None),
    "4.124.1": (_e41241_kernel, lambda pp: (pp["p"], pp["q"], pp["u"]), _e41241_upper),
    "4.124.1-nu-1": (_e41241m1_kernel, lambda pp: (pp["p"], pp["q"], pp["u"]),
                     _e41241m1_upper),
}


def _columns(values):
    """One (rows, 1) column per arg, as the quadrature passes them."""
    return [np.array(col)[:, None] for col in zip(*values)]


class TestMergedKernels:
    """Each entry that shares another entry's kernel, or a family builder's,
    gives the node values of the kernel it had of its own, bit for bit,
    called as the quadrature calls it: x one row per point, each arg a
    (rows, 1) column.  Its seed-17 points are checked at abscissae (and
    distances) from 1e-300 to 700, which no report digest reaches."""

    X = np.array([1e-300, 1e-8, 0.5, PI, 30.0, 700.0])

    @pytest.mark.parametrize("entry_id", list(_MERGED))
    def test_equal_to_the_kernel_it_replaced(self, entry_id):
        ref, ref_args, ref_upper = _MERGED[entry_id]
        points = sample_params(get_entry(entry_id), 25, 17)
        fs = [integrand(entry_id, pp)[0] for pp in points]
        assert len({id(f.eval) for f in fs}) == 1
        x = np.tile(self.X, (len(fs), 1))
        with np.errstate(all="ignore"):
            got = fs[0].eval(x, *_columns([f.args for f in fs]))
            want = ref(x, *_columns([ref_args(pp) for pp in points]))
        assert _hex(got) == _hex(want)
        if ref_upper is None:
            assert all(f.eval_upper_dist is None for f in fs)
            return
        upper = fs[0].eval_upper_dist.func
        assert all(f.eval_upper_dist.func is upper for f in fs)
        names = ("p", "q", "u")
        kw = dict(zip(names, _columns([[f.eval_upper_dist.keywords[k] for k in names]
                                       for f in fs])))
        with np.errstate(all="ignore"):
            assert _hex(upper(x, **kw)) == _hex(ref_upper(x, **kw))


# The six 4.123 sin(mx) entries by (sign, m, scale): their printed
# integrand is sin(mx) x / ((cosh bx + sign cos mx)(x^2 - pi^2)), b = scale a.
_FAMILY = {"4.123.1": (1, 1, 1), "4.123.1-m2": (1, 2, 1), "4.123.1-m3": (1, 3, 1),
           "4.123.1-m4": (1, 4, 1), "4.123.2": (-1, 1, 1), "4.123.3": (-1, 2, 2)}


def _printed_4123(entry_id, a, x):
    """The entry's integrand as printed, in mpmath at mpf a and x."""
    if entry_id == "4.123.4":
        return (mpmath.cosh(a * x) * mpmath.sin(x) * x
                / ((mpmath.cosh(a * x) ** 2 - mpmath.cos(x) ** 2) * (x * x - mpmath.pi ** 2)))
    sign, m, scale = _FAMILY[entry_id]
    return (mpmath.sin(m * x) * x
            / ((mpmath.cosh(scale * a * x) + sign * mpmath.cos(m * x)) * (x * x - mpmath.pi ** 2)))


class TestE4123Family:
    """The family builder's factory gives each of the six entries the spec
    of the factory it replaced and a kernel equal to the printed
    integrand, and so does 4.123.4's factory: within 1e-13 relative of
    mpmath at x from 1e-100 to 100 and at math.pi, where the kernels meet
    their 0/0, away from the other zeros of sin(mx), at the seed-17 points
    and at a from 1e-3 to 100."""

    X = np.concatenate([np.logspace(-100.0, 2.0, 52), [PI]])
    A = [1e-3, 0.05, 0.2, 1.0, 2.0, 5.0, 37.0, 100.0]

    def check_kernel(self, entry_id, m):
        points = sample_params(get_entry(entry_id), 25, 17) + [{"a": a} for a in self.A]
        fs = [integrand(entry_id, pp)[0] for pp in points]
        assert len({id(f.eval) for f in fs}) == 1
        with np.errstate(all="ignore"):
            got = fs[0].eval(np.tile(self.X, (len(fs), 1)), *_columns([f.args for f in fs]))
        k = np.round(m * self.X / PI)
        keep = (np.abs(m * self.X - k * PI) > 1e-3) | (k == 0) | (k == m)
        with mpmath.workdps(250):  # cosh - cos cancels to about x^2 at x = 1e-100
            for pp, row in zip(points, got):
                for x, y in zip(self.X[keep].tolist(), row[keep].tolist()):
                    want = _printed_4123(entry_id, mpmath.mpf(pp["a"]), mpmath.mpf(x))
                    # below 1e-300 the value underflows with cosh's overflow
                    assert abs(y - want) <= 1e-13 * abs(want) + 1e-300, (pp, x, y)
        return points

    @pytest.mark.parametrize("entry_id", list(_FAMILY))
    def test_equal_to_the_factory_it_replaced(self, entry_id):
        _, m, scale = _FAMILY[entry_id]
        for pp in self.check_kernel(entry_id, m):
            spec = quad.IntervalSpec(0.0, decay_hint=scale * pp["a"],
                                     osc_hint=float(m))
            # a float's repr is its exact value
            assert repr(integrand(entry_id, pp)[1]) == repr(spec)

    def test_41234_kernel(self):
        self.check_kernel("4.123.4", 1)


class TestE4123ClosedForms:
    """The family builder's closed form in m: against its own integrand by
    quadrature past the table's m, and against the table's six forms in
    mpmath."""

    def test_matches_quadrature_for_m_up_to_8(self):
        jobs, closed = [], []
        for m in range(1, 9):
            for sign in (1, -1):
                factory, cf = catalog._e4123_family(sign, m, 1)
                for a in (0.3, 0.7, 1.9, 4.0):
                    f, spec = factory({"a": a})
                    closed.append(cf({"a": a}))
                    jobs.append((f, spec, max(abs(closed[-1]) * 1e-11, 1e-14)))
        results = quad.integrate_many(jobs)
        for r, c in zip(results, closed):
            assert r.status == quad.STATUS_CONVERGED
            assert abs(r.value - c) <= 1e-9 * abs(c), (r.value, c)

    # the table's forms, evaluated at 50 digits
    TABLE = {
        "4.123.1": (1, lambda a: mpmath.atan(1 / a) - 1 / a),
        "4.123.1-m2": (2, lambda a: mpmath.atan(2 / a) - 2 * a / (1 + a ** 2)),
        "4.123.1-m3": (3, lambda a: mpmath.atan(3 / a) - (4 + 3 * a ** 2) / (a * (4 + a ** 2))),
        "4.123.1-m4": (4, lambda a: mpmath.atan(4 / a)
                       - 4 * a * (5 + a ** 2) / (9 + 10 * a ** 2 + a ** 4)),
        "4.123.2": (1, lambda a: a / (1 + a ** 2) - mpmath.atan(1 / a)),
        "4.123.3": (1, lambda a: (1 + 2 * a ** 2) / (2 * a * (1 + a ** 2)) - mpmath.atan(1 / a)),
    }

    @pytest.mark.parametrize("entry_id", list(TABLE))
    def test_against_mpmath_on_a_log_grid(self, entry_id):
        # the closed form ends in atan(m/b) minus a sum of about its size,
        # so it may lose the digits that subtraction cancels and no more:
        # a few ulps of 2 atan(m/b) / |value| (2.4e-12 relative at a = 100)
        n, ref = self.TABLE[entry_id]
        for i in range(60):
            a = 0.2 * 500.0 ** (i / 59)
            with mpmath.workdps(50):
                x = mpmath.mpf(a)
                want, atan = ref(x), mpmath.atan(n / x)
            got = closed_form(entry_id, {"a": a})
            cond = float(2 * atan / abs(want))
            assert abs(got - want) <= 4.0 * sys.float_info.epsilon * cond * abs(want), a


class TestLemma5:
    def test_vanishing_at_zero(self):
        assert lemma5_lhs(1e-30, 1.0, 5) == pytest.approx(0.0, abs=1e-28)
        assert lemma5_rhs(1e-30, 1.0) == pytest.approx(0.0, abs=1e-13)

    def test_quarter_point(self):
        # Gamma(1/2) Gamma(3/2) = pi/2
        assert lemma5_rhs(0.25, 1.0) == pytest.approx(math.log(PI / 2.0), rel=1e-13)

    def test_truncated_sum_matches(self):
        assert lemma5_lhs(0.5, 2.0, 60) == pytest.approx(
            lemma5_rhs(0.5, 2.0), abs=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            lemma5_lhs(4.0, 2.0, 10)
        with pytest.raises(DomainError):
            lemma5_rhs(1.0, 1.0)


class TestRhs41235:
    def test_large_a_dominant_term(self):
        # as a grows everything beyond the k = 0 term becomes negligible
        beta, gamma = 0.3, 0.9
        for a in (20.0, 30.0):
            full = rhs_4_123_5(a, beta, gamma)
            first = (PI * math.exp(-a * gamma)
                     / (2.0 * gamma * (math.cos(gamma * PI) + math.cos(beta * PI))))
            k0 = (math.exp(-(1.0 - beta) * a) / (gamma ** 2 - (1.0 - beta) ** 2)
                  - math.exp(-(1.0 + beta) * a) / (gamma ** 2 - (1.0 + beta) ** 2)
                  ) / math.sin(beta * PI)
            assert full == pytest.approx(first + k0, rel=1e-8)

    def test_matches_quadrature(self):
        a, beta, gamma = 1.0, 0.3, 0.9
        f, spec = integrand("4.123.5", {"a": a, "beta": beta, "gamma": gamma})
        r = integrate(f, spec, 1e-12)
        assert r.status == "converged"
        assert rhs_4_123_5(a, beta, gamma) == pytest.approx(r.value, rel=1e-8)

    def test_pole_rejected(self):
        # for beta = 0.3 the pole set is {0.7, 1.3, 2.7, 3.3, ...}
        with pytest.raises(DomainError, match="k=0"):
            rhs_4_123_5(1.0, 0.3, 1.3)
        with pytest.raises(DomainError, match="pole"):
            rhs_4_123_5(1.0, 0.3, 0.7)

    def test_explicit_terms(self):
        # the image-pole series summed to 200 terms
        a, beta, gamma = 1.0, 0.5, 2.0
        total = 0.0
        for k in range(200):
            lo, hi = 2.0 * k + 1.0 - beta, 2.0 * k + 1.0 + beta
            total += (math.exp(-lo * a) / (gamma ** 2 - lo ** 2)
                      - math.exp(-hi * a) / (gamma ** 2 - hi ** 2))
        first = (PI * math.exp(-a * gamma)
                 / (2.0 * gamma * (math.cos(gamma * PI) + math.cos(beta * PI))))
        v_fixed = first + total / math.sin(beta * PI)
        assert rhs_4_123_5(a, beta, gamma) == pytest.approx(v_fixed, rel=1e-12)


class TestCf35321:
    def test_r_zero_single_term(self):
        # a = b = 1: r = 0, integrand x^0 e^-x, integral 1
        assert cf_3_532_1(0.0, 1.0, 1.0, "derived") == pytest.approx(1.0, rel=1e-14)

    def test_small_b_limit_sech(self):
        # b -> 0 approaches int sech = pi/2
        v = cf_3_532_1(0.0, 1.0, 1e-3, "derived")
        assert abs(v - PI / 2.0) < 2e-3
        f, spec = integrand("3.532.1", {"n": 0.0, "a": 1.0, "b": 1e-3})
        r = integrate(f, spec, 1e-11)
        assert v == pytest.approx(r.value, rel=1e-9)

    def test_printed_to_derived_ratio(self):
        # at r = 0: Gamma(2n+1)/(2 Gamma(n+1)), exactly 6 for n = 2
        ratio = cf_3_532_1(2.0, 1.0, 1.0, "printed") / cf_3_532_1(2.0, 1.0, 1.0, "derived")
        assert ratio == pytest.approx(6.0, rel=1e-12)

    def test_validation(self):
        with pytest.raises(DomainError):
            cf_3_532_1(2.0, 1.0, 1.0, "both")
        with pytest.raises(DomainError):
            cf_3_532_1(-1.5, 1.0, 1.0, "derived")
        with pytest.raises(DomainError):
            cf_3_532_1(0.0, 1.0, -1.0, "derived")


class TestNuExtension:
    def test_nu_zero_reduces_to_base(self):
        for pp in ({"p": 2.0, "q": 1.0, "u": 1.0}, {"p": 1.5, "q": 0.8, "u": 1.2}):
            ext = cf_4_124_1_ext(pp["p"], pp["q"], pp["u"], 0.0)
            assert ext == pytest.approx(closed_form("4.124.1", pp), rel=1e-12)

    def test_nu_minus_one_reduces_to_closed_form(self):
        for pp in ({"p": 2.0, "q": 1.0, "u": 1.0}, {"p": 3.0, "q": 0.5, "u": 1.5}):
            ext = cf_4_124_1_ext(pp["p"], pp["q"], pp["u"], -1.0)
            assert ext == pytest.approx(closed_form("4.124.1-nu-1", pp), rel=1e-12)

    def test_half_cases_inside_domain(self, gauss_kronrod):
        # nu = -1/2 drops the weight entirely: plain finite integral oracle
        p, q, u = 2.0, 1.0, 1.0
        ext = cf_4_124_1_ext(p, q, u, -0.5)
        f = Integrand(eval=lambda x: np.cos(p * x) * np.cosh(q * np.sqrt((u - x) * (u + x))))
        r = gauss_kronrod(f, 0.0, u, 1e-12)
        assert ext == pytest.approx(r.value, rel=1e-10)

    def test_nu_half_boundary_undefined(self):
        # Gamma(0) appears in the n = 0 coefficient
        with pytest.raises(DomainError):
            cf_4_124_1_ext(2.0, 1.0, 1.0, 0.5)

    def test_domain_named_from_one_half_up(self):
        # the error names the series' domain, not a gamma argument inside it
        for nu in (0.5, 0.75, 2.0, math.nan):
            with pytest.raises(DomainError, match="nu < 1/2"):
                cf_4_124_1_ext(2.0, 1.0, 1.0, nu)

    @staticmethod
    def _mp_series(p, q, u, nu):
        # the same series at 40 digits, 90 terms, each from mpmath's own
        # Gamma and Bessel J
        with mpmath.workdps(40):
            p, q, u, nu = map(mpmath.mpf, (p, q, u, nu))
            return mpmath.pi * mpmath.fsum(
                q ** (2 * n) * 2 ** (-(n + nu + 1)) * (u / p) ** (n - nu)
                * mpmath.gamma(n + 0.5 - nu) / mpmath.gamma(n + 0.5)
                * mpmath.besselj(n - nu, p * u) / mpmath.factorial(n) for n in range(90))

    def test_against_mpmath(self):
        # nu across (-3, 1/2) at one point, and the corners of the audit's
        # draws (p, q up to 3, u up to 2) at the ends of that range and at
        # the two audited members; the worst is 6.4e-15, at (3, 0.2, 2, 0)
        # where J0(6)'s ascending series cancels 400-fold
        points = [(1.3, 0.8, 1.1, nu) for nu in (-2.9, -2.5, -1.6, -1.0, -0.7, -0.5, 0.0, 0.3, 0.45)]
        points += [(p, q, u, nu) for p in (0.2, 3.0) for q in (0.2, 3.0) for u in (0.2, 2.0)
                   for nu in (-2.9, -1.0, 0.0, 0.45)]
        for pt in points:
            assert abs(cf_4_124_1_ext(*pt) / self._mp_series(*pt) - 1) <= 1e-14, pt

    def test_no_digits_or_overflow_is_a_domain_error(self):
        # p = 40 and 50: J's ascending series at pu = 40, 50 cancels past
        # every digit (the rounding bound is 1127 and 55 times the sum, and
        # the sum gives -0.0187 and 7484 against mpmath's 0.0140 and 0.0861)
        for pt, what in (((40.0, 1.0, 1.0, 0.0), "no correct digits"),
                         ((50.0, 1.0, 1.0, 0.0), "no correct digits"),
                         ((1e-300, 1.0, 1.0, 0.0), "overflows"),
                         ((1.0, 1e300, 1.0, 0.0), "overflows"),
                         ((1e-300, 1.0, 1.0, -1.5), "overflows"),
                         ((1.0, 1.0, 51.0, 0.0), "pu <= 50")):
            with pytest.raises(DomainError, match=what):
                cf_4_124_1_ext(*pt)
        # at p = 30 the bound is 0.008 of the sum: the value, 6e-5 off, stands
        assert math.isfinite(cf_4_124_1_ext(30.0, 1.0, 1.0, 0.0))

    def test_gamma_calls_do_not_grow_with_the_terms(self, monkeypatch):
        # every term comes from the last by exact ratios: only the first
        # coefficient and the first Bessel leading term call gamma, and no
        # term starts a bessel_j of its own
        calls = dict.fromkeys(("gamma", "bessel_j", "_bessel_series"), 0)
        for name in calls:
            def counted(*args, _fn=getattr(sf, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(sf, name, counted)
        for pt in ((2.0, 1.0, 1.0, 0.0), (1.5, 0.8, 1.2, 0.0), (2.0, 1.0, 1.0, -1.0),
                   (3.0, 0.5, 1.5, -1.0), (2.0, 1.0, 1.0, -0.5), (3.0, 3.0, 2.0, 0.45)):
            calls.update(dict.fromkeys(calls, 0))
            cf_4_124_1_ext(*pt)
            assert calls["gamma"] <= 3 and calls["bessel_j"] == 0, pt
            assert calls["_bessel_series"] >= 6, pt  # one per term, at least 6


class TestRegistry:
    def test_contents(self):
        ids = [e.id for e in list_entries()]
        assert "4.118" in ids and "4.124.2" in ids
        assert len(ids) >= 25

    def test_suspect_flag(self):
        assert "suspect" in get_entry("4.124.2").flags

    def test_dual_convention_flag(self):
        assert "dual_convention" in get_entry("3.532.1").flags

    def test_dual_convention_flag_is_set_exactly_by_a_printed_form(self):
        for e in list_entries():
            assert ("dual_convention" in e.flags) == (e.printed_form is not None), e.id
        dual, plain = get_entry("3.532.1"), get_entry("4.124.2")
        assert "dual_convention" not in dataclasses.replace(dual, printed_form=None).flags
        assert dataclasses.replace(plain, printed_form=plain.closed_form).flags == {
            "suspect", "dual_convention"}
        assert dataclasses.replace(plain, flags=frozenset({"dual_convention"})).flags == set()

    def test_constant_entries(self):
        for eid in ("HW1", "HW2", "HW3"):
            e = get_entry(eid)
            assert "constant_entry" in e.flags
            assert e.param_names == ()

    def test_deterministic_order(self):
        assert [e.id for e in list_entries()] == [e.id for e in list_entries()]


class TestCrossEntryRelations:
    def test_sum_rule_4123(self):
        # cf(4.123.1) + cf(4.123.2) = 2 cf(4.123.4)
        for a in (0.5, 1.0, 2.0, 5.0):
            lhs = (closed_form("4.123.1", {"a": a})
                   + closed_form("4.123.2", {"a": a}))
            rhs = 2.0 * closed_form("4.123.4", {"a": a})
            assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(rhs))

    def test_difference_rule_4123(self):
        # cf(4.123.2) - cf(4.123.1) = 2 cf(4.123.3); the factor 2 is forced
        # by the displayed closed forms
        for a in (0.5, 1.0, 2.0, 5.0):
            lhs = (closed_form("4.123.2", {"a": a})
                   - closed_form("4.123.1", {"a": a}))
            rhs = 2.0 * closed_form("4.123.3", {"a": a})
            assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(rhs))

    def test_41222_beta_zero_reduction(self):
        # 4.122.2 at beta = 0 is (1/2) ln cosh(a pi), i.e. half of 4.119 at
        # (p, q) = (2a, 1) because 1 - cos(2ax) = 2 sin^2(ax)
        for a in (0.4, 1.0, 2.5):
            v = closed_form("4.122.2", {"a": a, "beta": 0.0})
            assert v == pytest.approx(0.5 * math.log(math.cosh(a * PI)), rel=1e-12)
            assert v == pytest.approx(
                0.5 * closed_form("4.119", {"p": 2.0 * a, "q": 1.0}), rel=1e-12)

    def test_gudermannian_reduction(self):
        # 4.122.1 at beta = 0 equals L4 with (a, beta) -> (gamma, delta)
        for (gamma, delta) in ((1.0, 1.0), (2.0, 0.7), (0.3, 2.0)):
            lhs = closed_form("4.122.1", {"beta": 0.0, "gamma": gamma, "delta": delta})
            rhs = closed_form("L4", {"a": gamma, "beta": delta})
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_lemma1_weight_x_is_corollary(self):
        for (a, b) in ((1.0, 0.0), (1.0, 0.5), (2.0, 1.3)):
            lhs = closed_form("L1", {"p": 2.0, "a": a, "b": b})
            rhs = closed_form("C1", {"a": a, "b": b})
            assert abs(lhs - rhs) <= 1e-11 * abs(rhs)

    def test_csch_moment_zeta_representation(self):
        # L1 at b = 0, a = 1 against the (1 - 2^-p)^(-1)-form of the
        # zeta-function moment representation
        for p in (2.0, 3.0, 4.5):
            lhs = closed_form("L1", {"p": p, "a": 1.0, "b": 0.0})
            rhs = (2.0 * sf.gamma(p).value * sf.hurwitz_zeta(p, 1.0).value
                   * (1.0 - 2.0 ** (-p)))
            assert abs(lhs - rhs) <= 1e-11 * abs(rhs)

    def test_4118_is_derivative(self):
        # closed form equals -d/da [pi a / (2 sinh(pi a/2))], central diff
        def phi(a):
            return PI * a / (2.0 * math.sinh(PI * a / 2.0))

        h = 1e-5
        for a in (0.7, 1.5, 3.0):
            cf = closed_form("4.118", {"a": a})
            deriv = -(phi(a + h) - phi(a - h)) / (2.0 * h)
            assert abs(cf - deriv) <= 1e-8

    def test_kernel_expansion(self):
        # 1/(cosh x - cos x) = (2/sin x) sum_{n<=80} e^(-n x) sin(n x)
        n = np.arange(1, 81)
        for x in (0.5, 1.0, 2.0):
            lhs = 1.0 / (math.cosh(x) - math.cos(x))
            rhs = 2.0 / math.sin(x) * float(np.sum(np.exp(-n * x) * np.sin(n * x)))
            assert abs(lhs - rhs) <= 1e-10

    def test_hw3_constant(self):
        omega = lemniscatic_period()
        assert omega == pytest.approx(2.622057554292119, rel=1e-12)
        assert closed_form("HW3", {}) == pytest.approx(omega ** 2 - 4.0, rel=1e-12)
