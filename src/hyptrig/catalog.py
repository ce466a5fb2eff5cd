"""The entry registry: Gradshteyn-Ryzhik-style table entries 4.118-4.124
plus related identities, each with a parameter schema (one Param per
parameter; validate, the audit's draw and `hyptrig show` derive from it),
an integrand factory, and a closed-form evaluator; an entry's own sampler
yields candidate points, and its accept(pp, closed) guards their closed form.

Entry ids follow the table numbering ("4.119", "4.123.6", ...); auxiliary
results carry short labels (L1, C1, L3a, L3b, L4, HW1-HW3).  Provenance
notes record where each closed form comes from and any known defect.  The
catalog audits the table as printed: a suspect entry keeps its printed
form and is expected to fail verification.

Factory contract: each entry's integrand is a kernel k(x, *args),
elementwise in x, and its factory returns Integrand(eval=k, args=...)
with the point's values in args.  A kernel is one object shared by all
of an entry's points: a module-level function, one built once by a
family builder (_e41241_family), or the kernel of the entry whose
integrand this one specialises, called with the args that make the two
equal (C1 is L1 at p = 2).  The quadrature calls one kernel once for
many points, with each arg a (rows, 1) column, so a kernel broadcasts
its args and uses numpy only.  A kernel is finite and accurate at every
x inside its interval that the quadrature can produce, to about 1e-66
from an end, so a removable 0/0 point is written in a form that
evaluates there (_sin_over_x_minus_pi at pi).  Parameter-only math
(math.cos(pi beta), signs, absolute values) is done in the factory, in
Python floats, so every point's node values are the same bits whether
its kernel call holds one point or many.  An endpoint-distance callback
(eval_lower_dist / eval_upper_dist) is functools.partial(k, p=..., ...)
of a shared kernel k(d, ...) with the point's values as keywords: it
still takes one argument, and the tanh-sinh levels call k once for many
points, each keyword a column.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from .errors import DomainError, UnknownEntryError
from .quad import Integrand, IntervalSpec
from . import specfun as sf

ParamPoint = Dict[str, float]

_PI = math.pi
_SQRT_PI = math.sqrt(_PI)


# ---------------------------------------------------------------------------
# numerically stable building blocks

def _cosh_minus_cos(t, u):
    """cosh(t) - cos(u) as 2 (sinh^2(t/2) + sin^2(u/2)): no cancellation."""
    return 2.0 * (np.sinh(0.5 * t) ** 2 + np.sin(0.5 * u) ** 2)


def _cosh_plus_cos(t, u):
    """cosh(t) + cos(u) as 2 (sinh^2(t/2) + cos^2(u/2))."""
    return 2.0 * (np.sinh(0.5 * t) ** 2 + np.cos(0.5 * u) ** 2)


def _sinh_minus_sin(u):
    # 2 (u^3/3! + u^7/7! + u^11/11! + u^15/15! + ...), within 2 eps below
    # |u| = 0.5, where the direct difference cancels
    u = np.asarray(u, dtype=float)
    small = np.abs(u) < 0.5
    us = np.where(small, u, 0.0)
    series = us ** 3 / 3.0 * (1.0 + us ** 4 / 840.0 + us ** 8 / 6652800.0
                              + us ** 12 / 217945728000.0)
    with np.errstate(over="ignore"):
        direct = np.sinh(u) - np.sin(u)
    return np.where(small, series, direct)


def _cosh_over_sinh(bb, a, x):
    """cosh(bx)/sinh(ax) for a > bb = |b|, overflow-free on all of (0, inf)."""
    return (np.exp((bb - a) * x) * (1.0 + np.exp(-2.0 * bb * x))
            / (-np.expm1(-2.0 * a * x)))


def _sinh_over_sinh(sign, bb, a, x):
    """sinh(bx)/sinh(ax) for a > bb = |b|, sign = copysign(1, b),
    overflow-free on all of (0, inf)."""
    return (sign * np.exp((bb - a) * x)
            * np.expm1(-2.0 * bb * x) / np.expm1(-2.0 * a * x))


def _log_cosh(t: float) -> float:
    t = abs(t)
    return t + math.log1p(math.exp(-2.0 * t)) - math.log(2.0)


def _bessel_j(nu: float, x: float) -> float:
    """J_nu(x) from sf.bessel_j; DomainError where its est_rel_error is
    inf, so that no closed form passes a value with no correct digits."""
    sv = sf.bessel_j(nu, x)
    if sv.est_rel_error == math.inf:
        raise DomainError(f"J_{nu:g}({x!r}) has no correct digits")
    return sv.value


def _bessel_i0(z: float) -> float:
    # even ascending series; the unique continuous continuation of
    # J0(sqrt(p^2-q^2) u) across p = q
    term = 1.0
    total = 1.0
    k = 0
    qz = 0.25 * z * z
    while True:
        k += 1
        term *= qz / (k * k)
        total += term
        if not total < math.inf:  # nan included
            raise DomainError(f"I0({z!r}) overflows a double")
        if term < 1e-17 * total:
            return total


# ---------------------------------------------------------------------------
# entry descriptor machinery

def _log_uniform(rng, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


@dataclass(frozen=True)
class Param:
    """One parameter: its domain lo < x < hi (lo <= x when lo_closed) and
    the audit's draw (draw_lo, draw_hi, scale), uniform on [draw_lo, draw_hi]
    or log-uniform when scale is "log", then multiplied by the parameter
    named `of` when that is set.  An entry with its own sampler reads only
    the domain: its Params' draw and `of` are not read."""

    name: str
    lo: float = 0.0
    hi: float = math.inf
    lo_closed: bool = False
    draw: Tuple[float, float, str] = (0.2, 5.0, "log")
    of: Optional[str] = None

    @property
    def predicate(self) -> str:
        """The domain as text, "a > 0" or "0 <= beta < 1"; "" if unbounded."""
        if self.hi < math.inf:
            return f"{self.lo:g} {'<=' if self.lo_closed else '<'} {self.name} < {self.hi:g}"
        if self.lo > -math.inf:
            return f"{self.name} {'>=' if self.lo_closed else '>'} {self.lo:g}"
        return ""


@dataclass(frozen=True)
class EntryDescriptor:
    """One table entry: parameter schema, integrand factory, closed form.
    `relations` are the coupled constraints, (predicate, check) pairs that
    validate tests after the Params; `sampler(rng, i)` yields candidates
    for point i in place of the Params' draws, and `accept(pp, closed)`
    screens their closed forms (see sample).  `printed_form` is what the
    table prints where it disagrees with `closed_form` (dual_convention)."""

    id: str
    integrand_factory: Callable[[ParamPoint], Tuple[Integrand, IntervalSpec]]
    closed_form: Callable[[ParamPoint], float]
    params: Tuple[Param, ...] = ()
    relations: Tuple[Tuple[str, Callable[[ParamPoint], bool]], ...] = ()
    sampler: Optional[Callable[[object, int], Iterator[ParamPoint]]] = None
    accept: Optional[Callable[[ParamPoint, float], bool]] = None
    flags: frozenset = frozenset()
    provenance_note: str = ""
    printed_form: Optional[Callable[[ParamPoint], float]] = None

    def __post_init__(self):
        dual = {"dual_convention"} if self.printed_form is not None else set()
        object.__setattr__(self, "flags", self.flags - {"dual_convention"} | dual)

    @functools.cached_property
    def param_names(self) -> Tuple[str, ...]:
        return tuple(p.name for p in self.params)

    @property
    def domain(self) -> List[str]:
        """The predicates validate checks, in its order."""
        return [p.predicate for p in self.params if p.predicate] + [r for r, _ in self.relations]

    def _draw(self, rng, i: int) -> Iterator[ParamPoint]:
        """The default sampler: one candidate, each Param's draw in order."""
        pp: ParamPoint = {}
        for p in self.params:
            lo, hi, scale = p.draw
            x = _log_uniform(rng, lo, hi) if scale == "log" else rng.uniform(lo, hi)
            pp[p.name] = pp[p.of] * x if p.of else x
        yield pp

    def sample(self, rng, i: int) -> Tuple[ParamPoint, Optional[float]]:
        """The audit's point i, drawn from rng and validated: the sampler's
        first candidate whose closed form (through guarded) accept takes,
        with that value, or with accept unset its first candidate and None."""
        for pp in (self.sampler or self._draw)(rng, i):
            closed = None if self.accept is None else self.guarded(self.closed_form, pp)
            if closed is None or self.accept(pp, closed):
                self.validate(pp)
                return pp, closed
        raise DomainError(f"{self.id}: empty feasible region")

    def validate(self, params: ParamPoint) -> None:
        for name in self.param_names:
            if name not in params:
                raise DomainError(f"{self.id}: missing parameter {name!r}")
            v = params[name]
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise DomainError(f"{self.id}: parameter {name!r} must be finite")
        if len(params) > len(self.param_names):  # every name is in params
            extra = set(params) - set(self.param_names)
            raise DomainError(f"{self.id}: unknown parameters {sorted(extra)}")
        for p in self.params:
            x = params[p.name]
            if not ((p.lo <= x if p.lo_closed else p.lo < x) and x < p.hi):
                raise DomainError(f"{self.id}: violated {p.predicate}")
        for predicate, check in self.relations:
            if not check(params):
                raise DomainError(f"{self.id}: violated {predicate}")

    def guarded(self, fn: Callable[[ParamPoint], object], params: ParamPoint):
        """fn(params), with OverflowError, ZeroDivisionError and ValueError as DomainError."""
        try:
            return fn(params)
        except DomainError:
            raise
        except (OverflowError, ZeroDivisionError, ValueError) as exc:
            # ValueError: a math function of an argument that overflowed to inf
            what = ("overflows a double" if isinstance(exc, OverflowError) else "divides by zero"
                    if isinstance(exc, ZeroDivisionError) else "leaves a math function's domain")
            raise DomainError(f"{self.id}: {what} at {params}") from None


_REGISTRY: "Dict[str, EntryDescriptor]" = {}


def _register(entry: EntryDescriptor) -> None:
    if entry.id in _REGISTRY:
        raise ValueError(f"duplicate entry id {entry.id}")
    _REGISTRY[entry.id] = entry


def get_entry(entry_id: str) -> EntryDescriptor:
    try:
        return _REGISTRY[entry_id]
    except KeyError:
        raise UnknownEntryError(entry_id) from None


def list_entries() -> List[EntryDescriptor]:
    """All entries in registry order; deterministic."""
    return list(_REGISTRY.values())


def closed_form(entry_id: str, params: ParamPoint) -> float:
    """The table's right-hand side at the given parameters; DomainError if not finite."""
    entry = get_entry(entry_id)
    entry.validate(params)
    value = entry.guarded(entry.closed_form, params)
    if not math.isfinite(value):
        raise DomainError(f"{entry_id}: closed form is {value!r} at {params}")
    return value


def integrand(entry_id: str, params: ParamPoint) -> Tuple[Integrand, IntervalSpec]:
    """The entry's integrand, plus its interval and engine hints."""
    entry = get_entry(entry_id)
    entry.validate(params)
    return entry.guarded(entry.integrand_factory, params)


# ---------------------------------------------------------------------------
# auxiliary closed forms kept as checkable entries

def _l1_kernel(x, bb, a, pm1):
    return _cosh_over_sinh(bb, a, x) * x ** pm1


def _l1_factory(pp):
    p, a, b = pp["p"], pp["a"], pp["b"]
    lam = a - abs(b)
    pm1 = p - 1.0
    # a non-integer power of x is not analytic at 0: tanh-sinh takes
    # [0, 1/lam] (C1's weight x keeps Gauss-Kronrod)
    return (Integrand(eval=_l1_kernel, args=(abs(b), a, pm1)),
            IntervalSpec(0.0, decay_hint=lam, lower_singular=not pm1.is_integer()))


def _l1_closed(pp):
    p, a, b = pp["p"], pp["a"], pp["b"]
    g = sf.gamma(p).value
    z1 = sf.hurwitz_zeta(p, (a - b) / (2.0 * a)).value
    z2 = sf.hurwitz_zeta(p, (a + b) / (2.0 * a)).value
    return g / (2.0 * a) ** p * (z1 + z2)


def _l1_sample(rng, i):
    a = _log_uniform(rng, 0.2, 5.0)
    yield {"p": rng.uniform(1.25, 6.0), "a": a, "b": a * rng.uniform(-0.9, 0.9)}


_register(EntryDescriptor(
    id="L1",
    params=(Param("p", lo=1.0), Param("a"), Param("b", lo=-math.inf)),
    relations=(("|b| < a", lambda pp: abs(pp["b"]) < pp["a"]),),
    integrand_factory=_l1_factory,
    closed_form=_l1_closed,
    sampler=_l1_sample,
    provenance_note="x^(p-1) cosh(bx)/sinh(ax) on (0,inf); Hurwitz-zeta pair "
                    "via geometric expansion of csch.",
))


_register(EntryDescriptor(
    id="C1",
    params=(Param("a"), Param("b", lo=-math.inf, draw=(-0.9, 0.9, "linear"), of="a")),
    relations=(("|b| < a", lambda pp: abs(pp["b"]) < pp["a"]),),
    integrand_factory=lambda pp: _l1_factory({"p": 2.0, **pp}),
    closed_form=lambda pp: _PI ** 2 / (4.0 * pp["a"] ** 2)
    / math.cos(_PI * pp["b"] / (2.0 * pp["a"])) ** 2,
    provenance_note="weight x case of L1; equivalent to the trigamma "
                    "reflection (table 4.111.6).",
))


def _l3a_kernel(x, a, b):
    return np.exp(-a * x) * np.sin(b * x) / x


def _l3a_factory(pp):
    a, b = pp["a"], pp["b"]
    return (Integrand(eval=_l3a_kernel, args=(a, b)),
            IntervalSpec(0.0, decay_hint=a, osc_hint=abs(b)))


_register(EntryDescriptor(
    id="L3a",
    params=(Param("a"), Param("b", lo=-math.inf)),
    integrand_factory=_l3a_factory,
    closed_form=lambda pp: math.atan(pp["b"] / pp["a"]),
    provenance_note="Laplace transform of sin(bx)/x.",
))


def _l3b_kernel(x, a, b):
    return np.exp(-a * x) * np.sin(b * x) ** 2 / x


def _l3b_factory(pp):
    a, b = pp["a"], pp["b"]
    return (Integrand(eval=_l3b_kernel, args=(a, b)),
            IntervalSpec(0.0, decay_hint=a, osc_hint=2.0 * abs(b)))


_register(EntryDescriptor(
    id="L3b",
    params=(Param("a"), Param("b", lo=-math.inf)),
    integrand_factory=_l3b_factory,
    closed_form=lambda pp: 0.25 * math.log1p(4.0 * pp["b"] ** 2 / pp["a"] ** 2),
    provenance_note="Laplace transform of sin^2(bx)/x.",
))


_register(EntryDescriptor(
    id="L4",
    params=(Param("a", lo_closed=True), Param("beta")),
    integrand_factory=lambda pp: _e41221_factory({"beta": 0.0, "gamma": pp["a"],
                                                  "delta": pp["beta"]}),
    closed_form=lambda pp: 2.0 * math.atan(math.exp(_PI * pp["a"] / (2.0 * pp["beta"]))) - _PI / 2.0,
    provenance_note="sin(ax)/(x cosh(beta x)); arctangent summation "
                    "(table 4.111.7).",
))


# ---------------------------------------------------------------------------
# table sections 4.118 - 4.122

def _e4118_kernel(x, a):
    return x * np.sin(a * x) / np.cosh(x) ** 2


def _e4118_factory(pp):
    a = pp["a"]
    return (Integrand(eval=_e4118_kernel, args=(a,)),
            IntervalSpec(0.0, decay_hint=2.0, osc_hint=a))


def _e4118_closed(pp):
    a = pp["a"]
    half = 0.5 * _PI * a
    if a >= 0.2:
        return _PI / 4.0 * (-2.0 + a * _PI / math.tanh(half)) / math.sinh(half)
    # below the audit's draws -2 + a pi coth(h), h = half, cancels.  It is
    # 2 (h cosh h - sinh h)/sinh h, and h cosh h - sinh h = h^3 sum_n>=1
    # 2n h^(2n-2)/(2n+1)!, positive terms (seven reach 1e-17 for h < 0.32);
    # h^3/sinh^2 h is taken as h (h/sinh h)^2, which does not underflow
    series = math.fsum(2 * n * half ** (2 * n - 2) / math.factorial(2 * n + 1)
                       for n in range(1, 8))
    return 0.5 * _PI * half * series * (half / math.sinh(half)) ** 2


_register(EntryDescriptor(
    id="4.118",
    params=(Param("a"),),
    integrand_factory=_e4118_factory,
    closed_form=_e4118_closed,
    provenance_note="x sin(ax)/cosh^2 x; equals -d/da [pi a / (2 sinh(pi a/2))].",
))


_register(EntryDescriptor(
    id="4.119",
    params=(Param("p"), Param("q")),
    integrand_factory=lambda pp: _e41212_factory({"a": 0.0, "b": pp["p"], "beta": pp["q"]}),
    closed_form=lambda pp: _log_cosh(_PI * pp["p"] / (2.0 * pp["q"])),
    provenance_note="(1 - cos px)/(x sinh qx), written as 2 sin^2(px/2) "
                    "for stability near 0: 4.121.2 at a = 0.",
))


def _e41221_kernel(x, c, beta, gamma, delta):
    # c cos(beta x) sin(gamma x)/(x cosh(delta x)): 4.122.1 (c = 1), 4.121.1
    # (c = 2) and L4 (c = 1, beta = 0); c = 1 and cos 0 = 1 are exact
    return c * np.cos(beta * x) * np.sin(gamma * x) / (x * np.cosh(delta * x))


def _e41211_factory(pp):
    # sin ax - sin bx = 2 cos((a+b)x/2) sin((a-b)x/2): the 4.122.1 kernel
    a, b, beta = pp["a"], pp["b"], pp["beta"]
    return (Integrand(eval=_e41221_kernel, args=(2.0, 0.5 * (a + b), 0.5 * (a - b), beta)),
            IntervalSpec(0.0, decay_hint=beta, osc_hint=max(a, b)))


def _e41211_closed(pp):
    a, b, beta = pp["a"], pp["b"], pp["beta"]
    ea = math.exp(_PI * a / (2.0 * beta))
    eb = math.exp(_PI * b / (2.0 * beta))
    return 2.0 * math.atan((ea - eb) / (1.0 + ea * eb))


def _e41211_sample(rng, i):
    a = _log_uniform(rng, 0.2, 5.0)
    b = _log_uniform(rng, 0.2, 5.0)
    # value ~ 2(e^-B - e^-A), A,B = a,b * pi/(2 beta): keep it resolvable
    beta = _log_uniform(rng, max(0.2, _PI * min(a, b) / 30.0), 5.0)
    yield {"a": a, "b": b, "beta": beta}


_register(EntryDescriptor(
    id="4.121.1",
    params=(Param("a", lo=-math.inf), Param("b", lo=-math.inf), Param("beta")),
    integrand_factory=_e41211_factory,
    closed_form=_e41211_closed,
    sampler=_e41211_sample,
    provenance_note="difference of two L4 instances; tangent addition "
                    "formula form.",
))


def _e41212_kernel(x, half_sum, half_diff, beta):
    # cos ax - cos bx = 2 sin((a+b)x/2) sin((b-a)x/2)
    return (2.0 * np.sin(half_sum * x) * np.sin(half_diff * x)
            / (x * np.sinh(beta * x)))


def _e41212_factory(pp):
    a, b, beta = pp["a"], pp["b"], pp["beta"]
    return (Integrand(eval=_e41212_kernel, args=(0.5 * (a + b), 0.5 * (b - a), beta)),
            IntervalSpec(0.0, decay_hint=beta, osc_hint=max(a, b)))


_register(EntryDescriptor(
    id="4.121.2",
    params=(Param("a", lo=-math.inf), Param("b", lo=-math.inf), Param("beta")),
    integrand_factory=_e41212_factory,
    closed_form=lambda pp: _log_cosh(_PI * pp["b"] / (2.0 * pp["beta"]))
    - _log_cosh(_PI * pp["a"] / (2.0 * pp["beta"])),
    provenance_note="(cos ax - cos bx)/(x sinh(beta x)); antisymmetric in a, b.",
))


def _e41221_factory(pp):
    beta, gamma, delta = pp["beta"], pp["gamma"], pp["delta"]
    return (Integrand(eval=_e41221_kernel, args=(1.0, beta, gamma, delta)),
            IntervalSpec(0.0, decay_hint=delta, osc_hint=beta + gamma))


def _e41221_sample(rng, i):
    gamma = _log_uniform(rng, 0.2, 5.0)
    delta = _log_uniform(rng, 0.2, 5.0)
    for _ in range(1000):
        beta = _log_uniform(rng, 0.2, 5.0)
        # the value decays like e^((gamma-beta) pi/(2 delta)); keep the
        # exponent above -15 so a relative comparison stays meaningful
        if (beta - gamma) * _PI / (2.0 * delta) <= 15.0:
            yield {"beta": beta, "gamma": gamma, "delta": delta}


_register(EntryDescriptor(
    id="4.122.1",
    params=(Param("beta", lo=-math.inf), Param("gamma"), Param("delta")),
    integrand_factory=_e41221_factory,
    closed_form=lambda pp: math.atan(
        math.sinh(_PI * pp["gamma"] / (2.0 * pp["delta"]))
        / math.cosh(_PI * pp["beta"] / (2.0 * pp["delta"]))),
    sampler=_e41221_sample,
    provenance_note="cos(beta x) sin(gamma x)/(x cosh(delta x)) via 4.121.1.",
))


def _e41222_kernel(x, a, bb):
    return np.sin(a * x) ** 2 * _cosh_over_sinh(bb, 1.0, x) / x


def _e41222_factory(pp):
    a, beta = pp["a"], pp["beta"]
    return (Integrand(eval=_e41222_kernel, args=(a, abs(beta))),
            IntervalSpec(0.0, decay_hint=1.0 - beta, osc_hint=2.0 * a))


def _e41222_closed(pp):
    a, beta = pp["a"], pp["beta"]
    with np.errstate(over="ignore"):
        num = float(_cosh_plus_cos(np.float64(2.0 * a * _PI), np.float64(beta * _PI)))
    if num == math.inf:
        raise OverflowError  # as math's functions do; guarded names the point
    return 0.25 * math.log(num / (1.0 + math.cos(beta * _PI)))


_register(EntryDescriptor(
    id="4.122.2",
    params=(Param("a"), Param("beta", hi=1.0, lo_closed=True, draw=(0.05, 0.9, "linear"))),
    integrand_factory=_e41222_factory,
    closed_form=_e41222_closed,
    provenance_note="sin^2(ax) cosh(beta x)/(x sinh x).",
))


def _e39815_kernel(x, a, sign, bb, gamma):
    return np.cos(a * x) * _sinh_over_sinh(sign, bb, gamma, x)


def _e39815_factory(pp):
    a, beta, gamma = pp["a"], pp["beta"], pp["gamma"]
    return (Integrand(eval=_e39815_kernel,
                      args=(a, math.copysign(1.0, beta), abs(beta), gamma)),
            IntervalSpec(0.0, decay_hint=gamma - abs(beta), osc_hint=a))


def _e39815_closed(pp):
    a, beta, gamma = pp["a"], pp["beta"], pp["gamma"]
    return (_PI / (2.0 * gamma) * math.sin(_PI * beta / gamma)
            / (math.cosh(a * _PI / gamma) + math.cos(_PI * beta / gamma)))


def _e39815_sample(rng, i):
    for _ in range(1000):
        gamma = _log_uniform(rng, 0.2, 5.0)
        beta = gamma * rng.uniform(0.1, 0.9)
        # keep cosh(a pi/gamma) moderate so the value stays resolvable
        yield {"a": _log_uniform(rng, 0.2, min(5.0, 3.0 * gamma)), "beta": beta, "gamma": gamma}


_register(EntryDescriptor(
    id="3.981.5",
    params=(Param("a"), Param("beta", lo=-math.inf), Param("gamma")),
    relations=(("|beta| < gamma", lambda pp: abs(pp["beta"]) < pp["gamma"]),),
    integrand_factory=_e39815_factory,
    closed_form=_e39815_closed,
    sampler=_e39815_sample,
    # |f|-mass over |value| past ~5e3 puts the tolerance under the roundoff floor
    accept=lambda pp, closed: (pp["beta"] / pp["gamma"]) / (pp["gamma"] - pp["beta"])
    / abs(closed) <= 5e3,
    provenance_note="cos(ax) sinh(beta x)/sinh(gamma x); integrating over "
                    "beta recovers 4.122.2.",
))


# ---------------------------------------------------------------------------
# table section 4.123

def _sin_over_x_minus_pi(x, m, sm):
    """sin(mx)/(x - pi), sm = (-1)^m m: the direct ratio below pi/2, which
    keeps sin(mx)'s relative accuracy as x -> 0, and from there on, finite
    at pi, sm sinc(m (x - pi)/pi), as sin(mx) = (-1)^m sin(m (x - pi))."""
    return np.where(x < 0.5 * _PI, np.sin(m * x) / (x - _PI),
                    sm * np.sinc(m * (x - _PI) / _PI))


def _e4123_plus_kernel(x, b, m, sm):
    return x / (_cosh_plus_cos(b * x, m * x) * (x + _PI)) * _sin_over_x_minus_pi(x, m, sm)


def _e4123_minus_kernel(x, b, m, sm):
    return x / (_cosh_minus_cos(b * x, m * x) * (x + _PI)) * _sin_over_x_minus_pi(x, m, sm)


def _e4123_family(sign: int, m: int, scale: float):
    """The factory and the closed form of
    int_0^inf sin(mx) x / ((cosh bx + sign cos mx)(x^2 - pi^2)) dx, b = scale a:
    sign (atan(m/b) - sum_k w_k b/(b^2 + k^2)) over k = 1-m, 3-m, ..., m-1
    (sign = +1) or k = -m, 2-m, ..., m (sign = -1, w = 1/2 at k = +-m), w = 1
    elsewhere.  The form in m was found by pattern from the table's members
    and is checked by quadrature for m = 1...8 and against mpmath.
    """
    kernel = _e4123_plus_kernel if sign > 0 else _e4123_minus_kernel
    top = m - 1 if sign > 0 else m  # the largest k
    # the sum is even in k: each k > 0 counts twice, but k = m (w = 1/2) once
    pairs = [(k, 1.0 if k == m else 2.0) for k in range(top, 0, -2)]

    def factory(pp):
        b = scale * pp["a"]
        return (Integrand(eval=kernel, args=(b, float(m), float((-1) ** m * m))),
                IntervalSpec(0.0, decay_hint=b, osc_hint=float(m)))

    def closed(pp):
        b = scale * pp["a"]
        total = 1.0 / b if top % 2 == 0 else 0.0  # the k = 0 term
        for k, w in pairs:
            total += w * b / (b * b + k * k)
        return sign * (math.atan(m / b) - total)

    return factory, closed


for _eid, _sign, _m, _scale in (("4.123.1", 1, 1, 1), ("4.123.1-m2", 1, 2, 1),
                                ("4.123.1-m3", 1, 3, 1), ("4.123.1-m4", 1, 4, 1),
                                ("4.123.2", -1, 1, 1), ("4.123.3", -1, 2, 2)):
    _factory, _closed = _e4123_family(_sign, _m, _scale)
    _register(EntryDescriptor(
        id=_eid,
        params=(Param("a"),),
        integrand_factory=_factory,
        closed_form=_closed,
        provenance_note=f"sin({_m}x) x / ((cosh {'a' if _scale == 1 else f'{_scale}a'}x "
                        f"{'+' if _sign > 0 else '-'} cos {_m}x)(x^2 - pi^2)); removable "
                        + ("point at x = pi." if _sign > 0 else "points at 0 and pi."),
    ))


def _e41234_kernel(x, a):
    # cosh(ax)/(cosh^2 ax - cos^2 x) = 1/(ch tanh^2(ax) + sin^2 x/ch), ch = cosh ax,
    # as cosh^2 - cos^2 = sinh^2 + sin^2: no cancellation at 0, no inf/inf at large ax
    ch = np.cosh(a * x)
    den = (ch * np.tanh(a * x) ** 2 + np.sin(x) ** 2 / ch) * (x + _PI)
    return x / den * _sin_over_x_minus_pi(x, 1.0, -1.0)


def _e41234_factory(pp):
    a = pp["a"]
    return (Integrand(eval=_e41234_kernel, args=(a,)),
            IntervalSpec(0.0, decay_hint=a, osc_hint=2.0))


_register(EntryDescriptor(
    id="4.123.4",
    params=(Param("a"),),
    integrand_factory=_e41234_factory,
    closed_form=lambda pp: -1.0 / (2.0 * pp["a"] * (1.0 + pp["a"] ** 2)),
    provenance_note="cosh(ax) sin(x) x / ((cosh^2 ax - cos^2 x)(x^2 - pi^2)). "
                    "The squared-denominator form is the one consistent with "
                    "the stated value -1/(2a(1+a^2)); the half-angle-doubled "
                    "denominator integrates to half of it.",
))


def rhs_4_123_5(a: float, beta: float, gamma: float) -> float:
    """Right-hand side of 4.123.5: the image-pole series.

    The series prefactor is 1/sin(beta pi) (residues of the integrand's
    poles at i(2k+1 -+ beta)); a hyperbolic prefactor fails verification
    by ~10%.  Gamma must stay at least 0.1 away from every pole
    2k+1 +- beta; violations raise DomainError naming the offending k.
    """
    if not (0.0 < beta < 1.0):
        raise DomainError("rhs_4_123_5: violated 0 < beta < 1")
    if not gamma > 0.0:
        raise DomainError("rhs_4_123_5: violated gamma > 0")
    if not a > 0.0:
        raise DomainError("rhs_4_123_5: violated a > 0")
    first = (_PI * math.exp(-a * gamma)
             / (2.0 * gamma * (math.cos(gamma * _PI) + math.cos(beta * _PI))))
    total = 0.0
    k = 0
    while True:
        for sgn in (-1.0, 1.0):
            pole = 2.0 * k + 1.0 + sgn * beta
            if abs(gamma - pole) < 0.1:
                raise DomainError(
                    f"rhs_4_123_5: gamma within 0.1 of pole 2k+1{'+' if sgn > 0 else '-'}beta at k={k}")
        t1 = math.exp(-(2.0 * k + 1.0 - beta) * a) / (gamma ** 2 - (2.0 * k + 1.0 - beta) ** 2)
        t2 = math.exp(-(2.0 * k + 1.0 + beta) * a) / (gamma ** 2 - (2.0 * k + 1.0 + beta) ** 2)
        total += t1 - t2
        k += 1
        if abs(t1) + abs(t2) < 1e-14 * max(1.0, abs(total)) or k > 4000:
            break
    return first + total / math.sin(beta * _PI)


def _e41235_kernel(x, a, cos_pi_beta, gamma_sq):
    return (np.cos(a * x)
            / ((np.cosh(_PI * x) + cos_pi_beta) * (x * x + gamma_sq)))


def _e41235_factory(pp):
    a, beta, gamma = pp["a"], pp["beta"], pp["gamma"]
    return (Integrand(eval=_e41235_kernel,
                      args=(a, math.cos(_PI * beta), gamma * gamma)),
            IntervalSpec(0.0, decay_hint=_PI, osc_hint=a))


def _e41235_sample(rng, i):
    beta = rng.uniform(0.1, 0.9)
    for _ in range(1000):
        gamma = _log_uniform(rng, 0.2, 5.0)
        k_hi = int(gamma) + 1
        if all(abs(gamma - (2 * k + 1 + s * beta)) >= 0.11
               for k in range(k_hi + 1) for s in (-1, 1)):
            yield {"a": _log_uniform(rng, 0.2, 5.0), "beta": beta, "gamma": gamma}


_register(EntryDescriptor(
    id="4.123.5",
    params=(Param("a"), Param("beta", hi=1.0), Param("gamma")),
    integrand_factory=_e41235_factory,
    closed_form=lambda pp: rhs_4_123_5(pp["a"], pp["beta"], pp["gamma"]),
    sampler=_e41235_sample,
    provenance_note="cos(ax)/((cosh pi x + cos pi beta)(x^2 + gamma^2)); "
                    "series prefactor corrected to 1/sin(beta pi), verified "
                    "by quadrature (the hyperbolic form fails by ~10%).",
))


def _e41236_kernel(x, a, b, pm1):
    # sinh(bx)/(cos 2ax + cosh 2bx) in exponential form: bounded and
    # overflow-free, with no cancellation anywhere on (0, inf)
    e = np.exp(-2.0 * b * x)
    ratio = -np.expm1(-2.0 * b * x) / (1.0 + e * e + 2.0 * np.cos(2.0 * a * x) * e)
    return np.sin(a * x) * np.exp(-b * x) * ratio * x ** pm1


def _e41236_factory(pp):
    a, b, p = pp["a"], pp["b"], pp["p"]
    return (Integrand(eval=_e41236_kernel, args=(a, b, p - 1.0)),
            IntervalSpec(0.0, decay_hint=b, osc_hint=2.0 * a))


def _e41236_closed(pp):
    a, b, p = pp["a"], pp["b"], pp["p"]
    return (sf.gamma(p).value / (a * a + b * b) ** (0.5 * p)
            * math.sin(p * math.atan(a / b)) * sf.dirichlet_beta(p).value)


def _e41236_sample(rng, i):
    for _ in range(1000):
        a = _log_uniform(rng, 0.2, 5.0)
        b = _log_uniform(rng, 0.2, 5.0)
        p = rng.uniform(0.05, 6.0)
        s = abs(math.sin(p * math.atan(a / b)))
        if s < 1e-3:
            continue
        # oscillatory cancellation |f|-mass/|value| grows like
        # ((a^2+b^2)/b^2)^(p/2) / (2 sin(p atan(a/b))); past ~1e4 the
        # roundoff floor of double precision eats the relative comparison
        if ((a * a + b * b) / (b * b)) ** (0.5 * p) / (2.0 * s) <= 5e3:
            yield {"a": a, "b": b, "p": p}


_register(EntryDescriptor(
    id="4.123.6",
    params=(Param("a"), Param("b"), Param("p")),
    integrand_factory=_e41236_factory,
    closed_form=_e41236_closed,
    sampler=_e41236_sample,
    provenance_note="x^(p-1) sin(ax) sinh(bx)/(cos 2ax + cosh 2bx); "
                    "Dirichlet-beta factor; implemented exactly as stated.",
))


def _e41237_kernel(t, half_a):
    # substituted variable t = 2 x^2: removes the sin(a x^2) chirp
    y = np.sqrt(0.5 * t)
    g = (np.sin(0.5 * _PI * y) * np.sinh(0.5 * _PI * y)
         / _cosh_plus_cos(_PI * y, _PI * y))
    return 0.5 * np.sin(half_a * t) * g


def _e41237_factory(pp):
    a = pp["a"]
    return (Integrand(eval=_e41237_kernel, args=(0.5 * a,)),
            IntervalSpec(0.0, osc_hint=0.5 * a))


def _e41237_closed(pp):
    return 0.25 * sf.theta1_prime0(math.exp(-2.0 * pp["a"])).value


_register(EntryDescriptor(
    id="4.123.7",
    params=(Param("a"),),
    integrand_factory=_e41237_factory,
    closed_form=_e41237_closed,
    provenance_note="theta-derivative entry, registered in t = 2x^2 with "
                    "the chirp removed.  The stated value (1/4) theta1'(0, "
                    "e^(-2a)) matches this normalisation; the bare half-line "
                    "chirp form integrates to exactly half of it.",
))


# ---------------------------------------------------------------------------
# table section 4.124 and the Bessel family

def _e41241_family(op):
    """The integrand factory of the 4.124.1 family member with the weight
    op(1, sqrt(u^2 - x^2)): np.divide for nu = 0, np.multiply for nu = -1.
    Each call builds one kernel and one distance kernel, which all of the
    member's points share."""

    def kernel(x, p, q, u):
        w = (u - x) * (u + x)
        return op(np.cos(p * x) * np.cosh(q * np.sqrt(w)), np.sqrt(w))

    def upper(d, p, q, u):
        # the integrand at x = u - d, from the distance d to the upper end
        w = d * (2.0 * u - d)
        return op(np.cos(p * (u - d)) * np.cosh(q * np.sqrt(w)), np.sqrt(w))

    def factory(pp):
        p, q, u = pp["p"], pp["q"], pp["u"]
        return (Integrand(eval=kernel, args=(p, q, u),
                          eval_upper_dist=functools.partial(upper, p=p, q=q, u=u)),
                IntervalSpec(0.0, u))

    return factory


def _e41241_closed(pp):
    p, q, u = pp["p"], pp["q"], pp["u"]
    d = p * p - q * q
    if d >= 0.0:
        return 0.5 * _PI * _bessel_j(0.0, math.sqrt(d) * u)
    return 0.5 * _PI * _bessel_i0(math.sqrt(-d) * u)


def _e41241_sample(rng, i):
    for _ in range(1000):
        yield {"p": _log_uniform(rng, 0.2, 3.0),
               "q": _log_uniform(rng, 0.2, 3.0),
               "u": _log_uniform(rng, 0.2, 2.0)}


_register(EntryDescriptor(
    id="4.124.1",
    params=(Param("p"), Param("q"), Param("u")),
    integrand_factory=_e41241_family(np.divide),
    closed_form=_e41241_closed,
    sampler=_e41241_sample,
    accept=lambda pp, closed: abs(closed) >= 1e-4,  # J0 has zeros: keep it resolvable
    provenance_note="cos(px) cosh(q sqrt(u^2-x^2))/sqrt(u^2-x^2) on [0,u]; "
                    "q > p continues through (pi/2) I0(sqrt(q^2-p^2) u), the "
                    "even-series continuation.",
))


def _e41241m1_closed(pp):
    p, q, u = pp["p"], pp["q"], pp["u"]
    big_p, big_q = p * u, q * u
    w = math.sqrt((big_p - big_q) * (big_p + big_q))
    j0 = _bessel_j(0.0, w)
    j1 = _bessel_j(1.0, w)
    return _PI * u * u * ((big_p ** 2 + big_q ** 2) * j1 / (2.0 * w ** 3)
                          - big_q ** 2 * j0 / (2.0 * w ** 2))


def _e41241m1_sample(rng, i):
    u = _log_uniform(rng, 0.2, 2.0)
    q = _log_uniform(rng, 0.2, 2.0)
    for _ in range(1000):
        p = _log_uniform(rng, 0.2, 3.0)
        if p >= q + 0.1:
            yield {"p": p, "q": q, "u": u}


_register(EntryDescriptor(
    id="4.124.1-nu-1",
    params=(Param("p", lo=-math.inf), Param("q"), Param("u")),
    relations=(("p > q", lambda pp: pp["p"] > pp["q"]),),
    integrand_factory=_e41241_family(np.multiply),
    closed_form=_e41241m1_closed,
    sampler=_e41241m1_sample,
    accept=lambda pp, closed: abs(closed) >= 1e-4,
    provenance_note="nu = -1 member of the 4.124.1 family (weight "
                    "sqrt(u^2-x^2)); closed form with the J1 coefficient "
                    "(p^2+q^2)/(u q^2 sqrt(p^2-q^2)).",
))


_E41242_NOTE = (
    "as printed the integrand contains cosh(sqrt(beta(u^2-x^2))) on [u, inf) "
    "where u^2-x^2 < 0, so the square root is of a negative quantity and the "
    "integrand is undefined; rewriting it as cos(sqrt(beta(x^2-u^2))) gives "
    "an integral that still fails to converge absolutely and drifts at the "
    "resonance a = sqrt(beta).  No condition relating a and beta is stated, "
    "the claimed value depends on beta only through beta^2, and the cited "
    "source actually proves 4.124.1; the citations for 4.124.1 and 4.124.2 "
    "appear to have been transposed."
)


def _e41242_kernel(x, a, beta, u):
    w = beta * (u - x) * (u + x)  # negative on (u, inf): sqrt -> nan
    return np.cos(a * x) * np.cosh(np.sqrt(w)) / np.sqrt((u - x) * (u + x))


def _e41242_factory(pp):
    a, beta, u = pp["a"], pp["beta"], pp["u"]
    return (Integrand(eval=_e41242_kernel, args=(a, beta, u)),
            IntervalSpec(u, osc_hint=a))


def _e41242_closed(pp):
    a, beta, u = pp["a"], pp["beta"], pp["u"]
    return 0.5 * _PI * _bessel_j(0.0, u / math.sqrt(a * a - beta * beta))


_register(EntryDescriptor(
    id="4.124.2",
    params=(Param("a"), Param("beta", draw=(0.1, 0.85, "linear"), of="a"),
            Param("u", draw=(0.2, 2.0, "log"))),
    relations=(("a > beta", lambda pp: pp["a"] > pp["beta"]),),
    integrand_factory=_e41242_factory,
    closed_form=_e41242_closed,
    flags=frozenset({"suspect"}),
    provenance_note=_E41242_NOTE,
))


def cf_4_124_1_ext(p: float, q: float, u: float, nu: float) -> float:
    """Truncated series for the nu-extended 4.124.1 family.

    pi sum_n q^(2n) 2^-(n+nu+1) (u/p)^(n-nu) Gamma(n+1/2-nu)/Gamma(n+1/2)
    J_(n-nu)(pu) / n!, summed to n = 60 or until a term falls below 1e-17
    of the sum.  Convergent for nu < 1/2; at nu = 1/2 the n = 0
    term contains Gamma(0) and the matching integral has a non-integrable
    endpoint, so nu >= 1/2 raises a domain error.

    Each term comes from the last by exact ratios, so a sum calls gamma
    twice whatever its length: the coefficient c_n by
    q^2 u/(2p) (n-1/2-nu)/((n-1/2) n), and the leading term
    (pu/2)^(n-nu)/Gamma(n+1-nu) of J_(n-nu)(pu)'s ascending series by
    (pu/2)/(n-nu).  Term n rounds by at most |c_n| 4 eps times its Bessel
    series' absolute sum, bessel_j's rule; DomainError when those bounds
    reach the sum, or when it overflows.
    """
    if not (p > 0.0 and q > 0.0 and u > 0.0):
        raise DomainError("cf_4_124_1_ext requires p, q, u > 0")
    if not nu < 0.5:
        raise DomainError("cf_4_124_1_ext requires nu < 1/2")
    x = p * u
    if not x <= 50.0:
        raise DomainError("cf_4_124_1_ext requires pu <= 50, the Bessel series' range")
    try:
        coef = 2.0 ** (-(nu + 1.0)) * (u / p) ** (-nu) * sf.gamma(0.5 - nu).value / _SQRT_PI
        lead = (0.5 * x) ** (-nu) / sf.gamma(1.0 - nu).value
    except OverflowError:
        raise DomainError("cf_4_124_1_ext overflows a double at (p, q, u, nu) = "
                          f"{(p, q, u, nu)}") from None
    ratio = q * q * u / (2.0 * p)
    total = bound = 0.0
    for n in range(61):
        if n > 0:
            coef *= ratio * (n - 0.5 - nu) / ((n - 0.5) * n)
            lead *= 0.5 * x / (n - nu)
        series, abs_series = sf._bessel_series(n - nu, x, lead)
        term = coef * series
        total += term
        bound += abs(coef) * abs_series
        if n > 4 and abs(term) < 1e-17 * abs(total):
            break
    if not math.isfinite(total):
        raise DomainError("cf_4_124_1_ext overflows a double at (p, q, u, nu) = "
                          f"{(p, q, u, nu)}")
    if not 4.0 * sf._EPS * bound < abs(total):
        raise DomainError("cf_4_124_1_ext has no correct digits at (p, q, u, nu) = "
                          f"{(p, q, u, nu)}")
    return _PI * total


# ---------------------------------------------------------------------------
# appendix entries

def _e35273_kernel(x, mum1, a):
    return x ** mum1 / np.cosh(a * x) ** 2


def _e35273_factory(pp):
    mu, a = pp["mu"], pp["a"]
    mum1 = mu - 1.0
    return (Integrand(eval=_e35273_kernel, args=(mum1, a)),
            IntervalSpec(0.0, decay_hint=2.0 * a, lower_singular=not mum1.is_integer()))


def _e35273_closed(pp):
    mu, a = pp["mu"], pp["a"]
    return (4.0 / (2.0 * a) ** mu * sf.gamma(mu).value
            * sf.dirichlet_eta(mu - 1.0).value)


_register(EntryDescriptor(
    id="3.527.3",
    params=(Param("mu", lo=1.0, lo_closed=True, draw=(1.05, 6.0, "linear")), Param("a")),
    integrand_factory=_e35273_factory,
    closed_form=_e35273_closed,
    provenance_note="x^(mu-1)/cosh^2(ax); 4 (2a)^-mu Gamma(mu) eta(mu-1), "
                    "with eta regular through mu = 2 (eta(1) = ln 2).",
))


def cf_3_532_1(n: float, a: float, b: float, convention: str) -> float:
    """Both conventions for 3.532.1: x^n/(a cosh x + b sinh x) on (0, inf).

    derived: 2 Gamma(n+1)/(a+b) sum (-1)^m r^m/(2m+1)^(n+1), the value the
    geometric-expansion derivation forces.  printed: Gamma(2n+1)/(a+b)
    sum r^m/(2m+1)^(n+1), the final displayed line of the same derivation,
    which drops the alternation and doubles the Gamma argument.
    r = (a-b)/(a+b).
    """
    if convention not in ("printed", "derived"):
        raise DomainError("convention must be 'printed' or 'derived'")
    if not n > -1.0:
        raise DomainError("cf_3_532_1: violated n > -1")
    if not (a > 0.0 and b > 0.0):
        raise DomainError("cf_3_532_1: violated a > 0 and b > 0")
    r = (a - b) / (a + b)
    if abs(r) >= 1.0:
        raise DomainError("cf_3_532_1: series divergent at |r| >= 1")
    alternate = convention == "derived"
    total = 0.0
    rm = 1.0
    m = 0
    while True:
        term = rm / (2.0 * m + 1.0) ** (n + 1.0)
        if alternate and m % 2 == 1:
            term = -term
        total += term
        m += 1
        rm *= r
        if abs(rm) < 1e-17 * max(1.0, abs(total)) * (2.0 * m + 1.0) ** (n + 1.0) or m > 200_000:
            break
    if convention == "derived":
        return 2.0 * sf.gamma(n + 1.0).value / (a + b) * total
    return sf.gamma(2.0 * n + 1.0).value / (a + b) * total


def _e35321_kernel(x, n, a, b):
    return x ** n / (a * np.cosh(x) + b * np.sinh(x))


def _e35321_factory(pp):
    n, a, b = pp["n"], pp["a"], pp["b"]
    return (Integrand(eval=_e35321_kernel, args=(n, a, b)),
            IntervalSpec(0.0, decay_hint=1.0, lower_singular=not float(n).is_integer()))


def _e35321_sample(rng, i):
    a = _log_uniform(rng, 0.2, 5.0)
    # every fifth point sits on the r = 0 stratum (b = a), where the
    # printed/derived ratio collapses to Gamma(2n+1)/(2 Gamma(n+1))
    b = a if i % 5 == 0 else _log_uniform(rng, 0.2, 5.0)
    yield {"n": rng.uniform(-0.5, 4.0), "a": a, "b": b}


_register(EntryDescriptor(
    id="3.532.1",
    params=(Param("n", lo=-1.0), Param("a"), Param("b")),
    integrand_factory=_e35321_factory,
    closed_form=lambda pp: cf_3_532_1(pp["n"], pp["a"], pp["b"], "derived"),
    printed_form=lambda pp: cf_3_532_1(pp["n"], pp["a"], pp["b"], "printed"),
    sampler=_e35321_sample,
    provenance_note="x^n/(a cosh x + b sinh x); the printed final line and "
                    "the derivation's middle line disagree by "
                    "Gamma(2n+1)/(2 Gamma(n+1)) at r = 0.",
))


def _e41179c_kernel(x, a):
    return np.sin(a * x) / ((1.0 + x * x) * np.tanh(0.25 * _PI * x))


def _e41179c_factory(pp):
    a = pp["a"]
    return (Integrand(eval=_e41179c_kernel, args=(a,)),
            IntervalSpec(0.0, osc_hint=a))


def _e41179c_closed(pp):
    a = pp["a"]
    if a <= 6.0:
        return (-0.5 * _PI * math.exp(-a) + 2.0 * math.cosh(a) * math.atan(math.exp(-a))
                + math.sinh(a) * math.log(1.0 / math.tanh(0.5 * a)))
    # above the audit's draws (a <= 5) log(1/tanh(a/2)) loses digits as
    # tanh(a/2) -> 1, and cosh and sinh overflow from a ~ 710: with t = e^-a,
    # 2 cosh(a) = (1 + t^2)/t, sinh(a) = (1 - t^2)/(2t), log coth(a/2) = 2 atanh(t),
    # and the value is 2 to the last bit once t underflows
    t = math.exp(-a)
    if t == 0.0:
        return 2.0
    return -0.5 * _PI * t + (1.0 + t * t) * math.atan(t) / t + (1.0 - t * t) * math.atanh(t) / t


_register(EntryDescriptor(
    id="4.117.9c",
    params=(Param("a"),),
    integrand_factory=_e41179c_factory,
    closed_form=_e41179c_closed,
    provenance_note="sin(ax) coth(pi x/4)/(1+x^2), the complementary "
                    "integral to 4.117.9; right side limits to 0 as a -> 0.",
))


# ---------------------------------------------------------------------------
# lemniscatic-constant integrals

def _hw1_kernel(t):
    return (0.5 * (np.cos(t) + 1.0) * _sinh_minus_sin(0.5 * t)
            / _cosh_minus_cos(t, t))


def _hw2_kernel(t):
    return ((np.cos(t) + 1.0) * t * t
            * (np.sinh(0.5 * t) + np.sin(0.5 * t)) / _cosh_minus_cos(t, t))


def _hw3_kernel(t):
    return ((np.cos(t) + 1.0) * t * _cosh_minus_cos(0.5 * t, 0.5 * t)
            / _cosh_minus_cos(t, t))


def lemniscatic_period() -> float:
    """The real lemniscatic period (sqrt(pi)/2) Gamma(1/4)/Gamma(3/4)."""
    return 0.5 * math.sqrt(_PI) * sf.gamma(0.25).value / sf.gamma(0.75).value


for _eid, _kernel, _cf, _note in (
    ("HW1", _hw1_kernel, lambda pp: 1.0 - _PI / 4.0,
     "(1/2)(cos t+1)(sinh(t/2)-sin(t/2))/(cosh t - cos t) = 1 - pi/4"),
    ("HW2", _hw2_kernel, lambda pp: 16.0,
     "(cos t+1) t^2 (sinh(t/2)+sin(t/2))/(cosh t - cos t) = 16"),
    ("HW3", _hw3_kernel, lambda pp: lemniscatic_period() ** 2 - 4.0,
     "(cos t+1) t (cosh(t/2)-cos(t/2))/(cosh t - cos t) = omega^2 - 4, "
     "omega the lemniscatic period"),
):
    _register(EntryDescriptor(
        id=_eid,
        # every HW integrand is its kernel on [0, inf), damped like e^(-t/2)
        integrand_factory=lambda pp, kernel=_kernel: (
            Integrand(eval=kernel),
            IntervalSpec(0.0, decay_hint=0.5, osc_hint=1.0)),
        closed_form=_cf,
        flags=frozenset({"constant_entry"}),
        provenance_note=_note,
    ))


# ---------------------------------------------------------------------------
# identity helpers used by the property suite

def lemma5_lhs(z: float, a: float, n_terms: int) -> float:
    """Truncated sum z^n zeta(2n, a)/n, convergent for 0 < z < a^2."""
    if not (0.0 < z < a * a):
        raise DomainError("lemma5 requires 0 < z < a^2")
    total = 0.0
    for n in range(1, n_terms + 1):
        total += z ** n / n * sf.hurwitz_zeta(2.0 * n, a).value
    return total


def lemma5_rhs(z: float, a: float) -> float:
    """-2 ln Gamma(a) + ln Gamma(a - sqrt(z)) + ln Gamma(a + sqrt(z))."""
    if not (0.0 < z < a * a):
        raise DomainError("lemma5 requires 0 < z < a^2")
    r = math.sqrt(z)
    return (-2.0 * sf.log_gamma(a).value + sf.log_gamma(a - r).value
            + sf.log_gamma(a + r).value)
