"""Quadrature and series acceleration.

Three integral shapes cover every catalog entry: exponentially decaying
semi-infinite integrals, oscillatory semi-infinite integrals handled by
half-period partial sums plus Euler acceleration, and finite integrals
with (at worst) inverse-square-root endpoint singularities handled by a
tanh-sinh rule.  Removable 0/0 points inside an integrand are declared on
the Integrand and are never evaluated directly: subdivision is forced at
each one and the value there comes from the supplied limit.

Adaptive Gauss-Kronrod runs in one refinement loop that owns the panels
of many intervals of the same integrand (_adaptive_gk_many), in the
manner of QUADPACK's multi-interval scheme: each round evaluates the
split panels of every unfinished interval in one integrand call, and each
interval stops on its own test.  The oscillatory engine integrates its
half-periods 1-13, then blocks of 4, this way; the decay engine its main
range together with the first confirmation block.  The cost of an engine
call is mostly Python dispatch per round, so fewer, larger rounds are
what makes it faster.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError

INF = math.inf

STATUS_CONVERGED = "converged"
STATUS_MAX_EFFORT = "max_effort"
STATUS_DIVERGENT = "suspected_divergent"

MAX_EVALUATIONS = 2_000_000


@dataclass
class Integrand:
    """A vectorised real integrand with its removable 0/0 points annotated.

    eval maps an ndarray of abscissae to an ndarray of values; it may
    return nan/inf at the listed removable points (and only there, for a
    well-formed integrand).  limit_values holds the finite limit at each
    point, in the same order; the pairs are stored sorted by point.

    eval_lower_dist / eval_upper_dist optionally evaluate f as a function
    of the distance to the singular endpoint.  The tanh-sinh rule uses
    them where rounding x to the endpoint would otherwise destroy the
    distance information (x within ~1e-16 of the endpoint).
    """

    eval: Callable[[np.ndarray], np.ndarray]
    removable_points: tuple = ()
    limit_values: tuple = ()
    eval_lower_dist: Optional[Callable[[np.ndarray], np.ndarray]] = None
    eval_upper_dist: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if len(self.limit_values) != len(self.removable_points):
            raise DomainError("each removable point needs one limit value")
        pairs = sorted(zip(self.removable_points, self.limit_values),
                       key=lambda pair: pair[0])
        self.removable_points = tuple(p for p, _ in pairs)
        self.limit_values = tuple(lim for _, lim in pairs)


@dataclass
class IntervalSpec:
    """Integration domain plus the shape hints the engine dispatches on."""

    lower: float
    upper: float  # math.inf for semi-infinite shapes
    shape: str  # decay | oscillatory | endpoint_singular | plain
    period_hint: float = 0.0  # half-period length (oscillatory)
    decay_hint: float = 0.0  # exponential rate (decay)
    lower_singular: bool = False  # decay shape with an integrable singularity at lower
    osc_hint: float = 0.0  # angular frequency riding on a decay shape, if any

    def __post_init__(self):
        if self.shape not in ("decay", "oscillatory", "endpoint_singular", "plain"):
            raise DomainError(f"unknown shape {self.shape!r}")
        if not self.lower < self.upper:
            raise DomainError("lower must be < upper")
        if self.shape == "oscillatory" and not self.period_hint > 0.0:
            raise DomainError("oscillatory shape needs period_hint > 0")
        if self.shape == "decay" and not self.decay_hint > 0.0:
            raise DomainError("decay shape needs decay_hint > 0")


@dataclass
class QuadResult:
    value: float
    abs_error_est: float
    evaluations: int
    status: str


def _fp_errors_ignored(engine):
    """Run a public engine under one np.errstate(all="ignore").

    Integrands may produce nan/inf at removable points and endpoints, and
    the engines test for non-finite values themselves, so no floating-point
    warning is useful inside an engine call.
    """
    @functools.wraps(engine)
    def run(*args, **kwargs):
        with np.errstate(all="ignore"):
            return engine(*args, **kwargs)

    return run


class _PatchedEval:
    """Evaluates an Integrand on arrays, patching removable points, and
    counts the evaluations of one engine call against MAX_EVALUATIONS.

    Nodes landing within snap distance of a removable point receive the
    supplied limit.
    """

    def __init__(self, f: Integrand):
        self.f = f
        self.used = 0
        self.patches = [(float(p), 1e-12 * (1.0 + abs(float(p))), float(lim))
                        for p, lim in zip(f.removable_points, f.limit_values)]

    def spend(self, n: int) -> bool:
        """Count n evaluations; False once the cap is passed."""
        self.used += n
        return self.used <= MAX_EVALUATIONS

    def __call__(self, x: np.ndarray) -> np.ndarray:
        self.spend(x.size)
        y = np.asarray(self.f.eval(x), dtype=float)
        for p, snap, lim in self.patches:
            near = np.abs(x - p) <= snap
            if np.count_nonzero(near):
                y = np.where(near, lim, y)
        return y


# 15-point Kronrod nodes on [-1, 1] with Kronrod weights and the embedded
# 7-point Gauss weights (zero on Kronrod-only nodes).
_XK = np.array([
    -0.9914553711208126, -0.9491079123427585, -0.8648644233597691,
    -0.7415311855993944, -0.5860872354676911, -0.4058451513773972,
    -0.2077849550078985, 0.0, 0.2077849550078985, 0.4058451513773972,
    0.5860872354676911, 0.7415311855993944, 0.8648644233597691,
    0.9491079123427585, 0.9914553711208126,
])
_WK = np.array([
    0.0229353220105292, 0.0630920926299785, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278, 0.2044329400752989,
    0.1903505780647854, 0.1690047266392679, 0.1406532597155259,
    0.1047900103222502, 0.0630920926299785, 0.0229353220105292,
])
_WG = np.array([
    0.0, 0.1294849661688697, 0.0, 0.2797053914892767, 0.0,
    0.3818300505051189, 0.0, 0.4179591836734694, 0.0,
    0.3818300505051189, 0.0, 0.2797053914892767, 0.0,
    0.1294849661688697, 0.0,
])


def _gk_batch(pe: _PatchedEval, lo: np.ndarray, hi: np.ndarray):
    """Apply GK15 to a batch of intervals; returns (values, errors, finite?).

    Error estimate per panel follows the classic scaled form
    resasc * min(1, (200 |K15-G7| / resasc)^1.5): it inflates the raw
    difference on unresolved panels and deflates it on resolved ones,
    instead of over-reporting resolved panels by orders of magnitude.
    """
    c = 0.5 * (lo + hi)
    s = 0.5 * (hi - lo)
    x = np.multiply.outer(s, _XK) + c[:, None]
    y = pe(x.ravel()).reshape(x.shape)
    k15 = s * (y @ _WK)
    g7 = s * (y @ _WG)
    ok = np.isfinite(y).all(axis=1)
    diff = np.abs(k15 - g7)
    mean = k15 / (2.0 * s)
    resabs = s * (np.abs(y) @ _WK)
    resasc = s * (np.abs(y - mean[:, None]) @ _WK)
    scaled = resasc * np.minimum(1.0, (200.0 * diff / resasc) ** 1.5)
    err = np.where((resasc > 0.0) & np.isfinite(scaled), scaled, diff)
    # per-panel summation roundoff: the dot product cannot be trusted
    # below ~log2(15) ulps of the absolute mass
    err = np.maximum(err, 4.0 * 2.220446049250313e-16 * resabs)
    return k15, err, ok


def _partition(a: float, b: float, forced: Sequence[float], panel_width: float):
    """Sorted distinct initial panel bounds of [a, b].

    The bounds are a, b, every forced point inside, and, when panel_width
    is set and [a, b] is wider, the equal-width grid a + (b - a) j / count
    (count <= 4096) that resolves an oscillation per panel: an unresolved
    wide panel can make the embedded rules agree on garbage.
    """
    inner = [p for p in forced if a < p < b]
    if not (panel_width > 0.0 and (b - a) > panel_width):
        return sorted({a, b, *inner})
    count = min(int(math.ceil((b - a) / panel_width)), 4096)
    grid = a + (b - a) * np.arange(1, count) / count
    bounds = np.concatenate((grid, (a, b, *inner)))
    bounds.sort()
    distinct = np.empty(len(bounds), dtype=bool)
    distinct[0] = True
    np.not_equal(bounds[1:], bounds[:-1], out=distinct[1:])
    return bounds[distinct]


def _adaptive_gk_many(pe: _PatchedEval, intervals: Sequence[tuple],
                      forced: Sequence[float] = (),
                      panel_width: float = 0.0) -> list:
    """Adaptive GK15 on many intervals (a, b, tol) of one integrand at once.

    Every interval (an owner) holds its own panels, but each round makes
    one _gk_batch call over the split panels of all live owners, so the
    integrand is called once per round.  An owner retires, with its own
    QuadResult, as soon as it meets its own test: converged when its error
    sum is within its tol after at least one refinement or on an initial
    partition of 4 or more panels; suspected_divergent as soon as one of
    its panels is non-finite.  Past the effort cap every live owner
    returns max_effort.  A panel is split when its error exceeds its
    owner's share, max(tol / 2n, toterr / 8n) over the owner's n panels;
    an owner with no such panel splits its largest.  The owners' panels
    keep their relative order, so an owner's sums add its panel values in
    the same order whatever the other owners are; a panel value itself can
    differ in its last bit with its row's position in the batch (the BLAS
    product y @ weights), so an owner agrees with its one-owner run within
    the error estimates, not always to the bit.
    """
    m = live = len(intervals)
    tols = np.array([tol for _, _, tol in intervals])
    # 4 tol / 8n is tol / 2n to the bit, so the share is one division
    tols4 = 4.0 * tols
    parts = [_partition(a, b, forced, panel_width) for a, b, _ in intervals]
    lo = np.concatenate([p[:-1] for p in parts])
    hi = np.concatenate([p[1:] for p in parts])
    owner = np.repeat(np.arange(m), [len(p) - 1 for p in parts])
    vals, errs, ok = _gk_batch(pe, lo, hi)
    new_owner = owner  # the owners of the last batch's panels
    results = [None] * m
    rounds = 0
    while True:
        count = np.bincount(owner, minlength=m)
        total = np.bincount(owner, weights=vals, minlength=m)
        toterr = np.bincount(owner, weights=errs, minlength=m)
        # a retired owner's tol is -inf, so it never retires again
        converged = toterr <= tols
        if rounds == 0:
            converged &= count >= 4
        retired = converged
        if np.count_nonzero(ok) < len(ok):
            # a non-finite panel makes its owner divergent, whatever its sums
            divergent = np.bincount(new_owner[~ok], minlength=m) > 0
            for i in np.flatnonzero(divergent):
                results[i] = QuadResult(math.nan, math.inf, pe.used, STATUS_DIVERGENT)
            converged = converged & ~divergent
            retired = converged | divergent
        if np.count_nonzero(retired):
            for i in np.flatnonzero(converged):
                results[i] = QuadResult(float(total[i]), float(toterr[i]), pe.used,
                                        STATUS_CONVERGED)
            tols[retired] = -math.inf
            live -= np.count_nonzero(retired)
            keep = ~retired[owner]
            lo, hi, owner, vals, errs = lo[keep], hi[keep], owner[keep], vals[keep], errs[keep]
        if not live:
            return results
        if pe.used > MAX_EVALUATIONS:
            for i in np.flatnonzero(tols > -math.inf):
                results[i] = QuadResult(float(total[i]), float(toterr[i]), pe.used,
                                        STATUS_MAX_EFFORT)
            return results
        rounds += 1
        # refine every panel holding more than its owner's share of the
        # budget, max(tol / 2n, toterr / 8n) over the owner's n panels
        split = errs > (np.maximum(tols4, toterr) / (8 * count))[owner]
        new_owner = owner[split]
        has_split = np.bincount(new_owner, minlength=m)
        if np.count_nonzero(has_split) < live:
            # each live owner that split nothing splits its first largest
            # panel; lexsort is stable, so ties go to the earliest panel as
            # with argmax
            idx = np.flatnonzero(((has_split == 0) & (tols > -math.inf))[owner])
            idx = idx[np.lexsort((-errs[idx], owner[idx]))]
            first = np.ones(len(idx), dtype=bool)
            first[1:] = owner[idx[1:]] != owner[idx[:-1]]
            split[idx[first]] = True
            new_owner = owner[split]
        stay = ~split
        lo_s, hi_s = lo[split], hi[split]
        mid = 0.5 * (lo_s + hi_s)
        v2, e2, ok = _gk_batch(pe, np.concatenate([lo_s, mid]), np.concatenate([mid, hi_s]))
        new_owner = np.concatenate([new_owner, new_owner])
        lo = np.concatenate([lo[stay], lo_s, mid])
        hi = np.concatenate([hi[stay], mid, hi_s])
        owner = np.concatenate([owner[stay], new_owner])
        vals = np.concatenate([vals[stay], v2])
        errs = np.concatenate([errs[stay], e2])


def _adaptive_gk(pe: _PatchedEval, a: float, b: float, tol: float,
                 forced: Sequence[float] = (), panel_width: float = 0.0) -> QuadResult:
    """Adaptive GK15 on one interval: the one-owner call of _adaptive_gk_many."""
    return _adaptive_gk_many(pe, [(a, b, tol)], forced, panel_width)[0]


@_fp_errors_ignored
def integrate_finite(f: Integrand, a: float, b: float, tol: float) -> QuadResult:
    """Adaptive Gauss-Kronrod integration of f over finite [a, b].

    Subdivision is forced at every removable point; non-convergence after
    the effort cap is reported as max_effort, never raised.
    """
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise DomainError("integrate_finite needs finite a < b")
    pe = _PatchedEval(f)
    return _adaptive_gk(pe, a, b, tol, forced=f.removable_points)


# tanh-sinh abscissae: node t and weight w at parameter u are
#   t = tanh(pi/2 sinh u),  w = (pi/2) cosh u / cosh^2(pi/2 sinh u)
# The node range must run deep enough that even a residual v^(-1/2)
# factor (an original x^(-3/4) endpoint singularity after the sqrt map)
# leaves a truncated tail below ~e^(-38); node distances from the
# endpoint are carried exactly, so the deep nodes stay computable.
_TS_CUTOFF = 3.85  # pi/2 sinh(3.85) ~ 36.9


@functools.lru_cache(maxsize=None)
def _ts_level(level: int):
    """Weights w and nodes x on (0, 1) of one tanh-sinh level.

    Built once per process (levels 0-12 take about 0.5 MB) and shared by
    every integral, so both arrays are read-only.
    """
    h = 1.0 / (1 << level)
    if level == 0:
        j = np.arange(-int(_TS_CUTOFF / h), int(_TS_CUTOFF / h) + 1)
    else:  # only the odd multiples are new at this level
        j = np.arange(-(int(_TS_CUTOFF / h) | 1), int(_TS_CUTOFF / h) + 1, 2)
    u = j * h
    with np.errstate(over="ignore"):
        sh = 0.5 * math.pi * np.sinh(u)
        keep = np.abs(sh) < 38.0
        sh = sh[keep]
        t = np.tanh(sh)
        w = 0.5 * math.pi * np.cosh(u[keep]) / np.cosh(sh) ** 2
        # exact distance of each node from the interval end it approaches
        dist = 2.0 / (1.0 + np.exp(2.0 * np.abs(sh)))
    # near the v = 0 end the node must come from the exact endpoint
    # distance: 0.5 (t+1) quantizes to eps-level garbage there
    x = np.where(t < 0.0, 0.5 * dist, 0.5 * (t + 1.0))
    w.flags.writeable = False
    x.flags.writeable = False
    return w, x


def _tanh_sinh_01(g: Callable[[np.ndarray], np.ndarray], tol: float,
                  pe: _PatchedEval) -> QuadResult:
    # integrate g over (0, 1); g never gets called at the endpoints, and
    # each level's nodes are counted against pe's evaluation cap
    total = 0.0
    prev = None
    diff = math.inf
    for level in range(13):
        w, x = _ts_level(level)
        if not pe.spend(x.size):
            return QuadResult(total, diff, pe.used, STATUS_MAX_EFFORT)
        y = np.asarray(g(x), dtype=float)
        bad = ~np.isfinite(y)
        if bad.any():
            if bad.all():
                return QuadResult(math.nan, math.inf, pe.used, STATUS_DIVERGENT)
            # endpoint rounding garbage: snap to the nearest finite value;
            # legitimate bounded integrands vary slowly there
            idx = np.arange(len(y))
            good = ~bad
            nearest = np.interp(idx[bad], idx[good], idx[good])
            y[bad] = y[good][np.searchsorted(idx[good], np.round(nearest))
                             .clip(0, good.sum() - 1)]
        h = 1.0 / (1 << level)
        s = 0.5 * h * float(w @ y)
        total = s if level == 0 else 0.5 * total + s
        if prev is not None:
            diff = abs(total - prev)
            if level >= 3 and diff <= tol:
                return QuadResult(total, diff, pe.used, STATUS_CONVERGED)
        prev = total
    return QuadResult(total, diff, pe.used, STATUS_MAX_EFFORT)


def _half_integrand(pe: _PatchedEval, end: float, s: float,
                    lower: bool) -> Callable[[np.ndarray], np.ndarray]:
    # the half of length s at `end`, in v with x = end + s v^2 (lower end)
    # or x = end - s v^2 (upper end); the integrand's distance callback for
    # that end, if it has one, takes the distance s v^2 directly
    dist_eval = pe.f.eval_lower_dist if lower else pe.f.eval_upper_dist

    def g(v):
        d = s * v * v
        if dist_eval is None:
            y = pe(end + d if lower else end - d)
        else:
            pe.spend(v.size)
            y = np.asarray(dist_eval(d), dtype=float)
        return 2.0 * s * v * y

    return g


def _endpoint_singular(pe: _PatchedEval, a: float, b: float, tol: float) -> QuadResult:
    # substitute x = a + (m-a) v^2 on the left half and x = b - (b-m) v^2 on
    # the right; this keeps endpoint distances exactly representable, so
    # inverse-square-root singularities become bounded smooth factors
    m = 0.5 * (a + b)
    out = [_tanh_sinh_01(_half_integrand(pe, a, m - a, lower=True), 0.5 * tol, pe),
           _tanh_sinh_01(_half_integrand(pe, b, b - m, lower=False), 0.5 * tol, pe)]
    value = out[0].value + out[1].value
    err = out[0].abs_error_est + out[1].abs_error_est
    status = STATUS_CONVERGED
    for r in out:
        if r.status == STATUS_DIVERGENT:
            status = STATUS_DIVERGENT
        elif r.status == STATUS_MAX_EFFORT and status != STATUS_DIVERGENT:
            status = STATUS_MAX_EFFORT
    return QuadResult(value, err, pe.used, status)


@_fp_errors_ignored
def integrate_endpoint_singular(f: Integrand, a: float, b: float, tol: float) -> QuadResult:
    """Tanh-sinh integration over [a, b] tolerating endpoint singularities
    up to (x-a)^(-1/2) and (b-x)^(-1/2), with level doubling until two
    successive levels agree within tol."""
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise DomainError("integrate_endpoint_singular needs finite a < b")
    return _endpoint_singular(_PatchedEval(f), a, b, tol)


@_fp_errors_ignored
def integrate_decay(f: Integrand, a: float, tol: float, decay_hint: float,
                    lower_singular: bool = False,
                    osc_hint: float = 0.0) -> QuadResult:
    """Semi-infinite integral of an exponentially damped integrand.

    The truncation length T comes from a probed amplitude C and the bound
    C exp(-lambda T)/lambda < tol/10; the block [a+T, a+2T] is integrated
    as confirmation and further doublings are added if it has not shrunk
    yet.  A tail that keeps growing is reported as suspected_divergent.
    osc_hint (an angular frequency) caps the initial panel width so the
    error estimator always resolves the oscillation.  The main range and
    the first confirmation block are two intervals of one Gauss-Kronrod
    call, so they share its rounds; the block's evaluations count even
    when the main range fails.
    """
    if not decay_hint > 0.0:
        raise DomainError("integrate_decay needs decay_hint > 0")
    lam = decay_hint
    pe = _PatchedEval(f)
    probes = a + np.array([0.3, 0.7, 1.3, 2.1, 3.4, 5.5, 8.9, 14.4]) / lam
    amp = pe(probes) * np.exp(lam * (probes - a))
    c = float(np.fmax.reduce(np.abs(amp)))  # nan only if every probe is
    if not math.isfinite(c):
        return QuadResult(math.nan, math.inf, pe.used, STATUS_DIVERGENT)
    c = max(c, tol)
    t_len = math.log(10.0 * c / (tol * lam)) / lam
    t_len = max(t_len, 8.0 / lam)
    width = math.pi / osc_hint if osc_hint > 0.0 else 0.0

    pieces = []
    first_end = a + min(1.0 / lam, t_len) if lower_singular else a
    if lower_singular:
        pieces.append(_endpoint_singular(pe, a, first_end, tol / 16.0))
    lo = a + t_len
    main_range, first_block = _adaptive_gk_many(
        pe, [(first_end, lo, tol / 4.0), (lo, lo + t_len, tol / 16.0)],
        forced=f.removable_points, panel_width=width)
    pieces.append(main_range)
    main = math.fsum(p.value for p in pieces)
    err = math.fsum(p.abs_error_est for p in pieces)
    for p in pieces:
        if p.status != STATUS_CONVERGED:
            return QuadResult(main, err, pe.used, p.status)

    # confirmation blocks, extended while still substantial
    tail_prev = math.inf
    for i in range(6):
        block = first_block if i == 0 else _adaptive_gk(
            pe, lo, lo + t_len, tol / 16.0, forced=f.removable_points, panel_width=width)
        if block.status == STATUS_DIVERGENT:
            return QuadResult(main, err, pe.used, STATUS_DIVERGENT)
        main += block.value
        err += block.abs_error_est
        if abs(block.value) <= tol / 4.0:
            return QuadResult(main, err + abs(block.value), pe.used,
                              STATUS_CONVERGED)
        if abs(block.value) >= tail_prev:
            return QuadResult(main, err, pe.used, STATUS_DIVERGENT)
        tail_prev = abs(block.value)
        lo += t_len
    return QuadResult(main, err, pe.used, STATUS_MAX_EFFORT)


# half-periods per Gauss-Kronrod call: the Euler stop can first fire at
# n = 14 partial sums, so segments 1-13 go in one call; later ones go in
# blocks of 4, so an Euler stop computes at most 3 segments past itself
_OSC_FIRST_BLOCK = 13
_OSC_BLOCK = 4
_OSC_MAX_SEGMENTS = 512


def _half_periods(pe: _PatchedEval, a: float, h: float, tol: float):
    """Yield the QuadResult of each half-period [a + k h, a + (k+1) h] in order.

    Segment 0 runs on tanh-sinh, which tolerates an integrable edge
    singularity or an undefined integrand right at the lower limit.  The
    later ones run in blocks of _adaptive_gk_many owners, computed when the
    consumer reaches the block; each keeps its tolerance tol / (32 (k+1)).
    """
    yield _endpoint_singular(pe, a, a + h, tol / 32.0)
    k = 1
    while k < _OSC_MAX_SEGMENTS:
        size = _OSC_FIRST_BLOCK if k == 1 else _OSC_BLOCK
        ks = range(k, min(k + size, _OSC_MAX_SEGMENTS))
        yield from _adaptive_gk_many(
            pe, [(a + j * h, a + (j + 1) * h, tol / (32.0 * (j + 1))) for j in ks],
            forced=pe.f.removable_points)
        k += size


@_fp_errors_ignored
def integrate_oscillatory(f: Integrand, a: float, tol: float,
                          period_hint: float) -> QuadResult:
    """Oscillatory semi-infinite integral by half-period partial sums.

    Consecutive contributions over [a + k h, a + (k+1) h], h = period_hint,
    are accumulated and the partial sums fed to the Euler transform at two
    depths; growth over 8 consecutive intervals, or persistent same-sign
    contributions that fail to decay, mark the integral suspected_divergent.
    Half-periods 1-13 are integrated in one Gauss-Kronrod call, since the
    Euler stop needs 14 partial sums, and later ones in blocks of 4
    (_half_periods).  The stopping tests still run segment by segment, in
    order, so the engine stops at the same segment as when each half-period
    was integrated alone; segments computed past the stop count in
    `evaluations`.
    """
    if not period_hint > 0.0:
        raise DomainError("integrate_oscillatory needs period_hint > 0")
    pe = _PatchedEval(f)
    contribs = []
    diag = []  # last diagonal of the Euler table of the partial sums
    seg_err = 0.0
    running = 0.0
    precise = True
    for seg in _half_periods(pe, a, period_hint, tol):
        if seg.status == STATUS_DIVERGENT or not math.isfinite(seg.value):
            return QuadResult(math.nan, math.inf, pe.used, STATUS_DIVERGENT)
        if seg.status != STATUS_CONVERGED:
            precise = False
        contribs.append(seg.value)
        seg_err += seg.abs_error_est
        running += seg.value
        prev, diag = diag, _euler_diagonal(diag, running)
        n = len(contribs)
        if n >= 9:
            tail = contribs[-8:]
            last = [abs(c) for c in tail]
            if all(x < y for x, y in zip(last, last[1:])) and last[-1] > 8.0 * tol:
                return QuadResult(math.nan, math.inf, pe.used, STATUS_DIVERGENT)
            if (all(c > 0.0 for c in tail) or all(c < 0.0 for c in tail)) \
                    and last[-1] > 64.0 * tol:
                # a persistent same-sign tail above the noise floor violates
                # the alternation contract (e.g. a ~1/x log-divergent tail)
                return QuadResult(math.nan, math.inf, pe.used, STATUS_DIVERGENT)
        if precise:
            if n >= 3 and abs(contribs[-1]) <= tol / 4.0 and abs(contribs[-2]) <= tol / 4.0:
                return QuadResult(running, seg_err + 2.0 * abs(contribs[-1]),
                                  pe.used, STATUS_CONVERGED)
            if n >= 14:
                # the Euler transforms of the partial sums at depths d and
                # d - 3, and of all but the last at depth min(24, n - 3)
                depth = min(_EULER_MAX_DEPTH, n - 2)
                e1 = diag[depth]
                e2 = diag[depth - 3]
                e3 = prev[min(_EULER_MAX_DEPTH, n - 3)]
                # depth agreement alone can dip far below the true error on
                # modulated envelopes; truncation sensitivity catches that
                accel_err = 4.0 * max(abs(e1 - e2), abs(e1 - e3))
                if accel_err <= tol / 2.0 and abs(contribs[-1]) < 1.0:
                    return QuadResult(e1, seg_err + accel_err, pe.used,
                                      STATUS_CONVERGED)
        if pe.used > MAX_EVALUATIONS:
            break
    return QuadResult(running, math.inf, pe.used, STATUS_MAX_EFFORT)


def integrate(f: Integrand, spec: IntervalSpec, tol: float) -> QuadResult:
    """Dispatch an integrand to the engine matching its declared shape."""
    if spec.shape == "plain":
        return integrate_finite(f, spec.lower, spec.upper, tol)
    if spec.shape == "endpoint_singular":
        return integrate_endpoint_singular(f, spec.lower, spec.upper, tol)
    if spec.shape == "decay":
        return integrate_decay(f, spec.lower, tol, spec.decay_hint,
                               lower_singular=spec.lower_singular,
                               osc_hint=spec.osc_hint)
    return integrate_oscillatory(f, spec.lower, tol, spec.period_hint)


def euler_transform(s: Sequence[float], depth: int) -> float:
    """Euler acceleration of a partial-sum sequence by iterated averaging.

    Needs at least depth + 2 entries; deterministic.
    """
    if depth < 0:
        raise DomainError("depth must be >= 0")
    if len(s) < depth + 2:
        raise DomainError("euler_transform needs at least depth + 2 entries")
    # the last entry after depth averagings depends on the last depth + 1 only
    t = np.asarray(s[len(s) - depth - 1:], dtype=float)
    for _ in range(depth):
        t = 0.5 * (t[:-1] + t[1:])
    return float(t[-1])


_EULER_MAX_DEPTH = 24


def _euler_diagonal(prev: Sequence[float], s: float) -> list:
    """Extend the Euler table of a partial-sum sequence by its next entry s.

    prev[d] is the last entry after d averagings of the sequence so far
    (d <= _EULER_MAX_DEPTH); the result is that diagonal for the sequence
    with s appended, so result[d] == euler_transform(sequence + [s], d)
    bit for bit: the same additions and halvings in the same order.
    """
    diag = [s]
    for d in range(1, min(_EULER_MAX_DEPTH, len(prev)) + 1):
        diag.append(0.5 * (prev[d - 1] + diag[d - 1]))
    return diag
