"""Quadrature and series acceleration.

Three kinds of integral cover every catalog entry: exponentially
decaying semi-infinite integrals, oscillatory semi-infinite integrals
handled by half-period contributions summed by the alternating-series
acceleration of Cohen, Rodriguez Villegas and Zagier (CRVZ), and finite
integrals with (at worst) inverse-square-root endpoint singularities
handled by a tanh-sinh rule.  The IntervalSpec alone says which: a
finite upper bound, a decay rate or an angular frequency (_engine).  An
integrand's kernel is finite at every abscissa the engines can produce
inside its interval (tanh-sinh reaches about 1e-66 times a half's
length from an end), a removable 0/0 point included.

Adaptive Gauss-Kronrod runs in one refinement loop that owns the panels
of many intervals (_adaptive_gk_many), in the manner of QUADPACK's
multi-interval scheme stretched across integrands: each round evaluates
the split panels of every unfinished interval, and each interval stops
on its own test.  Tanh-sinh runs in one level loop over the halves of
many intervals (_tanh_sinh_many): the nodes of a level of the
double-exponential rule are the same for every integral, so a level of
many halves is one array of rows, and each half stops on its own test.
An Integrand is a kernel eval(x, *args) plus its per-integral floats
args.  One chunker (_eval_chunks) turns the rows of a round, a level or
a probe wave into kernel calls: it orders the rows by kernel and calls
each kernel once per run of its rows in a chunk of at most
_MAX_ABSCISSAE abscissae, with each arg a column of per-row values
(Shampine's vectorised quadgk, carried over to parameters).

Each kind has one engine, a generator engine(spec, tol) that yields its
requests, each a kind and a list of items: Gauss-Kronrod intervals (a, b,
tol, panel_width), tanh-sinh intervals (a, b, tol), or abscissae at which
it wants the integrand's values (the decay probes); it is sent the
answers back and returns (value, error, status).  integrate_many runs
many integrals (jobs) at once by answering the pending requests of every
job together, one call of _adaptive_gk_many, _tanh_sinh_many or
_points_many per kind; the audit makes one integrate_many call for all
its points, so a round can hold tens of thousands of panels, and each
chunk is reduced before the next is built, so a kernel call's
temporaries stay bounded.  integrate is its one-job call; the two are
the public entry points.  A job keeps its own evaluation count and
effort cap in one ledger (_Job.spend), from which integrate_many builds
its QuadResult, and every node value and sum is independent of the
other rows in the batch, so a job's result is bit for bit its result
alone.  No integrand is evaluated one integral at a time.
The oscillatory engine asks for its half-periods 1-13, then blocks of 4;
the decay engine for its main range together with the first
confirmation block.  The cost of an engine call is mostly Python
dispatch per round and per kernel call, so fewer, larger calls are what
makes it faster.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError

STATUS_CONVERGED = "converged"
STATUS_MAX_EFFORT = "max_effort"
STATUS_DIVERGENT = "suspected_divergent"

MAX_EVALUATIONS = 2_000_000


@dataclass
class Integrand:
    """A vectorised real integrand.

    The integrand is eval(x, *args): eval maps an ndarray of abscissae to
    an ndarray of values of the same shape, elementwise, and args holds
    the integral's own floats (its parameters).  Integrands that share
    one eval object are evaluated together: x then has one row per panel
    and each arg is a column holding the value of the panel's own
    integral, so eval must broadcast its args against x.  Any kernel
    object that many integrals share, with their parameters in args, is
    batched this way, whether a module-level function or one built once
    and shared; a closure over one integral's parameters (args = ()) is
    a batch of one.  eval must be finite at every abscissa inside the
    interval, a removable 0/0 point included: a non-finite value makes
    the integral suspected_divergent.

    eval_lower_dist / eval_upper_dist optionally evaluate f as a function
    of the distance d to the singular endpoint, as a one-argument call.
    The tanh-sinh rule uses them where rounding x to the endpoint would
    otherwise destroy the distance information (x within ~1e-16 of the
    endpoint).  A callback functools.partial(k, name=value, ...) of a
    shared kernel k(d, **params) is batched like eval: the halves
    whose callbacks are keyword partials of one k are evaluated in one
    call, each keyword a column; any other callback is a batch of one.
    """

    eval: Callable[..., np.ndarray]
    eval_lower_dist: Optional[Callable[[np.ndarray], np.ndarray]] = None
    eval_upper_dist: Optional[Callable[[np.ndarray], np.ndarray]] = None
    args: tuple = ()


@dataclass
class IntervalSpec:
    """Integration domain plus the hints that pick its engine (_engine)."""

    lower: float
    upper: float = math.inf
    decay_hint: float = 0.0  # exponential rate: the decay engine
    # decay engine: [lower, lower + 1/decay_hint] runs on tanh-sinh, set
    # where f is not analytic at lower (an integrable singularity or a
    # non-integer power of x - lower) and bisection would cost rounds; not
    # for 4.123.6's x^(p-1), where tanh-sinh costs more than it saves
    lower_singular: bool = False
    osc_hint: float = 0.0  # angular frequency: oscillatory, or riding on decay

    def __post_init__(self):
        _engine(self)  # DomainError where no engine fits


@dataclass
class QuadResult:
    value: float
    abs_error_est: float
    evaluations: int
    status: str


def _evaluate(kernel: Callable[..., np.ndarray], x: np.ndarray, args: Sequence) -> np.ndarray:
    """kernel(x, *args) as floats, the one kernel call: each arg a column of
    one value per row of x, so a row's values do not depend on other rows."""
    return np.asarray(kernel(x, *args), dtype=float)


class _Job:
    """One integral (job): its Integrand, and the one ledger of its evaluations."""

    def __init__(self, f: Integrand):
        self.f = f
        self.used = 0

    def spend(self, n: int) -> bool:
        """Count n evaluations if they stay within MAX_EVALUATIONS; else
        count nothing and return False.  Nothing else adds to used."""
        if self.used + n > MAX_EVALUATIONS:
            return False
        self.used += n
        return True


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


def _row_dot(y: np.ndarray, w: np.ndarray) -> np.ndarray:
    # y @ w row by row, the one row reduction of both engines; a BLAS
    # product can give a row a different last bit by its position in the
    # batch, this reduction cannot
    return np.einsum("ij,j->i", y, w)


# a kernel call evaluates at most this many abscissae, so the temporaries
# of one call stay bounded however many panels a round holds
_MAX_ABSCISSAE = 1 << 14
_CHUNK = _MAX_ABSCISSAE // len(_XK)  # panels per kernel call


def _member_groups(members: Sequence[tuple]):
    """Members (kernel, args) grouped by kernel, for _eval_chunks.

    Returns (group, slot, kernels): members[j] is member slot[j] of group
    group[j], and kernels[g] is (kernel, table), where table holds one
    column per member, its args.
    """
    by_kernel = {}
    for j, (kernel, _) in enumerate(members):
        by_kernel.setdefault(kernel, []).append(j)
    group = np.empty(len(members), dtype=int)
    slot = np.empty(len(members), dtype=int)
    kernels = []
    for g, (kernel, js) in enumerate(by_kernel.items()):
        group[js] = g
        slot[js] = np.arange(len(js))
        kernels.append((kernel, np.array([members[j][1] for j in js]).T))
    return group, slot, kernels


def _eval_chunks(groups: tuple, member: np.ndarray, width: int, nodes: Callable):
    """Evaluate row i, of width abscissae, by member[i] of groups.

    groups is _member_groups(...), and nodes(rows) builds the abscissae of
    the given rows, shape (len(rows), width).  The rows are taken in group
    order (a stable sort, skipped when they already are in it) and cut
    into chunks of whole rows of at most _MAX_ABSCISSAE abscissae; each
    kernel is called once per run of its rows in a chunk, with each arg a
    (rows, 1) column.  Yields (rows, values) per chunk, rows an index or
    slice of the caller's rows, so that the caller can reduce each chunk
    before the next one is built.
    """
    group, slot, kernels = groups
    gr = group[member]
    # rows already in group order need no reordering: one kernel, or a first
    # Gauss-Kronrod round, whose panels come job by job and an entry's jobs together
    order = None if np.all(gr[1:] >= gr[:-1]) else np.argsort(gr, kind="stable")
    del gr  # as long as the batch, and not needed by the chunks
    per_call = max(1, _MAX_ABSCISSAE // width)
    for start in range(0, len(member), per_call):
        rows = slice(start, start + per_call) if order is None else order[start:start + per_call]
        x = nodes(rows)
        y = np.empty_like(x)
        mem = member[rows]
        g = group[mem]
        cuts = [0, *(np.flatnonzero(g[1:] != g[:-1]) + 1).tolist(), len(g)]
        for a, b in zip(cuts, cuts[1:]):
            kernel, table = kernels[g[a]]
            y[a:b] = _evaluate(kernel, x[a:b], table[:, slot[mem[a:b]], None])
        yield rows, y


def _gk_batch(groups: tuple, job: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Apply GK15 to a batch of panels; returns (values, errors, finite?).

    Panel i is evaluated by member job[i] of groups, the _member_groups of
    the integrals' (eval, args); the caller counts the evaluations.
    The panels are evaluated by _eval_chunks, on nodes of shape
    (panels, 15), at most _CHUNK panels per chunk.  Every node value and
    sum is per row, so a panel's results do not depend on the other
    panels in the batch.

    Error estimate per panel follows the classic scaled form
    resasc * min(1, (200 |K15-G7| / resasc)^1.5): it inflates the raw
    difference on unresolved panels and deflates it on resolved ones,
    instead of over-reporting resolved panels by orders of magnitude.
    Each chunk is finished, error estimate included, and written to the
    outputs before the next is evaluated, so the only temporaries as long
    as the batch are the outputs themselves (a merged audit's first round
    holds tens of thousands of panels).
    """
    n = len(lo)
    vals, errs = np.empty(n), np.empty(n)
    finite = np.empty(n, dtype=bool)

    def nodes(part):
        lp, hp = lo[part], hi[part]
        return np.multiply.outer(0.5 * (hp - lp), _XK) + (0.5 * (lp + hp))[:, None]

    for part, y in _eval_chunks(groups, job, len(_XK), nodes):
        s = 0.5 * (hi[part] - lo[part])
        k15 = s * _row_dot(y, _WK)
        g7 = s * _row_dot(y, _WG)
        finite[part] = np.isfinite(y).all(axis=1)
        t = np.abs(y)  # one scratch array for both absolute sums
        resabs = s * _row_dot(t, _WK)
        np.subtract(y, (k15 / (2.0 * s))[:, None], out=t)
        resasc = s * _row_dot(np.abs(t, out=t), _WK)
        diff = np.abs(k15 - g7)
        scaled = resasc * np.minimum(1.0, (200.0 * diff / resasc) ** 1.5)
        err = np.where((resasc > 0.0) & np.isfinite(scaled), scaled, diff)
        # per-panel summation roundoff: the dot product cannot be trusted
        # below ~log2(15) ulps of the absolute mass
        errs[part] = np.maximum(err, 4.0 * 2.220446049250313e-16 * resabs)
        vals[part] = k15
    return vals, errs, finite


def _initial_panels(intervals: Sequence[tuple]):
    """The initial panels (lo, hi, owner) of many intervals, in one pass.

    Interval i, (a, b, tol, panel_width), is cut at a, b and, when
    panel_width is set and [a, b] is wider, at the equal-width grid
    a + (b - a) j / count (count <= 4096) that resolves an oscillation per
    panel: an unresolved wide panel can make the embedded rules agree on
    garbage.  Its panels run between its sorted distinct cuts, owned by
    i, after the panels of interval i - 1.  Every interval must have
    a <= b.  The cuts are written in place, a, the grid, b, which is then
    already sorted: rounding is monotone and keeps every grid point in
    [a, b].
    """
    m = len(intervals)
    a = np.array([iv[0] for iv in intervals], dtype=float)
    b = np.array([iv[1] for iv in intervals], dtype=float)
    width = np.array([iv[3] for iv in intervals], dtype=float)
    span = b - a
    gridded = (width > 0.0) & (span > width)
    count = np.ones(m)
    count[gridded] = np.minimum(np.ceil(span[gridded] / width[gridded]), 4096.0)
    inner = count.astype(np.intp) - 1
    grid_owner = np.repeat(np.arange(m), inner)
    j = np.arange(1, len(grid_owner) + 1) - np.repeat(np.cumsum(inner) - inner, inner)
    size = inner + 2
    last = np.cumsum(size) - 1
    first = last + 1 - size
    owner = np.repeat(np.arange(m), size)
    cuts = np.empty(len(owner))
    on_grid = np.ones(len(owner), dtype=bool)
    on_grid[first] = on_grid[last] = False
    cuts[on_grid] = a[grid_owner] + span[grid_owner] * j / count[grid_owner]
    cuts[first], cuts[last] = a, b
    same = owner[1:] == owner[:-1]
    distinct = np.ones(len(cuts), dtype=bool)
    distinct[1:] = (cuts[1:] != cuts[:-1]) | ~same
    cuts, owner = cuts[distinct], owner[distinct]
    same = owner[1:] == owner[:-1]
    return cuts[:-1][same], cuts[1:][same], owner[1:][same]


def _adaptive_gk_many(requests: Sequence[tuple]) -> list:
    """Adaptive GK15 on many intervals, of one or more integrands, at once.

    requests holds one (pe, intervals) pair per integrand, each interval
    (a, b, tol, panel_width); the result holds, per pair, the (value,
    error, status) of its intervals in order.  Every interval (an owner)
    holds its own panels, initially those of _initial_panels,
    but each round makes one _gk_batch call over the split panels of all
    live owners, so each kernel is called once per round and chunk.  An owner
    retires, with its own answer, as soon as it meets its own test:
    converged when its error sum is within its tol after at least one
    refinement or on an initial partition of 4 or more panels;
    suspected_divergent as soon as one of its panels is non-finite.  Before
    each round, an integrand that cannot spend it (_Job.spend) stops there:
    each of its live owners returns max_effort with the sums of its last
    round (0 and an inf error before the first), and the round is neither
    run nor counted for it.  A panel is split when its error exceeds
    its owner's share, max(tol / 2n, toterr / 8n) over the owner's n
    panels; an owner with no such panel splits its largest.  The owners'
    panels keep their relative order and _gk_batch evaluates and sums per
    row, so each integrand's results, evaluation counts included, are bit
    for bit those of a call with its own intervals alone.
    """
    pes = [pe for pe, _ in requests]
    intervals = [iv for _, ivs in requests for iv in ivs]
    owner_job = np.repeat(np.arange(len(pes)), [len(ivs) for _, ivs in requests])
    m = live = len(intervals)
    tols = np.array([iv[2] for iv in intervals])
    # 4 tol / 8n is tol / 2n to the bit, so the share is one division
    tols4 = 4.0 * tols
    groups = _member_groups([(pe.f.eval, pe.f.args) for pe in pes])
    # the panels kept from the last round, with their sums, and the round's
    # new panels: at first none kept and every initial panel new
    lo = hi = vals = errs = np.empty(0)
    owner = np.empty(0, dtype=np.intp)
    new_lo, new_hi, new_owner = _initial_panels(intervals)
    total, toterr = np.zeros(m), np.full(m, math.inf)
    results = [None] * m
    rounds = 0
    while True:
        need = len(_XK) * np.bincount(owner_job[new_owner], minlength=len(pes))
        spent = np.array([n == 0 or pe.spend(n) for pe, n in zip(pes, need.tolist())], dtype=bool)
        capped = ~spent[owner_job] & (tols > -math.inf)
        if np.count_nonzero(capped):
            for i in np.flatnonzero(capped):
                results[i] = (float(total[i]), float(toterr[i]), STATUS_MAX_EFFORT)
            tols[capped] = -math.inf
            live -= np.count_nonzero(capped)
            if not live:
                break
            keep, fresh = ~capped[owner], ~capped[new_owner]
            lo, hi, owner, vals, errs = lo[keep], hi[keep], owner[keep], vals[keep], errs[keep]
            new_lo, new_hi, new_owner = new_lo[fresh], new_hi[fresh], new_owner[fresh]
        v2, e2, ok = _gk_batch(groups, owner_job[new_owner], new_lo, new_hi)
        lo, hi = np.concatenate([lo, new_lo]), np.concatenate([hi, new_hi])
        owner = np.concatenate([owner, new_owner])
        vals, errs = np.concatenate([vals, v2]), np.concatenate([errs, e2])
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
                results[i] = (math.nan, math.inf, STATUS_DIVERGENT)
            converged = converged & ~divergent
            retired = converged | divergent
        for i in np.flatnonzero(converged):
            results[i] = (float(total[i]), float(toterr[i]), STATUS_CONVERGED)
        if np.count_nonzero(retired):
            tols[retired] = -math.inf
            live -= np.count_nonzero(retired)
            if not live:
                break
            keep = ~retired[owner]
            lo, hi, owner, vals, errs = lo[keep], hi[keep], owner[keep], vals[keep], errs[keep]
        rounds += 1
        # refine every panel holding more than its owner's share of the
        # budget, max(tol / 2n, toterr / 8n) over the owner's n panels
        split = errs > (np.maximum(tols4, toterr) / (8 * count))[owner]
        has_split = np.bincount(owner[split], minlength=m)
        if np.count_nonzero(has_split) < live:
            # each live owner that split nothing splits its first largest
            # panel; lexsort is stable, so ties go to the earliest panel as
            # with argmax
            idx = np.flatnonzero(((has_split == 0) & (tols > -math.inf))[owner])
            idx = idx[np.lexsort((-errs[idx], owner[idx]))]
            first = np.ones(len(idx), dtype=bool)
            first[1:] = owner[idx[1:]] != owner[idx[:-1]]
            split[idx[first]] = True
        lo_s, hi_s = lo[split], hi[split]
        mid = 0.5 * (lo_s + hi_s)
        new_lo, new_hi = np.concatenate([lo_s, mid]), np.concatenate([mid, hi_s])
        new_owner = np.concatenate([owner[split], owner[split]])
        stay = ~split
        lo, hi, owner, vals, errs = lo[stay], hi[stay], owner[stay], vals[stay], errs[stay]
    it = iter(results)
    return [[next(it) for _ in ivs] for _, ivs in requests]


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


def _keyword_kernel(func: Callable, names: tuple) -> Callable:
    # the kernel of the callbacks partial(func, name=value, ...): func with
    # each keyword a column
    return lambda d, *cols: func(d, **dict(zip(names, cols)))


def _snap_to_finite(y: np.ndarray, bad: np.ndarray) -> None:
    # endpoint rounding garbage: snap each non-finite value of the row y to
    # the nearest finite one; legitimate bounded integrands vary slowly there
    idx = np.arange(len(y))
    good = ~bad
    nearest = np.interp(idx[bad], idx[good], idx[good])
    y[bad] = y[good][np.searchsorted(idx[good], np.round(nearest))
                     .clip(0, good.sum() - 1)]


def _tanh_sinh_many(requests: Sequence[tuple]) -> list:
    """Tanh-sinh on many intervals, of one or more integrands, at once.

    requests holds one (pe, intervals) pair per integrand, each interval
    (a, b, tol); the result holds, per pair, the (value, error, status) of
    its intervals in order.  Each interval is split at its midpoint into two
    halves of tolerance tol / 2, each integrated in v on (0, 1) with
    x = a + s v^2 (left half) or x = b - s v^2 (right half), s the half's
    length, so that the factor 2 s v turns an inverse-square-root endpoint
    singularity into a bounded smooth one.  A half whose end has a
    distance callback (eval_lower_dist / eval_upper_dist) is evaluated
    on the distance s v^2 itself.  An interval's value and error are the
    sums of its halves', and it is suspected_divergent if either half is,
    else max_effort if either is.

    One level loop serves every half.  A level's nodes v are the same for
    all, so the live halves are the rows of one array, evaluated by
    _eval_chunks (callbacks that are keyword partials of one function
    form one group, with each keyword a column).  Each level first counts
    its nodes against the half's cap, half by half, left before right,
    and a half that the level would take past the cap stops there as
    max_effort, its level neither run nor counted; a row with non-finite
    values is snapped to its nearest finite ones, or makes its half
    suspected_divergent if it has none; each chunk's level sums are one
    _row_dot of its rows with the weights, the row reduction _gk_batch
    uses, so a row's sum does not depend on its neighbours; a half
    converges once two successive levels from level 3 on agree within its
    tol.  So each interval, and its evaluation count, is bit for bit its
    result alone.
    """
    halves = []  # (pe, end, s, lower, tol)
    for pe, intervals in requests:
        for a, b, tol in intervals:
            m = 0.5 * (a + b)
            halves += [(pe, a, m - a, True, 0.5 * tol), (pe, b, b - m, False, 0.5 * tol)]
    n = len(halves)
    members = []
    end = np.zeros(n)
    sign = np.ones(n)
    adapters = {}
    for i, (pe, e, _, lower, _) in enumerate(halves):
        cb = pe.f.eval_lower_dist if lower else pe.f.eval_upper_dist
        if cb is None:
            members.append((pe.f.eval, pe.f.args))
            end[i], sign[i] = e, 1.0 if lower else -1.0
        elif isinstance(cb, functools.partial) and not cb.args:
            key = (cb.func, tuple(cb.keywords))
            if key not in adapters:
                adapters[key] = _keyword_kernel(*key)
            members.append((adapters[key], tuple(cb.keywords.values())))
        else:
            members.append((cb, ()))
    s = np.array([half[2] for half in halves])
    tol = np.array([half[4] for half in halves])
    groups = _member_groups(members)
    total = np.zeros(n)
    diff = np.full(n, math.inf)
    capped = np.zeros(n, dtype=bool)
    divergent = np.zeros(n, dtype=bool)
    live = np.arange(n)
    for level in range(13):
        w, v = _ts_level(level)
        spent = np.array([halves[i][0].spend(v.size) for i in live.tolist()], dtype=bool)
        capped[live[~spent]] = True
        live = live[spent]
        if not live.size:
            break
        sums = np.empty(len(live))
        bad = np.zeros(len(live), dtype=bool)

        def nodes(rows):
            # end + (-d) is end - d to the bit; a callback row gets 0 + d = d
            h = live[rows]
            return end[h, None] + sign[h, None] * (s[h, None] * v * v)

        for rows, y in _eval_chunks(groups, live, v.size, nodes):
            y = 2.0 * s[live[rows], None] * v * y
            finite = np.isfinite(y)
            some = finite.any(axis=1)
            bad[rows] = ~some
            for r in np.flatnonzero(some & ~finite.all(axis=1)).tolist():
                _snap_to_finite(y[r], ~finite[r])
            sums[rows] = _row_dot(y, w)
        level_sum = 0.5 / (1 << level) * sums
        if level:
            level_sum = 0.5 * total[live] + level_sum
            diff[live] = np.abs(level_sum - total[live])
        total[live] = level_sum
        divergent[live[bad]] = True
        converged = (diff[live] <= tol[live]) & (level >= 3)
        live = live[~(bad | converged)]
    capped[live] = True
    # interval k is halves 2k and 2k + 1
    value, error = total[::2] + total[1::2], diff[::2] + diff[1::2]
    divergent, capped = divergent[::2] | divergent[1::2], capped[::2] | capped[1::2]
    value[divergent], error[divergent] = math.nan, math.inf
    status = [STATUS_DIVERGENT if d else STATUS_MAX_EFFORT if c else STATUS_CONVERGED
              for d, c in zip(divergent.tolist(), capped.tolist())]
    results = zip(value.tolist(), error.tolist(), status)
    return [[next(results) for _ in ivs] for _, ivs in requests]


def _points_many(requests: Sequence[tuple]) -> list:
    """The integrand of each (pe, x) request at its abscissae x, one array
    of values per request; every x has the same length (the decay probes,
    a job's first request: within any cap of 8 or more, they count against
    it), and the rows are evaluated by _eval_chunks."""
    for pe, x in requests:
        pe.spend(x.size)
    xs = np.stack([x for _, x in requests])
    groups = _member_groups([(pe.f.eval, pe.f.args) for pe, _ in requests])
    y = np.empty_like(xs)
    for rows, values in _eval_chunks(groups, np.arange(len(xs)), xs.shape[1], lambda rows: xs[rows]):
        y[rows] = values
    return list(y)


# The kinds of request an engine yields (_SOLVERS answers each): a list of
# Gauss-Kronrod intervals (a, b, tol, panel_width) or of tanh-sinh
# intervals (a, b, tol), answered by a list of (value, error, status), or
# an array of abscissae, answered by the integrand's values there.
_GK = "gauss_kronrod"
_TANH_SINH = "tanh_sinh"
_POINTS = "points"


# The engines, one per kind of integral (_engine picks it): each yields
# (kind, request) pairs and returns the integral's (value, error, status).


def _endpoint(spec: IntervalSpec, tol: float):
    # tanh-sinh alone: no Gauss-Kronrod request
    return (yield _TANH_SINH, [(spec.lower, spec.upper, tol)])[0]


def _decay(spec: IntervalSpec, tol: float):
    """Semi-infinite integral of an exponentially damped integrand.

    The truncation length T comes from a probed amplitude C and the bound
    C exp(-lambda T)/lambda < tol/10; the block [a+T, a+2T] is integrated
    as confirmation and further doublings are added if it has not shrunk
    yet.  A tail that keeps growing is reported as suspected_divergent,
    and a piece or block that ends not converged ends the job with its
    status.  osc_hint (an angular frequency) sets the initial panel grid
    so the error estimator always resolves the oscillation: pi/osc_hint,
    half a period, on the main range, and four times that, two periods,
    on the confirmation blocks.  The probe bound holds a block's mass below
    tol/10, and K15 still has 7.5 nodes per period there, so its gap to G7
    stays a pessimistic estimate; a block with no grid can alias.  The
    main range and the first confirmation block are requested together,
    in the wave after the probes, so every job's ranges share their
    rounds; a lower_singular job's tanh-sinh piece on [a, a + 1/lambda]
    comes after them.  The block's evaluations count even when the main
    range fails.
    """
    a, lam = spec.lower, spec.decay_hint
    probes = a + np.array([0.3, 0.7, 1.3, 2.1, 3.4, 5.5, 8.9, 14.4]) / lam
    amp = (yield _POINTS, probes) * np.exp(lam * (probes - a))
    c = float(np.fmax.reduce(np.abs(amp)))  # nan only if every probe is
    del probes, amp  # the frame lives until the job ends
    if not math.isfinite(c):
        return math.nan, math.inf, STATUS_DIVERGENT
    c = max(c, tol)
    t_len = math.log(10.0 * c / (tol * lam)) / lam
    t_len = max(t_len, 8.0 / lam)
    width = math.pi / spec.osc_hint if spec.osc_hint > 0.0 else 0.0
    block_width = 4.0 * width

    first_end = a + 1.0 / lam if spec.lower_singular else a
    lo = a + t_len
    main_range, block = yield _GK, [(first_end, lo, tol / 4.0, width),
                                    (lo, lo + t_len, tol / 16.0, block_width)]
    pieces = [main_range]
    if spec.lower_singular:
        pieces = (yield _TANH_SINH, [(a, first_end, tol / 16.0)]) + pieces
    values, errors, statuses = zip(*pieces)
    main, err = math.fsum(values), math.fsum(errors)
    for status in statuses:
        if status != STATUS_CONVERGED:
            return main, err, status

    # confirmation blocks, extended while still substantial
    tail_prev = math.inf
    for i in range(6):
        if i:
            (block,) = yield _GK, [(lo, lo + t_len, tol / 16.0, block_width)]
        value, error, status = block
        if status != STATUS_CONVERGED:
            return main, err, status
        main += value
        err += error
        if abs(value) <= tol / 4.0:
            return main, err + abs(value), STATUS_CONVERGED
        if abs(value) >= tail_prev:
            return main, err, STATUS_DIVERGENT
        tail_prev = abs(value)
        lo += t_len
    return main, err, STATUS_MAX_EFFORT


# half-periods per Gauss-Kronrod request: the CRVZ stop can first fire at
# n = 14 contributions, so segments 1-13 go in one request; later ones go
# in blocks of 4, so a CRVZ stop computes at most 3 segments past itself
_OSC_FIRST_BLOCK = 13
_OSC_BLOCK = 4
_OSC_MAX_SEGMENTS = 512


@functools.lru_cache(maxsize=None)
def _crvz_weights(n: int) -> tuple:
    """The weights w_0..w_{n-1} of the CRVZ sum of n terms.

    Algorithm 1 of Cohen, Rodriguez Villegas and Zagier, "Convergence
    acceleration of alternating series", Exp. Math. 9 (2000), sums an
    alternating series as sum_k w_k c_k over its first n terms c_k, with
    w_k = (b_{k+1} + ... + b_n) / d: b_j are the integer coefficients
    b_0 = 1, b_{j+1} = b_j 2 (n^2 - j^2) / ((2j + 1)(j + 1)), and
    d = b_0 + ... + b_n = T_n(3), the Chebyshev polynomial, about
    5.83^n / 2.  The error falls like 5.83^-n where the Euler transform's
    falls like 2^-n.  Each weight is an exact ratio of integers rounded
    once (int / int), since d overflows a double past n = 402.
    """
    b = [1]
    for j in range(n):
        b.append(b[-1] * 2 * (n * n - j * j) // ((2 * j + 1) * (j + 1)))
    d = tail = sum(b)
    weights = []
    for bj in b[:-1]:
        tail -= bj
        weights.append(tail / d)
    return tuple(weights)


def _crvz(terms: Sequence[float]) -> float:
    """The CRVZ sum of an alternating series from its terms, in one fsum."""
    return math.fsum(map(operator.mul, _crvz_weights(len(terms)), terms))


def _oscillatory(spec: IntervalSpec, tol: float):
    """Oscillatory semi-infinite integral by half-period partial sums.

    Consecutive contributions over [a + k h, a + (k+1) h], h = pi/osc_hint,
    are summed by the CRVZ acceleration (_crvz); the only convergence stop
    is the agreement of the CRVZ sums of the first n, n - 1 and n - 2
    contributions while every segment converged.  Growth over 8
    consecutive intervals, or persistent same-sign contributions that
    fail to decay, mark the integral suspected_divergent; once the effort
    cap stops a segment the job returns its plain running sum, that
    segment's included, as max_effort.  Segment 0
    runs on tanh-sinh, which tolerates an integrable edge singularity or
    an undefined integrand right at the lower limit; each later one has
    tolerance tol / (32 (k+1)).  Half-periods 1-13 are requested together,
    since the CRVZ stop needs 14 contributions, and later ones in blocks
    of 4, when the tests reach them.  The stopping tests still run segment by
    segment, in order, so the engine stops at the same segment as when
    each half-period was integrated alone; segments computed past the
    stop count in `evaluations`.
    """
    a, h = spec.lower, math.pi / spec.osc_hint
    segments = yield _TANH_SINH, [(a, a + h, tol / 32.0)]
    contribs = []
    sums = []  # the CRVZ sum of each prefix of contribs from 12 terms on
    seg_err = 0.0
    running = 0.0
    precise = True
    for k in range(_OSC_MAX_SEGMENTS):
        if k == len(segments):
            size = _OSC_FIRST_BLOCK if k == 1 else _OSC_BLOCK
            segments += yield _GK, [(a + j * h, a + (j + 1) * h, tol / (32.0 * (j + 1)), 0.0)
                               for j in range(k, min(k + size, _OSC_MAX_SEGMENTS))]
        value, error, status = segments[k]
        if status == STATUS_DIVERGENT or not math.isfinite(value):
            return math.nan, math.inf, STATUS_DIVERGENT
        precise = precise and status == STATUS_CONVERGED
        contribs.append(value)
        seg_err += error
        running += value
        n = len(contribs)
        if n >= 9:
            tail = contribs[-8:]
            last = [abs(c) for c in tail]
            if all(x < y for x, y in zip(last, last[1:])) and last[-1] > 8.0 * tol:
                return math.nan, math.inf, STATUS_DIVERGENT
            if (all(c > 0.0 for c in tail) or all(c < 0.0 for c in tail)) \
                    and last[-1] > 64.0 * tol:
                # a persistent same-sign tail above the noise floor violates
                # the alternation contract (e.g. a ~1/x log-divergent tail)
                return math.nan, math.inf, STATUS_DIVERGENT
        if precise and n >= 12:
            # precise never comes back once lost, so sums holds every
            # prefix from 12 terms on while it holds
            sums.append(_crvz(contribs))
            if n >= 14:
                # the CRVZ sums of the first n, n - 1 and n - 2
                # contributions: agreement of the last two alone can dip far
                # below the true error on modulated envelopes; the third
                # catches that
                e3, e2, e1 = sums[-3:]
                accel_err = 4.0 * max(abs(e1 - e2), abs(e1 - e3))
                if accel_err <= tol / 2.0 and abs(contribs[-1]) < 1.0:
                    return e1, seg_err + accel_err, STATUS_CONVERGED
        if k and status == STATUS_MAX_EFFORT:
            break  # only the effort cap stops a Gauss-Kronrod segment short
    return running, math.inf, STATUS_MAX_EFFORT


def _engine(spec: IntervalSpec):
    """The engine of an interval: _endpoint (tanh-sinh) on a finite
    [lower, upper] with no hint set; on [lower, inf), _decay when
    decay_hint > 0, else _oscillatory when osc_hint > 0.  Anything else
    raises DomainError: a non-finite lower, upper <= lower, a nan bound,
    a hint that is not finite and >= 0, a hint on a finite interval
    (tanh-sinh reads none), or [lower, inf) with neither hint."""
    a, b, lam, omega = spec.lower, spec.upper, spec.decay_hint, spec.osc_hint
    if math.isfinite(a) and a < b and 0.0 <= lam < math.inf and 0.0 <= omega < math.inf:
        if b < math.inf and not (lam or omega or spec.lower_singular):
            return _endpoint
        if b == math.inf and lam > 0.0:
            return _decay
        if b == math.inf and lam == 0.0 and omega > 0.0:
            return _oscillatory
    raise DomainError(f"no engine integrates {spec}")


_SOLVERS = {_GK: _adaptive_gk_many, _TANH_SINH: _tanh_sinh_many, _POINTS: _points_many}


def integrate_many(jobs: Sequence[tuple]) -> list:
    """Integrate many jobs (f, spec, tol) together; one QuadResult per job.

    Each job runs its interval's engine (_engine); its QuadResult is the
    engine's (value, error, status) with the count of its own _Job.  The
    pending requests of every job are answered together, one solver call
    per kind: the Gauss-Kronrod intervals by _adaptive_gk_many, whose
    rounds call each kernel once on the panels of every live job that
    shares it, the tanh-sinh intervals by _tanh_sinh_many, whose levels do
    the same with rows of nodes, and the probe points by _points_many
    (each through _eval_chunks).  A job whose request is answered makes
    its next one in the following wave.  Every job's result is bit for bit
    integrate(f, spec, tol).  Every tol must be finite and > 0.  All runs
    under one np.errstate(all="ignore"): a kernel may overflow on the way
    to a finite value (a cosh in a denominator), and the engines test for
    non-finite values themselves.
    """
    if not all(0.0 < tol < math.inf for _, _, tol in jobs):
        raise DomainError("tol must be finite and > 0")
    with np.errstate(all="ignore"):
        pes = [_Job(f) for f, _, _ in jobs]
        engines = [_engine(spec)(spec, tol) for _, spec, tol in jobs]
        results = [None] * len(jobs)
        replies = dict.fromkeys(range(len(jobs)))
        while replies:
            pending = {}
            for i, reply in replies.items():
                try:
                    kind, request = engines[i].send(reply)
                except StopIteration as done:
                    value, error, status = done.value
                    results[i] = QuadResult(value, error, pes[i].used, status)
                else:
                    pending.setdefault(kind, []).append((i, request))
            replies = {}
            for kind, asked in pending.items():
                answers = _SOLVERS[kind]([(pes[i], request) for i, request in asked])
                replies.update((i, answer) for (i, _), answer in zip(asked, answers))
        return results


def integrate(f: Integrand, spec: IntervalSpec, tol: float) -> QuadResult:
    """Integrate f with the engine its interval picks (_engine)."""
    return integrate_many([(f, spec, tol)])[0]


def euler_transform(s: Sequence[float], depth: int) -> float:
    """Euler acceleration of a partial-sum sequence by iterated averaging.

    Needs at least depth + 2 entries; deterministic.
    """
    if depth < 0:
        raise DomainError("depth must be >= 0")
    if len(s) < depth + 2:
        raise DomainError("euler_transform needs at least depth + 2 entries")
    # the last entry after depth averagings depends on the last depth + 1
    # only; prev[d] is that of the window so far after d averagings, and
    # each entry x extends it to diag[d] = (prev[d - 1] + diag[d - 1]) / 2
    prev = []
    for x in s[len(s) - depth - 1:]:
        diag = [float(x)]
        for d in range(1, len(prev) + 1):
            diag.append(0.5 * (prev[d - 1] + diag[d - 1]))
        prev = diag
    return prev[depth]
