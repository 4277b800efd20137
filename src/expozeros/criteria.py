"""Membership criteria on the real axis: the weighted positive-part integral,
the real-axis sup, the base-1 sup, and the directional type estimate.

All three class criteria are asymptotic statements, so no truncation can
decide them; verdicts here are explicitly evidence-level.  Sup-style checks
(B, D) look at the running sup over dyadic |x| windows and flag growth above
a tolerance per octave.  The weighted-integral check (C) looks at the decay
rate of dyadic window contributions: a convergent weight integral needs the
windows to decay geometrically, so slopes near zero (harmonic-type mass per
octave) are flagged as violations.  Every report carries the raw window data
so a caller can re-judge.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from .counting import (
    AngularDensity,
    GrowthEstimate,
    LindelofTrace,
    _RealAxis,
    angular_density,
    growth_check,
    lindelof_sums,
    log_potential,
    step_integral,
)
from .zero_model import ZeroSequence

__all__ = [
    "SATISFIED",
    "VIOLATED",
    "INCONCLUSIVE",
    "TREND_TOLERANCE",
    "CriterionReport",
    "PhiProfile",
    "ClassifyReport",
    "phi",
    "phi_profile",
    "check_C",
    "check_B",
    "check_D",
    "cartwright_integral",
    "type_bound",
    "classify",
]

SATISFIED = "evidence_satisfied"
VIOLATED = "evidence_violated"
INCONCLUSIVE = "inconclusive"

# Sup-trend tolerance for the B/D checks: extremum growth per octave of |x|.
TREND_TOLERANCE = 0.05
# Window-decay slopes for the weighted-integral check, in log2(window)/octave.
# A window trend 2^(s*j) integrates like sum 2^(s*j); s near 0 is the
# harmonic/divergent zone, s well below 0 is geometric decay.  The bands keep
# a margin for truncation bias, which systematically steepens observed decay.
C_VIOLATED_SLOPE = -0.40
C_SATISFIED_SLOPE = -0.50
NEGLIGIBLE_REL = 1e-12
# Relative tolerance of the type check's plateau stability and sigma margin.
TYPE_TOLERANCE = 0.05
# Radii sampled by classify's Lindelof sums and growth check.
RADII_COUNT = 48

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_FLOOR_OCTAVE = -60
_U = 2.0 ** -53
# A gap with more near zeros than this is searched without a bound, so the
# near-zero sums cost O(gaps).
_NEAR_MAX = 64


@dataclass(frozen=True)
class CriterionReport:
    """Per-criterion verdict with the numeric evidence behind it.

    window_x / window_values hold the raw dyadic-window data (or per-|y|
    values for the type check) for re-analysis; tail_error_bound is a
    rim-mass extrapolation estimate of what zeros beyond the completeness
    radius could contribute at the far end of the grid.  diagnostics counts
    the work done: grid_base_points and grid_aug_points (the grid before and
    after refinement), kernel_calls and kernel_points (calls of the value
    kernel and the points they evaluated), and zero_points (the zero x point
    terms behind those values: zeros x kernel_points for the dense
    log_potential).  C, B and D evaluate through counting._RealAxis and add
    cells (its cells), near_points (terms of near zeros, summed densely),
    node_points (terms of far zeros at the cells' Chebyshev nodes), so that
    zero_points = near_points + node_points, and far_error_bound (the
    largest far-field bound E of the cells used).  B and D add gaps and
    gaps_searched (real-zero gaps in the grid range, and those given
    golden-section probes) and slope_points (points of the slope pass behind
    the gap bounds, whose terms zero_points leaves out).  It holds counts and
    a bound only, so a report is the same on every run.
    """

    criterion: str
    verdict: str
    witness: float | None
    extremum_value: float
    truncation_radius: float
    grid_description: str
    window_x: tuple[float, ...] = ()
    window_values: tuple[float, ...] = ()
    trend_slope: float | None = None
    tail_error_bound: float = 0.0
    notes: str = ""
    diagnostics: dict = dataclasses.field(default_factory=dict)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class PhiProfile:
    """Samples of the full-range counting integral along the real axis."""

    base_point: float
    samples: tuple[tuple[float, float], ...]
    clipped: tuple[float, ...]


def phi(seq: ZeroSequence, b: float, x: float) -> float:
    """Full-range integral of [n(b,t) - n(x,t)]/t: the closed form
    sum of m * (log|a - x| - log|a - b|).  Returns -inf exactly when x is a
    stored zero position; raises if b is one."""
    b = float(b)
    x = float(x)
    if len(seq) and np.any(seq.positions == complex(b)):
        raise ValueError(f"base point b = {b} is a zero position")
    if not len(seq):
        return 0.0
    if np.any(seq.positions == complex(x)):
        return -math.inf
    return step_integral(seq, b, x, 0.0, math.inf)


def phi_profile(seq: ZeroSequence, b: float, xs) -> PhiProfile:
    """phi(seq, b, x) at every x through log_potential, whose docstring
    states the error bound; points on zeros are listed in clipped."""
    xs = np.asarray(xs, dtype=float)
    vals = log_potential(seq, xs, float(b))
    samples = tuple(
        (float(x), float(v)) for x, v in zip(xs, vals) if math.isfinite(v)
    )
    clipped = tuple(float(x) for x, v in zip(xs, vals) if v == -math.inf)
    return PhiProfile(base_point=float(b), samples=samples, clipped=clipped)


# --- grid machinery ----------------------------------------------------------

def _gap_bounds(axis: _RealAxis, kap2: float, za, zb, ga, gb, c, value_at,
                target) -> tuple[np.ndarray, int]:
    """Upper bounds, rounding allowance included, of a B or D objective on
    the gaps [ga, gb] between the real zeros za < zb, from the judged values
    value_at(points) and anchors c in the gaps; and the number of slope
    points they cost.  axis is the check's evaluator, for seq, b and t_lo,
    and its zeros sorted by Re a.

    The objective is h(x) = sum of m (log clamp|x - a| - log clamp|b - a|)
    - kap2 x^2 / 2 with clamp(d) = max(d, t_lo), judged as h (B: t_lo = 0)
    or as |h| (D: b = 0, t_lo = 1).  On a gap holding no real zero in its
    interior, a zero is near when Re a lies within t_lo of the gap and
    |Im a| < t_lo (its clamp may act there; none is near when t_lo = 0).  A
    near term is a nondecreasing function of |x - a|, so it lies between its
    value at x = clip(Re a, ga, gb) and its larger end value.  The far rest S
    is smooth on the gap and S - curv x^2 / 2 is concave: a real zero's log
    is concave, and a complex zero's has curvature at most
    1 / max((Im a)^2, t_lo^2), summed into curv.  With r = max(c - ga, gb - c)
    and w = gb - ga, that gives

        h <= h(c) + sum_near (larger end term - term at c)
             + |S'(c)| r + curv r^2 / 2,
        -h <= max over the ends e of (-h(e) + sum_near (term at e - least
              term)) + curv w^2 / 8,

    and the bound of the judged value is the first line for B and the larger
    line for D, each with judged values in place of h, which only loosens
    them.  S'(c) is h'(c) (the derivative of the evaluator's values, near
    sums and far interpolant alike) less the near terms' slopes.  A gap with
    more than _NEAR_MAX near zeros is given no bound.
    Each bound carries an allowance for rounding: the evaluator's stated
    80 u * sum m (1 + |L_p| + |L_b|) per value, with the same form for the
    slope (times r) and the near sums, taken 4 + (near zeros) times, plus
    the far-field bounds E of the values used and E' (times r) of the slope.
    Where the part without the slope term already reaches target, that part
    is returned and no slope is computed.
    """
    seq, t = axis.seq, axis.t_lo
    # by Re a; where hypot tells them apart, a real zero comes before
    # complex zeros of equal Re, since positions are stored in hypot order
    # and the evaluator's sort is stable
    re, im, mult, log_b = axis._re, axis._im, axis._mult, axis._log_b
    off_axis = im != 0.0
    beta = np.abs(im[off_axis])
    curv = float((mult[off_axis] / np.maximum(beta, t) ** 2).sum())
    r = np.maximum(c - ga, gb - c)
    vc = value_at(c)
    up, lo_a, lo_b, near_slope = np.zeros((4, c.size))
    neg = np.full(c.size, -math.inf)
    count = 0
    if t > 0.0:
        near = np.abs(im) < t
        re, im, m = re[near], im[near], mult[near]
        i0 = np.searchsorted(re, ga - t, side="right")
        count = np.searchsorted(re, gb + t, side="left") - i0
        fits = count <= _NEAR_MAX
        # offset k into each gap's near zeros, so each sum adds its terms in order
        for k in range(int(count[fits].max(initial=0))):
            gaps = np.flatnonzero(fits & (count > k))
            j = i0[gaps] + k

            def term(x):
                return m[j] * np.log(np.maximum(np.hypot(x - re[j], im[j]), t))

            t_a, t_b, t_c = term(ga[gaps]), term(gb[gaps]), term(c[gaps])
            least = term(np.clip(re[j], ga[gaps], gb[gaps]))
            dx = c[gaps] - re[j]
            r2 = dx * dx + im[j] * im[j]
            up[gaps] += np.maximum(t_a, t_b) - t_c
            lo_a[gaps] += least - t_a
            lo_b[gaps] += least - t_b
            near_slope[gaps] += np.divide(m[j] * dx, r2, out=np.zeros(r2.size), where=r2 > t * t)
        up[~fits] = math.inf
        neg = np.maximum(value_at(ga) - lo_a, value_at(gb) - lo_b) + curv * (gb - ga) ** 2 / 8.0
    # the far-field bound of every value used: at c, and for D at the ends
    far = axis.far_bound(np.concatenate([c, ga, gb]) if t > 0.0 else c)
    far = far.reshape(-1, c.size).max(axis=0)
    # rounding allowance: |L| <= lam for every log in the values used
    mass = float(mult.sum())
    reach = max(float(np.abs(ga).max()), float(np.abs(gb).max()))
    d = np.maximum(np.minimum(np.minimum(c - za, zb - c), beta.min(initial=math.inf)), t)
    with np.errstate(divide="ignore"):
        lam = np.maximum(abs(math.log(max(reach + seq.max_abs, t))), np.abs(np.log(d)))
        tol = (4.0 + count) * 80.0 * _U * (float((mult * np.abs(log_b)).sum()) + 0.5 * kap2 * reach ** 2
                                           + mass * (1.0 + lam + r / d)) + far
    out = np.maximum(vc + up, neg) + tol
    todo = np.flatnonzero(out < target)
    ct, rt = c[todo], r[todo]
    slope = axis.slopes(ct) - kap2 * ct - near_slope[todo]
    upper = vc[todo] + up[todo] + np.abs(slope) * rt + curv * rt ** 2 / 2.0
    out[todo] = np.maximum(upper, neg[todo]) + tol[todo] + rt * axis.slope_bound(ct)
    return out, int(todo.size)


def _augment_grid(real: np.ndarray, xs: np.ndarray, objective,
                  bound) -> tuple[np.ndarray, np.ndarray, dict]:
    """Add the midpoint of every gap between consecutive real zeros (real,
    ascending, each once) inside the grid range, then search gaps by three
    golden-section passes (maximizing `objective`).  Uniform grids miss the
    local maxima that sit strictly inside the gaps.

    The base grid and the midpoints are evaluated first; they give each
    dyadic |x| window's running sup.  A gap is searched only when it reaches
    into an octave that holds no finite value yet, or when its bound (see
    _gap_bounds, less its leading arguments) reaches the running sup of the
    lowest window it touches.  A probe below that sup moves no window's
    running sup and not the extremum, so the judged values keep every result
    of searching all gaps.

    Returns the sorted judged points, the objective's values there, and the
    counts gaps, gaps_searched (real-zero gaps in the grid range, and those
    given golden-section probes) and slope_points (of the bounds).  Every
    point is evaluated once.  The judged points are xs, the midpoints and
    the probes; D's bound reads the gap ends, which check_D puts in xs.  The
    first pass probes two points per gap; since G**2 = 1 - G the point that
    survives a pass is one of the next pass's two, so each later pass probes
    one new point and keeps the survivor's value.  objective must act
    pointwise: a value may not depend on the other points of a call.
    """
    # + 0.0 spells x = 0 one way: a symmetric grid holds both -0.0 and 0.0,
    # and np.unique keeps whichever its sort puts first
    xs = np.unique(np.asarray(xs, dtype=float) + 0.0)
    lo, hi = float(xs[0]), float(xs[-1])
    first = int(np.searchsorted(real, lo, side="left"))
    last = int(np.searchsorted(real, hi, side="right"))
    rz = real[max(first - 1, 0):last + 1]   # the zeros in range and one each side
    ga = np.maximum(rz[:-1], lo)
    gb = np.minimum(rz[1:], hi)
    keep = gb - ga > 1e-9 * (1.0 + np.abs(ga))
    za, zb, ga, gb = rz[:-1][keep], rz[1:][keep], ga[keep], gb[keep]
    mids = 0.5 * (za + zb)
    rest = np.concatenate([xs, mids])
    rest = np.unique(rest[(rest >= lo) & (rest <= hi)])
    seen, seen_values = rest, objective(rest)
    finite = np.isfinite(seen_values)
    js, running = _running_sup_windows(rest[finite], seen_values[finite])

    def values_at(points: np.ndarray) -> np.ndarray:
        """objective at points, evaluating only those not evaluated before"""
        nonlocal seen, seen_values
        at = np.minimum(np.searchsorted(seen, points), seen.size - 1)
        new = np.unique(points[seen[at] != points])
        if new.size:
            seen = np.concatenate([seen, new])
            seen_values = np.concatenate([seen_values, objective(new)])
            order = np.argsort(seen)
            seen, seen_values = seen[order], seen_values[order]
            at = np.searchsorted(seen, points)
        return seen_values[at]

    # the octaves of |x| over the open gap, and whether each holds a window
    inner = np.where((ga < 0.0) & (gb > 0.0), 0.0, np.minimum(np.abs(ga), np.abs(gb)))
    j_lo = _octaves(inner)
    j_hi = _octaves(np.maximum(np.abs(ga), np.abs(gb)))
    k_lo = np.searchsorted(js, j_lo)
    covered = np.flatnonzero(np.searchsorted(js, j_hi, side="right") - k_lo == j_hi - j_lo + 1)
    search = np.ones(ga.size, dtype=bool)
    slope_points = 0
    if covered.size:
        target = running[k_lo[covered]]
        ub, slope_points = bound(za[covered], zb[covered], ga[covered], gb[covered],
                                 np.clip(mids[covered], lo, hi), values_at, target)
        search[covered[ub < target]] = False
    counts = {"gaps": int(ga.size), "gaps_searched": int(search.sum()),
              "slope_points": slope_points}
    ga, gb = ga[search], gb[search]
    x1 = gb - _GOLDEN * (gb - ga)
    x2 = ga + _GOLDEN * (gb - ga)
    f1, f2 = np.split(values_at(np.concatenate([x1, x2])), 2)
    probes = [x1, x2]
    for _ in range(2):
        move_lo = f1 < f2
        ga = np.where(move_lo, x1, ga)
        gb = np.where(move_lo, gb, x2)
        new = np.where(move_lo, ga + _GOLDEN * (gb - ga), gb - _GOLDEN * (gb - ga))
        f_new = values_at(new)
        probes.append(new)
        x1, x2 = np.where(move_lo, x2, new), np.where(move_lo, new, x1)
        f1, f2 = np.where(move_lo, f2, f_new), np.where(move_lo, f_new, f1)
    pts = np.unique(np.concatenate([rest, *probes]))
    return pts, values_at(pts), counts


class _Counted:
    """A criterion's kernel, tallying its calls and the points it evaluated."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.calls = 0
        self.points = 0

    def __call__(self, arr: np.ndarray) -> np.ndarray:
        self.calls += 1
        self.points += arr.size
        return self.kernel(arr)

    def diagnostics(self, seq: ZeroSequence, base_points: int, aug_points: int,
                    axis: _RealAxis | None = None) -> dict:
        """The counts, with axis's cells and terms where the kernel is one."""
        counts = {
            "grid_base_points": int(base_points),
            "grid_aug_points": int(aug_points),
            "kernel_calls": self.calls,
            "kernel_points": self.points,
            "zero_points": len(seq) * self.points,
        }
        return counts | axis.diagnostics() if axis is not None else counts


def _interleave(even: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """even[..., 0], odd[..., 0], even[..., 1], ... along the last axis: a
    sampled grid refined by its midpoints."""
    out = np.empty(even.shape[:-1] + (even.shape[-1] + odd.shape[-1],))
    out[..., ::2] = even
    out[..., 1::2] = odd
    return out


def _octaves(xs: np.ndarray) -> np.ndarray:
    out = np.full(xs.shape, _FLOOR_OCTAVE, dtype=int)
    nz = np.abs(xs) > 0
    out[nz] = np.floor(np.log2(np.abs(xs[nz]))).astype(int)
    return np.maximum(out, _FLOOR_OCTAVE)


def _running_sup_windows(xs: np.ndarray, vals: np.ndarray):
    js = _octaves(xs)
    uniq = np.unique(js)
    window_max = np.array([vals[js == j].max() for j in uniq])
    return uniq, np.maximum.accumulate(window_max)


def _sup_trend_verdict(js: np.ndarray, running: np.ndarray, tolerance: float):
    qual = js >= 1
    if int(qual.sum()) < 3:
        return INCONCLUSIVE, None
    jq = js[qual].astype(float)
    rq = running[qual]
    k = max(3, math.ceil(jq.size / 2))
    slope = float(np.polyfit(jq[-k:], rq[-k:], 1)[0])
    return (VIOLATED if slope > tolerance else SATISFIED), slope


def _rim(seq: ZeroSequence) -> tuple[np.ndarray, np.ndarray]:
    """Moduli (np.hypot) and multiplicities of the stored rim shell [R/2, R);
    empty for a complete sequence.  Positions are stored in ascending hypot
    order, so the shell is a suffix."""
    R = seq.truncation_radius
    pos = seq.positions
    d = np.hypot(pos.real, pos.imag)
    start = int(np.searchsorted(d, R / 2.0)) if R > 0 else d.size
    return d[start:], seq.multiplicities[start:]


def _tail_allowance(seq: ZeroSequence, span: float) -> float:
    """Rim-mass extrapolation estimate of the step-integral error that zeros
    beyond the completeness radius could contribute at |x| <= span."""
    d, m = _rim(seq)
    lam = float((m / d).sum())
    kap = float((m / d ** 2).sum())
    return span * lam + span ** 2 * kap


def _curvature_allowance(seq: ZeroSequence) -> float:
    """Coefficient of the quadratic truncation envelope.

    Cutting a sequence at |a| < R shifts every full-range step integral by
    the missing factors' logs; to second order that is x^2/2 times the tail
    sum of Re(1/a^2).  The unknown tail is estimated by the stored rim shell
    [R/2, R), whose 1/|a|^2 mass matches the tail's for linear-density
    sequences.  Criterion values are judged after subtracting
    0.5 * coefficient * x^2, otherwise every truncated sequence eventually
    looks unbounded on the default span.  Complete sequences need none.
    """
    d, m = _rim(seq)
    return float((m / d ** 2).sum())


def default_base_point(seq: ZeroSequence) -> float:
    """A real point off the zero set (plain 0 unless a zero sits there)."""
    candidates = (0.0, 0.5, 0.25, 0.75, 1.0 / 3.0, 0.2, 0.7, 1.0 / 7.0)
    if not len(seq):
        return candidates[0]
    pos = seq.positions
    dists = [float(np.hypot(pos.real - c, pos.imag).min()) for c in candidates]
    for c, d in zip(candidates, dists):
        if d >= 1e-6:
            return c
    return candidates[int(np.argmax(dists))]


def default_x_max(seq: ZeroSequence) -> float:
    """R/4 keeps every full-range step integral's effective upper limit
    inside the completeness guarantee; complete sequences get a span that
    clears the stored zeros."""
    R = seq.truncation_radius
    if R > 0:
        return R / 4.0
    return max(8.0, 2.0 * seq.max_abs + 4.0)


def _dyadic_edges(x_max: float) -> list[float]:
    """Edges [0, min(1, x_max), 2, 4, ..., x_max] of the dyadic |x| windows."""
    edges = [0.0, min(1.0, x_max)]
    while edges[-1] < x_max:
        edges.append(min(2.0 * edges[-1], x_max))
    return edges


def default_grid(x_max: float, per_octave: int = 24) -> np.ndarray:
    """Symmetric grid with per_octave points in every dyadic |x| window."""
    edges = _dyadic_edges(float(x_max))
    g = np.unique(np.concatenate(
        [np.linspace(lo, hi, per_octave + 1) for lo, hi in zip(edges, edges[1:])]))
    return np.unique(np.concatenate([-g, g]))


# --- criteria ----------------------------------------------------------------

def _sup_check(seq: ZeroSequence, criterion: str, x_grid, b: float, t_lo: float,
               grid_note: str, notes: str, threads: int) -> CriterionReport:
    """The B and D pipeline over h(x) = log_potential(seq, x, b, t_lo) minus
    the quadratic truncation envelope, judged as h when t_lo = 0 (B) and as
    |h| otherwise (D): the grid is augmented, and the running sup of the
    finite values over dyadic |x| windows is judged by its trend.  Values
    and slopes come from one _RealAxis over the grid's range, with cells
    sized by the grid's point count."""
    base = np.unique(np.asarray(x_grid, dtype=float))
    if base.size == 0:
        raise ValueError("x_grid must be nonempty")
    kap2 = _curvature_allowance(seq)
    axis = _RealAxis(seq, b, t_lo, base[0], base[-1], base.size, threads=threads)

    def objective(arr: np.ndarray) -> np.ndarray:
        h = axis.values(arr) - 0.5 * kap2 * arr ** 2
        return np.abs(h) if t_lo > 0.0 else h

    grid = base
    real = axis._re[axis._im == 0.0]
    if t_lo > 0.0:
        # D is finite at the real zeros, and its bounds need the gap ends
        grid = np.concatenate([base, real[(real >= base[0]) & (real <= base[-1])]])
    counted = _Counted(objective)
    bound = functools.partial(_gap_bounds, axis, kap2)
    xs, vals, counts = _augment_grid(real, grid, counted, bound)
    diagnostics = counted.diagnostics(seq, base.size, xs.size, axis) | counts
    desc = (
        f"{base.size}-point grid on [{base.min():g}, {base.max():g}], "
        f"augmented to {xs.size} points{grid_note}; "
        f"values adjusted by the quadratic truncation envelope (coeff {kap2:.3g})"
    )
    finite = np.isfinite(vals)
    if not finite.any():
        return CriterionReport(criterion, INCONCLUSIVE, None, -math.inf,
                               seq.truncation_radius, desc,
                               notes="no finite grid values", diagnostics=diagnostics)
    fx = xs[finite]
    fv = vals[finite]
    top = int(np.argmax(fv))
    js, running = _running_sup_windows(fx, fv)
    verdict, slope = _sup_trend_verdict(js, running, TREND_TOLERANCE)
    return CriterionReport(
        criterion=criterion,
        verdict=verdict,
        witness=float(fx[top]) if verdict != INCONCLUSIVE else None,
        extremum_value=float(fv[top]),
        truncation_radius=seq.truncation_radius,
        grid_description=desc,
        window_x=tuple(float(2.0 ** j) for j in js),
        window_values=tuple(float(v) for v in running),
        trend_slope=slope,
        tail_error_bound=_tail_allowance(seq, float(np.abs(xs).max())),
        notes=notes,
        diagnostics=diagnostics,
    )


def check_B(seq: ZeroSequence, b: float, x_grid, *, threads: int = 1) -> CriterionReport:
    """Real-axis boundedness evidence: sup of phi over the augmented grid,
    with a running-sup trend over dyadic |x| windows."""
    b = float(b)
    return _sup_check(seq, "B", x_grid, b, 0.0, " (zero-gap midpoints + golden refinement)",
                      f"base point b = {b}", threads)


def check_D(seq: ZeroSequence, x_grid, *, threads: int = 1) -> CriterionReport:
    """Translation-compactness evidence: sup of |base-1 integral| over the
    augmented grid (base point fixed at 0; the integration range starts at
    t = 1, so the value is finite at zeros, and the real zeros in the grid
    range join the grid)."""
    if not seq.origin_excluded:
        raise ValueError("base-1 criterion requires 0 not in the zero set")
    return _sup_check(seq, "D", x_grid, 0.0, 1.0, "; base point fixed at 0", "", threads)


def check_C(seq: ZeroSequence, b: float, x_max: float | None = None, grid: int = 32,
            *, threads: int = 1) -> CriterionReport:
    """Weighted positive-part integral evidence: adaptive trapezoid of
    [phi(x)]^+ / (1+x^2) over dyadic windows up to x_max, with a decay-rate
    verdict on the window contributions.  phi comes from one _RealAxis over
    [-x_max, x_max], with cells sized by the base sample count."""
    b = float(b)
    if x_max is None:
        x_max = default_x_max(seq)
    x_max = float(x_max)
    if x_max <= 0:
        raise ValueError(f"x_max must be positive, got {x_max}")
    grid = max(8, int(grid))
    kap2 = _curvature_allowance(seq)

    best_x = 0.0
    best_val = -math.inf
    edges = _dyadic_edges(x_max)
    base_points = 2 * (grid + 1) * (len(edges) - 1)
    axis = _RealAxis(seq, b, 0.0, -x_max, x_max, base_points, threads=threads)
    kernel = _Counted(axis.values)

    def both_sides(xs: np.ndarray) -> np.ndarray:
        return kernel(np.concatenate([xs, -xs])).reshape(2, -1)

    def window_value(lo: float, hi: float) -> tuple[float, int]:
        nonlocal best_x, best_val
        n = grid
        xs = np.linspace(lo, hi, n + 1)
        pot = both_sides(xs)
        prev = None
        while True:
            envelope = 0.5 * kap2 * xs ** 2
            up, um = np.maximum(pot - envelope, 0.0)
            weight = 1.0 + xs ** 2
            val = float(np.trapezoid((up + um) / weight, xs))
            if prev is not None and (abs(val - prev) <= 1e-4 * (1.0 + abs(val)) or n >= grid * 16):
                ip = up / weight
                im = um / weight
                for arr, sign in ((ip, 1.0), (im, -1.0)):
                    k = int(np.argmax(arr))
                    if arr[k] > best_val:
                        best_val = float(arr[k])
                        best_x = float(sign * xs[k])
                return val, n
            prev = val
            n *= 2
            # halving the step is exact, so linspace(lo, hi, 2n + 1)[::2] is
            # linspace(lo, hi, n + 1) bit for bit: only the odd points are new
            odd = np.linspace(lo, hi, n + 1)[1::2]
            xs = _interleave(xs, odd)
            pot = _interleave(pot, both_sides(odd))

    windows = [(lo, hi, *window_value(lo, hi)) for lo, hi in zip(edges, edges[1:])]

    total = math.fsum(w[2] for w in windows)
    qual = [(int(round(math.log2(w[0]))), w[2]) for w in windows if w[0] >= 2.0]
    desc = (
        f"adaptive trapezoid over {len(windows)} dyadic windows to x_max = {x_max:g}, "
        f"base {grid} samples per window, refined until stable; integrand adjusted "
        f"by the quadratic truncation envelope (coeff {kap2:.3g})"
    )

    slope = None
    if qual:
        vals = np.array([v for _, v in qual])
        trailing = vals[vals.size // 2:]
        if float(trailing.sum()) <= NEGLIGIBLE_REL * (1.0 + total):
            verdict = SATISFIED
        elif vals.size < 4:
            verdict = INCONCLUSIVE
        else:
            k = max(4, math.ceil(vals.size / 2))
            js = np.array([j for j, _ in qual], dtype=float)[-k:]
            floor = max(1e-300, NEGLIGIBLE_REL * (1.0 + total))
            slope = float(np.polyfit(js, np.log2(vals[-k:] + floor), 1)[0])
            if slope >= C_VIOLATED_SLOPE:
                verdict = VIOLATED
            elif slope <= C_SATISFIED_SLOPE:
                verdict = SATISFIED
            else:
                verdict = INCONCLUSIVE
    else:
        verdict = SATISFIED if total <= NEGLIGIBLE_REL else INCONCLUSIVE

    return CriterionReport(
        criterion="C",
        verdict=verdict,
        witness=best_x if verdict != INCONCLUSIVE else None,
        extremum_value=total,
        truncation_radius=seq.truncation_radius,
        grid_description=desc,
        window_x=tuple(float(w[0]) for w in windows),
        window_values=tuple(float(w[2]) for w in windows),
        trend_slope=slope,
        tail_error_bound=_tail_allowance(seq, x_max),
        notes=f"base point b = {b}; truncated weighted integral = {total:.6g}",
        diagnostics=kernel.diagnostics(seq, base_points, sum(2 * (w[3] + 1) for w in windows),
                                       axis),
    )


def cartwright_integral(log_modulus_samples) -> float:
    """Trapezoid of max(value, 0)/(1+x^2) over sorted (x, value) samples;
    -inf values (points on zeros) contribute nothing."""
    pairs = list(log_modulus_samples)
    if not pairs:
        return 0.0
    xs = np.array([p[0] for p in pairs], dtype=float)
    vs = np.array([p[1] for p in pairs], dtype=float)
    if np.any(np.diff(xs) < 0):
        raise ValueError("samples must be sorted by x")
    integrand = np.maximum(vs, 0.0) / (1.0 + xs ** 2)
    return float(np.trapezoid(integrand, xs))


def type_bound(seq: ZeroSequence, b: float, y_values, sigma: float) -> CriterionReport:
    """Directional growth estimate along the imaginary axis: per-y values of
    the full-range step integral divided by |y|, compared with sigma on the
    largest-|y| plateau."""
    ys = np.asarray(y_values, dtype=float)
    if ys.size < 2:
        raise ValueError("need at least two y values")
    if np.any(ys == 0.0):
        raise ValueError("y values must be nonzero")
    mags = np.abs(ys)
    if np.any(np.diff(mags) < 0):
        raise ValueError("y magnitudes must be ascending")
    if not (np.any(ys > 0) and np.any(ys < 0)):
        raise ValueError("y values must include both signs")
    b = float(b)
    sigma = float(sigma)
    kernel = _Counted(lambda arr: log_potential(seq, arr, b))
    vals = kernel(1j * ys) / mags
    plateau = mags >= mags[-1] / 2.0
    pv = vals[plateau]
    py = ys[plateau]
    k = int(np.argmax(pv))
    est = float(pv[k])
    witness = float(py[k])
    variation = float(pv.max() - pv.min())
    stable = variation <= TYPE_TOLERANCE * (1.0 + abs(est))
    threshold = sigma + TYPE_TOLERANCE * (1.0 + sigma)
    if stable:
        verdict = VIOLATED if est > threshold else SATISFIED
    else:
        verdict = INCONCLUSIVE
    return CriterionReport(
        criterion="type_sigma",
        verdict=verdict,
        witness=witness if verdict != INCONCLUSIVE else None,
        extremum_value=est,
        truncation_radius=seq.truncation_radius,
        grid_description=f"{ys.size} imaginary-axis samples, plateau |y| >= {mags[-1] / 2:g}",
        window_x=tuple(float(m) for m in mags),
        window_values=tuple(float(v) for v in vals),
        trend_slope=None,
        notes=f"sigma = {sigma}; plateau variation = {variation:.3g}",
        diagnostics=kernel.diagnostics(seq, ys.size, ys.size),
    )


# --- combined classification --------------------------------------------------

_RANK = {SATISFIED: 2, INCONCLUSIVE: 1, VIOLATED: 0}


@dataclass(frozen=True, eq=False)
class ClassifyReport:
    provenance: str
    truncation_radius: float
    base_point: float
    x_max: float
    lindelof: LindelofTrace
    growth: GrowthEstimate
    angular: tuple[tuple[float, AngularDensity], ...]
    reports: dict
    consistency_notes: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "provenance": self.provenance,
            "truncation_radius": self.truncation_radius,
            "base_point": self.base_point,
            "x_max": self.x_max,
            "lindelof": {
                "radii": list(self.lindelof.radii),
                "partial_sums": [[s.real, s.imag] for s in self.lindelof.partial_sums],
                "converged": self.lindelof.converged,
                "final_value": [self.lindelof.final_value.real, self.lindelof.final_value.imag],
                "boundary_ties": self.lindelof.boundary_ties,
            },
            "growth": {
                "linear_ratio_sup": self.growth.linear_ratio_sup,
                "annulus_increment_max_ratio": self.growth.annulus_increment_max_ratio,
                "ratio_trend_slope": self.growth.ratio_trend_slope,
                "increment_trend_slope": self.growth.increment_trend_slope,
                "sample_radii": list(self.growth.sample_radii),
            },
            "angular": [
                {
                    "alpha": a,
                    "right_density": d.right_density,
                    "left_density": d.left_density,
                    "boundary_ties": d.boundary_ties,
                }
                for a, d in self.angular
            ],
            "criteria": {name: rep.to_dict() for name, rep in self.reports.items()},
            "consistency_notes": list(self.consistency_notes),
        }


def _prerequisite_radii(seq: ZeroSequence) -> np.ndarray:
    R = seq.truncation_radius
    hi = R if R > 0 else max(seq.max_abs * (1.0 + 1e-9), 1.0)
    if len(seq):
        smallest = abs(complex(seq.positions[0]))
        lo = min(max(smallest * 1.25, hi * 1e-6), hi / 2.0)
    else:
        lo = hi / 10.0
    return np.geomspace(max(lo, 1e-9), hi, RADII_COUNT)


def _growth_radii(seq: ZeroSequence) -> np.ndarray | None:
    R = seq.truncation_radius
    if R > 0:
        hi = R - 1.0
        if hi <= 0:
            return None  # annulus counts need t + 1 inside the guarantee
    else:
        hi = max(seq.max_abs, 1.0)
    lo = min(max(hi / 8.0, hi * 1e-3), hi / 2.0)
    return np.geomspace(lo, hi, RADII_COUNT)


def classify(seq: ZeroSequence, *, b: float | None = None, x_max: float | None = None,
             grid: int = 24,
             alphas=(math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2),
             sigma: float | None = None, threads: int = 1) -> ClassifyReport:
    """Run the prerequisite estimates and the three class criteria with shared
    grids, then close the verdict set under the inclusion chain D within B
    within C (a satisfied inner verdict cannot coexist with a violated outer
    one; such pairs are numerical artifacts and the inner one is downgraded)."""
    if not seq.origin_excluded:
        raise ValueError(
            "classification requires 0 not in the zero set; shift the origin first"
        )
    if b is None:
        b = default_base_point(seq)
    b = float(b)
    if x_max is None:
        x_max = default_x_max(seq)
    x_max = float(x_max)

    lind = lindelof_sums(seq, _prerequisite_radii(seq))
    growth_radii = _growth_radii(seq)
    if growth_radii is not None:
        growth = growth_check(seq, growth_radii)
    else:
        growth = GrowthEstimate(math.nan, math.nan, ())
    ang_R = seq.truncation_radius if seq.truncation_radius > 0 else max(seq.max_abs * (1 + 1e-9), 1.0)
    angular = tuple((float(a), angular_density(seq, a, ang_R)) for a in alphas)

    xs = default_grid(x_max, grid)
    reports = {
        "C": check_C(seq, b, x_max, grid=grid, threads=threads),
        "B": check_B(seq, b, xs, threads=threads),
        "D": check_D(seq, xs, threads=threads),
    }
    if sigma is not None:
        y_hi = x_max if x_max > 4 else 4.0
        base_mags = np.geomspace(y_hi / 8.0, y_hi, 4)
        ys = [s * m for m in base_mags for s in (1.0, -1.0)]
        reports["type_sigma"] = type_bound(seq, b, ys, sigma)

    notes: list[str] = []
    for inner, outer in (("B", "C"), ("D", "B"), ("D", "C")):
        if reports[inner].verdict == SATISFIED and reports[outer].verdict == VIOLATED:
            reports[inner] = dataclasses.replace(
                reports[inner],
                verdict=INCONCLUSIVE,
                witness=None,
                notes=(reports[inner].notes + "; " if reports[inner].notes else "")
                + f"downgraded: conflicts with {outer} violation (numerical artifact)",
            )
            notes.append(
                f"{inner} evidence said satisfied while {outer} said violated; "
                f"{inner} downgraded to inconclusive"
            )

    return ClassifyReport(
        provenance=seq.provenance,
        truncation_radius=seq.truncation_radius,
        base_point=b,
        x_max=x_max,
        lindelof=lind,
        growth=growth,
        angular=angular,
        reports=reports,
        consistency_notes=tuple(notes),
    )
