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
import math
from dataclasses import dataclass

import numpy as np

from .counting import (
    AngularDensity,
    GrowthEstimate,
    LindelofTrace,
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

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_FLOOR_OCTAVE = -60


@dataclass(frozen=True)
class CriterionReport:
    """Per-criterion verdict with the numeric evidence behind it.

    window_x / window_values hold the raw dyadic-window data (or per-|y|
    values for the type check) for re-analysis; tail_error_bound is a
    rim-mass extrapolation estimate of what zeros beyond the completeness
    radius could contribute at the far end of the grid.  diagnostics counts
    the work done: grid_base_points and grid_aug_points (the grid before and
    after refinement), kernel_calls and kernel_points (log_potential calls
    and the points they evaluated), and zero_points (zeros x kernel_points).
    It holds counts only, so a report is the same on every run.
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

def _augment_grid(seq: ZeroSequence, xs: np.ndarray, objective) -> tuple[np.ndarray, np.ndarray]:
    """Add midpoints of consecutive real zeros inside the grid range, then
    three golden-section refinement passes per gap (maximizing `objective`).
    Uniform grids miss the local maxima that sit strictly inside the gaps.

    Returns the sorted points and the objective's values there, each point
    evaluated once.  The first pass probes two points per gap; since
    G**2 = 1 - G the point that survives a pass is one of the next pass's
    two, so each later pass probes one new point and keeps the survivor's
    value.  Base points and midpoints not probed share one call.  objective
    must act pointwise: a value may not depend on the other points of a call.
    """
    # + 0.0 spells x = 0 one way: a symmetric grid holds both -0.0 and 0.0,
    # and np.unique keeps whichever its sort puts first
    xs = np.unique(np.asarray(xs, dtype=float) + 0.0)
    if not len(seq):
        return xs, objective(xs)
    lo, hi = float(xs.min()), float(xs.max())
    pos = seq.positions
    real = np.unique(pos.real[pos.imag == 0.0])
    if real.size == 0:
        return xs, objective(xs)
    inside = real[(real >= lo) & (real <= hi)]
    pieces = [inside]
    below = real[real < lo]
    above = real[real > hi]
    if below.size:
        pieces.append(below[-1:])
    if above.size:
        pieces.append(above[:1])
    rz = np.unique(np.concatenate(pieces))
    if rz.size < 2:
        return xs, objective(xs)
    ga = np.maximum(rz[:-1], lo)
    gb = np.minimum(rz[1:], hi)
    keep = gb - ga > 1e-9 * (1.0 + np.abs(ga))
    ga, gb = ga[keep], gb[keep]
    if ga.size == 0:
        return xs, objective(xs)
    x1 = gb - _GOLDEN * (gb - ga)
    x2 = ga + _GOLDEN * (gb - ga)
    f1, f2 = np.split(objective(np.concatenate([x1, x2])), 2)
    probes, values = [x1, x2], [f1, f2]
    for _ in range(2):
        move_lo = f1 < f2
        ga = np.where(move_lo, x1, ga)
        gb = np.where(move_lo, gb, x2)
        new = np.where(move_lo, ga + _GOLDEN * (gb - ga), gb - _GOLDEN * (gb - ga))
        f_new = objective(new)
        probes.append(new)
        values.append(f_new)
        x1, x2 = np.where(move_lo, x2, new), np.where(move_lo, new, x1)
        f1, f2 = np.where(move_lo, f2, f_new), np.where(move_lo, f_new, f1)
    probes = np.concatenate(probes)
    rest = np.concatenate([xs, 0.5 * (rz[:-1] + rz[1:])[keep]])
    rest = np.setdiff1d(rest[(rest >= lo) & (rest <= hi)], probes)
    pts, first = np.unique(np.concatenate([probes, rest]), return_index=True)
    return pts, np.concatenate(values + [objective(rest)])[first]


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

    def diagnostics(self, seq: ZeroSequence, base_points: int, aug_points: int) -> dict:
        return {
            "grid_base_points": int(base_points),
            "grid_aug_points": int(aug_points),
            "kernel_calls": self.calls,
            "kernel_points": self.points,
            "zero_points": len(seq) * self.points,
        }


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

def _sup_check(seq: ZeroSequence, criterion: str, x_grid, objective, grid_note: str,
               notes: str, trend_tolerance: float) -> CriterionReport:
    """The B and D pipeline.  objective(arr, envelope) gives the judged values
    at the points arr, where envelope is the quadratic truncation envelope;
    the grid is augmented, and the running sup of the finite values over
    dyadic |x| windows is judged by its trend."""
    base = np.unique(np.asarray(x_grid, dtype=float))
    if base.size == 0:
        raise ValueError("x_grid must be nonempty")
    kap2 = _curvature_allowance(seq)
    counted = _Counted(lambda arr: objective(arr, 0.5 * kap2 * arr ** 2))
    xs, vals = _augment_grid(seq, base, counted)
    diagnostics = counted.diagnostics(seq, base.size, xs.size)
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
    verdict, slope = _sup_trend_verdict(js, running, trend_tolerance)
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


def check_B(seq: ZeroSequence, b: float, x_grid, *, threads: int = 1,
            trend_tolerance: float = TREND_TOLERANCE) -> CriterionReport:
    """Real-axis boundedness evidence: sup of phi over the augmented grid,
    with a running-sup trend over dyadic |x| windows."""
    b = float(b)
    return _sup_check(
        seq, "B", x_grid,
        lambda arr, envelope: log_potential(seq, arr, b, threads=threads) - envelope,
        " (zero-gap midpoints + golden refinement)", f"base point b = {b}", trend_tolerance)


def check_D(seq: ZeroSequence, x_grid, *, threads: int = 1,
            trend_tolerance: float = TREND_TOLERANCE) -> CriterionReport:
    """Translation-compactness evidence: sup of |base-1 integral| over the
    augmented grid (base point fixed at 0; the integration range starts at
    t = 1, so grid points may coincide with zeros)."""
    if not seq.origin_excluded:
        raise ValueError("base-1 criterion requires 0 not in the zero set")
    return _sup_check(
        seq, "D", x_grid,
        lambda arr, envelope: np.abs(log_potential(seq, arr, 0.0, 1.0, threads=threads) - envelope),
        "; base point fixed at 0", "", trend_tolerance)


def check_C(seq: ZeroSequence, b: float, x_max: float | None = None, grid: int = 32,
            *, threads: int = 1) -> CriterionReport:
    """Weighted positive-part integral evidence: adaptive trapezoid of
    [phi(x)]^+ / (1+x^2) over dyadic windows up to x_max, with a decay-rate
    verdict on the window contributions."""
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
    kernel = _Counted(lambda arr: log_potential(seq, arr, b, threads=threads))

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

    edges = _dyadic_edges(x_max)
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
        diagnostics=kernel.diagnostics(seq, 2 * (grid + 1) * len(windows),
                                       sum(2 * (w[3] + 1) for w in windows)),
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


def type_bound(seq: ZeroSequence, b: float, y_values, sigma: float, *,
               rel_tolerance: float = 0.05) -> CriterionReport:
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
    stable = variation <= rel_tolerance * (1.0 + abs(est))
    threshold = sigma + rel_tolerance * (1.0 + sigma)
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


def _prerequisite_radii(seq: ZeroSequence, count: int) -> np.ndarray:
    R = seq.truncation_radius
    hi = R if R > 0 else max(seq.max_abs * (1.0 + 1e-9), 1.0)
    if len(seq):
        smallest = abs(complex(seq.positions[0]))
        lo = min(max(smallest * 1.25, hi * 1e-6), hi / 2.0)
    else:
        lo = hi / 10.0
    return np.geomspace(max(lo, 1e-9), hi, count)


def _growth_radii(seq: ZeroSequence, count: int) -> np.ndarray | None:
    R = seq.truncation_radius
    if R > 0:
        hi = R - 1.0
        if hi <= 0:
            return None  # annulus counts need t + 1 inside the guarantee
    else:
        hi = max(seq.max_abs, 1.0)
    lo = min(max(hi / 8.0, hi * 1e-3), hi / 2.0)
    return np.geomspace(lo, hi, count)


def classify(seq: ZeroSequence, *, b: float | None = None, x_max: float | None = None,
             grid: int = 24, radii_count: int = 48,
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

    lind = lindelof_sums(seq, _prerequisite_radii(seq, radii_count))
    growth_radii = _growth_radii(seq, radii_count)
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
