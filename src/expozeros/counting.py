"""Counting functions n(c,t), exact step-function integrals, and growth estimates.

n(c,t) counts zeros (with multiplicity) in the closed disc |z - c| <= t.  It
is a nondecreasing right-continuous step function of t, so integrals of
[n(b,t) - n(x,t)]/t reduce to a closed-form log term per zero; no quadrature
is involved anywhere in this module.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .zero_model import ZeroSequence

__all__ = [
    "CountingProfile",
    "GrowthEstimate",
    "LindelofTrace",
    "AngularDensity",
    "DivergentIntegralError",
    "profile",
    "count_disc",
    "count_square",
    "imaginary_inverse_sum",
    "lindelof_sums",
    "growth_check",
    "angular_density",
    "step_integral",
    "log_potential",
]

# Zero x point cells per log_potential block: one float64 work array of this
# many cells (2 MiB) stays cache-sized.  Blocks never split a point's zeros.
_BLOCK_CELLS = 1 << 18
# log_potential sums each point's terms in floating point over runs of this
# many zeros, then the run sums exactly; the run length enters its error bound.
_RUN = 64


class DivergentIntegralError(ValueError):
    """A step integral down to t = 0 hit a zero sitting at one of the centers."""

    def __init__(self, message: str, zero: complex):
        super().__init__(message)
        self.zero = zero


@dataclass(frozen=True, eq=False)
class CountingProfile:
    """Sorted distances (with multiplicities) from a center point."""

    center: complex
    distances: np.ndarray = field(repr=False)   # strictly ascending, merged
    multiplicities: np.ndarray = field(repr=False)
    cumulative: np.ndarray = field(repr=False)
    total: int

    @property
    def events(self) -> list[tuple[float, int]]:
        return [(float(d), int(m)) for d, m in zip(self.distances, self.multiplicities)]

    def count(self, t: float) -> int:
        return count_disc(self, t)


def profile(seq: ZeroSequence, c: complex = 0j) -> CountingProfile:
    """Distance profile of seq about c."""
    c = complex(c)
    rel = seq.positions - c
    uniq, inverse = np.unique(np.hypot(rel.real, rel.imag), return_inverse=True)
    mults = np.zeros(uniq.size, dtype=np.int64)
    np.add.at(mults, inverse, seq.multiplicities.astype(np.int64))
    cumulative = np.cumsum(mults)
    return CountingProfile(
        center=c,
        distances=uniq,
        multiplicities=mults,
        cumulative=cumulative,
        total=int(cumulative[-1]) if cumulative.size else 0,
    )


def count_disc(prof: CountingProfile, t: float) -> int:
    """n(center, t): zeros with distance <= t (closed disc)."""
    t = float(t)
    if t < 0:
        raise ValueError(f"disc radius must be >= 0, got {t}")
    idx = int(np.searchsorted(prof.distances, t, side="right"))
    return int(prof.cumulative[idx - 1]) if idx else 0


def _counts_at(prof: CountingProfile, ts: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(prof.distances, ts, side="right")
    padded = np.concatenate([[0], prof.cumulative])
    return padded[idx]


def count_square(seq: ZeroSequence, c: complex, t: float) -> int:
    """Square-window count: zeros with |Re(a-c)| <= t and |Im(a-c)| <= t."""
    t = float(t)
    if t < 0:
        raise ValueError(f"square half-side must be >= 0, got {t}")
    if not len(seq):
        return 0
    rel = seq.positions - complex(c)
    inside = (np.abs(rel.real) <= t) & (np.abs(rel.imag) <= t)
    return int(seq.multiplicities[inside].sum())


def imaginary_inverse_sum(seq: ZeroSequence) -> float:
    """Sum of multiplicity * |Im(1/a)| over the stored zeros."""
    if not seq.origin_excluded:
        raise ValueError("sum of |Im(1/a)| requires 0 not in the zero set")
    if not len(seq):
        return 0.0
    inv = 1.0 / seq.positions
    return math.fsum(seq.multiplicities * np.abs(inv.imag))


@dataclass(frozen=True)
class LindelofTrace:
    """Partial sums of 1/a over |a| < R at each sampled radius."""

    radii: tuple[float, ...]
    partial_sums: tuple[complex, ...]
    converged: bool
    final_value: complex
    boundary_ties: int = 0


def lindelof_sums(seq: ZeroSequence, radii) -> LindelofTrace:
    """Partial sums with strict |a| < R, accumulated in the stored order
    (ascending |a| = np.hypot); the convergence verdict is an oscillation
    test: max pairwise spread over the last quarter of radii below
    1e-3 * (1 + |final|).  Raw sums are returned so callers can re-judge."""
    rs = np.asarray(radii, dtype=float)
    if rs.size == 0:
        raise ValueError("at least one radius is required")
    if np.any(np.diff(rs) <= 0):
        raise ValueError("radii must be strictly ascending")
    if not seq.origin_excluded:
        raise ValueError("partial sums of 1/a require 0 not in the zero set")
    pos = seq.positions
    dists = np.hypot(pos.real, pos.imag)
    csum = np.concatenate([[0j], np.cumsum(seq.multiplicities / pos)])
    idx = np.searchsorted(dists, rs, side="left")   # strict |a| < R
    partial = csum[idx]
    ties = int(seq.multiplicities[np.isin(dists, rs)].sum()) if dists.size else 0
    final = complex(partial[-1])
    tail = partial[-max(2, math.ceil(rs.size / 4)):]
    spread = float(np.abs(tail[:, None] - tail[None, :]).max()) if tail.size > 1 else 0.0
    converged = spread < 1e-3 * (1.0 + abs(final))
    return LindelofTrace(
        radii=tuple(float(r) for r in rs),
        partial_sums=tuple(complex(s) for s in partial),
        converged=bool(converged),
        final_value=final,
        boundary_ties=ties,
    )


@dataclass(frozen=True)
class GrowthEstimate:
    """Truncation-level evidence for linear counting growth and small annulus
    increments.  Sup/max over a truncation can never certify the limits, so
    trend slopes over the top decade of radii are reported instead of
    booleans."""

    linear_ratio_sup: float
    annulus_increment_max_ratio: float
    sample_radii: tuple[float, ...]
    ratio_trend_slope: float | None = None
    increment_trend_slope: float | None = None


def _decade_slope(radii: np.ndarray, values: np.ndarray) -> float | None:
    top = radii >= radii.max() / 10.0
    if top.sum() < 2:
        return None
    return float(np.polyfit(np.log10(radii[top]), values[top], 1)[0])


def growth_check(seq: ZeroSequence, radii) -> GrowthEstimate:
    """Sampled ratios n(0,t)/t and [n(0,t+1)-n(0,t)]/t with top-decade trends."""
    rs = np.asarray(radii, dtype=float)
    if rs.size == 0:
        raise ValueError("at least one radius is required")
    if np.any(rs <= 0):
        raise ValueError("radii must be positive")
    R = seq.truncation_radius
    if R > 0 and rs.max() > R - 1:
        raise ValueError(
            f"radius {rs.max()} exceeds completeness guarantee {R} - 1 for annulus counts"
        )
    prof = profile(seq, 0j)
    n_t = _counts_at(prof, rs).astype(float)
    n_t1 = _counts_at(prof, rs + 1.0).astype(float)
    ratios = n_t / rs
    increments = (n_t1 - n_t) / rs
    return GrowthEstimate(
        linear_ratio_sup=float(ratios.max()) if rs.size else 0.0,
        annulus_increment_max_ratio=float(increments.max()) if rs.size else 0.0,
        sample_radii=tuple(float(r) for r in rs),
        ratio_trend_slope=_decade_slope(rs, ratios),
        increment_trend_slope=_decade_slope(rs, increments),
    )


@dataclass(frozen=True)
class AngularDensity:
    """Pair of sector densities about the positive and negative real axes.

    Iterating yields exactly the two densities; zeros landing exactly on the
    boundary circle |a| = R are excluded from both counts and reported in
    boundary_ties.
    """

    right_density: float
    left_density: float
    boundary_ties: int = 0

    def __iter__(self):
        return iter((self.right_density, self.left_density))


def angular_density(seq: ZeroSequence, alpha: float, R: float) -> AngularDensity:
    """R^-1 * card{0 < |a| < R, |arg a| <= alpha} and the mirror count about pi."""
    alpha = float(alpha)
    R = float(R)
    if not 0 < alpha <= math.pi / 2:
        raise ValueError(f"alpha must lie in (0, pi/2], got {alpha}")
    if R <= 0:
        raise ValueError(f"R must be positive, got {R}")
    if seq.truncation_radius > 0 and R > seq.truncation_radius:
        raise ValueError(f"R = {R} exceeds completeness radius {seq.truncation_radius}")
    if not len(seq):
        return AngularDensity(0.0, 0.0, 0)
    dists = np.hypot(seq.positions.real, seq.positions.imag)
    inside = (dists > 0) & (dists < R)
    args = np.angle(seq.positions[inside])
    mult = seq.multiplicities[inside]
    right = float(mult[np.abs(args) <= alpha].sum()) / R
    left = float(mult[(math.pi - np.abs(args)) <= alpha].sum()) / R
    ties = int(seq.multiplicities[dists == R].sum())
    return AngularDensity(right, left, ties)


def _check_range(seq: ZeroSequence, t_lo: float, t_hi: float, reach: float) -> None:
    """Validate [t_lo, t_hi]; a finite t_hi must keep every disc of radius
    t_hi about a center of modulus <= reach inside the completeness radius."""
    if t_lo < 0:
        raise ValueError(f"t_lo must be >= 0, got {t_lo}")
    if not t_lo < t_hi:
        raise ValueError(f"need t_lo < t_hi, got [{t_lo}, {t_hi}]")
    R = seq.truncation_radius
    if R > 0 and math.isfinite(t_hi):
        limit = R - reach
        if t_hi > limit:
            raise ValueError(
                f"t_hi = {t_hi} exceeds the completeness guarantee {limit} "
                f"(radius {R} minus the larger center offset)"
            )


def _log_clamp(dist: np.ndarray, t_lo: float, t_hi: float) -> np.ndarray:
    """In place: dist becomes log clamp(dist), clamp(d) = min(max(d, t_lo), t_hi);
    a zero distance with t_lo = 0 gives -inf."""
    np.clip(dist, t_lo, t_hi, out=dist)
    with np.errstate(divide="ignore"):
        return np.log(dist, out=dist)


def _center_logs(seq: ZeroSequence, center: complex, name: str,
                 t_lo: float, t_hi: float) -> np.ndarray:
    """Per-zero log clamp|a - center|; a center on a zero makes the range
    from t = 0 diverge."""
    dist = np.abs(seq.positions - center)
    hit = np.nonzero(dist == 0.0)[0] if t_lo == 0.0 else ()
    if len(hit):
        z = complex(seq.positions[hit[0]])
        raise DivergentIntegralError(
            f"integral from t = 0 diverges: center {name} = {center} "
            f"coincides with the zero at {z}",
            zero=z,
        )
    return _log_clamp(dist, t_lo, t_hi)


def step_integral(seq: ZeroSequence, b: complex, x: complex, t_lo: float, t_hi: float) -> float:
    """Exact value of the integral of [n(b,t) - n(x,t)]/t over [t_lo, t_hi].

    Event-wise closed form: a zero at distances d_b, d_x from the two centers
    contributes multiplicity * (log clamp(d_x) - log clamp(d_b)) with
    clamp(d) = min(max(d, t_lo), t_hi).  Pass t_hi = inf for the effective
    full range (every clamp is then max(d, t_lo); the result is the closed
    form over the stored zeros and the completeness precondition is waived).

    The pairwise log differences are totalled with exact (fsum) summation,
    which makes the value independent of event order; the antisymmetry in
    (b, x) and reflection symmetries therefore hold bit-exactly.  The error
    bound is the one stated in log_potential.
    """
    b = complex(b)
    x = complex(x)
    t_lo = float(t_lo)
    t_hi = float(t_hi)
    _check_range(seq, t_lo, t_hi, max(abs(b), abs(x)))
    if not len(seq):
        return 0.0
    log_b = _center_logs(seq, b, "b", t_lo, t_hi)
    log_x = _center_logs(seq, x, "x", t_lo, t_hi)
    return math.fsum(seq.multiplicities * (log_x - log_b))


def _blocked(n_points: int, n_zeros: int, threads: int, block) -> None:
    """Call block(start, stop) over runs of points holding about _BLOCK_CELLS
    zero x point cells each, on min(threads, cpu count, blocks) threads."""
    step = max(1, _BLOCK_CELLS // n_zeros)
    starts = range(0, n_points, step)
    workers = min(threads, os.cpu_count() or 1, len(starts))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(lambda start: block(start, start + step), starts))
    else:
        for start in starts:
            block(start, start + step)


def log_potential(seq: ZeroSequence, points, b: complex, t_lo: float = 0.0,
                  t_hi: float = math.inf, *, threads: int = 1) -> np.ndarray:
    """step_integral(seq, b, p, t_lo, t_hi) at every point p of an array.

    points may be real or complex, of any shape; the result has that shape.
    A point on a stored zero gives exactly -inf when t_lo = 0, and a base
    point on a zero then raises DivergentIntegralError.

    Each zero's log clamp|a - b| is subtracted cell by cell before the sum
    over zeros, so no two large sums are differenced.  A point's terms are
    summed in floating point over runs of 64 zeros and the run sums with
    fsum.  Error bound, to first order in u = 2**-53, with
    L_p = log clamp|a - p|, L_b = log clamp|a - b| and log and |.| faithful
    to one ulp:

        |log_potential - exact| <= 70 u * sum of m * (1 + |L_p| + |L_b|),

    and step_integral meets the same bound.  The two share every term and
    differ only in the reduction:

        |log_potential - step_integral| <= 64 u * sum of m * |L_p - L_b|
                                           + 2 u * |value|.

    Work runs in blocks of about _BLOCK_CELLS zero x point cells; threads > 1
    spreads the blocks over min(threads, cpu count, blocks) threads and does
    not change any value.
    """
    threads = int(threads)
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    b = complex(b)
    t_lo = float(t_lo)
    t_hi = float(t_hi)
    pts = np.asarray(points)
    flat = pts.ravel()
    reach = max(abs(b), float(np.abs(flat).max())) if flat.size else abs(b)
    _check_range(seq, t_lo, t_hi, reach)
    out = np.zeros(flat.shape)
    if not len(seq) or not flat.size:
        return out.reshape(pts.shape)
    pos = seq.positions
    mult = seq.multiplicities
    log_b = _center_logs(seq, b, "b", t_lo, t_hi)
    runs = np.arange(0, pos.size, _RUN)

    def block(start: int, stop: int) -> None:
        cells = np.abs(pos - flat[start:stop, None])
        _log_clamp(cells, t_lo, t_hi)
        cells -= log_b
        cells *= mult
        sums = np.add.reduceat(cells, runs, axis=1)
        out[start:stop] = sums[:, 0] if runs.size == 1 else [math.fsum(r) for r in sums]

    _blocked(flat.size, pos.size, threads, block)
    return out.reshape(pts.shape)


def _log_potential_slope(seq: ZeroSequence, xs: np.ndarray, t_lo: float = 0.0, *,
                         threads: int = 1) -> np.ndarray:
    """d/dx of log_potential(seq, x, b, t_lo) at real points x off the zeros:
    the sum of m (x - Re a) / |x - a|**2 over the zeros with |x - a| > t_lo
    (the clamp holds the other terms constant).  Each term is within a few
    ulps (while |x - a|**2 stays a normal float) and the row sum is
    pairwise, so the error is at most
    70 u * sum of m / max(|x - a|, t_lo).  Blocked like log_potential."""
    out = np.zeros(xs.size)
    if not len(seq) or not xs.size:
        return out
    re = seq.positions.real
    im2 = seq.positions.imag ** 2
    mult = seq.multiplicities

    def block(start: int, stop: int) -> None:
        dx = xs[start:stop, None] - re
        r2 = dx * dx
        r2 += im2
        np.divide(dx, r2, out=dx)
        if t_lo > 0.0:
            dx[r2 <= t_lo * t_lo] = 0.0
        dx *= mult
        out[start:stop] = dx.sum(axis=1)

    _blocked(xs.size, re.size, threads, block)
    return out
