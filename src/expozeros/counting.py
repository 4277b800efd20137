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
    "exact_sum",
    "exact_parts",
]

# Zero x point cells per log_potential block: one float64 work array of this
# many cells (2 MiB) stays cache-sized.  Blocks never split a point's zeros.
_BLOCK_CELLS = 1 << 18
# Cells per block of the kernels that make two or more fresh arrays a block
# (the slopes and _RealAxis's node sums): on a 2-core VM the slope kernel ran
# at 3 ns a cell in blocks of this size and at 10 ns in blocks of
# _BLOCK_CELLS.
_SMALL_BLOCK_CELLS = 1 << 16
# log_potential sums each point's terms in floating point over runs of this
# many zeros, then the run sums exactly; the run length enters its error bound.
_RUN = 64
# exact_parts hands arrays of at most this many terms to math.fsum as they
# are: one split level costs a few numpy passes, about what fsum takes over
# 500 floats on a 2-core VM.
_FSUM_CUT = 512
# exact_parts splits only while (n + 4) max|term| stays below this, so sigma
# and every partial sum are far from overflow; above it, or on inf or nan,
# math.fsum gets the terms as they are.
_SPLIT_LIMIT = 2.0 ** 1020
# A split level's high sums are exact for up to about 2**26 terms
# (n (n + 4) u <= 4); exact_parts halves longer arrays first.
_SPLIT_MAX = 1 << 26


class DivergentIntegralError(ValueError):
    """A step integral down to t = 0 hit a zero sitting at one of the centers."""

    def __init__(self, message: str, zero: complex):
        super().__init__(message)
        self.zero = zero


def _split(terms: np.ndarray, big):
    """One error-free split along the last axis (Rump, Ogita & Oishi 2008,
    ExtractVector): with n terms a row, big >= max|term| and sigma the power
    of two above (n + 4) big, each term is high + low, high = (term + sigma)
    - sigma.  The highs are multiples of u sigma whose partial sums stay
    below sigma, so they sum exactly in any order; the lows are exact and
    at most u sigma.  Returns (the highs' sums, the lows)."""
    sigma = np.ldexp(1.0, np.frexp((terms.shape[-1] + 4) * big)[1])
    high = terms + sigma
    high -= sigma
    return high.sum(axis=-1), np.subtract(terms, high, out=high)


def exact_parts(terms: np.ndarray) -> list[float]:
    """A few floats whose exact sum is that of the 1-D float array terms, so
    math.fsum over them, or over the parts of several arrays together, is
    the correctly rounded total of all the terms.

    Each level splits the terms (_split), keeps the exact sum of the highs
    as one part and passes the nonzero lows to the next level; a level
    costs a few numpy passes, and at most _FSUM_CUT lows are left as parts
    themselves.  An array holding inf or nan, or near overflow, comes back
    as it is, so math.fsum gives its inf, nan, ValueError or OverflowError.
    (Parts of several arrays only differ there when a running total of the
    terms overflows while the whole does not.)
    """
    if terms.size > _SPLIT_MAX:
        half = terms.size // 2
        return exact_parts(terms[:half]) + exact_parts(terms[half:])
    parts = []
    while terms.size > _FSUM_CUT:
        big = float(max(terms.max(), -terms.min()))   # nan if a term is nan
        if not (terms.size + 4) * big < _SPLIT_LIMIT:
            break
        high_sum, low = _split(terms, big)
        parts.append(float(high_sum))
        nonzero = low != 0.0
        terms = low if nonzero.all() else low[nonzero]
    return parts + terms.tolist()


def exact_sum(terms) -> float:
    """math.fsum(terms) of a 1-D float array or sequence, bit for bit,
    exceptions included, in a few numpy passes a level of exact_parts where
    fsum converts every term to a Python float."""
    return math.fsum(exact_parts(np.asarray(terms, dtype=float)))


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
    return exact_sum(seq.multiplicities * np.abs(inv.imag))


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
    if t_lo > 0.0 or t_hi < math.inf:   # the clamp to [0, inf] moves no distance
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

    The pairwise log differences are totalled by exact_sum: correctly
    rounded, with the same bits as fsum, in a few numpy passes a split
    level.  That makes the value independent of event order; the
    antisymmetry in (b, x) and reflection symmetries therefore hold
    bit-exactly.  The error bound is the one stated in log_potential.
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
    return exact_sum(seq.multiplicities * (log_x - log_b))


def _blocked(n_points: int, n_zeros: int, threads: int, block,
             cells: int | None = None) -> None:
    """Call block(start, stop) over runs of points holding about cells
    (default _BLOCK_CELLS) zero x point cells each, on
    min(threads, cpu count, blocks) threads."""
    step = max(1, (cells or _BLOCK_CELLS) // n_zeros)
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
    log_b = _center_logs(seq, b, "b", t_lo, t_hi)
    _potential_sums(seq.positions, seq.multiplicities, log_b, flat, t_lo, t_hi, threads, out)
    return out.reshape(pts.shape)


def _potential_sums(pos: np.ndarray, mult: np.ndarray, log_b: np.ndarray, points: np.ndarray,
                    t_lo: float, t_hi: float, threads: int, out: np.ndarray) -> None:
    """out[i] = sum over the zeros of m (log clamp|a - points[i]| - log_b),
    in blocks, each point's terms summed over runs of _RUN zeros and the run
    sums with fsum: the kernel of log_potential and of _RealAxis's near sums.
    pos may be real when every zero is."""
    if not pos.size:
        out[:] = 0.0
        return
    runs = np.arange(0, pos.size, _RUN)
    ones = bool(np.all(mult == 1.0))   # multiplying by 1 changes no value

    def block(start: int, stop: int) -> None:
        cells = pos - points[start:stop, None]
        # distances in place when both are real: a fresh 2 MiB array per
        # operation costs more than the operation
        cells = np.abs(cells, out=cells) if cells.dtype.kind == "f" else np.abs(cells)
        _log_clamp(cells, t_lo, t_hi)
        cells -= log_b
        if not ones:
            cells *= mult
        sums = np.add.reduceat(cells, runs, axis=1)
        out[start:stop] = sums[:, 0] if runs.size == 1 else [math.fsum(r) for r in sums.tolist()]

    _blocked(points.size, pos.size, threads, block)


def _slope_sums(re: np.ndarray, im2: np.ndarray, mult: np.ndarray, xs: np.ndarray,
                t_lo: float, threads: int, out: np.ndarray) -> None:
    """out[i] = sum of m (x - Re a) / |x - a|**2 at x = xs[i] over the zeros
    with |x - a| > t_lo, blocked like _potential_sums: the kernel of
    _log_potential_slope and of _RealAxis's near slopes."""
    if not re.size:
        out[:] = 0.0
        return
    # adding 0 and multiplying by 1 change no value
    real = not im2.any()
    ones = bool(np.all(mult == 1.0))

    def block(start: int, stop: int) -> None:
        dx = xs[start:stop, None] - re
        r2 = dx * dx
        if not real:
            r2 += im2
        np.divide(dx, r2, out=dx)
        if t_lo > 0.0:
            dx[r2 <= t_lo * t_lo] = 0.0
        if not ones:
            dx *= mult
        out[start:stop] = dx.sum(axis=1)

    _blocked(xs.size, re.size, threads, block, _SMALL_BLOCK_CELLS)


def _log_potential_slope(seq: ZeroSequence, xs: np.ndarray, t_lo: float = 0.0, *,
                         threads: int = 1) -> np.ndarray:
    """d/dx of log_potential(seq, x, b, t_lo) at real points x off the zeros:
    the sum of m (x - Re a) / |x - a|**2 over the zeros with |x - a| > t_lo
    (the clamp holds the other terms constant).  Each term is within a few
    ulps (while |x - a|**2 stays a normal float) and the row sum is
    pairwise, so the error is at most
    70 u * sum of m / max(|x - a|, t_lo).  Blocked like log_potential."""
    out = np.zeros(xs.size)
    pos = seq.positions
    _slope_sums(pos.real, pos.imag ** 2, seq.multiplicities, xs, t_lo, threads, out)
    return out


# Nodes per cell of _RealAxis: first-kind Chebyshev points on [-1, 1], the
# barycentric weights of those rounded points, the bound (2/pi) log p + 1
# on their Lebesgue constant, and the matrix taking values at the nodes to
# the interpolant's derivative there (Berrut & Trefethen 2004, sec. 9):
# D_ij = (w_j / w_i) / (x_i - x_j), and D_ii = -(the row's other entries' sum).
_NODES = 20
_CHEB = np.cos((2 * np.arange(_NODES) + 1) * math.pi / (2 * _NODES))
_GAPS = np.where(np.eye(_NODES, dtype=bool), 1.0, _CHEB[:, None] - _CHEB)
_WEIGHTS = 1.0 / np.prod(_GAPS, axis=1)
_LEBESGUE = 2.0 / math.pi * math.log(_NODES) + 1.0
_DIFF = np.where(np.eye(_NODES, dtype=bool), 0.0, _WEIGHTS / _WEIGHTS[:, None] / _GAPS)
_DIFF -= np.diag(_DIFF.sum(axis=1))
_DIFF_NORM = float(np.abs(_DIFF).sum(axis=1).max())
_U = 2.0 ** -53
# Bernstein ellipses tried for a cell's bound: semi-major axis r = q D_min,
# D_min the least distance from the cell's centre to a far zero.  M grows
# like log(1 / (1 - q)) as q nears 1 while rho**(1 - p) keeps falling, so
# the largest q wins on the catalog; the others guard clusters of zeros
# near D_min.
_REACH = 1.0 - 2.0 ** -np.array([2.0, 4.0, 7.0, 12.0])


def _accurate_sums(terms: np.ndarray) -> np.ndarray:
    """Row sums of a 2-D array of finite floats, each within
    u |sum| + 32 n**2 u**2 max|term| for n terms a row: one _split level at
    each row's max|term|, the highs summed exactly and the lows in floating
    point.  A row's sum depends on that row alone."""
    high_sums, low = _split(terms, np.abs(terms).max(axis=1, initial=0.0)[:, None])
    return high_sums + low.sum(axis=1)


def _by_rows(rows: int, cols: int, block) -> np.ndarray:
    """block(slice) over runs of rows of about _SMALL_BLOCK_CELLS cells in
    all, concatenated: a rows x cols array is never made at once."""
    step = max(1, _SMALL_BLOCK_CELLS // max(cols, 1))
    return np.concatenate([block(slice(i, i + step)) for i in range(0, rows, step)])


def _interpolate(values: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The polynomial through values at _CHEB, at the points s in [-1, 1]:
    the first barycentric form prod(s - x_k) * sum of w_j f_j / (s - x_j),
    exact at a node."""
    diff = s[:, None] - _CHEB
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.prod(diff, axis=1) * ((_WEIGHTS * values) / diff).sum(axis=1)
    # a point on a node gives 0 * inf; any other term stays finite
    for row in np.flatnonzero(np.isnan(out)):
        out[row] = values[np.flatnonzero(diff[row] == 0.0)[0]]
    return out


def _truncation_bounds(h: float, dist: np.ndarray, mult: np.ndarray) -> tuple[float, float]:
    """The Chebyshev interpolation bounds of a cell of half-width h for p
    nodes, each the least over the ellipses _REACH: for values
    4 M rho**(1 - p) / (rho - 1) (Trefethen, ATAP, Thm 8.2), and for
    x-slopes 2 M sum over k >= p of rho**-k (k**2 + (p - 1)**2) / h, since
    the coefficients obey |a_k| <= 2 M rho**-k (Thm 8.1), the nodes alias
    T_k to +-T_j with j < p, and |T_k'| <= k**2 on [-1, 1].  M is
    sum of m (-log(1 - r/D) - r/D) over the far zeros at distances D from
    the centre, r the ellipse's semi-major axis."""
    if not dist.size:
        return 0.0, 0.0
    r = float(dist.min()) * _REACH
    rho = r / h + np.sqrt((r / h) ** 2 - 1.0)
    size = _by_rows(r.size, dist.size, lambda rows: (
        mult * (-np.log1p(-r[rows, None] / dist) - r[rows, None] / dist)).sum(axis=1))
    # the slope's sum in closed form, q = 1/rho
    p, q = _NODES, 1.0 / rho
    tail = q ** p * (q * (1.0 + q) / (1.0 - q) ** 3 + 2.0 * p * q / (1.0 - q) ** 2
                     + (p * p + (p - 1) ** 2) / (1.0 - q))
    return (float((4.0 * size * rho ** (1 - _NODES) / (rho - 1.0)).min()),
            float((2.0 * size * tail).min()) / h)


class _RealAxis:
    """log_potential(seq, x, b, t_lo) and _log_potential_slope(seq, x, t_lo)
    at real x in [lo, hi], by a one-level treecode (Dutt, Gu & Rokhlin 1996;
    the barycentric Lagrange treecode of Wang, Tlupova & Krasny 2020).

    [lo, hi] is split into round(sqrt(samples / p)) equal cells, p = 20, with
    samples the caller's base sample count.  For a point x in the cell of
    centre c and half-width h, the zeros with |Re a - c| < 3h + t_lo are
    near: their terms are summed densely, by log_potential's and
    _log_potential_slope's kernels, so a point on a zero gives exactly -inf
    when t_lo = 0.  Every other zero is far: |x - a| >= 2h + t_lo on the
    cell, so the clamp never acts on it.  The far sums are computed once per
    cell, on first use, at the cell's p first-kind Chebyshev nodes, as the
    constant K = sum of m (log|c - a| - L_b) plus the centred sums
    f(x) = sum of m log(|x - a| / |c - a|) (each term by log1p), every node
    sum within u |sum| of its rounded terms.  The chord through the end
    nodes is taken off f, and the rest is interpolated to the cell's
    points; the far slope is the derivative of that interpolant, the chord's
    slope plus the rest's derivative values at the nodes (_DIFF) again
    interpolated, over h.  Each value depends on x alone, on any number of
    threads.

    Error bound, u = 2**-53, L_x = log clamp|a - x|, L_b = log clamp|a - b|
    and Lambda = (2/pi) log p + 1 the nodes' Lebesgue bound: a value is
    within 80 u * sum of m (1 + |L_x| + |L_b|) + E of the exact sum, and a
    slope within 80 u * sum of m / max(|x - a|, t_lo) + E' of the exact
    slope.  The first parts hold the dense kernels' bounds (the near sums,
    K and the final additions); E and E' are the cell's far-field bounds,

        E = 4 M rho**(1 - p) / (rho - 1) + 20 u Lambda F + 5 p u Lambda R.

    The first term is the a-priori Chebyshev bound on the Bernstein ellipse
    E_rho of the cell, whose points lie within r = h (rho + 1/rho) / 2 of c;
    rho is the best of a few ellipses inside every far zero's distance
    D = |c - a|.  Interpolation reproduces lines, so M may bound f less its
    tangent at c: M = sum of m (-log(1 - r/D) - r/D), below the
    sum of m (-log(1 - r/D) + arcsin(r/D)) that bounds f itself.  The second
    term is the node sums' rounding (each term within 13 u, node and point
    positions rounded) times Lambda: F = sum of m (-log(1 - h/D)) bounds
    every node's sum of |terms|.  The third is the barycentric evaluation's
    rounding (Higham 2004, first form), with R the largest node value less
    the chord.  E' is stated from the same M, F and R:

        E' = 2 M sum over k >= p of rho**-k (k**2 + (p - 1)**2) / h
             + u Lambda (23 (p - 1)**2 F + 6 p ||D|| R) / h.

    The first term follows from the same coefficient decay (see
    _truncation_bounds).  The second is the node values' rounding through
    Markov's factor (p - 1)**2 for a polynomial's derivative, and that of
    the product with _DIFF, ||D|| = _DIFF_NORM its largest absolute row
    sum, and of its interpolation.  far_bound and slope_bound return E and
    E' at points; near_points and node_points count the value terms
    evaluated.
    """

    def __init__(self, seq: ZeroSequence, b: float, t_lo: float, lo: float, hi: float,
                 samples: int, *, threads: int = 1):
        self.seq = seq
        self.b = float(b)
        self.threads = int(threads)
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {threads}")
        self.t_lo = float(t_lo)
        _check_range(seq, self.t_lo, math.inf, 0.0)
        lo, hi = float(lo), float(hi)
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            raise ValueError(f"need a finite range lo <= hi, got [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi if hi > lo else lo + max(1.0, abs(lo))
        self.cells = max(1, round(math.sqrt(samples / _NODES)))
        self._edges = np.linspace(self.lo, self.hi, self.cells + 1)
        self._centres = 0.5 * (self._edges[:-1] + self._edges[1:])
        self._halves = 0.5 * (self._edges[1:] - self._edges[:-1])
        pos = seq.positions
        order = np.argsort(pos.real, kind="stable")
        self._re = pos.real[order]
        self._im = pos.imag[order]
        self._im2 = self._im ** 2
        self._mult = seq.multiplicities[order].astype(float)
        self._pos = self._re if not self._im.any() else pos[order]
        self._log_b = _center_logs(seq, complex(self.b), "b", self.t_lo, math.inf)[order]
        reach = 3.0 * self._halves + self.t_lo
        self._near = np.stack([np.searchsorted(self._re, self._centres - reach, side="right"),
                               np.searchsorted(self._re, self._centres + reach, side="left")], 1)
        self._value_fits: dict = {}
        self.near_points = 0
        self.node_points = 0

    def _cells_of(self, xs: np.ndarray) -> np.ndarray:
        if xs.size and not (xs.min() >= self.lo and xs.max() <= self.hi):
            raise ValueError(f"points must lie in [{self.lo}, {self.hi}]")
        return np.clip(np.searchsorted(self._edges, xs, side="right") - 1, 0, self.cells - 1)

    def _value_fit(self, k: int):
        """K, the chord slope, the node values less the chord and their
        derivatives at the nodes, and E and E' of cell k's far sums."""
        fit = self._value_fits.get(k)
        if fit is None:
            i, j = self._near[k]
            re, im, m, log_b = (np.concatenate([v[:i], v[j:]])
                                for v in (self._re, self._im, self._mult, self._log_b))
            h = float(self._halves[k])
            two_dc = 2.0 * (self._centres[k] - re)
            dist = np.hypot(self._centres[k] - re, im)
            d2 = dist * dist
            half_m = 0.5 * m
            s = (h * _CHEB)[:, None]
            nodes = _by_rows(_NODES, re.size, lambda j: _accurate_sums(
                half_m * np.log1p(s[j] * (two_dc + s[j]) / d2)))
            self.node_points += _NODES * re.size
            const = float(_accurate_sums((m * (np.log(dist) - log_b))[None, :])[0])
            slope = (nodes[0] - nodes[-1]) / (_CHEB[0] - _CHEB[-1])
            rest = nodes - slope * _CHEB
            spread = float((m * -np.log1p(-h / dist)).sum())
            top = float(np.abs(rest).max())
            values, slopes = _truncation_bounds(h, dist, m)
            fit = (const, slope, rest, _DIFF @ rest,
                   values + _LEBESGUE * _U * (20.0 * spread + 5.0 * _NODES * top),
                   slopes + _LEBESGUE * _U * ((_NODES - 1) ** 2 * 23.0 * spread
                                              + 6.0 * _NODES * _DIFF_NORM * top) / h)
            self._value_fits[k] = fit
        return fit

    def _by_cell(self, xs, per_cell) -> np.ndarray:
        """per_cell(k, points, s) over the cells holding xs, s the points'
        offsets from the centre in half-widths."""
        xs = np.asarray(xs, dtype=float)
        flat = xs.ravel()
        cell = self._cells_of(flat)
        out = np.empty(flat.size)
        used = np.unique(cell)
        for k in used:
            at = np.flatnonzero(cell == k) if used.size > 1 else slice(None)
            x = flat[at]
            out[at] = per_cell(int(k), x, (x - self._centres[k]) / self._halves[k])
        return out.reshape(xs.shape)

    def values(self, xs) -> np.ndarray:
        """log_potential(seq, x, b, t_lo) at every x of xs."""
        def per_cell(k, x, s):
            i, j = self._near[k]
            near = np.empty(x.size)
            _potential_sums(self._pos[i:j], self._mult[i:j], self._log_b[i:j], x,
                            self.t_lo, math.inf, self.threads, near)
            self.near_points += x.size * int(j - i)
            const, slope, rest = self._value_fit(k)[:3]
            return near + (const + (slope * s + _interpolate(rest, s)))
        return self._by_cell(xs, per_cell)

    def slopes(self, xs) -> np.ndarray:
        """_log_potential_slope(seq, x, t_lo) at every x of xs (off the zeros)."""
        def per_cell(k, x, s):
            i, j = self._near[k]
            near = np.empty(x.size)
            _slope_sums(self._re[i:j], self._im2[i:j], self._mult[i:j], x, self.t_lo,
                        self.threads, near)
            _, slope, _, diff = self._value_fit(k)[:4]
            return near + (slope + _interpolate(diff, s)) / self._halves[k]
        return self._by_cell(xs, per_cell)

    def far_bound(self, xs) -> np.ndarray:
        """E of the cell of every x of xs."""
        return self._by_cell(xs, lambda k, x, s: self._value_fit(k)[4])

    def slope_bound(self, xs) -> np.ndarray:
        """E' of the cell of every x of xs."""
        return self._by_cell(xs, lambda k, x, s: self._value_fit(k)[5])

    def diagnostics(self) -> dict:
        """cells, the value terms summed densely and at nodes (and their
        total, zero_points), and the largest E of the cells used."""
        return {
            "zero_points": self.near_points + self.node_points,
            "cells": self.cells,
            "near_points": self.near_points,
            "node_points": self.node_points,
            "far_error_bound": float(max((fit[4] for fit in self._value_fits.values()), default=0.0)),
        }
