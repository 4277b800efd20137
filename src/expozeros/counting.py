"""Counting functions n(c,t), exact step-function integrals, and growth estimates.

n(c,t) counts zeros (with multiplicity) in the closed disc |z - c| <= t.  It
is a nondecreasing right-continuous step function of t, so integrals of
[n(b,t) - n(x,t)]/t reduce to a closed-form log term per zero; no quadrature
is involved anywhere in this module.
"""

from __future__ import annotations

import cmath
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
    "shell_index",
    "lindelof_sums",
    "growth_check",
    "angular_density",
    "step_integral",
    "step_terms",
    "log_potential",
    "partial_log_potential",
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
# Off the real axis a log term is 1/2 log(fl(dx**2 + dy**2)) while that
# square lies in [_R2_MIN, inf): there its components' subnormal rounding is
# under 2**-115 relative.  Other cells take log(hypot(dx, dy)).
_R2_MIN = 2.0 ** -960
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
_U = 2.0 ** -53


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
    at most u sigma.  Returns (the highs' sums, the lows, sigma)."""
    sigma = np.ldexp(1.0, np.frexp((terms.shape[-1] + 4) * big)[1])
    high = terms + sigma
    high -= sigma
    return high.sum(axis=-1), np.subtract(terms, high, out=high), sigma


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
        high_sum, low, _ = _split(terms, big)
        parts.append(float(high_sum))
        nonzero = low != 0.0
        terms = low if nonzero.all() else low[nonzero]
    return parts + terms.tolist()


def exact_sum(terms) -> float:
    """math.fsum(terms) of a 1-D float array or sequence, bit for bit,
    exceptions included, in a few numpy passes a level of exact_parts where
    fsum converts every term to a Python float.

    Most totals are certified after one level.  Split the n terms once
    (_split): the highs' sum H is exact, and each of the n lows is exact and
    at most u sigma, u = 2**-53.  numpy sums the lows pairwise, as in
    log_potential, so each passes through at most
    k = 25 + ceil(log2(n / 128)) rounded additions and their sum S is
    within gamma_k n u sigma < 2 k n u**2 sigma = bound of their exact sum
    L.  Let r = fl(H + S) and e its TwoSum residual, so H + S = r + e
    exactly; then the exact total H + L is within |e| + bound of r.  When
    fl(|e| + bound) is below half the smaller gap from r to its neighbouring
    doubles, so is |e| + bound (rounding is monotone and the half gap a
    double), and the total rounds to r with no tie: r is fsum's value.
    bound is exact, an integer times powers of two, while sigma >= 2**-900
    keeps it a normal float.  Otherwise (r is 0 or subnormal, the total lies
    within about |e| + bound of a rounding midpoint, or sigma is smaller)
    the lows go on through exact_parts' levels and fsum totals the parts.
    Arrays that exact_parts does not split go to fsum as it leaves them.
    """
    terms = np.asarray(terms, dtype=float)
    n = terms.size
    if _FSUM_CUT < n <= _SPLIT_MAX:
        big = float(max(terms.max(), -terms.min()))   # nan if a term is nan
        if (n + 4) * big < _SPLIT_LIMIT:
            high_sum, low, sigma = _split(terms, big)
            high_sum, low_sum, sigma = float(high_sum), float(low.sum()), float(sigma)
            r = high_sum + low_sum
            v = r - high_sum
            e = (high_sum - (r - v)) + (low_sum - v)
            bound = 2.0 * (18 + (n - 1).bit_length()) * n * _U * _U * sigma
            gap = min(math.nextafter(r, math.inf) - r, r - math.nextafter(r, -math.inf))
            if sigma >= 2.0 ** -900 and abs(e) + bound < 0.5 * gap:
                return r
            return math.fsum([high_sum] + exact_parts(low[low != 0.0]))
    return math.fsum(exact_parts(terms))


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
    _require_finite(c=c)
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
    if not t >= 0:
        raise ValueError(f"disc radius must be >= 0, got {t}")
    idx = int(np.searchsorted(prof.distances, t, side="right"))
    return int(prof.cumulative[idx - 1]) if idx else 0


def count_square(seq: ZeroSequence, c: complex, t: float) -> int:
    """Square-window count: zeros with |Re(a-c)| <= t and |Im(a-c)| <= t."""
    t = float(t)
    if not t >= 0:
        raise ValueError(f"square half-side must be >= 0, got {t}")
    _require_finite(c=c)
    rel = seq.positions - complex(c)
    inside = (np.abs(rel.real) <= t) & (np.abs(rel.imag) <= t)
    return int(seq.multiplicities[inside].sum())


def imaginary_inverse_sum(seq: ZeroSequence) -> float:
    """Sum of multiplicity * |Im(1/a)| over the stored zeros."""
    if not seq.origin_excluded:
        raise ValueError("sum of |Im(1/a)| requires 0 not in the zero set")
    inv = 1.0 / seq.positions
    return exact_sum(seq.multiplicities * np.abs(inv.imag))


def shell_index(seq: ZeroSequence) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """seq's moduli and dyadic shells 2**j <= |a| < 2**(j + 1), built once,
    as three read-only arrays: the moduli |a| (np.hypot, Python's abs bit
    for bit and the key of the stored order, so they ascend), the j of each
    nonempty shell (ascending), and starts, with shell i the zeros
    positions[starts[i]:starts[i + 1]].  A shell starts wherever the
    exponent j = frexp(|a|)[1] - 1 of a nonzero modulus changes; a stored
    origin lies in no shell, before starts[0]."""
    return seq.derived(_shell_index)


def _shell_index(seq: ZeroSequence) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    moduli = np.hypot(seq.positions.real, seq.positions.imag)
    origin = 0 if seq.origin_excluded else 1
    exps = np.frexp(moduli[origin:])[1] - 1
    runs = np.flatnonzero(np.concatenate(([True], exps[1:] != exps[:-1])))[: exps.size]
    return moduli, exps[runs], np.append(runs + origin, len(seq))


def _even(seq: ZeroSequence) -> bool:
    """Whether seq's zeros are even: the multiset of (a, m) equals that of
    (-a, m), positions compared numerically, so 0.0 and -0.0 match.  Built
    once a sequence."""
    return bool(seq.derived(_even_flag))


def _even_flag(seq: ZeroSequence) -> np.ndarray:
    # -a has |a|'s hypot bit for bit, and merged positions are distinct, so
    # -positions in the stored order equal positions exactly when even
    neg = -seq.positions
    order = np.lexsort((neg.imag, neg.real, shell_index(seq)[0]))
    return np.array(bool(np.array_equal(neg[order], seq.positions)
                         and np.array_equal(seq.multiplicities[order], seq.multiplicities)))


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
    if not np.all(rs > 0):
        raise ValueError("radii must be positive")
    if not np.all(np.diff(rs) > 0):
        raise ValueError("radii must be strictly ascending")
    if not seq.origin_excluded:
        raise ValueError("partial sums of 1/a require 0 not in the zero set")
    mult = seq.multiplicities
    moduli = shell_index(seq)[0]
    csum = np.concatenate([[0j], np.cumsum(mult / seq.positions)])
    idx = np.searchsorted(moduli, rs, side="left")   # strict |a| < R
    partial = csum[idx]
    ties = sum(int(mult[i:j].sum()) for i, j in zip(idx, np.searchsorted(moduli, rs, "right")))
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
    if not np.all(rs > 0):
        raise ValueError("radii must be positive")
    R = seq.truncation_radius
    if R > 0 and rs.max() > R - 1:
        raise ValueError(
            f"radius {rs.max()} exceeds completeness guarantee {R} - 1 for annulus counts"
        )
    # counts[k]: the multiplicity of the k least moduli
    counts = np.concatenate(([0], np.cumsum(seq.multiplicities.astype(np.int64))))
    moduli = shell_index(seq)[0]
    n_t = counts[np.searchsorted(moduli, rs, side="right")].astype(float)
    n_t1 = counts[np.searchsorted(moduli, rs + 1.0, side="right")].astype(float)
    ratios = n_t / rs
    increments = (n_t1 - n_t) / rs
    return GrowthEstimate(
        linear_ratio_sup=float(ratios.max()),
        annulus_increment_max_ratio=float(increments.max()),
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
    if not R > 0:
        raise ValueError(f"R must be positive, got {R}")
    if seq.truncation_radius > 0 and R > seq.truncation_radius:
        raise ValueError(f"R = {R} exceeds completeness radius {seq.truncation_radius}")
    moduli, _, starts = shell_index(seq)
    inside = slice(starts[0], np.searchsorted(moduli, R, side="left"))   # 0 < |a| < R
    edge = slice(inside.stop, np.searchsorted(moduli, R, side="right"))
    args = np.angle(seq.positions[inside])
    mult = seq.multiplicities[inside]
    right = float(mult[np.abs(args) <= alpha].sum()) / R
    left = float(mult[(math.pi - np.abs(args)) <= alpha].sum()) / R
    ties = int(seq.multiplicities[edge].sum())
    return AngularDensity(right, left, ties)


def _require_finite(**args) -> None:
    """Raise ValueError naming the first argument with a NaN or infinite
    entry (real or complex); None (a default still to be chosen) passes.
    NaN fails no < or > test, so unchecked it reaches a sum or a verdict.
    A finite Python float or complex (numpy's float64 is a float) passes
    without an array; any other value is checked as one."""
    for name, value in args.items():
        if value is None:
            continue
        if isinstance(value, (float, complex)) and cmath.isfinite(value):
            continue
        arr = np.asarray(value)
        if arr.dtype.kind not in "fc":
            arr = arr.astype(float)
        bad = np.flatnonzero(~np.isfinite(arr))
        if bad.size:
            where = f" at index {bad[0]}" if arr.ndim else ""
            raise ValueError(f"{name} must be finite, got {arr.flat[bad[0]]}{where}")


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


def _in_square_range(r2):
    """Whether squared distances r2 are at least _R2_MIN and finite."""
    return (r2 >= _R2_MIN) & (r2 < math.inf)


def _doubled_logs(re, im, x, y, t_lo: float, t_hi: float, check: bool = True) -> np.ndarray:
    """The off-axis rule: 2 log clamp|a - p| of every cell, a = re + i im
    and p = x + i y broadcast to the cells, as log clamp2(fl(dx**2 + dy**2))
    with dx = fl(re - x), dy = fl(im - y) and clamp2 clipping to
    [t_lo**2, t_hi**2].  A cell whose fl(dx**2 + dy**2) lies outside
    [_R2_MIN, inf) takes 2 log clamp(hypot(dx, dy)) instead, and so does
    every cell when t_lo**2 or t_hi**2 (where it clips) lies outside that
    range.  check=False promises that no cell's square does (_clear_rows)
    and skips the test of each cell."""
    with np.errstate(over="ignore"):
        dx = re - x
        dy = im - y
        if not all(_in_square_range(t * t) for t in (t_lo, t_hi) if 0.0 < t < math.inf):
            return 2.0 * _log_clamp(np.hypot(dx, dy), t_lo, t_hi)
        r2 = np.multiply(dx, dx, out=dx)
        r2 += dy * dy if np.ndim(dy) == 0 else np.multiply(dy, dy, out=dy)
        hypot = None
        # the least and greatest squares decide for every cell; only a
        # block with one out of range builds the per-cell masks
        if check and r2.size and not (r2.min() >= _R2_MIN and r2.max() < math.inf):
            bad = ~_in_square_range(r2)

            def cells(v):
                return np.broadcast_to(v, r2.shape)[bad]
            hypot = np.hypot(cells(re) - cells(x), cells(im) - cells(y))
    _log_clamp(r2, t_lo * t_lo, t_hi * t_hi)
    if hypot is not None:
        r2[bad] = 2.0 * _log_clamp(hypot, t_lo, t_hi)
    return r2


def _clear_rows(re: np.ndarray, im: np.ndarray | None, x: np.ndarray,
                y: np.ndarray) -> np.ndarray:
    """Which points x + iy have no cell outside _doubled_logs' range,
    proved without a pass over the cells: |a - p| >= ||a| - |p||, so a gap
    above 2**-470 + 2**-48 (|p| + max|a|) between |p| and the nearest zero
    modulus (or |Im p| above 2**-470 when every zero is real, im None)
    keeps each squared distance above 2**-941 after its roundings, and
    |a| + |p| < 2**500 keeps it finite.  Zeros in the stored order (masks
    and slices of a sequence's positions) have ascending moduli already;
    one pass checks that, cheaper than the sort it spares."""
    if not re.size:
        return np.ones(x.size, dtype=bool)
    mods = np.abs(re) if im is None else np.hypot(re, im)
    if not np.all(mods[1:] >= mods[:-1]):
        mods.sort()
    with np.errstate(over="ignore"):
        pm = np.hypot(x, y)
        reach = pm + mods[-1]
        i = np.searchsorted(mods, pm)
        gap = np.minimum(np.abs(pm - mods[np.maximum(i - 1, 0)]),
                         np.abs(mods[np.minimum(i, mods.size - 1)] - pm))
        if im is None:
            gap = np.maximum(gap, np.abs(y))
        return (gap >= 2.0 ** -470 + 2.0 ** -48 * reach) & (reach < 2.0 ** 500)


def _center_logs(seq: ZeroSequence, center: complex, t_lo: float,
                 t_hi: float, part: slice = slice(None)) -> np.ndarray:
    """Per-zero log clamp|a - center| of the zeros seq.positions[part] by the
    one term rule of log_potential's kernel (_potential_sums): log
    |Re a - center| when every zero of the sequence is real (seq.all_real)
    and so is the center, else half of _doubled_logs.  A term depends on its
    zero alone, so a part's terms are the whole sequence's, bit for bit.  A
    zero at the center gets -inf when t_lo = 0."""
    pos = seq.positions[part]
    if seq.all_real:
        if center.imag == 0.0:
            return _log_clamp(np.abs(pos.real - center.real), t_lo, t_hi)
        im = 0.0   # as in _potential_sums: Im a is +-0, so dy = -center.imag
    else:
        im = pos.imag
    logs = _doubled_logs(pos.real, im, center.real, center.imag, t_lo, t_hi)
    logs *= 0.5
    return logs


def _base_logs(seq: ZeroSequence, b: complex, t_lo: float, t_hi: float) -> np.ndarray:
    """_center_logs of the base point b, which may not sit on a zero: from
    t = 0 that integral diverges (DivergentIntegralError, naming the zero).
    The logs of b = 0 over [0, inf) are the sequence's read-only
    _origin_logs, and over [1, inf) (Jensen's counting side) their maximum
    with 0, the same bits: the clamp takes a distance below 1, whose own log
    is negative, to 1, whose log is 0, and leaves every other distance and
    its log alone.  That needs no zero at the origin, whose [0, inf) log
    diverges."""
    if b == 0 and t_hi == math.inf and seq.origin_excluded:
        if t_lo == 0.0:
            return seq.derived(_origin_logs)
        if t_lo == 1.0:
            return np.maximum(seq.derived(_origin_logs), 0.0)
    logs = _center_logs(seq, b, t_lo, t_hi)
    hit = np.flatnonzero(logs == -math.inf) if t_lo == 0.0 else ()
    if len(hit):
        z = complex(seq.positions[hit[0]])
        raise DivergentIntegralError(
            f"integral from t = 0 diverges: base point b = {b} is the zero at {z}", zero=z)
    return logs


def _origin_logs(seq: ZeroSequence) -> np.ndarray:
    """log|a| of every zero of a sequence without a zero at the origin: the
    base logs of b = 0 over [0, inf) that each partial_log_potential call
    (circle averages, the counting side's shell samples) and each step
    integral from b = 0 needs."""
    return _center_logs(seq, 0j, 0.0, math.inf)


def step_integral(seq: ZeroSequence, b: complex, x: complex, t_lo: float, t_hi: float) -> float:
    """Exact value of the integral of [n(b,t) - n(x,t)]/t over [t_lo, t_hi].

    Event-wise closed form: a zero at distances d_b, d_x from the two centers
    contributes multiplicity * (log clamp(d_x) - log clamp(d_b)) with
    clamp(d) = min(max(d, t_lo), t_hi).  Pass t_hi = inf for the effective
    full range (every clamp is then max(d, t_lo); the result is the closed
    form over the stored zeros and the completeness precondition is waived).

    Each log clamp(d) is the term log_potential's kernel uses for the same
    zero and center, by the rule that the sequence's all_real flag and the
    center choose (see there: log|x - a| when both are real, else
    1/2 log(fl(dx**2 + dy**2)), with its guard), so the two share every
    term.  As there, when t_lo = 0 an x on a zero gives exactly -inf, and a
    base point b on a zero raises DivergentIntegralError naming the zero.
    Off the zeros the pairwise log differences are totalled by exact_sum:
    correctly rounded, with the same bits as fsum, mostly after one split
    level.  That makes the value independent of event order; the
    antisymmetry in (b, x) and reflection symmetries therefore hold
    bit-exactly there.  The error bound is the one stated in log_potential.
    """
    _require_finite(b=b, x=x)
    b = complex(b)
    x = complex(x)
    t_lo = float(t_lo)
    t_hi = float(t_hi)
    _check_range(seq, t_lo, t_hi, max(abs(b), abs(x)))
    terms = step_terms(seq, b, x, t_lo, t_hi)
    return -math.inf if terms is None else exact_sum(terms)


def step_terms(seq: ZeroSequence, b: complex, x: complex, t_lo: float, t_hi: float,
               part: slice = slice(None)) -> np.ndarray | None:
    """step_integral's terms m (log clamp|a - x| - log clamp|a - b|) over
    the zeros seq.positions[part], unchecked and unsummed: a part's terms
    are the whole sequence's, bit for bit.  None when t_lo = 0 and x sits
    on one of those zeros (that part's integral is -inf; this spares
    exact_sum the -inf); a base point b on a zero raises
    DivergentIntegralError as in step_integral."""
    log_b = _base_logs(seq, b, t_lo, t_hi)[part]
    terms = _center_logs(seq, x, t_lo, t_hi, part)
    if t_lo == 0.0 and (terms == -math.inf).any():
        return None
    terms -= log_b
    if not seq.all_simple:   # multiplying by 1 changes no value
        terms *= seq.multiplicities[part]
    return terms


def _row_sums(rows: int, cols: int, block: int, sums, threads: int) -> np.ndarray:
    """The row sums of a rows x cols array of terms, never made at once:
    sums(slice) gives those of a run of rows, over runs of about block cells
    each, on min(threads, cpu count, runs) threads; zeros when there are no
    columns.  A row's sum depends on that row alone, so neither block nor
    threads changes a value."""
    if not (rows and cols):
        return np.zeros(rows)
    step = max(1, block // cols)
    runs = [slice(start, start + step) for start in range(0, rows, step)]
    workers = min(threads, os.cpu_count() or 1, len(runs)) if threads > 1 else 1
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return np.concatenate(list(pool.map(sums, runs)))
    return np.concatenate([sums(part) for part in runs])


def log_potential(seq: ZeroSequence, points, b: complex, t_lo: float = 0.0,
                  t_hi: float = math.inf, *, threads: int = 1) -> np.ndarray:
    """step_integral(seq, b, p, t_lo, t_hi) at every point p of an array.

    points may be real or complex, of any shape; the result has that shape.
    A point on a stored zero gives exactly -inf when t_lo = 0, and a base
    point on a zero then raises DivergentIntegralError.

    Terms.  L_p = log clamp|a - p| is taken by one of two rules, chosen by
    the sequence's all_real flag and the point alone, and
    L_b = log clamp|a - b| by the same rules (_center_logs), as in
    step_integral.  On the axis, when every zero (all_real) and p are real,
    L_p is log clamp|fl(a - p)|.  Off the axis it is
    1/2 log clamp2(fl(dx**2 + dy**2)) in real arithmetic, dx and dy the
    rounded differences of the real and imaginary parts and clamp2 the
    clamp on squares.  A cell whose fl(dx**2 + dy**2) lies outside
    [2**-960, inf), and every cell when t_lo**2 or t_hi**2 does, takes
    log clamp(hypot(dx, dy)) instead: below 2**-960 a square may have lost
    bits to subnormal parts, above it their rounding is under 2**-115
    relative.  To first order in u = 2**-53, with a faithful log (within
    2u |log|), each L is within 3u + 2u |L| of its exact value: on the
    axis the difference is within u; off it fl(dx**2 + dy**2) is within 4u
    (2u from dx and dy, 2u from squaring and adding), so its log is within
    4u + 4u |L| and the exact halving leaves 2u + 2u |L|; a guarded cell's
    hypot is within 3u.  With the subtraction and the product, each term
    m (L_p - L_b) is within m (6u + 4u (|L_p| + |L_b|)) of its exact value.

    Each zero's L_b is subtracted cell by cell before the sum over zeros,
    so no two large sums are differenced.  A point's n terms lie along the
    contiguous axis of its block, and numpy sums that axis pairwise: a
    piece of at most 128 terms goes into 8 accumulators of up to 16 terms,
    joined in 3 more additions, and at most 7 leftover terms follow one by
    one; a longer row is halved, at a multiple of 8, until its pieces are
    that short.  So each term passes through at most
    25 + ceil(log2(n / 128)) rounded additions (56 at n = 2**45), and the
    sum is within that many u times the sum of |terms|.  Off the axis a row
    sums m (2 L_p - 2 L_b) and is halved: every term and partial sum is
    exactly twice its counterpart, so the value is the pairwise sum of
    m (L_p - L_b) itself.  Error bound, with the terms above:

        |log_potential - exact| <= 70 u * sum of m * (1 + |L_p| + |L_b|),

    and step_integral meets the same bound.  The two share every term and
    differ only in the reduction, step_integral's being correctly rounded:

        |log_potential - step_integral| <= 64 u * sum of m * |L_p - L_b|
                                           + 2 u * |value|.

    Work runs in blocks of about _BLOCK_CELLS zero x point cells on the
    axis and _SMALL_BLOCK_CELLS off it; threads > 1 spreads the blocks over
    min(threads, cpu count, blocks) threads and does not change any value.
    """
    threads = int(threads)
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    pts = np.asarray(points)
    _require_finite(b=b, points=pts)
    b = complex(b)
    t_lo = float(t_lo)
    t_hi = float(t_hi)
    flat = pts.ravel()
    reach = max(abs(b), float(np.abs(flat).max())) if flat.size else abs(b)
    _check_range(seq, t_lo, t_hi, reach)
    log_b = _base_logs(seq, b, t_lo, t_hi)
    pos = seq.positions
    sums = _potential_sums(np.ascontiguousarray(pos.real),
                           None if seq.all_real else np.ascontiguousarray(pos.imag),
                           None if seq.all_simple else seq.multiplicities, log_b,
                           flat, t_lo, t_hi, threads)
    return sums.reshape(pts.shape)


def partial_log_potential(seq: ZeroSequence, points: np.ndarray,
                          zeros: np.ndarray | slice) -> np.ndarray:
    """log_potential(seq, points, 0.0) over the zeros that zeros (a boolean
    mask or a slice) selects: at each point p of the 1-D array points, the
    pairwise row sum of m (log|a - p| - log|a|) over those zeros alone.
    Each term is log_potential's for the same zero and point, by the rule
    of the whole sequence, so log_potential's bound holds with the sum
    taken over the selected zeros.  A row with no zero is 0."""
    pts = np.asarray(points)
    _require_finite(points=pts)
    log_b = _base_logs(seq, 0j, 0.0, math.inf)[zeros]
    pos = seq.positions[zeros]
    return _potential_sums(np.ascontiguousarray(pos.real),
                           None if seq.all_real else np.ascontiguousarray(pos.imag),
                           None if seq.all_simple else seq.multiplicities[zeros], log_b,
                           pts, 0.0, math.inf, 1)


def _potential_sums(re: np.ndarray, im: np.ndarray | None, mult: np.ndarray | None,
                    log_b: np.ndarray, points: np.ndarray, t_lo: float, t_hi: float,
                    threads: int) -> np.ndarray:
    """The sum over the zeros re + i im of m (log clamp|a - p| - log_b) at
    every p of points, each point's row of terms summed pairwise by
    _row_sums, with log_potential's term rules: on the axis in place, in
    blocks of _BLOCK_CELLS; off it by _doubled_logs, in blocks of
    _SMALL_BLOCK_CELLS, testing cells only in the blocks holding a point
    _clear_rows cannot clear.  im is None when every zero of the sequence is
    real (ZeroSequence.all_real), so a slice of the zeros takes the rule of
    the whole sequence; mult is None when every multiplicity is 1
    (all_simple), and multiplying by 1 would change no value.  The kernel of
    log_potential and of _RealAxis's near sums."""
    real = im is None
    x = np.ascontiguousarray(points.real, dtype=float)
    y = points.imag if points.dtype.kind == "c" else np.zeros(points.size)

    def axis_sums(xs: np.ndarray) -> np.ndarray:
        def sums(rows: slice) -> np.ndarray:
            # distances in place: a fresh 2 MiB array per operation costs
            # more than the operation
            cells = re - xs[rows, None]
            _log_clamp(np.abs(cells, out=cells), t_lo, t_hi)
            cells -= log_b
            if mult is not None:
                cells *= mult
            return cells.sum(axis=1)
        return _row_sums(xs.size, re.size, _BLOCK_CELLS, sums, threads)

    def off_axis_sums(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        clear = _clear_rows(re, im, xs, ys)
        two_log_b = 2.0 * log_b

        def sums(rows: slice) -> np.ndarray:
            cells = _doubled_logs(re, 0.0 if real else im, xs[rows, None], ys[rows, None],
                                  t_lo, t_hi, not clear[rows].all())
            cells -= two_log_b
            if mult is not None:
                cells *= mult
            return cells.sum(axis=1) * 0.5
        return _row_sums(xs.size, re.size, _SMALL_BLOCK_CELLS, sums, threads)

    on_axis = (y == 0.0) if real else np.zeros(points.size, dtype=bool)
    if on_axis.all():
        return axis_sums(x)
    out = np.empty(points.size)
    out[on_axis] = axis_sums(x[on_axis])
    off = ~on_axis
    out[off] = off_axis_sums(x[off], y[off])
    return out


def _slope_sums(re: np.ndarray, im2: np.ndarray | None, mult: np.ndarray | None,
                xs: np.ndarray, t_lo: float, threads: int) -> np.ndarray:
    """The sum of m (x - Re a) / |x - a|**2 over the zeros with
    |x - a| > t_lo at every x of xs, each row summed pairwise (_row_sums in
    blocks of _SMALL_BLOCK_CELLS): the kernel of _log_potential_slope and
    of _RealAxis's near slopes.  im2, the squared imaginary parts, is None
    when every zero of the sequence is real, and mult None when every
    multiplicity is 1: adding 0 and multiplying by 1 change no value."""

    def sums(rows: slice) -> np.ndarray:
        dx = xs[rows, None] - re
        r2 = dx * dx
        if im2 is not None:
            r2 += im2
        np.divide(dx, r2, out=dx)
        if t_lo > 0.0:
            dx[r2 <= t_lo * t_lo] = 0.0
        if mult is not None:
            dx *= mult
        return dx.sum(axis=1)

    return _row_sums(xs.size, re.size, _SMALL_BLOCK_CELLS, sums, threads)


def _log_potential_slope(seq: ZeroSequence, xs: np.ndarray, t_lo: float = 0.0, *,
                         threads: int = 1) -> np.ndarray:
    """d/dx of log_potential(seq, x, b, t_lo) at real points x off the zeros:
    the sum of m (x - Re a) / |x - a|**2 over the zeros with |x - a| > t_lo
    (the clamp holds the other terms constant).  Each term is within a few
    ulps (while |x - a|**2 stays a normal float) and the row sum is
    pairwise, as in log_potential, so the error is at most
    70 u * sum of m / max(|x - a|, t_lo).  Blocked like log_potential."""
    pos = seq.positions
    return _slope_sums(pos.real, None if seq.all_real else pos.imag ** 2,
                       None if seq.all_simple else seq.multiplicities, xs, t_lo, threads)


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
# Bernstein ellipses tried for a cell's bound: semi-major axis r = q D_min,
# D_min the least distance from the cell's centre to a far zero.  M grows
# like log(1 / (1 - q)) as q nears 1 while rho**(1 - p) keeps falling, so
# the largest q wins on the catalog; the others guard clusters of zeros
# near D_min.
_REACH = 1.0 - 2.0 ** -np.array([2.0, 4.0, 7.0, 12.0])
# gap_bounds gives no bound to a gap with more near zeros than this, so its
# near-zero sums cost O(gaps).
_NEAR_MAX = 64


def _accurate_sums(terms: np.ndarray) -> np.ndarray:
    """Row sums of a 2-D array of finite floats, each within
    u |sum| + 32 n**2 u**2 max|term| for n terms a row: one _split level at
    each row's max|term|, the highs summed exactly and the lows in floating
    point.  A row's sum depends on that row alone."""
    high_sums, low, _ = _split(terms, np.abs(terms).max(axis=1, initial=0.0)[:, None])
    return high_sums + low.sum(axis=1)


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
    size = _row_sums(r.size, dist.size, _SMALL_BLOCK_CELLS, lambda rows: (
        mult * (-np.log1p(-r[rows, None] / dist) - r[rows, None] / dist)).sum(axis=1), 1)
    # the slope's sum in closed form, q = 1/rho
    p, q = _NODES, 1.0 / rho
    tail = q ** p * (q * (1.0 + q) / (1.0 - q) ** 3 + 2.0 * p * q / (1.0 - q) ** 2
                     + (p * p + (p - 1) ** 2) / (1.0 - q))
    return (float((4.0 * size * rho ** (1 - _NODES) / (rho - 1.0)).min()),
            float((2.0 * size * tail).min()) / h)


class _FarField:
    """The layout of a _RealAxis and its far field.  Both depend on the
    sequence, the range [lo, hi], the cell count and the near reach alone,
    so _RealAxis.sibling shares one between evaluators of other base points
    and lower limits.

    The zeros are sorted by Re a, stably: positions are merged and stored in
    hypot order, so a real zero comes first among zeros of equal Re.  Cell k
    has centre centres[k] and half-width halves[k].  Its near zeros are
    re[near[k, 0]:near[k, 1]], those with |Re a - c| < reach[k], and every
    other zero is far.  fit(k) builds the cell's far fit on first use and
    keeps it in fits.  fold is whether the zeros are even (_even) and the
    range symmetric, lo == -hi: then every value is even in x and every
    slope odd, and _RealAxis computes at |x| alone."""

    def __init__(self, seq: ZeroSequence, lo: float, hi: float, cells: int, t_lo: float):
        self.lo, self.hi, self.cells = lo, hi, cells
        self.fold = lo == -hi and _even(seq)
        self.edges = np.linspace(lo, hi, cells + 1)
        self.centres = 0.5 * (self.edges[:-1] + self.edges[1:])
        self.halves = 0.5 * (self.edges[1:] - self.edges[:-1])
        pos = seq.positions
        self.order = np.argsort(pos.real, kind="stable")
        self.re = pos.real[self.order]
        self.im = pos.imag[self.order]
        self.im2 = self.im ** 2
        self.mult = seq.multiplicities[self.order].astype(float)
        self.reach = self.near_reach(t_lo)
        self.near = np.stack([np.searchsorted(self.re, self.centres - self.reach, side="right"),
                              np.searchsorted(self.re, self.centres + self.reach, side="left")], 1)
        # each once, ascending: positions are merged
        self.real_zeros = self.re[self.im == 0.0]
        self.fits: dict = {}

    def near_reach(self, t_lo: float) -> np.ndarray:
        """Every cell's near reach for the lower limit t_lo: 3h, or 3h + t_lo
        where 2h < t_lo.  Either way a far zero is at least max(2h, t_lo)
        from every point of the cell, so the clamp never acts on it."""
        return 3.0 * self.halves + np.where(2.0 * self.halves >= t_lo, 0.0, t_lo)

    def cells_of(self, xs: np.ndarray) -> np.ndarray:
        if xs.size and not (xs.min() >= self.lo and xs.max() <= self.hi):
            raise ValueError(f"points must lie in [{self.lo}, {self.hi}]")
        return np.clip(np.searchsorted(self.edges, xs, side="right") - 1, 0, self.cells - 1)

    def fit(self, k: int) -> tuple[tuple, int]:
        """Cell k's far fit: log|c - a| of its far zeros, the chord slope,
        the node values less the chord and their derivatives at the nodes,
        and E and E'; and the node terms this call summed (none when the fit
        was built before)."""
        fit = self.fits.get(k)
        if fit is not None:
            return fit, 0
        i, j = self.near[k]
        re, im, m = (np.concatenate([v[:i], v[j:]]) for v in (self.re, self.im, self.mult))
        h = float(self.halves[k])
        two_dc = 2.0 * (self.centres[k] - re)
        dist = np.hypot(self.centres[k] - re, im)
        d2 = dist * dist
        half_m = 0.5 * m
        s = (h * _CHEB)[:, None]
        nodes = _row_sums(_NODES, re.size, _SMALL_BLOCK_CELLS, lambda rows: (
            _accurate_sums(half_m * np.log1p(s[rows] * (two_dc + s[rows]) / d2))), 1)
        slope = (nodes[0] - nodes[-1]) / (_CHEB[0] - _CHEB[-1])
        rest = nodes - slope * _CHEB
        spread = float((m * -np.log1p(-h / dist)).sum())
        top = float(np.abs(rest).max())
        values, slopes = _truncation_bounds(h, dist, m)
        fit = self.fits[k] = (
            np.log(dist), slope, rest, _DIFF @ rest,
            values + _LEBESGUE * _U * (20.0 * spread + 5.0 * _NODES * top),
            slopes + _LEBESGUE * _U * ((_NODES - 1) ** 2 * 23.0 * spread
                                       + 6.0 * _NODES * _DIFF_NORM * top) / h)
        return fit, _NODES * re.size


class _AxisValues:
    """What a _RealAxis shares with its siblings of the same (b, t_lo): the
    zeros' log clamp|b - a| in the far field's order, K by cell, and every
    value computed so far, by point ascending."""

    def __init__(self, log_b: np.ndarray):
        self.log_b = log_b
        self.consts: dict = {}
        self.points = np.empty(0)
        self.values = np.empty(0)


class _RealAxis:
    """log_potential(seq, x, b, t_lo) and _log_potential_slope(seq, x, t_lo)
    at real x in [lo, hi], by a one-level treecode (Dutt, Gu & Rokhlin 1996;
    the barycentric Lagrange treecode of Wang, Tlupova & Krasny 2020).

    [lo, hi] is split into round(sqrt(samples / p)) equal cells, p = 20, with
    samples the caller's base sample count.  For a point x in the cell of
    centre c and half-width h, the zeros with |Re a - c| < 3h are near, or
    with |Re a - c| < 3h + t_lo where 2h < t_lo.  Near terms are summed
    densely and pairwise, by log_potential's and _log_potential_slope's
    kernels (_potential_sums and _slope_sums), so a point on a zero gives
    exactly -inf when t_lo = 0.  Every other zero is far: |x - a| >= 2h and
    |x - a| >= t_lo on the cell, so the clamp never acts on it.  The far sums
    f(x) = sum of m log(|x - a| / |c - a|) (each term by log1p) are computed
    once per cell, on first use, at the cell's p first-kind Chebyshev nodes,
    every node sum within u |sum| of its rounded terms (_accurate_sums, by
    rows through _row_sums).  The chord through the end nodes is taken off
    f, and the rest is interpolated to the cell's points; the far slope is
    the derivative of that interpolant, the chord's slope plus the rest's
    derivative values at the nodes (_DIFF) again interpolated, over h.  A
    value adds the cell's constant K = sum of m (log|c - a| - L_b) over the
    far zeros.  Each value depends on x alone, on any number of threads.

    None of the layout, the node sums or E and E' below depends on b, and
    the near windows depend on t_lo only where 2h < t_lo.  They live in a
    _FarField, which sibling(b, t_lo) shares with an evaluator of another
    base point or lower limit; K and the near sums are the evaluator's own.
    values computes each point once: siblings of the same (b, t_lo) share
    K and the values computed so far as well.

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
    E' at points, and gap_bounds bounds check_B's and check_D's objectives
    between the real zeros (real_zeros, ascending) from them.  Each
    evaluator counts its own work: kernel_calls and kernel_points the calls
    of values that computed new points and those points, and near_points
    and node_points the value terms it summed (a sibling that finds a
    cell's node sums already built sums none).

    Even zero sets are folded.  When the multiset of (a, m) equals that of
    (-a, m) (_even) and the range is symmetric, lo == -hi, n(x, t) =
    n(-x, t) for every t: the exact value at -x is the one at |x|, and the
    exact slope at -x is minus the one at |x|.  Such an evaluator computes
    at |x| alone: values, slopes, far_bound and slope_bound all go through
    _by_cell, which computes each distinct |x| once a call, in the cell of
    |x|, and values keeps the values computed so far by |x|.  So a point
    gets the same bits alone as in a batch, the value at -x is the value at
    |x| bit for bit, and the slope at -x is minus the slope at |x|.  The
    bound above holds at -x: its first part is the same at x and -x, and
    far_bound and slope_bound give E and E' of the cell of |x|, whose fit
    the value and slope came from.  Zero sets that are not even, and ranges
    that are not symmetric, are computed at x itself.
    """

    def __init__(self, seq: ZeroSequence, b: float, t_lo: float, lo: float, hi: float,
                 samples: int, *, threads: int = 1):
        if int(threads) < 1:
            raise ValueError(f"threads must be >= 1, got {threads}")
        t_lo = float(t_lo)
        _check_range(seq, t_lo, math.inf, 0.0)
        lo, hi = float(lo), float(hi)
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            raise ValueError(f"need a finite range lo <= hi, got [{lo}, {hi}]")
        hi = hi if hi > lo else lo + max(1.0, abs(lo))
        self.seq, self.threads = seq, int(threads)
        far = _FarField(seq, lo, hi, max(1, round(math.sqrt(samples / _NODES))), t_lo)
        self._attach(self, far, float(b), t_lo, None)

    def sibling(self, b: float, t_lo: float) -> "_RealAxis":
        """An evaluator of log_potential(seq, x, b, t_lo) with this one's
        range, cells and threads, and counts of its own.  It shares this
        one's far field when t_lo gives every cell the same near reach, and
        with it K and the values computed so far when (b, t_lo) are this
        one's; it gives the bits of a fresh _RealAxis either way."""
        b, t_lo = float(b), float(t_lo)
        _check_range(self.seq, t_lo, math.inf, 0.0)
        far = self._far
        if not np.array_equal(far.near_reach(t_lo), far.reach):
            far = _FarField(self.seq, far.lo, far.hi, far.cells, t_lo)
        same = far is self._far and (b, t_lo) == (self.b, self.t_lo)
        other = object.__new__(_RealAxis)
        other.seq, other.threads = self.seq, self.threads
        self._attach(other, far, b, t_lo, self._shared if same else None)
        return other

    @staticmethod
    def _attach(axis: "_RealAxis", far: _FarField, b: float, t_lo: float,
                shared: _AxisValues | None) -> None:
        """Give axis the far field far, the values of (b, t_lo) in shared
        (fresh ones when None) and counts of its own."""
        axis.b, axis.t_lo = b, t_lo
        axis._far = far
        axis.lo, axis.hi, axis.cells, axis.real_zeros = far.lo, far.hi, far.cells, far.real_zeros
        if shared is None:
            shared = _AxisValues(_base_logs(axis.seq, complex(b), t_lo, math.inf)[far.order])
        axis._shared = shared
        axis._used = set()
        axis.kernel_calls = 0
        axis.kernel_points = 0
        axis.near_points = 0
        axis.node_points = 0

    def _fit(self, k: int) -> tuple:
        """_FarField.fit's fit of cell k, counting the node terms built here."""
        fit, terms = self._far.fit(k)
        self.node_points += terms
        self._used.add(k)
        return fit

    def _const(self, k: int) -> float:
        """K of cell k: sum of m (log|c - a| - L_b) over its far zeros."""
        consts = self._shared.consts
        if k not in consts:
            log_dist = self._fit(k)[0]
            i, j = self._far.near[k]
            m, log_b = (np.concatenate([v[:i], v[j:]]) for v in (self._far.mult, self._shared.log_b))
            consts[k] = float(_accurate_sums((m * (log_dist - log_b))[None, :])[0])
        return consts[k]

    def _by_cell(self, xs, per_cell, odd: bool = False) -> np.ndarray:
        """per_cell(k, points, s) over the cells holding xs, s the points'
        offsets from the centre in half-widths.  On a folded far field each
        distinct |x| is computed once, in its own cell, and an odd quantity
        takes the sign of x."""
        far = self._far
        xs = np.asarray(xs, dtype=float)
        flat = xs.ravel()
        pts, back = np.unique(np.abs(flat), return_inverse=True) if far.fold else (flat, None)
        cell = far.cells_of(pts)
        out = np.empty(pts.size)
        used = np.unique(cell)
        for k in used:
            at = np.flatnonzero(cell == k) if used.size > 1 else slice(None)
            x = pts[at]
            out[at] = per_cell(int(k), x, (x - far.centres[k]) / far.halves[k])
        if back is not None:
            out = np.sign(flat) * out[back] if odd else out[back]
        return out.reshape(xs.shape)

    def _evaluate(self, xs) -> np.ndarray:
        """log_potential(seq, x, b, t_lo) at every x of xs, computed afresh."""
        far, log_b = self._far, self._shared.log_b

        def per_cell(k, x, s):
            i, j = far.near[k]
            near = _potential_sums(far.re[i:j], None if self.seq.all_real else far.im[i:j],
                                   None if self.seq.all_simple else far.mult[i:j],
                                   log_b[i:j], x, self.t_lo, math.inf, self.threads)
            self.near_points += x.size * int(j - i)
            slope, rest = self._fit(k)[1:3]
            return near + (self._const(k) + (slope * s + _interpolate(rest, s)))
        return self._by_cell(xs, per_cell)

    def values(self, xs) -> np.ndarray:
        """log_potential(seq, x, b, t_lo) at every x of xs, each point
        computed once across the siblings that share this one's values."""
        xs = np.asarray(xs, dtype=float)
        # + 0.0 spells x = 0 one way: -0.0 gives the same value; on a folded
        # far field -x gives the value of |x|
        flat = np.abs(xs.ravel()) if self._far.fold else xs.ravel() + 0.0
        memo = self._shared
        new = np.unique(flat)
        at = np.searchsorted(memo.points, new)
        known = at < memo.points.size
        known[known] = memo.points[at[known]] == new[known]
        if not known.all():
            new, at = new[~known], at[~known]
            got = self._evaluate(new)
            self.kernel_calls += 1
            self.kernel_points += new.size
            memo.points = np.insert(memo.points, at, new)
            memo.values = np.insert(memo.values, at, got)
        return memo.values[np.searchsorted(memo.points, flat)].reshape(xs.shape)

    def slopes(self, xs) -> np.ndarray:
        """_log_potential_slope(seq, x, t_lo) at every x of xs (off the zeros)."""
        far = self._far

        def per_cell(k, x, s):
            i, j = far.near[k]
            near = _slope_sums(far.re[i:j], None if self.seq.all_real else far.im2[i:j],
                               None if self.seq.all_simple else far.mult[i:j], x, self.t_lo,
                               self.threads)
            fit = self._fit(k)
            return near + (fit[1] + _interpolate(fit[3], s)) / far.halves[k]
        return self._by_cell(xs, per_cell, odd=True)

    def far_bound(self, xs) -> np.ndarray:
        """E of the cell of every x of xs."""
        return self._by_cell(xs, lambda k, x, s: self._fit(k)[4])

    def slope_bound(self, xs) -> np.ndarray:
        """E' of the cell of every x of xs."""
        return self._by_cell(xs, lambda k, x, s: self._fit(k)[5])

    def gap_bounds(self, tail, za, zb, ga, gb, c, value_at,
                   target) -> tuple[np.ndarray, int]:
        """Upper bounds, rounding allowance included, of a B or D objective on
        the gaps [ga, gb] between the real zeros za < zb, from the judged values
        value_at(points) and anchors c in the gaps; and the number of slope
        points they cost.

        The objective is h(x) = sum of m (log clamp|x - a| - log clamp|b - a|)
        - tail.envelope(x), clamp(d) = max(d, t_lo), judged as h (B: t_lo = 0)
        or as |h| (D: b = 0, t_lo = 1); the envelope is even, nonnegative,
        increasing in |x| and convex, and tail.slope is its derivative.  On a
        gap holding no real zero in its interior, a zero is near when Re a lies
        within t_lo of the gap and |Im a| < t_lo (its clamp may act there; none
        is near when t_lo = 0).  A near term is a nondecreasing function of
        |x - a|, so it lies between its value at x = clip(Re a, ga, gb) and its
        larger end value.  The far rest S, less the envelope, is smooth on the
        gap and S - curv x^2 / 2 is concave: a real zero's log is concave, the
        envelope convex, and a complex zero's log has curvature at most
        1 / max((Im a)^2, t_lo^2), summed into curv.  With r = max(c - ga, gb - c)
        and w = gb - ga, that gives

            h <= h(c) + sum_near (larger end term - term at c)
                 + |S'(c)| r + curv r^2 / 2,
            -h <= max over the ends e of (-h(e) + sum_near (term at e - least
                  term)) + curv w^2 / 8,

        and the bound of the judged value is the first line for B and the
        larger line for D, each with judged values in place of h, which only
        loosens them.  S'(c) is h'(c) (the derivative of the values, near
        sums and far interpolant alike) less the near terms' slopes.  A gap
        with more than _NEAR_MAX near zeros is given no bound.
        Each bound carries an allowance for rounding: the stated 80 u * (sum m
        (1 + |L_p| + |L_b|) + envelope at the largest gap end) per value, with
        the same form for the slope (times r) and the near sums, taken
        4 + (near zeros) times, plus the far-field bounds E of the values used
        and E' (times r) of the slope.  Where the part without the slope term
        already reaches target, that part is returned and no slope is computed.
        """
        t = self.t_lo
        # by Re a; where hypot tells them apart, a real zero comes before
        # complex zeros of equal Re, since positions are stored in hypot order
        # and the sort is stable
        re, im, mult, log_b = self._far.re, self._far.im, self._far.mult, self._shared.log_b
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
        far = self.far_bound(np.concatenate([c, ga, gb]) if t > 0.0 else c)
        far = far.reshape(-1, c.size).max(axis=0)
        # rounding allowance: |L| <= lam for every log in the values used
        mass = float(mult.sum())
        reach = max(float(np.abs(ga).max()), float(np.abs(gb).max()))
        d = np.maximum(np.minimum(np.minimum(c - za, zb - c), beta.min(initial=math.inf)), t)
        with np.errstate(divide="ignore"):
            lam = np.maximum(abs(math.log(max(reach + self.seq.max_abs, t))), np.abs(np.log(d)))
            tol = (4.0 + count) * 80.0 * _U * (float((mult * np.abs(log_b)).sum())
                                               + tail.envelope(reach)
                                               + mass * (1.0 + lam + r / d)) + far
        out = np.maximum(vc + up, neg) + tol
        todo = np.flatnonzero(out < target)
        ct, rt = c[todo], r[todo]
        slope = self.slopes(ct) - tail.slope(ct) - near_slope[todo]
        upper = vc[todo] + up[todo] + np.abs(slope) * rt + curv * rt ** 2 / 2.0
        out[todo] = np.maximum(upper, neg[todo]) + tol[todo] + rt * self.slope_bound(ct)
        return out, int(todo.size)

    def diagnostics(self) -> dict:
        """This evaluator's own work: the calls of values that computed new
        points and those points, cells, the value terms it summed densely
        and at nodes (and their total, zero_points), and the largest E of
        the cells it used."""
        return {
            "kernel_calls": self.kernel_calls,
            "kernel_points": self.kernel_points,
            "zero_points": self.near_points + self.node_points,
            "cells": self.cells,
            "near_points": self.near_points,
            "node_points": self.node_points,
            "far_error_bound": float(max((self._far.fits[k][4] for k in self._used), default=0.0)),
        }
