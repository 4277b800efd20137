"""Canonical products accumulated in log space, and their counting-side identities.

A product over millions of factors (1 - z/a) over/underflows long before it
finishes, so values are carried as (log-magnitude, argument).  A factor's
log-modulus is 1/2 log1p(si**2 + sr (sr - 2)) in real arithmetic on
s = z/a, unbiased for the many factors near 1; a factor with
|1 - z/a|**2 < 1/2 or an overflowing square takes log|1 - z/a| by a guard
that also finds exact zeros; evaluate_product states the error bound.
Log-magnitudes and raw argument radians are totalled by counting's
exact_sum: correctly rounded, with the same bits as fsum, in a few numpy
passes a split level; arguments are normalized to (-pi, pi] once at the
end.  Factors that are exactly real contribute their pi's through an
integer counter, so conjugate-symmetric sequences evaluated at real points
come out with argument exactly 0 or pi.
"""

from __future__ import annotations

import bisect
import cmath
import math
from dataclasses import dataclass

import numpy as np

from .counting import (_center_logs, _require_finite, exact_sum, partial_log_potential,
                       step_integral)
from .zero_model import ZeroSequence

__all__ = [
    "LogComplex",
    "ProductEvaluation",
    "TailCorrection",
    "wrap_angle",
    "evaluate_product",
    "log_modulus_via_counting",
    "derivative_at_multiple_zero",
    "circle_average",
    "jensen_counting_side",
    "jensen_identity_check",
    "finite_difference_log_derivative",
    "tail_correction",
]

TAIL_COMPLETE = "complete"
TAIL_TRUNCATED = "truncated"
# Zeros per evaluate_product block: its temporaries stay cache-sized (512 KiB
# per complex array) instead of growing with the sequence.
_PRODUCT_BLOCK = 1 << 15
# At z = a, numpy's complex division gives z / a within 2u + u**2 of 1 in
# its real part and 2u (1 + 2u) in its imaginary part (u = 2**-53), so the
# computed |1 - z/a| is below 3u (and q = |1 - z/a|**2 - 1 is near -1, so
# the cell is the guard's); a zero equal to z lies among the guard's cells
# whose |1 - z/a| is at most this bound.
_NEAR_ONE = 2.0 ** -50
# circle_average sums a zero at least _FAR_RADII radii from the centre at
# _FAR_NODES nodes of its circle: aliasing below 8.5e-22 a unit of
# multiplicity (see there).
_FAR_NODES = 64
_FAR_RADII = 2.0


def wrap_angle(theta: float) -> float:
    """Reduce an angle to (-pi, pi]."""
    r = math.remainder(theta, 2.0 * math.pi)
    return math.pi if r == -math.pi else r


@dataclass(frozen=True)
class LogComplex:
    """A complex value stored as (log|value|, arg value); log_magnitude = -inf
    encodes an exact zero (argument 0 by convention)."""

    log_magnitude: float
    argument: float = 0.0

    def __post_init__(self):
        lm = float(self.log_magnitude)
        arg = 0.0 if lm == -math.inf else wrap_angle(float(self.argument))
        object.__setattr__(self, "log_magnitude", lm)
        object.__setattr__(self, "argument", arg)

    @property
    def is_zero(self) -> bool:
        return self.log_magnitude == -math.inf

    def to_complex(self) -> complex:
        if self.is_zero:
            return 0j
        return cmath.rect(math.exp(self.log_magnitude), self.argument)

    @classmethod
    def from_complex(cls, w: complex) -> "LogComplex":
        w = complex(w)
        if w == 0:
            return cls(-math.inf, 0.0)
        return cls(math.log(abs(w)), cmath.phase(w))


@dataclass(frozen=True)
class ProductEvaluation:
    value: LogComplex
    radius_used: float
    factor_count: int
    tail_flag: str
    # smallest log|1 - z/a| seen; near-zeros show up here instead of being
    # special-cased (exact zeros use exact coordinate equality)
    min_factor_log_magnitude: float = math.inf


def _modulus_run(seq: ZeroSequence, lo: float, hi: float) -> slice:
    """The zeros with lo <= |a| < hi: positions are sorted by |a|
    (np.hypot = Python's abs), so they are a run, found by bisection."""
    def key(i):
        return abs(complex(seq.positions[i]))
    return slice(bisect.bisect_left(range(len(seq)), lo, key=key),
                 bisect.bisect_left(range(len(seq)), hi, key=key))


def _unit_disc_run(seq: ZeroSequence, c: complex) -> slice:
    """A run of zeros holding every zero whose term log min(|a - c|, 1)
    (_center_logs over [0, 1]) is not 0.  That term's rounded distance is
    below 1 only if |a - c| < 1 + 3u, so ||a| - |c|| < 1 + 3u, and |a| and
    |c| (np.hypot) are each within u of their moduli: the margin
    2**-40 (2 + |c|) covers both."""
    mod = abs(c)
    reach = 1.0 + 2.0 ** -40 * (2.0 + mod)
    return _modulus_run(seq, mod - reach, mod + reach)


def evaluate_product(seq: ZeroSequence, z: complex, R: float | None = None) -> ProductEvaluation:
    """Product of (1 - z/a)^multiplicity over |a| < R, in log space.

    Truncation is by ascending |a| with strict |a| < R; that ordering is what
    makes symmetric (conditionally convergent) truncations behave.  |a| is
    np.hypot, the modulus the completeness radius is checked with.  If z is
    exactly a stored position inside R the value is an exact zero.

    Per-zero log and argument terms are filled in blocks of _PRODUCT_BLOCK
    zeros, which bound the temporaries, and each array is totalled by one
    exact_sum: the correctly rounded sum of all its terms (the bits fsum
    gives over them), so the value does not depend on the block size.

    Terms, in real arithmetic on s = z/a.  For a real sequence (all_real)
    sr = zr * fl(1 / Re a) and si = zi * fl(1 / Re a), the parts numpy's
    complex z / a gives for a real a; otherwise the parts of that complex
    quotient.  The log term is L = 1/2 log1p(q), q = si**2 + sr (sr - 2)
    = |1 - s|**2 - 1, where every cell of the block has -1/2 <= q < inf
    (one least and one greatest q decide).  A block with a cell outside
    takes that cell by the guard: w = 1 - z/a, and where |w| <= _NEAR_ONE,
    z is compared with those zeros for an exact zero, and w = (a - z)/a,
    whose rounded difference is nonzero for z != a where 1 - z/a may round
    to 0; then L = log|w|.  The argument term is arctan2(-si, 1 - sr), or
    arctan2(Im w, Re w) in a guard cell: the bits of 1 - z/a's argument.
    min_factor_log_magnitude is the least L.

    Error bound, to first order in u = 2**-53.  The rounded quotient is
    within c u |s| of s, with c = 2 for a real sequence (two roundings a
    part) and c = 10 otherwise (Smith's division, as numpy does it).  The
    computed q is within u (2 si**2 + 3 |sr| |sr - 2|) of |1 - s'|**2 - 1
    for the rounded s', log1p is within one ulp (2u |L|), and 1 + q >= 1/2
    makes |1 - s| >= 1/sqrt 2, so a log1p term is within

        E = u (8 (si**2 + |sr| |sr - 2|) + 2 |L| + 2c |s|)

    of log|1 - z/a|.  A guard cell is within u (c |s| / |1 - s| + 3 + 2 |L|)
    by 1 - z/a, and within u (c + 3 + 2 |L|) by (a - z)/a.  The value is
    within the sum of m (E + u |L|) over the zeros (u |L| for the product
    by m, none when every m is 1), plus u |value| for exact_sum's rounding.
    """
    _require_finite(z=z)
    z = complex(z)
    if not seq.origin_excluded:
        raise ValueError("canonical product requires 0 not in the zero set")
    R0 = seq.truncation_radius
    if R is None:
        R = R0 if R0 > 0 else math.inf
    R = float(R)
    if not R > 0:
        raise ValueError(f"evaluation radius must be positive, got {R}")
    if R0 > 0 and R > R0:
        raise ValueError(f"evaluation radius {R} exceeds completeness radius {R0}")
    n = _modulus_run(seq, 0.0, R).stop
    pos = seq.positions[:n]
    mult = seq.multiplicities[:n]
    count = int(mult.sum())
    # every zero lies inside R exactly when the prefix is the whole sequence
    flag = TAIL_COMPLETE if (R0 == 0.0 and n == len(seq)) else TAIL_TRUNCATED
    if n == 0:
        return ProductEvaluation(LogComplex(0.0, 0.0), R, 0, flag)
    logs = np.empty(n)
    args = np.empty(n)
    if seq.all_real:   # the quotient's parts, reused by every block
        buf_r, buf_i = np.empty((2, min(n, _PRODUCT_BLOCK)))
    pi_count = 0
    least = math.inf
    for start in range(0, n, _PRODUCT_BLOCK):
        block = slice(start, start + _PRODUCT_BLOCK)
        p = pos[block]
        k = p.size
        # log_terms holds q until log1p replaces it; arg_terms holds 1/a (for
        # a real sequence) and si**2 until arctan2 fills it
        log_terms, arg_terms = logs[block], args[block]
        with np.errstate(over="ignore"):   # an overflowing q is the guard's
            if seq.all_real:
                inv = np.divide(1.0, p.real, out=arg_terms)
                sr = np.multiply(inv, z.real, out=buf_r[:k])
                si = np.multiply(inv, z.imag, out=buf_i[:k])
            else:
                s = z / p
                sr, si = s.real, s.imag
            q = np.subtract(sr, 2.0, out=log_terms)
            q *= sr
            q += np.multiply(si, si, out=arg_terms)
        # the guard's cells, found before log1p overwrites q
        in_range = q.min() >= -0.5 and q.max() < math.inf
        guard = None if in_range else ~((q >= -0.5) & (q < math.inf))
        with np.errstate(divide="ignore", invalid="ignore"):
            np.log1p(q, out=log_terms)
        log_terms *= 0.5
        wr = np.subtract(1.0, sr, out=sr)
        wi = np.negative(si, out=si)
        if guard is not None:
            a = p[guard]
            w = 1.0 - z / a
            absw = np.abs(w)
            near = absw <= _NEAR_ONE
            if near.any():
                if np.any(a[near] == z):
                    return ProductEvaluation(LogComplex(-math.inf, 0.0), R, count, flag, -math.inf)
                w[near] = (a[near] - z) / a[near]
                absw[near] = np.abs(w[near])
            with np.errstate(divide="ignore"):
                log_terms[guard] = np.log(absw)
            wr[guard] = w.real
            wi[guard] = w.imag
        least = min(least, float(log_terms.min()))
        np.arctan2(wi, wr, out=arg_terms)
        m = mult[block]
        is_real = wi == 0.0
        if is_real.any():
            arg_terms[is_real] = 0.0  # a real factor's pi goes to pi_count
            pi_count += int(m[is_real & (wr < 0.0)].sum())
        if not seq.all_simple:   # multiplying by 1 changes no value
            log_terms *= m
            arg_terms *= m
    theta = exact_sum(args) + (pi_count & 1) * math.pi
    return ProductEvaluation(
        LogComplex(exact_sum(logs), wrap_angle(theta)), R, count, flag, least)


def log_modulus_via_counting(seq: ZeroSequence, z: complex) -> float:
    """log|product| via the counting side: the full-range step integral of
    [n(0,t) - n(z,t)]/t, i.e. sum of m * (log|a - z| - log|a|).  Returns -inf
    exactly when z is a stored zero position, as step_integral does."""
    if not seq.origin_excluded:
        raise ValueError("counting-side log-modulus requires 0 not in the zero set")
    return step_integral(seq, 0.0, complex(z), 0.0, math.inf)


def jensen_counting_side(seq: ZeroSequence, z: complex) -> float:
    """Counting side of Jensen's formula on the unit circle |w - z| = 1: the
    step integral of [n(0,t) - n(z,t)]/t over [1, inf) plus the integral of
    n(0,t)/t over (0,1], which is the sum of m * -log min(|a|, 1).  Both
    take their logs by the counting kernel's term rule (_center_logs), so
    the total is sum of m * (log max(|a - z|, 1) - log|a|).  The unit-disc
    sum runs over the prefix of zeros _unit_disc_run keeps; every other
    term is 0."""
    if not seq.origin_excluded:
        raise ValueError("Jensen's counting side requires 0 not in the zero set")
    disc = _unit_disc_run(seq, 0j)
    unit_disc = exact_sum(seq.multiplicities[disc] * -_center_logs(seq, 0j, 0.0, 1.0, disc))
    return step_integral(seq, 0.0, complex(z), 1.0, math.inf) + unit_disc


def derivative_at_multiple_zero(seq: ZeroSequence, z0: complex) -> float:
    """log of |l-th derivative / l!| of the product at an l-fold zero z0.

    Two exact event-wise integrals: [n(0,t) - n(z0,t)]/t over [1, inf) plus
    [n(0,t) - n(z0,t) + l]/t over (0, 1]; the l zeros sitting at z0 cancel
    the +l term so the second integrand vanishes near t = 0.  Its logs are
    the counting kernel's (_center_logs) over the run of zeros that
    _unit_disc_run keeps about z0 (every other term is 0), less the l zeros
    at z0, whose terms are -inf.  Total: sum over a != z0 of
    m log|1 - z0/a|, less l log|z0|.
    """
    z0 = complex(z0)
    if not seq.origin_excluded:
        raise ValueError("derivative formula requires 0 not in the zero set")
    disc = _unit_disc_run(seq, z0)   # z0 lies in it when it is a zero
    others = seq.positions[disc] != z0
    if others.all():
        raise ValueError(f"z0 = {z0} is not a zero position of the sequence")
    logs = _center_logs(seq, z0, 0.0, 1.0, disc)
    lower_center = seq.multiplicities[disc][others] * logs[others]
    return jensen_counting_side(seq, z0) + exact_sum(lower_center)


def circle_average(seq: ZeroSequence, z: complex, radius: float, nodes: int = 4096) -> float:
    """Trapezoidal average of log|product| over the circle |w - z| = radius.

    The node count n is rounded up to a power of two; for a periodic
    integrand the trapezoid rule is the plain node average.  If some node
    lands within 1e-9 of a zero all nodes are rotated by half a step (the
    log singularity is integrable; rotation keeps the rule stable).

    Two rates.  A zero at D = |a - z| < 2 radius (np.hypot) is summed at
    all n nodes.  A zero with D >= 2 radius is summed at every
    (n / 64)-th node of the same set, rotation included (at all nodes when
    n <= 64).  Every term is still log|w - a| - log|a| at a node w on the
    circle, by log_potential's term rule (partial_log_potential), so the
    average shares no shortcut with jensen_counting_side.  It is the
    exact_sum of the near zeros' node rows / n and the far zeros' node rows
    / 64 (/ n when n <= 64).

    Aliasing.  With rho = radius / D, log|w - a| = log D - sum over k >= 1
    of rho**k cos(k (t - arg(a - z))) / k, and M equispaced nodes average
    every mode but those with M | k to 0, so the M-node average of one zero
    of multiplicity m differs from its circle mean by at most
    m rho**M / (M (1 - rho**M)).  For a far zero (rho <= 1/2) at M = 64
    that is below 8.5e-22 m, under the rounding of any term; the n-node
    sum of the same zero meets the same bound with M = n.
    """
    z = complex(z)
    radius = float(radius)
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    nodes = int(nodes)
    if nodes < 16:
        raise ValueError(f"need at least 16 quadrature nodes, got {nodes}")
    if not seq.origin_excluded:
        raise ValueError("circle average requires 0 not in the zero set")
    n = 1 << (nodes - 1).bit_length()
    step = 2.0 * math.pi / n
    offset = 0.0
    rel = seq.positions - z
    dist = np.hypot(rel.real, rel.imag)
    on_circle = seq.positions[np.abs(dist - radius) <= 1e-9 + radius * 1e-12]
    shift = step / 2.0
    for _ in range(50):
        collision = False
        for p in on_circle:
            angle = cmath.phase(p - z)
            k = round((angle - offset) / step)
            node = z + radius * cmath.exp(1j * (offset + k * step))
            if abs(p - node) < 1e-9:
                collision = True
                break
        if not collision:
            break
        offset += shift
        shift /= 2.0
    theta = offset + step * np.arange(n)
    points = z + radius * np.exp(1j * theta)
    far = dist >= _FAR_RADII * radius
    stride = max(n // _FAR_NODES, 1)
    return exact_sum(np.concatenate([
        partial_log_potential(seq, points, ~far) / n,
        partial_log_potential(seq, points[::stride], far) / (n // stride),
    ]))


def jensen_identity_check(seq: ZeroSequence, z: complex, nodes: int = 65536) -> float:
    """Residual of Jensen's formula about z: |average of log|product| on the
    circle |w - z| = 1 - jensen_counting_side(seq, z)|."""
    return abs(circle_average(seq, z, 1.0, nodes) - jensen_counting_side(seq, z))


def finite_difference_log_derivative(seq: ZeroSequence, z0: complex,
                                     h: float | None = None) -> float:
    """Diagnostic oracle for derivative_at_multiple_zero that never touches
    the counting side: log of |l-th derivative / l!| at an l-fold zero,
    estimated from product values by an l-th central finite difference with
    one Richardson extrapolation step."""
    z0 = complex(z0)
    match = seq.multiplicities[seq.positions == z0]
    if not match.size:
        raise ValueError(f"z0 = {z0} is not a zero position of the sequence")
    order = int(match[0])
    others = np.abs(seq.positions[seq.positions != z0] - z0)
    sep = float(others.min()) if others.size else 1.0
    if h is None:
        h = 0.02 * min(sep, 1.0 + abs(z0) / 4.0)

    def stencil(step: float) -> complex:
        total = 0j
        for m in range(order + 1):
            point = z0 + (order / 2.0 - m) * step
            total += (-1) ** m * math.comb(order, m) * evaluate_product(seq, point).value.to_complex()
        return total / (math.factorial(order) * step ** order)

    coarse = stencil(h)
    fine = stencil(h / 2.0)
    c = (4.0 * fine - coarse) / 3.0
    return math.log(abs(c)) if c != 0 else -math.inf


@dataclass(frozen=True)
class TailCorrection:
    """First-order log-product correction for stored zeros outside the
    evaluation radius: sum of log(1 - z/a) over R <= |a| is approximately
    -z * sum(1/a), with a second-order bound from sum(1/|a|^2)."""

    log_correction: complex
    second_order_bound: float
    zero_count: int


def tail_correction(seq: ZeroSequence, z: complex, R: float) -> TailCorrection:
    _require_finite(z=z)
    z = complex(z)
    R = float(R)
    if not R > 0:
        raise ValueError(f"R must be positive, got {R}")
    if not seq.origin_excluded:
        raise ValueError("tail correction requires 0 not in the zero set")
    pos = seq.positions
    mult = seq.multiplicities
    d = np.hypot(pos.real, pos.imag)
    tail = d >= R
    count = int(mult[tail].sum())
    if count == 0:
        return TailCorrection(0j, 0.0, 0)
    inv = mult[tail] / pos[tail]
    first = -z * complex(inv.sum())
    ratio = abs(z) / float(d[tail].min())
    inv_sq = float((mult[tail] / d[tail] ** 2).sum())
    if ratio >= 1.0:
        bound = math.inf
    else:
        bound = abs(z) ** 2 * inv_sq / (2.0 * (1.0 - ratio))
    return TailCorrection(first, bound, count)
