"""Canonical products accumulated in log space, and their counting-side identities.

A product over millions of factors (1 - z/a) over/underflows long before it
finishes, so values are carried as (log-magnitude, argument).  A factor's
log-modulus is 1/2 log1p(si**2 + sr (sr - 2)) in real arithmetic on
s = z/a, unbiased for the many factors near 1; a factor with
|1 - z/a|**2 < 1/2 or an overflowing square takes log|1 - z/a| by a guard
that also finds exact zeros; evaluate_product states the error bound.
Those are the dense factors: the zeros below A, the least power of two at
or above 16 |z|, and those of a dyadic shell that the radius cuts.  The
zeros of the whole shells 2**j <= |a| < 2**(j + 1) beyond A are far: each
shell adds 14 terms of log(1 - z/a)'s series, -(z / 2**j)**k q[j, k] / k,
from a table of shell power sums built once a sequence (the far-field step
of the fast multipole method, Greengard & Rokhlin 1987).  Log-magnitudes
and raw argument radians, dense terms and series terms together, are
totalled by counting's exact_sum: correctly rounded, with the same bits as
fsum, in a few numpy passes a split level; arguments are normalized to
(-pi, pi] once at the end.  Dense factors that are exactly real contribute
their pi's through an integer counter, and a conjugate-symmetric shell's
power sums are exactly real, so conjugate-symmetric sequences evaluated at
real points come out with argument exactly 0 or pi.  At the default radius every stored zero is
inside, so a call costs the terms it sums, not the sequence's length.

The counting side, log_modulus_via_counting, takes the zeros below 2**J,
the least power of two at or above 32 |z|, by the counting kernel's terms,
and each whole dyadic shell beyond by a local expansion of its potential:
15 Fourier coefficients of the potential sampled by the same kernel at 32
nodes a shell, in a second table built once a sequence.  It shares no
split, term or sum with the product's power sums, so the identity check
compares two independent computations.  The table costs 32 kernel terms a
far zero (17 on a real sequence, whose samples mirror), about as much as
15 (8) dense calls, so it pays only on sequences evaluated at many points.

circle_average sums each zero at a node count graded by its distance from
the centre, 64 nodes at two radii down to one node at 2**64 radii, so its
aliasing stays below 2**-64 a unit of multiplicity.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .counting import (_center_logs, _require_finite, exact_sum, partial_log_potential,
                       shell_index, step_integral, step_terms)
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
    "circle_average_terms",
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
# evaluate_product sums a zero with |a| >= A, A the least power of two at or
# above 2**_FAR_SHIFT |z|, by _SERIES_TERMS terms of log(1 - z/a)'s series
# when its dyadic shell lies whole inside R (see there).
_FAR_SHIFT = 4
_SERIES_TERMS = 14
_SERIES_K = np.arange(1, _SERIES_TERMS + 1)
_SERIES_NEG_K = -_SERIES_K.astype(float)
# At z = a, numpy's complex division gives z / a within 2u + u**2 of 1 in
# its real part and 2u (1 + 2u) in its imaginary part (u = 2**-53), so the
# computed |1 - z/a| is below 3u (and q = |1 - z/a|**2 - 1 is near -1, so
# the cell is the guard's); a zero equal to z lies among the guard's cells
# whose |1 - z/a| is at most this bound.
_NEAR_ONE = 2.0 ** -50
# circle_average sums a zero with D / radius >= 2**_RATE_EXPONENTS[i], D its
# distance from the centre, at _RATE_NODES[i] nodes of its circle (at most
# the circle's own): aliasing below 2**-64 / M a unit of multiplicity at
# M nodes (see there).
_RATE_EXPONENTS = 1 << np.arange(7)
_RATE_NODES = 64 >> np.arange(7)
# log_modulus_via_counting sums a zero with |a| >= 2**J, 2**J the least power
# of two at or above 2**_COUNT_SHIFT |z|, by its dyadic shell's local
# expansion: the shell's potential sampled at _COUNT_NODES equispaced nodes
# of |w| = 2**(j - _COUNT_SHIFT), of whose Fourier coefficients
# k = 1 .. _COUNT_NODES/2 - 1 are kept (see there).  Shells below
# 2**_COUNT_MIN_EXP, whose circles near the subnormals, are never sampled.
_COUNT_SHIFT = 5
_COUNT_NODES = 32
_COUNT_MIN_EXP = -1000
# The nodes' roots of unity exp(2 pi i n / M), node M - n the exact
# conjugate of node n, so a real sequence's samples at n > M/2 are those at
# M - n, bit for bit.
_COUNT_UNIT = np.exp(2j * np.pi * np.arange(_COUNT_NODES // 2 + 1) / _COUNT_NODES)
_COUNT_UNIT = np.concatenate((_COUNT_UNIT, np.conj(_COUNT_UNIT[-2:0:-1])))
# (2/M) conj(w**(n k)), w = exp(2 pi i / M): the samples' product with it
# gives the DFT bins k = 1 .. M/2 - 1, times 2/M (exactly a power of two).
_COUNT_DFT = (2.0 / _COUNT_NODES) * np.conj(
    _COUNT_UNIT[np.outer(np.arange(_COUNT_NODES), np.arange(1, _COUNT_NODES // 2))
                % _COUNT_NODES])


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
    # smallest log|1 - z/a| over the dense factors; a far factor's is at
    # least log(15/16), so near-zeros still show up here instead of being
    # special-cased (exact zeros use exact coordinate equality)
    min_factor_log_magnitude: float = math.inf
    # stored zeros summed term by term, and far shells summed by the series
    dense_zeros: int = 0
    far_shells: int = 0


def _modulus_run(seq: ZeroSequence, lo: float, hi: float) -> slice:
    """The zeros with lo <= |a| < hi: positions are sorted by |a|
    (np.hypot = Python's abs), so they are a run, found by bisection."""
    return slice(*np.searchsorted(shell_index(seq)[0], (lo, hi)).tolist())


def _unit_disc_run(seq: ZeroSequence, c: complex) -> slice:
    """A run of zeros holding every zero whose term log min(|a - c|, 1)
    (_center_logs over [0, 1]) is not 0.  That term's rounded distance is
    below 1 only if |a - c| < 1 + 3u, so ||a| - |c|| < 1 + 3u, and |a| and
    |c| (np.hypot) are each within u of their moduli: the margin
    2**-40 (2 + |c|) covers both."""
    mod = abs(c)
    reach = 1.0 + 2.0 ** -40 * (2.0 + mod)
    return _modulus_run(seq, mod - reach, mod + reach)


def _far_exponent(z: complex, shift: int = _FAR_SHIFT) -> int | None:
    """The j with 2**j = A, the least power of two at or above
    2**shift |z| (|z| by hypot), or None when z = 0 or 2**j would pass
    every finite modulus: then no zero is far."""
    mag = abs(z)
    if not 0.0 < mag < math.inf:
        return None
    frac, e = math.frexp(mag)
    j = e + shift - (frac == 0.5)
    return j if j < 1024 else None


def _shell_table(seq: ZeroSequence) -> tuple[np.ndarray, np.ndarray]:
    """seq's shell table, built once a sequence through seq.derived: the power sums
    q[j, k] = sum of m (2**j / a)**k, k = 1.._SERIES_TERMS, of each dyadic
    shell 2**j <= |a| < 2**(j + 1) of the shell index, a row a shell, as an
    array of real parts and one of imaginary parts.  A shell's t = 2**j / a
    comes from b = a 2**-j (exact, |b| in [1, 2)): t = 1 / b for a real
    sequence, else t = (Re b - i Im b) / (Re b**2 + Im b**2) in real
    arithmetic; t**k is the running product t**(k - 1) t, and q[j, k] is
    the exact_sum of the real and of the imaginary parts of m t**k over the
    shell (correctly rounded, so a conjugate-symmetric shell's imaginary
    sums are exactly 0).  Temporaries are a few real arrays of one shell's
    length."""
    pos, mult = seq.positions, seq.multiplicities
    exponents, starts = shell_index(seq)[1:]
    real = np.zeros((exponents.size, _SERIES_TERMS))
    imag = np.zeros((exponents.size, _SERIES_TERMS))
    for i, j in enumerate(exponents.tolist()):
        run = slice(starts[i], starts[i + 1])
        m = None if seq.all_simple else mult[run]
        br = np.ldexp(pos.real[run], -j)
        if seq.all_real:
            tr = np.divide(1.0, br, out=br)
            pr = tr.copy()
            for k in range(_SERIES_TERMS):
                if k:
                    pr *= tr
                real[i, k] = exact_sum(pr if m is None else pr * m)
            continue
        bi = np.ldexp(pos.imag[run], -j)
        d = br * br
        d += bi * bi
        tr = np.divide(br, d, out=br)
        ti = np.negative(bi, out=bi)
        ti /= d
        pr, pi = tr.copy(), ti.copy()
        for k in range(_SERIES_TERMS):
            if k:
                pr, pi = pr * tr - pi * ti, pr * ti + pi * tr
            real[i, k] = exact_sum(pr if m is None else pr * m)
            imag[i, k] = exact_sum(pi if m is None else pi * m)
    return real, imag


def _far_terms(table: tuple, exps: np.ndarray, shells: slice, near_exp: int, z: complex):
    """The series' log and argument terms over the given shells (j from
    exps, the shell index's), with 2**near_exp = A as _far_exponent gives
    it: the real and the imaginary part of -(z / 2**j)**k q[j, k] / k for
    each shell j and k = 1.._SERIES_TERMS.  v**k, v = z / A, is the running
    product v**(k - 1) v in real arithmetic, and
    (z / 2**j)**k = v**k 2**((near_exp - j) k) exactly, barring underflow."""
    vr, vi = math.ldexp(z.real, -near_exp), math.ldexp(z.imag, -near_exp)
    pr, pi = vr, vi
    powers = [pr, pi]
    for _ in range(_SERIES_TERMS - 1):
        pr, pi = pr * vr - pi * vi, pr * vi + pi * vr
        powers += (pr, pi)
    powers = np.array(powers).reshape(_SERIES_TERMS, 2)
    shift = (near_exp - exps[shells])[:, None] * _SERIES_K
    ur, ui = np.ldexp(powers[:, 0], shift), np.ldexp(powers[:, 1], shift)
    qr, qi = table[0][shells], table[1][shells]
    logs = ur * qr
    logs -= ui * qi
    logs /= _SERIES_NEG_K
    args = ur * qi
    args += ui * qr
    args /= _SERIES_NEG_K
    return logs.ravel(), args.ravel()


def _wide_factors(a: np.ndarray, z: complex):
    """log|1 - z/a| and (Re, Im) of a vector along 1 - z/a for guard cells
    where numpy's z / a overflows (1 / |a| or |z / a| beyond the largest
    double), z not in a.  With 2**ea the power of two that scales a to
    a'' = a 2**-ea with larger part in [1/2, 1), and 2**e the larger of
    that and z's, d = a 2**-e - z 2**-e (scalings exact or, for the smaller
    of a and z, below 2**-1074 of d) is (a - z) 2**-e, so
    L = log|d| - log|a''| + (e - ea) log 2 and d conj(a'') lies along
    (a - z)/a = 1 - z/a."""
    ea = np.frexp(np.maximum(np.abs(a.real), np.abs(a.imag)))[1]
    e = np.maximum(ea, math.frexp(max(abs(z.real), abs(z.imag)))[1])
    dr = np.ldexp(a.real, -e) - np.ldexp(z.real, -e)
    di = np.ldexp(a.imag, -e) - np.ldexp(z.imag, -e)
    ar, ai = np.ldexp(a.real, -ea), np.ldexp(a.imag, -ea)
    logs = np.log(np.hypot(dr, di)) - np.log(np.hypot(ar, ai)) + (e - ea) * math.log(2.0)
    return logs, dr * ar + di * ai, di * ar - dr * ai


def _dense_terms(pos: np.ndarray, mult: np.ndarray, z: complex, all_real: bool,
                 all_simple: bool):
    """Each zero's log term and argument term by the block kernel (see
    evaluate_product), the count of real factors 1 - z/a < 0 (their pi's)
    and the least log term; None when z is a zero."""
    n = pos.size
    logs = np.empty(n)
    args = np.empty(n)
    if all_real:   # the quotient's parts, reused by every block
        buf_r, buf_i = np.empty((2, min(n, _PRODUCT_BLOCK)))
    pi_count = 0
    least = math.inf
    # an overflowing 1/a, z/a or q is the guard's, and so is a q whose
    # log1p is -inf or nan
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for start in range(0, n, _PRODUCT_BLOCK):
            block = slice(start, start + _PRODUCT_BLOCK)
            p = pos[block]
            k = p.size
            # log_terms holds q until log1p replaces it; arg_terms holds 1/a
            # (for a real sequence) and si**2 until arctan2 fills it
            log_terms, arg_terms = logs[block], args[block]
            if all_real:
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
            np.log1p(q, out=log_terms)
            log_terms *= 0.5
            wr = np.subtract(1.0, sr, out=sr)
            wi = np.negative(si, out=si)
            if guard is not None:
                a = p[guard]
                w = 1.0 - z / a
                absw = np.abs(w)
                near = absw <= _NEAR_ONE
                wide = ~np.isfinite(absw)
                if np.any(a[near | wide] == z):
                    return None
                if near.any():
                    w[near] = (a[near] - z) / a[near]
                    absw[near] = np.abs(w[near])
                cell_logs = np.log(absw)
                wr[guard] = w.real
                wi[guard] = w.imag
                if wide.any():
                    cells = np.flatnonzero(guard)[wide]
                    cell_logs[wide], wr[cells], wi[cells] = _wide_factors(a[wide], z)
                log_terms[guard] = cell_logs
            least = min(least, float(log_terms.min()))
            np.arctan2(wi, wr, out=arg_terms)
            m = mult[block]
            is_real = wi == 0.0
            if is_real.any():
                arg_terms[is_real] = 0.0  # a real factor's pi goes to pi_count
                pi_count += int(m[is_real & (wr < 0.0)].sum())
            if not all_simple:   # multiplying by 1 changes no value
                log_terms *= m
                arg_terms *= m
    return logs, args, pi_count, least


def evaluate_product(seq: ZeroSequence, z: complex, R: float | None = None) -> ProductEvaluation:
    """Product of (1 - z/a)^multiplicity over |a| < R, in log space.

    Truncation is by ascending |a| with strict |a| < R; that ordering is what
    makes symmetric (conditionally convergent) truncations behave.  |a| is
    np.hypot, the modulus the completeness radius is checked with.  The
    zeros inside R are a prefix of the stored order: the whole sequence
    when R exceeds its largest modulus, as the default R always does, else
    a run found by bisection.  If z is exactly a stored position inside R
    the value is an exact zero.

    Near and far zeros.  With A the least power of two at or above 16 |z|,
    the zeros with |a| < A (a prefix of the stored order) are near, and so
    are those of a dyadic shell 2**j <= |a| < 2**(j + 1) that R cuts (the
    top shell when R lies inside it): each of them is a dense term of the
    block kernel below.  The whole shells in [A, R) are far: there
    |z/a| <= 1/16 and log(1 - z/a) = -sum over k of (z/a)**k / k, a
    principal log, so its real part is the factor's log-modulus and its
    imaginary part the factor's argument, with no 2 pi ambiguity.  A far
    shell adds the terms -(z / 2**j)**k q[j, k] / k, k = 1..K (K =
    _SERIES_TERMS = 14), from the sequence's table of shell power sums
    q[j, k] = sum of m (2**j / a)**k, built once a sequence with correctly
    rounded sums (_shell_table and _far_terms give the arithmetic).  At
    z = 0 every zero is near.

    Dense terms, in blocks of _PRODUCT_BLOCK zeros, which bound the
    temporaries, in real arithmetic on s = z/a.  For a real sequence
    (all_real) sr = zr * fl(1 / Re a) and si = zi * fl(1 / Re a), the parts
    numpy's complex z / a gives for a real a; otherwise the parts of that
    complex quotient.  The log term is L = 1/2 log1p(q),
    q = si**2 + sr (sr - 2) = |1 - s|**2 - 1, where every cell of the block
    has -1/2 <= q < inf (one least and one greatest q decide).  A block
    with a cell outside takes that cell by the guard: w = 1 - z/a, and
    where |w| <= _NEAR_ONE, z is compared with those zeros for an exact
    zero, and w = (a - z)/a, whose rounded difference is nonzero for z != a
    where 1 - z/a may round to 0; then L = log|w|.  Where w overflows (1/a
    or z/a beyond the largest double), z is compared with those zeros too,
    and L = log|a - z| - log|a| in scaled parts (_wide_factors).  The
    argument term is arctan2(-si, 1 - sr), or that of w in a guard cell:
    the bits of 1 - z/a's argument.  min_factor_log_magnitude is the least
    dense L; a far factor's is at least log(15/16).

    Totals.  The dense log terms and the far series' real parts are
    totalled by one exact_sum: the correctly rounded sum of all of them
    (the bits fsum gives), so the value does not depend on the block size;
    likewise the dense argument terms and the series' imaginary parts.  An
    exactly real dense factor contributes its pi through an integer count.

    Error bound, to first order in u = 2**-53.  The rounded quotient is
    within c u |s| of s, with c = 2 for a real sequence (two roundings a
    part) and c = 10 otherwise (Smith's division, as numpy does it).  The
    computed q is within u (2 si**2 + 3 |sr| |sr - 2|) of |1 - s'|**2 - 1
    for the rounded s', log1p is within one ulp (2u |L|), and 1 + q >= 1/2
    makes |1 - s| >= 1/sqrt 2, so a log1p term is within

        E = u (8 (si**2 + |sr| |sr - 2|) + 2 |L| + 2c |s|)

    of log|1 - z/a|.  A guard cell is within u (c |s| / |1 - s| + 3 + 2 |L|)
    by 1 - z/a, within u (c + 3 + 2 |L|) by (a - z)/a, and within
    u (6 + 4 |L| + 5 |D|) by the scaled parts, D = (e - ea) log 2 as in
    _wide_factors.  A far zero's share of the series is within

        F = (9u + (16/15) 16**-K / (K + 1)) |z/a|

    of log|1 - z/a|: the second part is the truncation, the tail of
    |z/a|**k / k past K; the first is the series' rounding, from t = 2**j/a
    (3u), the k - 1 products in t**k and in (z / 2**j)**k (each within
    sqrt 5 u), the multiplicity, the shell's sum, the product by q and the
    division by k, summed over k with |z/a| <= 1/16.  The value is within
    the sum of m (E + u |L|) over the dense zeros (u |L| for the product
    by m, none when every m is 1) and of m F over the far zeros, plus
    u |value| for exact_sum's rounding.
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
    # from_arrays keeps R0 above every modulus, so the default R takes no
    # bisection
    n = len(seq) if R > seq.max_abs else _modulus_run(seq, 0.0, R).stop
    count = seq.total_multiplicity if n == len(seq) else int(seq.multiplicities[:n].sum())
    # every zero lies inside R exactly when the prefix is the whole sequence
    flag = TAIL_COMPLETE if (R0 == 0.0 and n == len(seq)) else TAIL_TRUNCATED
    if n == 0:
        return ProductEvaluation(LogComplex(0.0, 0.0), R, 0, flag)
    # dense zeros: the prefix [0, near) and the top run [top, n); far: the
    # table's shells lo..hi - 1
    near = top = n
    lo = hi = 0
    near_exp = _far_exponent(z)
    if near_exp is not None and seq.max_abs >= 2.0 ** near_exp:
        exponents, starts = shell_index(seq)[1:]
        first = int(np.searchsorted(exponents, near_exp))
        if n > starts[first]:
            lo, hi = first, int(np.searchsorted(starts, n, side="right")) - 1
            near, top = int(starts[lo]), int(starts[hi])
    pos, mult = seq.positions, seq.multiplicities
    if 0 < near < top < n:
        pos = np.concatenate((pos[:near], pos[top:n]))
        mult = np.concatenate((mult[:near], mult[top:n]))
    else:   # one run: no far shell, no top run or no near zero
        dense = slice(0, n) if near == top else slice(0, near) if top == n else slice(top, n)
        pos, mult = pos[dense], mult[dense]
    terms = _dense_terms(pos, mult, z, seq.all_real, seq.all_simple)
    if terms is None:
        return ProductEvaluation(LogComplex(-math.inf, 0.0), R, count, flag, -math.inf,
                                 pos.size, hi - lo)
    logs, args, pi_count, least = terms
    if hi > lo:
        far_logs, far_args = _far_terms(seq.derived(_shell_table), exponents, slice(lo, hi),
                                        near_exp, z)
        logs = np.concatenate((logs, far_logs))
        args = np.concatenate((args, far_args))
    theta = exact_sum(args) + (pi_count & 1) * math.pi
    return ProductEvaluation(LogComplex(exact_sum(logs), wrap_angle(theta)), R, count, flag,
                             least, pos.size, hi - lo)


def _counting_table(seq: ZeroSequence) -> np.ndarray:
    """seq's counting table, built once a sequence through seq.derived: a
    complex row for each dyadic
    shell 2**j <= |a| < 2**(j + 1) of the shell index, from the first at or
    above 2**_COUNT_MIN_EXP to the last, holding the local expansion of its
    potential
    u_j(w) = sum of m (log|w - a| - log|a|) = Re sum of C[j, k] (w / rho_j)**k,
    rho_j = 2**(j - _COUNT_SHIFT), k = 1 .. _COUNT_NODES/2 - 1.  u_j is
    sampled by partial_log_potential (the counting kernel, in its
    cache-sized blocks) at the nodes rho_j exp(2 pi i n / M),
    n = 0 .. M - 1, M = _COUNT_NODES, and C[j, k] = (2/M) times the k-th
    bin of the samples' DFT, one matrix product for every shell.  On a real
    sequence u_j(conj w) = u_j(w), term by term (the kernel squares
    dy = -Im w), and node M - n is node n's exact conjugate, so nodes
    n = 0 .. M/2 are sampled and the rest are their mirrors, the bits a
    sample there would have."""
    exponents, starts = shell_index(seq)[1:]
    cut = int(np.searchsorted(exponents, _COUNT_MIN_EXP))
    samples = np.empty((exponents.size - cut, _COUNT_NODES))
    sampled = _COUNT_NODES // 2 + 1 if seq.all_real else _COUNT_NODES
    for i, j in enumerate(exponents[cut:].tolist()):
        nodes = _COUNT_UNIT[:sampled] * 2.0 ** (j - _COUNT_SHIFT)
        samples[i, :sampled] = partial_log_potential(seq, nodes,
                                                     slice(starts[cut + i], starts[cut + i + 1]))
    if seq.all_real:
        samples[:, sampled:] = samples[:, sampled - 2:0:-1]
    return samples @ _COUNT_DFT


def log_modulus_via_counting(seq: ZeroSequence, z: complex) -> float:
    """log|product| via the counting side: the full-range step integral of
    [n(0,t) - n(z,t)]/t, i.e. sum of m * (log|a - z| - log|a|).  Returns -inf
    exactly when z is a stored zero position, as step_integral does, and
    exactly 0.0 at z = 0.

    Near and far zeros.  With 2**J the least power of two at or above
    32 |z|, a zero with |a| < 2**J, or below 2**_COUNT_MIN_EXP, is near: its
    term m (L_z - L_a), L_c = log|a - c|, is step_integral's (step_terms
    over the near zeros, L_a from the cached origin logs).  A dyadic shell
    2**j <= |a| < 2**(j + 1) at or beyond 2**J is far.  Its potential
    u_j(w) = sum of m (L_w - L_a) over the shell is harmonic in |w| < 2**j
    with u_j(0) = 0, so u_j(w) = Re sum over k >= 1 of c_k (w / rho_j)**k
    with rho_j = 2**(j - 5) and c_k = -(rho_j**k / k) sum of m a**-k.  The
    sequence's table (_counting_table) holds C_1 .. C_15: (2/M) times the
    DFT of u_j sampled by the counting kernel at M = 32 equispaced
    nodes of |w| = rho_j (the local expansion of Ying, Biros & Zorin 2004,
    in two dimensions).  A point adds Re sum of C_k v**k, v = z / rho_j
    (exact barring underflow, |v| <= 1; v**k by running products), for
    each far shell.  The near terms and the shells' terms are totalled by
    one exact_sum.  C_0 is dropped: u_j(0) = 0, so the exact C_0 is the
    aliases' Re(c_M + c_2M + ...), below mu_j 32**-32, and the computed one
    lies within the sample bound below.  The table shares no split, term or
    sum with evaluate_product's power sums.

    Error bound, to first order in u = 2**-53.  A near term is within
    m (6u + 4u (|L_z| + |L_a|)) (log_potential's term bound).  A far shell
    with multiplicity mu_j is within

        B_j = (2 E_j + 4u mu_j) S_j + mu_j (u / 10 + 32**-16 / 14)

    of its exact sum, S_j = sum of |v|**k over k = 1..15 (at most 15), and
    E_j = u sum over the shell of m (74 + 140 |L_a|) the bound on each
    sample.  The parts:
      * samples: log_potential's 70u sum of m (1 + |L_w| + |L_a|) with
        |L_w| <= |L_a| + log(32/31) at every node, plus mu_j u / 2 for the
        nodes' rounding (within 14u rho_j of the exact node, where u_j's
        gradient is at most mu_j / (31 rho_j)); M samples within E_j put
        each C_k within 2 E_j;
      * the DFT: within 4u mu_j a coefficient (a bin sums M products
        with the node table's roots of unity, each within 14u, so it is
        within 48u M max |sample|, and every sample is below
        mu_j / 31 + E_j);
      * truncation plus aliasing: |c_k| <= mu_j 32**-k / k, the tail past
        k = 15 is below mu_j 32**-16 / 15, and a real function's bin k
        aliases c_(M-k), below mu_j 32**-16 / 480 over k = 1..15;
      * the evaluation, below 3k u |C_k| |v|**k a term: mu_j u / 10.
    The value is within the near terms' bounds plus the far shells' B_j,
    plus u |value| for exact_sum's rounding.

    Cost.  The first call with far zeros builds the table: 32 kernel terms
    a far zero, 17 on a real sequence, about 15 (8) calls' worth of dense
    terms.  Each later call sums its near zeros and 15 terms a far shell.
    """
    _require_finite(z=z)
    if not seq.origin_excluded:
        raise ValueError("counting-side log-modulus requires 0 not in the zero set")
    z = complex(z)
    near = len(seq)
    split = _far_exponent(z, _COUNT_SHIFT)
    if split is not None and seq.max_abs >= 2.0 ** max(split, _COUNT_MIN_EXP):
        exponents, starts = shell_index(seq)[1:]
        first = int(np.searchsorted(exponents, max(split, _COUNT_MIN_EXP)))
        near = int(starts[first])
    terms = step_terms(seq, 0j, z, 0.0, math.inf, slice(0, near))
    if terms is None:   # z on a zero
        return -math.inf
    if near < len(seq):
        v = z * np.ldexp(1.0, _COUNT_SHIFT - exponents[first:])
        powers = np.cumprod(np.repeat(v[:, None], _COUNT_NODES // 2 - 1, axis=1), axis=1)
        # the table's rows end with the index's last shell
        coefficients = seq.derived(_counting_table)[first - exponents.size:]
        terms = np.concatenate((terms, (coefficients * powers).real.ravel()))
    return exact_sum(terms)


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

    Graded rates.  A zero at D = |a - z| < 2 radius (np.hypot) is summed at
    all n nodes.  A zero with 2**e <= D / radius < 2**(e + 1), e >= 1, is
    summed at M_e = min(n, 2**ceil(log2(64 / e))) nodes, every (n / M_e)-th
    node of the same set, rotation included: 64 nodes for e = 1, 32 for
    e = 2, 3, 16 for e = 4 .. 7, and so on down to one node for e >= 64.
    The bands are found by exact comparisons of D with radius 2**(2**i).
    Every term is still log|w - a| - log|a| at a node w on the circle, by
    log_potential's term rule (partial_log_potential, one call a rate), so
    the average shares no shortcut with jensen_counting_side.  It is the
    exact_sum of each rate's node rows over its node count.

    Aliasing.  With rho = radius / D, log|w - a| = log D - sum over k >= 1
    of rho**k cos(k (t - arg(a - z))) / k, and M equispaced nodes average
    every mode but those with M | k to 0, so the M-node average of one zero
    of multiplicity m differs from its circle mean by at most
    m rho**M / (M (1 - rho**M)).  In band e, rho <= 2**-e, and e M_e >= 64
    wherever n does not cap M_e, so that is at most
    m 2**-64 / M (1 + 2**-60), under the rounding of any term; the computed
    D is within an ulp of the exact one, which raises the bound by under
    2**-45 of itself.  A zero summed at all n nodes, within two radii or
    capped, meets the same formula with M = n.
    """
    return circle_average_terms(seq, z, radius, nodes)[0]


def circle_average_terms(seq: ZeroSequence, z: complex, radius: float,
                         nodes: int = 4096) -> tuple[float, int]:
    """circle_average and the number of zero x node terms it summed: the
    sum over the zeros of the nodes each is summed at, n or M_e (not
    weighted by multiplicity)."""
    _require_finite(z=z, radius=radius)
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
    # a zero's level is the count of edges radius 2**(2**i) at or below D
    # (exact comparisons): level 0 holds D < 2 radius, level i >= 1 the bands
    # e of _RATE_NODES[i - 1] nodes
    with np.errstate(over="ignore"):
        edges = np.ldexp(radius, _RATE_EXPONENTS)
    rates = np.minimum(n, np.concatenate(([n], _RATE_NODES)))
    zero_rates = rates[np.searchsorted(edges, dist, side="right")]
    sums = []
    terms = 0
    for rate in sorted(set(rates.tolist()), reverse=True):
        zeros = zero_rates == rate
        count = int(np.count_nonzero(zeros))
        if count:
            sums.append(partial_log_potential(seq, points[:: n // rate], zeros) / rate)
            terms += count * rate
    return exact_sum(np.concatenate(sums)) if sums else 0.0, terms


def jensen_identity_check(seq: ZeroSequence, z: complex, nodes: int = 65536) -> float:
    """Residual of Jensen's formula about z: |average of log|product| on the
    circle |w - z| = 1 - jensen_counting_side(seq, z)|."""
    return abs(circle_average(seq, z, 1.0, nodes) - jensen_counting_side(seq, z))


def finite_difference_log_derivative(seq: ZeroSequence, z0: complex,
                                     h: float | None = None) -> float:
    """Diagnostic oracle for derivative_at_multiple_zero that never touches
    the counting side: log of |l-th derivative / l!| at an l-fold zero,
    estimated from product values by an l-th central finite difference with
    one Richardson extrapolation step.  h, the step, must be positive and
    finite when given."""
    _require_finite(h=h)
    if h is not None and not h > 0:
        raise ValueError(f"h must be positive, got {h}")
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
    moduli = shell_index(seq)[0]
    tail = slice(np.searchsorted(moduli, R), None)   # the zeros with |a| >= R
    mult, d = seq.multiplicities[tail], moduli[tail]
    count = int(mult.sum())
    if count == 0:
        return TailCorrection(0j, 0.0, 0)
    first = -z * complex((mult / seq.positions[tail]).sum())
    ratio = abs(z) / float(d.min())
    inv_sq = float((mult / d ** 2).sum())
    if ratio >= 1.0:
        bound = math.inf
    else:
        bound = abs(z) ** 2 * inv_sq / (2.0 * (1.0 - ratio))
    return TailCorrection(first, bound, count)
