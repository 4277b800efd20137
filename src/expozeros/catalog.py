"""Reference zero-set generators and the concave-density integral decomposition.

Generators produce ZeroSequence objects with a positive truncation radius and
a provenance tag.  Root finding follows one recipe throughout: bracketed
bisection to width 1e-9, then 3 Newton steps, all vectorized over the target
indices (both r/log^2 r and the concave alpha are monotone on the brackets).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .counting import exact_parts, exact_sum
from .zero_model import ZeroSequence

__all__ = [
    "AlphaSpec",
    "IntDecomposition",
    "integer_lattice",
    "scaled_lattice",
    "footnote_sequence",
    "alpha_sequence",
    "int_decomposition",
    "build_generator",
    "GENERATORS",
]

E_SQUARED = math.exp(2.0)
# Integer levels per block of int_decomposition's breakpoint walk: its
# arrays stay a few MiB whatever alpha(x) is.
_LEVEL_BLOCK = 1 << 16


def _bisect_newton(f, fprime, targets, lo: float, hi: float,
                   width: float = 1e-9, newton_steps: int = 3) -> np.ndarray:
    """Solve f(r) = k for each k in targets; f must be increasing on [lo, hi].

    Every bracket is halved while the widest one still splits is wider than
    width.  A bracket whose midpoint rounds to one of its ends (its ends are
    adjacent floats, wider than width above about 4.5e6) stops there."""
    t = np.asarray(targets, dtype=float)
    lo_arr = np.full_like(t, lo)
    hi_arr = np.full_like(t, hi)
    while True:
        mid = 0.5 * (lo_arr + hi_arr)
        splits = (mid != lo_arr) & (mid != hi_arr)
        if not np.any(splits & (hi_arr - lo_arr > width)):
            break
        below = f(mid) < t
        lo_arr = np.where(splits & below, mid, lo_arr)
        hi_arr = np.where(splits & ~below, mid, hi_arr)
    r = 0.5 * (lo_arr + hi_arr)
    for _ in range(newton_steps):
        r = r - (f(r) - t) / fprime(r)
        r = np.clip(r, lo_arr, hi_arr)
    return r


def _symmetric(values: np.ndarray, R: float, provenance: str) -> ZeroSequence:
    """Simple real zeros at +-v for each v in values, complete inside R."""
    return ZeroSequence.from_arrays(np.concatenate([values, -values]),
                                    np.ones(2 * values.size), R, provenance)


def integer_lattice(R: float) -> ZeroSequence:
    """Simple zeros at every nonzero integer k with |k| < R (symmetric)."""
    R = float(R)
    if not R > 1:
        raise ValueError(f"R must exceed 1, got {R}")
    ks = np.arange(1, int(math.floor(R)) + 1, dtype=float)
    return _symmetric(ks[ks < R], R, f"lattice(R={R:g})")


def scaled_lattice(h: float, R: float) -> ZeroSequence:
    """Simple zeros at h*k for nonzero integers k with |h*k| < R."""
    h = float(h)
    R = float(R)
    if h <= 0:
        raise ValueError(f"spacing h must be positive, got {h}")
    ks = np.arange(1, int(math.floor(R / h)) + 1, dtype=float)
    ks = ks[h * ks < R]
    return _symmetric(h * ks, R, f"scaled(h={h:g},R={R:g})")


def _footnote_count(r):
    with np.errstate(divide="ignore", invalid="ignore"):
        return r / np.log(r) ** 2


def _footnote_count_prime(r):
    logr = np.log(r)
    return (logr - 2.0) / logr ** 3


def footnote_sequence(R: float) -> ZeroSequence:
    """Negative real zeros with exactly floor(r / log^2 r) of them in [-r, 0)
    for every r in [e^2, R).

    The k-th zero sits at -r_k with r_k the smallest r >= e^2 where
    r/log^2 r reaches k.  r/log^2 r has a flat minimum at r = e^2, so the
    first zero is pinned to -e^2 and brackets for k >= 2 start just above.
    """
    R = float(R)
    if not R > E_SQUARED:
        raise ValueError(f"R must exceed e^2 = {E_SQUARED:.6f}, got {R}")
    k_max = int(math.floor(R / math.log(R) ** 2))
    radii = np.array([E_SQUARED])
    if k_max >= 2:
        roots = _bisect_newton(
            _footnote_count,
            _footnote_count_prime,
            np.arange(2, k_max + 1),
            E_SQUARED * (1.0 + 1e-12),
            R,
        )
        radii = np.concatenate([radii, roots[roots < R]])
    return ZeroSequence.from_arrays(-radii, np.ones(radii.size), R, f"footnote(R={R:g})")


# --- concave counting density a(t) = t + c*log(1+t) -------------------------

@dataclass(frozen=True)
class AlphaSpec:
    """Strictly increasing concave density with alpha(0) = 0, slope in
    (1, 1 + c] decaying like c/t, and alpha(t) - t -> infinity; c must be
    positive (c = 0 would degenerate to the integer lattice and break the
    separation alpha(t) >= t + 1 + eps)."""

    c: float = 1.0
    description: str = "alpha(t) = t + c*log(1+t)"

    def __post_init__(self):
        if not self.c > 0:
            raise ValueError(f"alpha coefficient c must be positive, got {self.c}")
        object.__setattr__(self, "c", float(self.c))

    def alpha(self, t):
        return t + self.c * np.log1p(t)

    def alpha_prime(self, t):
        return 1.0 + self.c / (1.0 + t)


def alpha_sequence(spec: AlphaSpec, N: int) -> ZeroSequence:
    """Symmetric real zeros {+-a_k, k = 1..N} with alpha(a_k) = k."""
    if not float(N).is_integer():
        raise ValueError(f"N must be an integer, got {N!r}")
    N = int(N)
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    a = _bisect_newton(spec.alpha, spec.alpha_prime, np.arange(1, N + 1), 0.0, float(N))
    spacing = float(a[-1] - a[-2]) if N >= 2 else float(a[0])
    radius = float(a[-1]) + spacing / 2.0
    return _symmetric(a, radius, f"alpha(c={spec.c:g},N={N})")


@dataclass(frozen=True)
class IntDecomposition:
    """Three-part split of the base-vs-x counting integral for the concave
    density: the unbounded-from-above part over [1, x], the bounded-below
    middle part over [1, x-1], and the nonnegative (by concavity) far part
    over [x, t_max]."""

    x: float
    first: float
    second: float
    third: float
    bounded_term_note: str = (
        "fractional-part integrals omitted; they stay uniformly bounded in x"
    )


def int_decomposition(spec: AlphaSpec, x: float, t_max: float) -> IntDecomposition:
    """Compute the decomposition at x, truncating the far integral at t_max.

    The first integrand has jump discontinuities where alpha crosses an
    integer, so that piece is integrated exactly segment by segment, the
    levels walked in blocks of _LEVEL_BLOCK so memory stays bounded in x.
    The two smooth pieces, with alpha's linear parts cancelled in closed
    form, use adaptive quadrature, the far one in u = log t:

        second = integral over [1, x - 1] of c log1p(-2t / (1 + x + t)) / t dt,
        third = integral over [log x, log t_max] of -c log1p(-x^2 / (1 + e^u)^2) du.

    ArithmeticError is raised where scipy's quad reports no convergence.
    """
    # scipy.integrate takes most of a second to import and only this uses it
    from scipy import integrate

    x = float(x)
    t_max = float(t_max)
    if x <= 2:
        raise ValueError(f"x must exceed 2, got {x}")
    if t_max <= 2 * x:
        raise ValueError(f"t_max = {t_max} must exceed 2*x = {2 * x} for a meaningful far integral")

    # level k - 1 holds on [b_(k-1), b_k], b_k the breakpoint alpha(b_k) = k,
    # from b_(k_lo - 1) = 1 to b_(k_hi + 1) = x; levels go in blocks of
    # _LEVEL_BLOCK, each block's first edge carried over from the last.  A
    # block's brackets are halved while its own widest one is wider than
    # 1e-9, so its breakpoints are those of one batch over every level
    # unless the widths at the stop straddle 1e-9 by rounding.
    k_lo = int(math.floor(spec.alpha(1.0))) + 1
    k_hi = int(math.floor(spec.alpha(x)))
    parts: list[float] = []
    left = np.array([1.0])
    for start in range(k_lo, k_hi + 2, _LEVEL_BLOCK):
        stop = min(start + _LEVEL_BLOCK, k_hi + 2)
        right = _bisect_newton(spec.alpha, spec.alpha_prime,
                               np.arange(start, min(stop, k_hi + 1)), 1.0, x)
        edges = np.concatenate([left, right, [x]] if stop == k_hi + 2 else [left, right])
        levels = np.arange(start - 1, stop - 1, dtype=float)
        parts += exact_parts(levels * np.log(edges[1:] / edges[:-1]))
        left = edges[-1:]
    first = 2.0 * (exact_sum(parts) - (x - 1.0))

    def quad(f, lo, hi, piece):
        value, _, _, *message = integrate.quad(f, lo, hi, limit=200, full_output=1)
        if message:
            raise ArithmeticError(f"the {piece} integral at x = {x} did not converge: {message[0]}")
        return value

    second = quad(lambda t: spec.c * math.log1p(-2.0 * t / (1.0 + x + t)) / t, 1.0, x - 1.0, "second")
    third = quad(lambda u: -spec.c * math.log1p(-(x / (1.0 + math.exp(u))) ** 2),
                 math.log(x), math.log(t_max), "third")

    return IntDecomposition(x=x, first=first, second=second, third=third)


# --- CLI-addressable generator registry --------------------------------------

def _gen_lattice(R: float = 100.0) -> ZeroSequence:
    return integer_lattice(R)


def _gen_scaled(h: float = 1.0, R: float = 100.0) -> ZeroSequence:
    return scaled_lattice(h, R)


def _gen_footnote(R: float = 1e4) -> ZeroSequence:
    return footnote_sequence(R)


def _gen_alpha(c: float = 1.0, N: float = 1000) -> ZeroSequence:
    # N may arrive as an integral float from the CLI parameter parser
    return alpha_sequence(AlphaSpec(c=float(c)), N)


GENERATORS = {
    "lattice": _gen_lattice,
    "scaled": _gen_scaled,
    "footnote": _gen_footnote,
    "alpha": _gen_alpha,
}


def build_generator(name: str, **params) -> ZeroSequence:
    """Build a catalog sequence by name with keyword parameters."""
    try:
        factory = GENERATORS[name]
    except KeyError:
        raise ValueError(f"unknown generator {name!r}; available: {sorted(GENERATORS)}")
    return factory(**params)
