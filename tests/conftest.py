"""Shared helpers for the test suite: random sequence builders and the
brute-force oracles the closed forms are checked against."""

import math

import mpmath
import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from expozeros import Zero, ZeroSequence


def random_sequence(rng, n_max=200, r_min=1.0, r_max=50.0, mult_max=3,
                    radius=0.0, n_min=1):
    """Random finite sequence with moduli in [r_min, r_max]."""
    n = int(rng.integers(n_min, n_max + 1))
    moduli = rng.uniform(r_min, r_max, n)
    angles = rng.uniform(-math.pi, math.pi, n)
    mults = rng.integers(1, mult_max + 1, n)
    zeros = tuple(
        Zero(complex(m * math.cos(a), m * math.sin(a)), int(k))
        for m, a, k in zip(moduli, angles, mults)
    )
    return ZeroSequence(zeros, truncation_radius=radius)


def random_symmetric_sequence(rng, n_pairs=40, r_min=1.0, r_max=30.0):
    """Conjugate-and-reflection symmetric sequence of simple real zeros."""
    vals = rng.uniform(r_min, r_max, int(rng.integers(2, n_pairs + 1)))
    zeros = tuple(Zero(complex(s * v, 0.0)) for v in vals for s in (1.0, -1.0))
    return ZeroSequence(zeros)


def random_conjugate_sequence(rng, n_max=40, r_min=1.0, r_max=30.0):
    """Conjugate-symmetric sequence (real zeros plus conjugate pairs)."""
    zeros = []
    for _ in range(int(rng.integers(2, n_max + 1))):
        m = int(rng.integers(1, 3))
        if rng.random() < 0.4:
            zeros.append(Zero(complex(rng.uniform(-r_max, r_max), 0.0), m))
        else:
            w = complex(rng.uniform(-r_max, r_max), rng.uniform(0.1, r_max))
            zeros.append(Zero(w, m))
            zeros.append(Zero(w.conjugate(), m))
    seq = ZeroSequence(tuple(z for z in zeros if abs(z.position) >= r_min))
    if not len(seq):
        return ZeroSequence((Zero(2 + 1j), Zero(2 - 1j), Zero(-3 + 0j)))
    return seq


def draw_point(rng, seq, scale, min_dist=0.01):
    """A point with |z| <= scale at distance >= min_dist from every zero."""
    pos = seq.positions
    while True:
        z = complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))
        if abs(z) > scale:
            continue
        if pos.size and float(np.abs(pos - z).min()) < min_dist:
            continue
        return z


def _brute_counts(seq, c, ts):
    """n(c, t) at an array of t values, by direct distance counting."""
    d = np.abs(seq.positions - c)
    order = np.argsort(d, kind="stable")
    dd = d[order]
    cm = np.concatenate([[0], np.cumsum(seq.multiplicities[order])])
    return cm[np.searchsorted(dd, ts, side="right")]


def riemann_step_integral(seq, b, x, t_lo, t_hi, panels=10 ** 6):
    """Brute-force oracle for the step integral: evaluate both counting
    functions at panel midpoints of a fine partition (refined at every event
    distance so no panel straddles a jump) and weight each panel by its
    exact integral of dt/t.  Never uses the per-event closed form."""
    b = complex(b)
    x = complex(x)
    edges = np.linspace(t_lo, t_hi, panels + 1)
    events = np.concatenate([np.abs(seq.positions - b), np.abs(seq.positions - x)])
    events = events[(events > t_lo) & (events < t_hi)]
    edges = np.unique(np.concatenate([edges, events]))
    mids = 0.5 * (edges[:-1] + edges[1:])
    diff = (
        _brute_counts(seq, b, mids).astype(float)
        - _brute_counts(seq, x, mids).astype(float)
    )
    mask = diff != 0.0
    if not mask.any():
        return 0.0
    weights = np.log(edges[1:][mask]) - np.log(edges[:-1][mask])
    return float(np.sum(diff[mask] * weights))


def outer_zero_above_hypot(rng, n=40):
    """A sequence of n random zeros whose outermost zero a has np.abs(a)
    above hypot(a) = abs(a), with R0 = np.abs(a) as its completeness
    radius: complete, but a sits one rounding step below R0 only by hypot."""
    while True:
        pts = rng.uniform(-10.0, 10.0, n) + 1j * rng.uniform(-10.0, 10.0, n)
        d = np.hypot(pts.real, pts.imag)
        k = int(np.argmax(d))
        R0 = float(np.abs(pts)[k])
        if R0 > d[k]:
            return ZeroSequence.from_arrays(pts, np.ones(n), R0), R0


_coordinates = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def axis_sequences(draw, radius=False):
    """A real, reflection-symmetric or conjugate-symmetric sequence with
    multiplicities 1-3 (hypothesis strategy); radius=True also draws a
    completeness radius above the largest modulus."""
    kind = draw(st.sampled_from(("real", "symmetric", "conjugate")))
    xs = draw(st.lists(_coordinates, min_size=1, max_size=12))
    if kind == "real":
        positions = [complex(x, 0.0) for x in xs]
    elif kind == "symmetric":
        positions = [complex(s * x, 0.0) for x in xs for s in (1.0, -1.0)]
    else:
        ys = draw(st.lists(_coordinates, min_size=len(xs), max_size=len(xs)))
        positions = [p for x, y in zip(xs, ys)
                     for p in ((complex(x, 0.0),) if y == 0.0 else (complex(x, y), complex(x, -y)))]
    mults = draw(st.lists(st.integers(1, 3), min_size=len(positions), max_size=len(positions)))
    seq = ZeroSequence.from_arrays(positions, mults)
    if radius:
        return ZeroSequence.from_arrays(positions, mults, seq.max_abs * draw(st.floats(1.01, 4.0)) + 1.0)
    return seq


@st.composite
def clustered_sequences(draw):
    """Runs of real zeros 0.2-3.5 apart, complex pairs within 1.5 of the axis
    beside them (so D's clamp acts across gaps) and a few far zeros;
    multiplicities 1-5."""
    start = draw(st.floats(-30.0, 30.0))
    steps = draw(st.lists(st.floats(0.2, 3.5), min_size=2, max_size=20))
    reals = [start + x for x in np.cumsum(steps)]
    pairs = draw(st.lists(st.tuples(st.floats(min(reals) - 2.0, max(reals) + 2.0),
                                    st.floats(0.02, 1.5)), max_size=6))
    far = draw(st.lists(st.floats(-200.0, 200.0), max_size=10))
    positions = reals + far + [complex(x, s * y) for x, y in pairs for s in (1.0, -1.0)]
    mults = draw(st.lists(st.integers(1, 5), min_size=len(positions), max_size=len(positions)))
    seq = ZeroSequence.from_arrays(positions, mults)
    assume(seq.origin_excluded)
    return seq


def value_scale(seq, xs, b, t_lo):
    """sum of m (1 + |L_x| + |L_b|) at every real x of xs, the scale of
    log_potential's stated error bound."""
    with np.errstate(divide="ignore"):
        lx = np.log(np.maximum(np.abs(seq.positions - xs[:, None]), t_lo))
        lb = np.log(np.maximum(np.abs(seq.positions - b), t_lo))
    return (seq.multiplicities * (1.0 + np.abs(lx) + np.abs(lb))).sum(axis=1)


def slope_scale(seq, xs, t_lo):
    """sum of m / max(|x - a|, t_lo) at every x of xs, the scale of the
    slope kernel's stated error bound."""
    return (seq.multiplicities / np.maximum(np.abs(seq.positions - xs[:, None]), t_lo)).sum(axis=1)


def lattice_log_abs(K, x):
    """log of prod_{k=1..K} |k - x| |k + x| at 30 digits, in closed form:
    log |Gamma(K+1-x) Gamma(K+1+x) / (Gamma(1-x) Gamma(1+x))|, for real or
    complex x (the real part of any branch of log Gamma is log |Gamma|)."""
    x = mpmath.mpmathify(x)
    lg = mpmath.loggamma
    return mpmath.re(lg(K + 1 - x) + lg(K + 1 + x) - lg(1 - x) - lg(1 + x))
