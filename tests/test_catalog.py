import math
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

from expozeros import catalog
from expozeros import (
    AlphaSpec,
    alpha_sequence,
    build_generator,
    count_disc,
    footnote_sequence,
    int_decomposition,
    integer_lattice,
    profile,
    scaled_lattice,
)

E2 = math.exp(2.0)


class TestIntegerLattice:
    def test_basic(self):
        assert {z.position.real for z in integer_lattice(3.5).zeros} == {-3, -2, -1, 1, 2, 3}

    def test_small(self):
        assert {z.position.real for z in integer_lattice(1.5).zeros} == {-1, 1}

    def test_strict_boundary(self):
        assert {z.position.real for z in integer_lattice(2.0).zeros} == {-1, 1}

    def test_requires_r_above_one(self):
        with pytest.raises(ValueError):
            integer_lattice(1.0)


class TestScaledLattice:
    def test_half_spacing(self):
        assert {z.position.real for z in scaled_lattice(0.5, 2.0).zeros} == {
            -1.5, -1.0, -0.5, 0.5, 1.0, 1.5,
        }

    def test_wide_spacing(self):
        assert {z.position.real for z in scaled_lattice(2.0, 3.0).zeros} == {-2.0, 2.0}

    def test_unit_spacing_matches_lattice(self):
        assert scaled_lattice(1.0, 7.5).zeros == integer_lattice(7.5).zeros


class TestFootnoteSequence:
    def test_first_zero_pinned(self):
        seq = footnote_sequence(100.0)
        assert max(z.position.real for z in seq.zeros) == -E2

    def test_all_negative_real_simple(self):
        seq = footnote_sequence(3000.0)
        assert all(z.position.imag == 0 and z.position.real <= -E2 for z in seq.zeros)
        assert all(z.multiplicity == 1 for z in seq.zeros)

    @pytest.mark.parametrize("r,expected", [(100.0, 4), (1000.0, 20)])
    def test_counts_at_reference_radii(self, r, expected):
        seq = footnote_sequence(2000.0)
        assert count_disc(profile(seq, 0j), r) == expected
        assert expected == math.floor(r / math.log(r) ** 2)

    def test_count_identity_random_radii(self):
        seq = footnote_sequence(1e4)
        rng = np.random.default_rng(30)
        dists = np.abs(seq.positions)
        for r in rng.uniform(E2, 1e4, 100):
            assert int(np.sum(dists <= r)) == math.floor(r / math.log(r) ** 2)

    def test_requires_r_above_e_squared(self):
        with pytest.raises(ValueError):
            footnote_sequence(E2)


class TestAlphaSpec:
    def test_rejects_nonpositive_c(self):
        with pytest.raises(ValueError):
            AlphaSpec(0.0)
        with pytest.raises(ValueError):
            AlphaSpec(-1.0)

    def test_density_properties(self):
        spec = AlphaSpec(1.0)
        ts = np.linspace(0.0, 500.0, 2000)
        vals = spec.alpha(ts)
        assert vals[0] == 0.0
        assert np.all(np.diff(vals) > 0)
        slopes = spec.alpha_prime(ts)
        assert np.all(slopes >= 1.0) and np.all(slopes <= 2.0)
        assert np.all(np.diff(slopes) < 0)  # concavity


class TestAlphaSequence:
    def test_first_root(self):
        seq = alpha_sequence(AlphaSpec(1.0), 1)
        a1 = max(z.position.real for z in seq.zeros)
        # bisection oracle on the monotone equation t + log(1+t) = 1
        lo, hi = 0.0, 1.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if mid + math.log1p(mid) < 1.0:
                lo = mid
            else:
                hi = mid
        assert a1 == pytest.approx(0.5 * (lo + hi), abs=1e-9)
        # frozen from the oracle; sanity: a1 + log(1 + a1) == 1
        assert a1 == pytest.approx(0.557145598997, abs=1e-9)
        assert a1 + math.log1p(a1) == pytest.approx(1.0, abs=1e-12)

    def test_symmetry_exact(self):
        seq = alpha_sequence(AlphaSpec(1.0), 200)
        positions = {z.position for z in seq.zeros}
        assert positions == {-p for p in positions}

    def test_roots_solve_density(self):
        spec = AlphaSpec(0.7)
        seq = alpha_sequence(spec, 500)
        pos = np.sort([z.position.real for z in seq.zeros if z.position.real > 0])
        ks = spec.alpha(pos)
        assert np.allclose(ks, np.arange(1, 501), rtol=1e-11, atol=1e-9)

    def test_spacing_brackets(self):
        spec = AlphaSpec(1.0)
        seq = alpha_sequence(spec, 10_000)
        a = np.sort([z.position.real for z in seq.zeros if z.position.real > 0])
        gaps = np.diff(a)
        assert np.all(gaps < 1.0)
        # mean-value bracket with a decreasing slope: the gap sits between
        # the reciprocal slopes at the two endpoints
        assert np.all(gaps > 1.0 / spec.alpha_prime(a[:-1]))
        assert np.all(gaps < 1.0 / spec.alpha_prime(a[1:]))
        # shortfall from unit spacing is controlled by the slope excess
        assert np.all(1.0 - gaps <= spec.alpha_prime(a[:-1]) - 1.0)
        assert gaps[-1] > 0.999  # spacing tends to 1

    def test_counting_identities(self):
        # window counts reduce to integer parts of the density, both regimes
        spec = AlphaSpec(1.0)
        seq = alpha_sequence(spec, 2000)
        prof_zero = profile(seq, 0j)
        rng = np.random.default_rng(31)

        def floor_alpha(v):
            return math.floor(spec.alpha(v)) if v > 0 else 0

        for _ in range(200):
            x = float(rng.uniform(0.2, 400.0))
            t = float(rng.uniform(0.1, 400.0))
            if abs(x - t) < 1e-6 or x + t > 1500.0:
                continue
            n0 = count_disc(prof_zero, t)
            nx = count_disc(profile(seq, complex(x)), t)
            if x > t:
                expect = 2 * floor_alpha(t) + floor_alpha(x - t) - floor_alpha(x + t)
            else:
                expect = 2 * floor_alpha(t) - floor_alpha(t - x) - floor_alpha(x + t)
            assert n0 - nx == expect


class TestIntDecomposition:
    SPEC = AlphaSpec(1.0)

    def test_far_integral_nonnegative(self):
        for x in (10.0, 100.0, 1000.0):
            dec = int_decomposition(self.SPEC, x, max(1e5, 20 * x))
            assert dec.third >= 0.0

    def test_middle_integral_bounded_below(self):
        bound = -self.SPEC.c * math.pi ** 2 / 4.0
        for x in (100.0, 1000.0, 10000.0):
            dec = int_decomposition(self.SPEC, x, max(1e5, 20 * x))
            assert dec.second >= bound
            assert dec.second < 0.0

    def test_first_integral_grows_like_squared_log(self):
        d2 = int_decomposition(self.SPEC, 100.0, 1e5)
        d3 = int_decomposition(self.SPEC, 1000.0, 1e5)
        assert d3.first > d2.first > 0.0
        ratio = d3.first / d2.first
        assert abs(ratio - 2.25) <= 0.15 * 2.25

    @pytest.mark.filterwarnings("error")
    def test_smooth_pieces_converge_at_large_x(self):
        # at this x the far integrand as defined, 2 alpha(t) - alpha(t - x)
        # - alpha(t + x) over t, loses its digits to cancellation, and quad
        # over [x, 4x] in t reports no convergence
        x = 2.5e6
        dec = int_decomposition(self.SPEC, x, 20 * x)
        assert -self.SPEC.c * math.pi ** 2 / 4.0 <= dec.second < 0.0
        assert dec.third >= 0.0

    def test_smooth_pieces_against_mpmath(self):
        # the integrands as defined, (alpha(x - t) - alpha(x + t) + 2t) / t and
        # (2 alpha(t) - alpha(t - x) - alpha(t + x)) / t, at 30 digits
        spec, x, t_max = AlphaSpec(1.3), 3000.0, 1e5
        dec = int_decomposition(spec, x, t_max)
        with mpmath.workdps(30):
            X = mpmath.mpf(x)

            def alpha(t):
                return t + spec.c * mpmath.log1p(t)

            second = mpmath.quad(lambda t: (alpha(X - t) - alpha(X + t) + 2 * t) / t,
                                 [1, 10, 100, 1000, X - 1])
            third = mpmath.quad(lambda t: (2 * alpha(t) - alpha(t - X) - alpha(t + X)) / t,
                                [X, 2 * X, 4 * X, 16 * X, t_max])
        assert abs(dec.second - float(second)) <= 1e-11
        assert abs(dec.third - float(third)) <= 1e-11

    def test_unconverged_quadrature_raises(self, monkeypatch):
        from scipy import integrate
        quad = integrate.quad

        def unconverged(*args, **kwargs):
            return (*quad(*args, **kwargs), "The maximum number of subdivisions has been achieved.")

        monkeypatch.setattr(integrate, "quad", unconverged)
        with pytest.raises(ArithmeticError, match="did not converge"):
            int_decomposition(self.SPEC, 100.0, 1e5)

    def test_level_blocks_keep_the_bits_of_first(self, monkeypatch):
        # the x values of this class, each walked in one block at the
        # default size; (x, levels per block) with the blocks a few levels
        # long, or a few blocks at x = 1e4 to keep the walk short
        cases = [(10.0, 1), (10.0, 3), (37.5, 3), (100.0, 3), (1000.0, 3), (1000.0, 64),
                 (10000.0, 997)]
        for spec in (self.SPEC, AlphaSpec(1.3)):
            whole = [int_decomposition(spec, x, max(1e5, 20 * x)).first for x, _ in cases]
            for (x, block), first in zip(cases, whole):
                monkeypatch.setattr(catalog, "_LEVEL_BLOCK", block)
                assert int_decomposition(spec, x, max(1e5, 20 * x)).first.hex() == first.hex()
            monkeypatch.undo()

    def test_first_integral_against_brute_quadrature(self):
        # oracle: Riemann sum on a fine grid that never straddles a jump of
        # floor(alpha(t)) (refined at the breakpoints found by scanning)
        spec = AlphaSpec(1.3)
        x = 37.5
        dec = int_decomposition(spec, x, 1e4)
        ts = np.linspace(1.0, x, 400_001)
        vals = np.floor(spec.alpha(ts))
        jumps = np.nonzero(np.diff(vals))[0]
        edges = np.unique(np.concatenate([ts, ts[jumps + 1]]))
        mids = 0.5 * (edges[:-1] + edges[1:])
        integrand = 2.0 * (np.floor(spec.alpha(mids)) - mids) / mids
        oracle = float(np.sum(integrand * np.diff(edges)))
        assert dec.first == pytest.approx(oracle, abs=5e-3)

    def test_t_max_guard(self):
        with pytest.raises(ValueError):
            int_decomposition(self.SPEC, 100.0, 150.0)

    def test_x_guard(self):
        with pytest.raises(ValueError):
            int_decomposition(self.SPEC, 1.5, 100.0)


class TestBuildGenerator:
    def test_dispatch(self):
        seq = build_generator("lattice", R=5.5)
        assert len(seq) == 10

    def test_alpha_dispatch(self):
        seq = build_generator("alpha", c=1.0, N=50)
        assert len(seq) == 100

    def test_alpha_count_must_be_integral(self):
        assert len(build_generator("alpha", N=50.0)) == 100
        with pytest.raises(ValueError):
            build_generator("alpha", N=50.5)

    def test_unknown(self):
        with pytest.raises(ValueError):
            build_generator("mystery")


def test_import_leaves_scipy_integrate_unloaded():
    # scipy.integrate takes most of a second to import; only
    # int_decomposition needs it, so importing the package must not load it
    src = Path(__file__).resolve().parents[1] / "src"
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); import expozeros; "
            "print('scipy.integrate' in sys.modules)")
    out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"


def test_bisection_stops_where_floats_run_out():
    # above about 4.5e6 the bracket width 1e-9 is below one ulp, so a
    # bracket of adjacent floats can no longer halve; run in a child so a
    # regression fails on the timeout instead of hanging the suite
    src = Path(__file__).resolve().parents[1] / "src"
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); import math, numpy as np\n"
            "from expozeros.catalog import _bisect_newton, _footnote_count, _footnote_count_prime\n"
            "lo, hi = 1e6, 2e7\n"
            "k = _footnote_count(np.array([1e7]))\n"
            "r = _bisect_newton(_footnote_count, _footnote_count_prime, k, lo, hi)\n"
            "print(repr(float(r[0])), bool(lo <= r[0] <= hi))")
    out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True,
                         text=True, check=True, timeout=20)
    root, inside = out.stdout.split()
    assert inside == "True"
    assert abs(float(root) - 1e7) <= 1e-8 * 1e7
