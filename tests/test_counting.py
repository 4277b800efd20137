import hashlib
import math
import re
import sys
import threading
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    axis_sequences,
    clustered_sequences,
    draw_point,
    lattice_log_abs,
    outer_zero_above_hypot,
    random_conjugate_sequence,
    random_sequence,
    random_symmetric_sequence,
    riemann_step_integral,
    slope_scale,
    value_scale,
)
from expozeros import counting, product
from expozeros import (
    DivergentIntegralError,
    Zero,
    ZeroSequence,
    angular_density,
    circle_average,
    count_disc,
    count_square,
    evaluate_product,
    growth_check,
    imaginary_inverse_sum,
    integer_lattice,
    jensen_counting_side,
    jensen_identity_check,
    lindelof_sums,
    log_modulus_via_counting,
    log_potential,
    profile,
    shift_origin,
    step_integral,
    tail_correction,
)
from expozeros.criteria import default_base_point, phi

TRIO = ZeroSequence((Zero(1 + 0j), Zero(-1 + 0j), Zero(2j)))


class TestProfile:
    def test_merged_events(self):
        prof = profile(TRIO, 0j)
        assert prof.events == [(1.0, 2), (2.0, 1)]
        assert count_disc(prof, 1.5) == 2

    def test_center_on_zero(self):
        prof = profile(ZeroSequence((Zero(1 + 0j, 2),)), 1.0)
        assert prof.events == [(0.0, 2)]
        assert count_disc(prof, 0.0) == 2

    def test_empty(self):
        prof = profile(ZeroSequence(()), 3 + 4j)
        assert prof.total == 0
        assert count_disc(prof, 100.0) == 0


class TestCountDisc:
    @pytest.mark.parametrize("t,expected", [(1.0, 2), (0.99, 0), (2.0, 3)])
    def test_examples(self, t, expected):
        assert count_disc(profile(TRIO, 0j), t) == expected

    def test_negative_radius(self):
        with pytest.raises(ValueError):
            count_disc(profile(TRIO, 0j), -0.1)

    def test_monotone_right_continuous(self):
        rng = np.random.default_rng(3)
        seq = random_sequence(rng, n_max=40, r_min=0.5, r_max=10.0)
        # the second input's outermost zero a has np.abs(a) above abs(a)
        outer, _ = outer_zero_above_hypot(np.random.default_rng(35))
        for seq, c in ((seq, 0.3 + 0.1j), (outer, 0j)):
            prof = profile(seq, c)
            ts = np.sort(rng.uniform(0, 12, 200))
            counts = [count_disc(prof, t) for t in ts]
            assert all(a <= b for a, b in zip(counts, counts[1:]))
            for d, m in prof.events:
                assert count_disc(prof, d) == count_disc(prof, float(np.nextafter(d, np.inf)))
                if d > 0:
                    assert count_disc(prof, float(np.nextafter(d, -np.inf))) == count_disc(prof, d) - m
            # the closed disc through the farthest zero holds every zero
            farthest = max(abs(a - c) for a in seq.positions.tolist())
            assert count_disc(prof, farthest) == prof.total


class TestCountSquare:
    @pytest.mark.parametrize("t,expected", [(1.0, 2), (2.0, 3)])
    def test_trio(self, t, expected):
        assert count_square(TRIO, 0j, t) == expected

    def test_corner_included(self):
        assert count_square(ZeroSequence((Zero(1 + 1j),)), 0j, 1.0) == 1

    def test_negative(self):
        with pytest.raises(ValueError):
            count_square(TRIO, 0j, -1.0)

    def test_sandwich_against_disc(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            seq = random_sequence(rng, n_max=60, r_min=0.5, r_max=20.0)
            c = draw_point(rng, seq, 3.0, min_dist=0.0)
            prof = profile(seq, c)
            for t in rng.uniform(0.1, 25.0, 10):
                sq = count_square(seq, c, t)
                assert sq >= count_disc(prof, t)
                assert sq <= count_disc(prof, t * math.sqrt(2.0))
        # the empty sequence, where both sides of the sandwich are 0
        empty = ZeroSequence(())
        assert count_square(empty, 1 + 1j, 5.0) == count_disc(profile(empty, 1 + 1j), 5.0) == 0


class TestImaginaryInverseSum:
    def test_real_zeros(self):
        assert imaginary_inverse_sum(ZeroSequence((Zero(1 + 0j), Zero(-1 + 0j)))) == 0.0
        assert imaginary_inverse_sum(ZeroSequence(())) == 0.0

    def test_unit_imaginary(self):
        assert imaginary_inverse_sum(ZeroSequence((Zero(1j),))) == pytest.approx(1.0, abs=1e-15)

    def test_one_plus_i(self):
        # independent oracle: 1/a = conj(a)/|a|^2 computed by hand
        a = 1 + 1j
        oracle = abs((a.conjugate() / (abs(a) ** 2)).imag)
        got = imaginary_inverse_sum(ZeroSequence((Zero(a),)))
        assert got == pytest.approx(0.5, abs=1e-15)
        assert got == pytest.approx(oracle, abs=1e-15)

    def test_origin_error(self):
        with pytest.raises(ValueError):
            imaginary_inverse_sum(ZeroSequence((Zero(0j),)))


class TestLindelof:
    def test_symmetric_cancellation(self):
        seq = ZeroSequence(tuple(Zero(complex(s * k, 0)) for k in (1, 2, 3) for s in (1, -1)))
        trace = lindelof_sums(seq, [1.5, 2.5, 3.5])
        assert all(s == 0 for s in trace.partial_sums)
        assert trace.converged

    def test_geometric_partial_sums(self):
        seq = ZeroSequence(tuple(Zero(complex(v, 0)) for v in (1.0, 2.0, 4.0, 8.0)))
        radii = [1.5, 2.5, 4.5, 8.5] + list(np.linspace(9.0, 16.0, 12))
        trace = lindelof_sums(seq, radii)
        assert [s.real for s in trace.partial_sums[:4]] == [1.0, 1.5, 1.75, 1.875]
        assert trace.converged
        assert trace.final_value == 1.875

    def test_footnote_truncation_not_converged(self):
        from expozeros import footnote_sequence

        seq = footnote_sequence(2e4)
        radii = np.geomspace(8.0, 2e4, 48)
        trace = lindelof_sums(seq, radii)
        sums = np.array([s.real for s in trace.partial_sums])
        assert np.all(np.diff(sums) <= 0)  # one-sided negative zeros: monotone
        assert np.all(np.abs(np.array([s.imag for s in trace.partial_sums])) == 0)
        assert not trace.converged  # inconclusive-at-truncation

    def test_boundary_tie_excluded(self):
        seq = ZeroSequence((Zero(1 + 0j), Zero(2 + 0j)))
        trace = lindelof_sums(seq, [1.0, 2.0, 3.0])
        assert trace.partial_sums[0] == 0  # strict |a| < 1
        assert trace.boundary_ties == 2

    def test_radius_compared_with_hypot(self):
        # the outermost zero lies inside R0 = np.abs(a) by hypot; sums run
        # in the stored order, ascending hypot
        rng = np.random.default_rng(33)
        for _ in range(50):
            seq, R0 = outer_zero_above_hypot(rng)
            trace = lindelof_sums(seq, [R0 / 2.0, R0])
            assert trace.final_value == np.cumsum(1.0 / seq.positions)[-1]
            assert trace.boundary_ties == 0
            right, left = angular_density(seq, math.pi / 2, R0)
            assert round(right * R0) + round(left * R0) == len(seq)

    def test_requires_ascending(self):
        with pytest.raises(ValueError):
            lindelof_sums(TRIO, [2.0, 1.0])

    def test_origin_error(self):
        with pytest.raises(ValueError):
            lindelof_sums(ZeroSequence((Zero(0j),)), [1.0])


class TestGrowth:
    def test_lattice_linear_ratio(self):
        seq = integer_lattice(1002.0)
        est = growth_check(seq, np.arange(1.0, 1001.0))
        assert est.linear_ratio_sup == pytest.approx(2.0, rel=0.01)
        assert est.annulus_increment_max_ratio <= 2.0

    def test_empty(self):
        est = growth_check(ZeroSequence(()), [1.0, 2.0, 4.0])
        assert est.linear_ratio_sup == 0.0
        assert est.annulus_increment_max_ratio == 0.0

    def test_sparse_squares(self):
        seq = ZeroSequence(tuple(Zero(complex(k * k, 0)) for k in range(1, 101)))
        radii = np.arange(1.0, 90.0)
        est = growth_check(seq, radii)
        assert est.annulus_increment_max_ratio <= 1.0
        # increments thin out: the trend over the top decade is not growing
        assert est.increment_trend_slope is not None
        assert est.increment_trend_slope <= 0.05

    def test_radius_guard(self):
        seq = integer_lattice(100.0)
        with pytest.raises(ValueError):
            growth_check(seq, [99.5])

    def test_shift_invariance_of_estimates(self):
        seq = integer_lattice(500.0)
        radii = np.arange(50.0, 450.0)
        base = growth_check(seq, radii)
        moved = growth_check(shift_origin(seq, 2.5), radii)
        # n(c,t) differs from n(0,t) only inside shells of width |c|
        assert abs(base.linear_ratio_sup - moved.linear_ratio_sup) < 0.15
        assert abs(base.annulus_increment_max_ratio - moved.annulus_increment_max_ratio) < 0.15


class TestAngularDensity:
    def test_lattice(self):
        seq = integer_lattice(1000.0)
        right, left = angular_density(seq, math.pi / 4, 1000.0)
        assert right == pytest.approx(0.999, abs=1e-12)
        assert left == pytest.approx(0.999, abs=1e-12)

    def test_imaginary_axis(self):
        seq = ZeroSequence(tuple(Zero(complex(0, k)) for k in range(1, 101)))
        right, left = angular_density(seq, math.pi / 4, 100.5)
        assert (right, left) == (0.0, 0.0)

    def test_empty(self):
        assert tuple(angular_density(ZeroSequence(()), math.pi / 4, 10.0)) == (0.0, 0.0)

    def test_boundary_tie(self):
        seq = ZeroSequence((Zero(5 + 0j), Zero(-3 + 0j)))
        dens = angular_density(seq, math.pi / 2, 5.0)
        assert dens.boundary_ties == 1
        assert dens.right_density == 0.0
        assert dens.left_density == pytest.approx(1 / 5)

    @pytest.mark.parametrize("alpha", [0.0, -0.2, math.pi / 2 + 0.01])
    def test_alpha_range(self, alpha):
        with pytest.raises(ValueError):
            angular_density(TRIO, alpha, 10.0)

    def test_wrapped_left_sector(self):
        # argument near -pi must count toward the mirrored sector
        seq = ZeroSequence((Zero(complex(-2.0, -0.01)),))
        right, left = angular_density(seq, math.pi / 4, 10.0)
        assert (right, left) == (0.0, pytest.approx(0.1))


_points = st.complex_numbers(max_magnitude=2e3, allow_nan=False, allow_infinity=False)


LATTICE_10 = integer_lattice(10.0)
NAN = math.nan
BAD_RADII = {
    "evaluate_product-nan": lambda: evaluate_product(LATTICE_10, 0.5, NAN),
    "evaluate_product-zero": lambda: evaluate_product(LATTICE_10, 0.5, 0.0),
    "evaluate_product-negative": lambda: evaluate_product(LATTICE_10, 0.5, -3.0),
    "count_disc-nan": lambda: count_disc(profile(LATTICE_10, 0j), NAN),
    "count_square-nan": lambda: count_square(LATTICE_10, 0j, NAN),
    "angular_density-nan": lambda: angular_density(LATTICE_10, math.pi / 4, NAN),
    "lindelof_sums-nan": lambda: lindelof_sums(LATTICE_10, [2.0, NAN]),
    "lindelof_sums-lone-nan": lambda: lindelof_sums(LATTICE_10, [NAN]),
    "lindelof_sums-zero": lambda: lindelof_sums(LATTICE_10, [0.0, 2.0]),
    "growth_check-nan": lambda: growth_check(LATTICE_10, [2.0, NAN]),
    "circle_average-nan": lambda: circle_average(LATTICE_10, 0.5, NAN, 64),
    "tail_correction-nan": lambda: tail_correction(LATTICE_10, 0.5, NAN),
}


@pytest.mark.parametrize("call", BAD_RADII.values(), ids=BAD_RADII.keys())
def test_nan_and_nonpositive_radii_raise(call):
    # each used to return a silent result: the empty product, every zero
    # counted, no zero counted, nan densities, converged sums, nan ratios,
    # a nan average, a nan correction
    with pytest.raises(ValueError):
        call()


BAD_POINTS = {
    "evaluate_product-nan": lambda: evaluate_product(LATTICE_10, NAN),
    "evaluate_product-inf": lambda: evaluate_product(LATTICE_10, math.inf),
    "log_modulus_via_counting-nan": lambda: log_modulus_via_counting(LATTICE_10, NAN),
    "step_integral-x-nan": lambda: step_integral(LATTICE_10, 0.5, NAN, 0.0, math.inf),
    "step_integral-x-nan-finite-range": lambda: step_integral(LATTICE_10, 0.5, NAN, 0.0, 5.0),
    "step_integral-b-nan": lambda: step_integral(LATTICE_10, NAN, 0.5, 0.0, math.inf),
    "step_integral-x-complex-inf":
        lambda: step_integral(LATTICE_10, 0.5, complex(1, math.inf), 1.0, math.inf),
    "log_potential-points-nan": lambda: log_potential(LATTICE_10, [NAN], 0.5),
    "log_potential-points-complex-nan": lambda: log_potential(LATTICE_10, [0.5, NAN + 1j], 0.5),
    "log_potential-b-nan": lambda: log_potential(LATTICE_10, [0.5], NAN),
    "jensen_counting_side-nan": lambda: jensen_counting_side(LATTICE_10, NAN),
    "circle_average-z-nan": lambda: circle_average(LATTICE_10, NAN, 1.0, 64),
    "jensen_identity_check-nan": lambda: jensen_identity_check(LATTICE_10, NAN, 64),
    "tail_correction-z-nan": lambda: tail_correction(LATTICE_10, NAN, 5.0),
    "profile-c-nan": lambda: profile(LATTICE_10, NAN),
    "count_square-c-nan": lambda: count_square(LATTICE_10, NAN, 10.0),
}


@pytest.mark.parametrize("call", BAD_POINTS.values(), ids=BAD_POINTS.keys())
def test_non_finite_points_raise(call):
    # each used to return nan (evaluate_product at inf also warned), and
    # step_integral with a nan x skipped its completeness check
    with pytest.raises(ValueError, match="must be finite"):
        call()


@pytest.mark.parametrize("value", [math.nan, -math.inf, complex(1.0, math.nan),
                                   complex(math.inf, 0.0), np.float64(math.nan),
                                   np.complex128(complex(0.0, math.inf)), np.float32(math.nan)])
def test_require_finite_names_a_bad_scalar(value):
    # Python floats and complexes (numpy's float64 and complex128 among
    # them) take the scalar check, other types the array one; both name
    # the argument and the value
    with pytest.raises(ValueError, match=re.escape(f"z must be finite, got {np.asarray(value)}")):
        counting._require_finite(b=0.5, z=value)


def test_require_finite_passes_finite_values():
    counting._require_finite(a=1.5, b=2.0 - 3.0j, c=np.float64(1.0), d=7, e=np.float32(1.0),
                             f=[1.0, 2.0 + 1j], g=None, h=-0.0)


class TestStepIntegral:
    @settings(max_examples=80, deadline=None)
    @given(seq=axis_sequences(), b=_points, x=_points, t_lo=st.floats(0.0, 10.0),
           width=st.one_of(st.just(math.inf), st.floats(0.5, 1e3)))
    def test_antisymmetric_bit_for_bit(self, seq, b, x, t_lo, width):
        if t_lo == 0.0:
            assume(not np.any(seq.positions == b) and not np.any(seq.positions == x))
        forward = step_integral(seq, b, x, t_lo, t_lo + width)
        backward = step_integral(seq, x, b, t_lo, t_lo + width)
        # + 0.0 folds -0.0 into 0.0: at b = x both calls give 0.0, so the sign
        # of a zero value cannot be antisymmetric
        assert np.float64(forward + 0.0).tobytes() == np.float64(-backward + 0.0).tobytes()

    def test_origin_logs_shared_across_threads(self):
        # threads racing to build the derived values of the same sequences
        # (the origin logs through step integrals, the shell index and the
        # product's two tables), each in its own order, get the bits of a
        # cold single-threaded run
        rng = np.random.default_rng(8)
        seqs = [random_sequence(rng, n_max=400, r_min=0.5) for _ in range(6)]
        points = [complex(*rng.uniform(-20.0, 20.0, 2)) for _ in range(4)]
        reads = [
            lambda s: [step_integral(s, 0.0, z, 0.0, math.inf) for z in points],
            lambda s: [array.tobytes() for array in counting.shell_index(s)],
            lambda s: [array.tobytes() for array in s.derived(product._shell_table)],
            lambda s: s.derived(product._counting_table).tobytes(),
        ]
        want = [[read(ZeroSequence.from_arrays(s.positions, s.multiplicities)) for read in reads]
                for s in seqs]
        got = [None] * 8

        def work(k):
            order = [(k + i) % len(reads) for i in range(len(reads))]
            got[k] = [[None] * len(reads) for _ in seqs]
            for i, s in enumerate(seqs):
                for r in order:
                    got[k][i][r] = reads[r](s)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work, args=(k,)) for k in range(8)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert got == [want] * 8

    def test_same_centers_exact_zero(self):
        rng = np.random.default_rng(5)
        seq = random_sequence(rng, n_max=30)
        assert step_integral(seq, 1 + 1j, 1 + 1j, 0.5, 20.0) == 0.0

    def test_single_imaginary_zero(self):
        seq = ZeroSequence((Zero(1j),))
        got = step_integral(seq, 0.0, 1.0, 0.0, math.inf)
        assert got == pytest.approx(0.5 * math.log(2.0), abs=1e-14)

    def test_two_real_zeros(self):
        seq = ZeroSequence((Zero(1 + 0j), Zero(-1 + 0j)))
        got = step_integral(seq, 0.0, 2.0, 0.0, math.inf)
        assert got == pytest.approx(math.log(3.0), abs=1e-14)

    def test_divergence_identifies_zero(self):
        seq = ZeroSequence((Zero(1 + 0j), Zero(3 + 0j)))
        with pytest.raises(DivergentIntegralError) as err:
            step_integral(seq, 1.0, 2.0, 0.0, 10.0)
        assert err.value.zero == 1 + 0j

    def test_divergence_only_at_zero_lower_limit(self):
        seq = ZeroSequence((Zero(1 + 0j),))
        assert math.isfinite(step_integral(seq, 1.0, 2.0, 0.5, 10.0))

    def test_completeness_guard(self):
        seq = ZeroSequence((Zero(1 + 0j),), truncation_radius=10.0)
        with pytest.raises(ValueError):
            step_integral(seq, 0.0, 3.0, 0.0, 8.0)
        assert math.isfinite(step_integral(seq, 0.0, 3.0, 0.0, 7.0))
        # infinite upper limit = effective full range over the stored zeros
        assert math.isfinite(step_integral(seq, 0.0, 3.0, 0.0, math.inf))

    def test_bad_range(self):
        with pytest.raises(ValueError):
            step_integral(TRIO, 0.0, 1.5, -1.0, 2.0)
        with pytest.raises(ValueError):
            step_integral(TRIO, 0.0, 1.5, 2.0, 2.0)

    def test_antisymmetry_exact(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            seq = random_sequence(rng, n_max=80, r_min=0.5, r_max=20.0)
            b = draw_point(rng, seq, 4.0)
            x = draw_point(rng, seq, 4.0)
            lo = float(rng.uniform(0.0, 1.0))
            hi = float(rng.uniform(lo + 0.5, 40.0))
            assert step_integral(seq, b, x, lo, hi) == -step_integral(seq, x, b, lo, hi)

    def test_additivity(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            seq = random_sequence(rng, n_max=80, r_min=0.5, r_max=20.0)
            b = draw_point(rng, seq, 4.0)
            x = draw_point(rng, seq, 4.0)
            t1, t2, t3 = np.sort(rng.uniform(0.01, 40.0, 3))
            whole = step_integral(seq, b, x, t1, t3)
            parts = step_integral(seq, b, x, t1, t2) + step_integral(seq, b, x, t2, t3)
            assert whole == pytest.approx(parts, rel=1e-12, abs=1e-12)

    def test_full_range_closed_form(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            seq = random_sequence(rng, n_max=60, r_min=0.8, r_max=25.0)
            b = draw_point(rng, seq, 5.0)
            x = draw_point(rng, seq, 5.0)
            closed = math.fsum(
                z.multiplicity * (math.log(abs(z.position - x)) - math.log(abs(z.position - b)))
                for z in seq.zeros
            )
            got = step_integral(seq, b, x, 0.0, math.inf)
            assert got == pytest.approx(closed, rel=1e-12, abs=1e-12)
        # the empty sum, over the full range and over a checked finite one
        assert step_integral(ZeroSequence(()), 0.5, 2j, 0.0, math.inf) == 0.0
        assert step_integral(ZeroSequence((), truncation_radius=10.0), 0.5, 2.0, 0.0, 5.0) == 0.0

    def test_against_riemann_oracle_spot(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            seq = random_sequence(rng, n_max=40, r_min=0.5, r_max=20.0)
            b = draw_point(rng, seq, 4.0)
            x = draw_point(rng, seq, 4.0)
            lo = float(rng.uniform(0.0, 1.0))
            hi = float(rng.uniform(lo + 1.0, 30.0))
            oracle = riemann_step_integral(seq, b, x, lo, hi, panels=200_000)
            assert step_integral(seq, b, x, lo, hi) == pytest.approx(oracle, abs=1e-6)

    def test_reflection_symmetry_exact(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            seq = random_symmetric_sequence(rng)
            neg = ZeroSequence(tuple(Zero(-z.position, z.multiplicity) for z in seq.zeros))
            x = float(rng.uniform(0.5, 20.0))
            assert step_integral(seq, 0.0, x, 1.0, math.inf) == step_integral(
                neg, 0.0, -x, 1.0, math.inf
            )


U = 2.0 ** -53


def _log_clamps(seq, p, b, t_lo, t_hi):
    """L_p and L_b of the log_potential docstring, per stored zero."""
    with np.errstate(divide="ignore"):
        lp = np.log(np.clip(np.abs(seq.positions - p), t_lo, t_hi))
        lb = np.log(np.clip(np.abs(seq.positions - b), t_lo, t_hi))
    return lp, lb


def _exact_bound(seq, p, b, t_lo=0.0, t_hi=math.inf):
    lp, lb = _log_clamps(seq, p, b, t_lo, t_hi)
    return 70 * U * float(np.sum(seq.multiplicities * (1.0 + np.abs(lp) + np.abs(lb))))


def _reduction_bound(seq, p, b, value, t_lo=0.0, t_hi=math.inf):
    lp, lb = _log_clamps(seq, p, b, t_lo, t_hi)
    return 64 * U * float(np.sum(seq.multiplicities * np.abs(lp - lb))) + 2 * U * abs(value)


def _assert_scalar_matches(seq, b, p, t_lo, t_hi, got):
    """step_integral at p is -inf where the log_potential value got is, and
    within the reduction bound of it elsewhere."""
    scalar = step_integral(seq, b, p, t_lo, t_hi)
    if got == -math.inf:
        assert scalar == -math.inf
    else:
        assert abs(got - scalar) <= _reduction_bound(seq, p, b, scalar, t_lo, t_hi)


def _numpy_pairwise(terms: list, lo: int = 0, n: int | None = None) -> float:
    """numpy's pairwise sum of terms[lo:lo + n] along a contiguous axis:
    fewer than 8 terms one by one from 0.0; up to 128 in 8 accumulators,
    joined as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the
    leftover terms one by one; a longer run halved at a multiple of 8."""
    n = len(terms) if n is None else n
    if n < 8:
        total = 0.0
        for term in terms[lo:lo + n]:
            total += term
        return total
    if n <= 128:
        acc = terms[lo:lo + 8]
        whole = n - n % 8
        for i in range(lo + 8, lo + whole, 8):
            for j in range(8):
                acc[j] += terms[i + j]
        total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
        for term in terms[lo + whole:lo + n]:
            total += term
        return total
    half = n // 2
    half -= half % 8
    return _numpy_pairwise(terms, lo, half) + _numpy_pairwise(terms, lo + half, n - half)


zero_lists = st.lists(
    st.tuples(st.floats(-30, 30), st.floats(-30, 30), st.integers(1, 3)),
    min_size=1, max_size=150,
)


def _sequence(raw):
    return ZeroSequence(tuple(Zero(complex(re, im), m) for re, im, m in raw))


@st.composite
def guard_cases(draw):
    """A sequence, points and a base point for the off-axis guard: zeros at
    Re a up to 1 or up to 1e200, with Im a zero or 1e-300 to 1e-155; points
    on zeros, 1e-300 to 1e-155 above or below them, on the real axis under
    them, and at random; b off the zeros, real or complex."""
    scale = draw(st.sampled_from((1.0, 1e200)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 40))

    def tiny(size):
        return 10.0 ** rng.uniform(-300, -155, size) * rng.choice((-1.0, 1.0), size)

    im = np.where(rng.random(n) < draw(st.sampled_from((0.0, 0.5))), tiny(n), 0.0)
    seq = ZeroSequence.from_arrays(scale * rng.uniform(-1.0, 1.0, n) + 1j * im,
                                   rng.integers(1, 4, n))
    pos = seq.positions[rng.integers(0, len(seq), 12)]
    points = np.concatenate([pos[:3], pos[3:9] + 1j * tiny(6), pos[9:].real,
                             scale * (rng.uniform(-1.0, 1.0, 4) + 1j * rng.uniform(-1.0, 1.0, 4))])
    b = scale * (2.0 + draw(st.sampled_from((0.0, 1.0))) * 1j)
    return seq, rng.permutation(points), b


@st.composite
def evaluator_sequences(draw):
    """A conftest random, symmetric or conjugate sequence from a drawn seed,
    or a clustered one."""
    kind = draw(st.sampled_from(("random", "symmetric", "conjugate", "clustered")))
    if kind == "clustered":
        return draw(clustered_sequences())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    build = {"random": random_sequence, "symmetric": random_symmetric_sequence,
             "conjugate": random_conjugate_sequence}[kind]
    return build(rng)


@st.composite
def even_sequences(draw):
    """S and -S as one sequence: real and complex zeros with multiplicities
    1-3, the origin among them at times, and the zero parts of -S signed
    either way, so that 0.0 in S may meet -0.0 in -S or 0.0."""
    part = st.one_of(st.floats(0.05, 30.0), st.floats(-30.0, -0.05), st.sampled_from((0.0, -0.0)))
    zeros = draw(st.lists(st.tuples(part, part, st.integers(1, 3)), min_size=1, max_size=25))
    s = np.array([complex(x, y) for x, y, _ in zeros])
    m = np.array([k for _, _, k in zeros], dtype=float)
    neg = -s
    sign = draw(st.sampled_from((None, 0.0, -0.0)))
    if sign is not None:
        neg.real[neg.real == 0.0] = sign
        neg.imag[neg.imag == 0.0] = sign
    return ZeroSequence.from_arrays(np.concatenate([s, neg]), np.concatenate([m, m]))


def _mirrored(extra=()):
    """S and -S with multiplicities 1-3, plus the zeros extra."""
    n = np.arange(1.0, 40.0)
    s = np.concatenate([n + 0.25, 1.5 * n + 2.0j, [3.0 - 0.5j]])
    m = np.arange(s.size) % 3 + 1
    return ZeroSequence.from_arrays(np.concatenate([s, -s, extra]),
                                    np.concatenate([m, m, np.ones(len(extra))]))


def _outcome(sum_, terms):
    """The bits of sum_(terms), or the type and message of what it raises."""
    try:
        return float(sum_(terms)).hex()
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


@st.composite
def term_arrays(draw):
    """Up to 3000 floats (exact_parts' fsum cut-off is 512): signed mantissas
    at exponents from a drawn window of the whole double range, subnormals
    and underflow to zero included, with signed zeros and cancelling
    triples [x, y, -x] mixed in and the order shuffled."""
    n = draw(st.integers(0, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    lo = draw(st.integers(-1080, 1024))
    hi = draw(st.integers(lo, min(lo + draw(st.sampled_from((0, 40, 200, 2104))), 1024)))
    signs = rng.choice((-1.0, 1.0), n)
    terms = np.ldexp(rng.uniform(0.5, 1.0, n) * signs, rng.integers(lo, hi + 1, n))
    terms[rng.random(n) < draw(st.sampled_from((0.0, 0.1, 0.9)))] = -0.0
    terms[rng.random(n) < 0.05] = 0.0
    triples = [[x, y, -x] for x, y in zip(np.ldexp(rng.choice((-1.0, 1.0), 5), rng.integers(0, 1024, 5)),
                                            np.ldexp(rng.uniform(-1.0, 1.0, 5), rng.integers(-1074, 0, 5)))]
    return rng.permutation(np.concatenate([terms, *triples[:draw(st.integers(0, 5))]]))


@st.composite
def shell_sequences(draw):
    """Up to 40 zeros whose moduli lie in a drawn window of the double
    range, subnormals included, on either axis or off both, with
    multiplicities 1-3: empty and one-zero sequences among them, and at
    times a stored origin."""
    n = draw(st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    lo = draw(st.one_of(st.integers(-1080, -1020), st.integers(-1020, 1020)))   # subnormals
    hi = draw(st.integers(lo, min(lo + draw(st.sampled_from((0, 3, 60, 2100))), 1020)))
    mods = np.ldexp(rng.uniform(0.5, 1.0, n), rng.integers(lo, hi + 1, n))
    angles = rng.choice((0.0, math.pi, math.pi / 2, -math.pi / 2, 1.0, -2.5), n)
    positions = [complex(m * math.cos(t), m * math.sin(t)) for m, t in zip(mods, angles)]
    positions += draw(st.sampled_from(([], [], [0j], [complex(-0.0, 0.0)], [complex(0.0, -0.0)])))
    return ZeroSequence.from_arrays(positions, rng.integers(1, 4, len(positions)))


def _exact_negation(values) -> list[float]:
    """Non-overlapping floats whose exact sum is -sum(values): the partials
    of Shewchuk's summation (math.fsum's), negated."""
    partials: list[float] = []
    for x in np.asarray(values, dtype=float).tolist():
        i = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        partials[i:] = [x]
    return [-p for p in partials]


@st.composite
def midpoint_arrays(draw):
    """More than 512 floats whose exact total is the midpoint between a
    drawn double r0 (at times a power of two, whose gaps differ) and its
    neighbour on a drawn side, exactly or off by 2**-k of the half gap:
    terms within 2**-60 to 2**10 of |r0|, their exact negation, r0, the half
    gap and the offset, shuffled.  Offsets of 2**-30 and less of the half
    gap lie inside the certificate's bound, so those totals must fall back;
    larger ones are certified after one split."""
    n = draw(st.integers(510, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    e0 = draw(st.integers(-900, 900))
    sign = float(rng.choice((-1.0, 1.0)))
    r0 = math.ldexp(sign if draw(st.booleans()) else sign * rng.uniform(0.5, 1.0), e0)
    half_gap = (math.nextafter(r0, draw(st.sampled_from((-math.inf, math.inf)))) - r0) / 2.0
    k = draw(st.sampled_from((None, 5, 12, 30, 60, 90)))
    offset = 0.0 if k is None else math.ldexp(half_gap, -k) * float(rng.choice((-1.0, 1.0)))
    terms = np.ldexp(rng.uniform(-1.0, 1.0, n), e0 + rng.integers(-60, 11, n))
    return rng.permutation(np.concatenate([terms, _exact_negation(terms), [r0, half_gap, offset]]))


def _real_with_signed_zero_parts(seed: int) -> ZeroSequence:
    """Real zeros with +0.0 and -0.0 imaginary parts, among them zeros
    whose squares overflow (|a| 1e200) and ones at 1 and near it."""
    rng = np.random.default_rng(seed)
    re = np.concatenate([rng.uniform(-50.0, 50.0, 200) * 10.0 ** rng.integers(-2, 2, 200),
                         [1e200, -3e180, 2.5, -7.0, 1.0, math.nextafter(1.0, 0.0), -1.0]])
    im = rng.choice((0.0, -0.0), re.size)
    pos = np.column_stack([re, im]).view(np.complex128)[:, 0]
    seq = ZeroSequence.from_arrays(pos, rng.integers(1, 3, re.size))
    signs = np.signbit(seq.positions.imag)
    assert seq.all_real and signs.any() and not signs.all()
    return seq


class TestShellIndex:
    @settings(max_examples=300, deadline=None)
    @given(shell_sequences())
    def test_moduli_and_shells_against_a_scan(self, seq):
        # every modulus is Python's abs bit for bit, and the shells are
        # the runs of j = frexp(|a|)[1] - 1 a scan of the nonzero moduli
        # finds, a stored origin before them
        moduli, got_exponents, got_starts = counting.shell_index(seq)
        mods = [abs(a) for a in seq.positions.tolist()]
        assert [m.hex() for m in moduli.tolist()] == [m.hex() for m in mods]
        origin = 0 if seq.origin_excluded else 1
        assert mods[:origin] == [0.0] * origin and 0.0 not in mods[origin:]
        exponents, starts = [], []
        for i in range(origin, len(mods)):
            j = math.frexp(mods[i])[1] - 1
            if not exponents or j != exponents[-1]:
                exponents.append(j)
                starts.append(i)
        assert got_exponents.tolist() == exponents
        assert got_starts.tolist() == starts + [len(seq)]


class TestCenterLogs:
    """The counting kernel's per-zero term rule, taken once a sequence."""

    @pytest.mark.parametrize("seed", range(3))
    def test_real_sequence_off_the_axis_keeps_the_per_cell_bits(self, seed):
        # a real sequence squares -Im c once for every zero; the per-cell
        # form squares Im a - Im c cell by cell, Im a = +0.0 or -0.0.  The
        # centres put cells outside the square range: dy**2 underflows on
        # the zero at 2.5 and overflows for every zero, t_lo**2 underflows
        seq = _real_with_signed_zero_parts(seed)
        pos = seq.positions
        for c in (2.5 + 1e-200j, -7.0 - 3e-170j, 0.3 + 2e170j, 3.1 + 0.7j, -4.0 - 1e-3j):
            for t_lo, t_hi in ((0.0, math.inf), (1.0, math.inf), (0.0, 1.0), (0.5, 40.0),
                               (1e-200, math.inf)):
                got = counting._center_logs(seq, c, t_lo, t_hi)
                cells = 0.5 * counting._doubled_logs(pos.real, pos.imag, c.real, c.imag,
                                                     t_lo, t_hi)
                assert got.tobytes() == cells.tobytes()

    def test_jensen_base_logs_from_the_origin_logs(self):
        # b = 0 over [1, inf): the cached log|a| raised to 0 has the bits of
        # the term rule's log max(|a|, 1), on and off the axis, guard cells
        # (squares out of range) included
        rng = np.random.default_rng(37)
        odd = np.array([1e-200, 3e-170j, 1e200, -2e180j, 1.0, 1j, math.nextafter(1.0, 2.0),
                        complex(0.6, 0.8), complex(math.nextafter(0.6, 0.0), 0.8)])
        seqs = [integer_lattice(50.0), _real_with_signed_zero_parts(4),
                random_sequence(rng, n_max=300, r_min=0.05, r_max=3.0),
                random_conjugate_sequence(rng, r_min=0.5),
                ZeroSequence.from_arrays(np.concatenate([odd, rng.uniform(0.2, 5.0, 50)
                                                         * np.exp(2j * np.pi * rng.random(50))]),
                                         rng.integers(1, 3, odd.size + 50))]
        for seq in seqs:
            got = counting._base_logs(seq, 0j, 1.0, math.inf)
            want = counting._center_logs(seq, 0j, 1.0, math.inf)
            assert got.tobytes() == want.tobytes()
            assert counting._base_logs(seq, 0j, 0.0, math.inf) is seq.derived(counting._origin_logs)
            mult = seq.multiplicities
            for x in (2.5 + 0.25j, -0.3, complex(seq.positions[3])):
                if np.all(seq.positions != x):
                    terms = mult * (counting._center_logs(seq, complex(x), 1.0, math.inf) - want)
                    assert (np.float64(step_integral(seq, 0.0, x, 1.0, math.inf)).tobytes()
                            == np.float64(counting.exact_sum(terms)).tobytes())

    @pytest.mark.parametrize("positions", [[0j, 2.0, -3.0, 0.5], [0j, 2.0, -3.0 + 1.0j, 0.5j]])
    def test_zero_at_the_origin_over_one_to_inf(self, positions):
        # the origin's [0, inf) logs diverge there; over [1, inf) its term is
        # log 1 = 0, and step_integral sums the term rule as before
        seq = ZeroSequence.from_arrays(np.array(positions, dtype=complex),
                                       np.arange(1.0, len(positions) + 1.0))
        assert not seq.origin_excluded
        base = counting._center_logs(seq, 0j, 1.0, math.inf)
        for x in (2.5 + 0.25j, -0.3, 4.0):
            terms = seq.multiplicities * (counting._center_logs(seq, complex(x), 1.0, math.inf) - base)
            assert (np.float64(step_integral(seq, 0.0, x, 1.0, math.inf)).tobytes()
                    == np.float64(counting.exact_sum(terms)).tobytes())
        with pytest.raises(DivergentIntegralError):
            step_integral(seq, 0.0, 4.0, 0.0, math.inf)
        assert counting._origin_logs not in seq.__dict__.get("_derived", {})

    def test_step_terms_of_parts_are_the_whole_terms(self):
        # a prefix and its rest give the whole sequence's terms bit for
        # bit; a part holding x gives None from t = 0, the rest does not
        rng = np.random.default_rng(41)
        seqs = [integer_lattice(50.0), _real_with_signed_zero_parts(5),
                random_sequence(rng, n_max=300, r_min=0.05, r_max=3.0)]
        for seq in seqs:
            cut = len(seq) // 3
            for b, x, t_lo, t_hi in ((0j, 2.5 + 0.25j, 0.0, math.inf), (0j, -0.3, 1.0, math.inf),
                                     (0.7 + 0.1j, 1.9j, 0.5, 40.0)):
                whole = counting.step_terms(seq, b, x, t_lo, t_hi)
                parts = [counting.step_terms(seq, b, x, t_lo, t_hi, part)
                         for part in (slice(0, cut), slice(cut, None))]
                assert np.concatenate(parts).tobytes() == whole.tobytes()
                assert (np.float64(step_integral(seq, b, x, t_lo, t_hi)).tobytes()
                        == np.float64(counting.exact_sum(whole)).tobytes())
            x = complex(seq.positions[cut - 1])
            assert counting.step_terms(seq, 0j, x, 0.0, math.inf, slice(0, cut)) is None
            rest = counting.step_terms(seq, 0j, x, 0.0, math.inf, slice(cut, None))
            assert rest is not None and np.isfinite(rest).all()


class TestExactSum:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(term_arrays(),
                     st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=1500)
                     .map(lambda v: np.array(v, dtype=float))))
    def test_bits_of_fsum(self, terms):
        assert _outcome(counting.exact_sum, terms) == _outcome(math.fsum, terms)
        try:
            total = counting.exact_sum(terms)
        except OverflowError:
            with pytest.raises(OverflowError):
                counting.exact_sum(-terms)
            return
        negated = counting.exact_sum(-terms)
        assert negated == -total
        assert total == 0.0 or negated.hex() == (-total).hex()

    def test_cancelling_triple(self):
        for pad in (0, 1000):
            terms = np.concatenate([[1e16, 1.0, -1e16], np.full(pad, 2.0 ** -60)])
            assert counting.exact_sum(terms) == math.fsum(terms) == 1.0 + pad * 2.0 ** -60

    def test_special_values_as_fsum(self):
        for special in ([math.inf, -math.inf], [math.nan], [1e308, 1e308], [-math.inf, 1.0],
                        [1e308, 1e308, -1e308]):
            for pad in (0, 1000):
                for terms in (np.concatenate([special, np.ones(pad)]),
                              np.concatenate([np.ones(pad), special])):
                    assert _outcome(counting.exact_sum, terms) == _outcome(math.fsum, terms)
        with pytest.raises(ValueError):
            counting.exact_sum(np.concatenate([[math.inf, -math.inf], np.ones(1000)]))
        with pytest.raises(OverflowError):
            counting.exact_sum(np.concatenate([np.ones(1000), [1e308, 1e308]]))
        assert math.isnan(counting.exact_sum(np.concatenate([np.ones(1000), [math.nan]])))

    def test_parts_of_blocks_total_the_whole(self):
        rng = np.random.default_rng(7)
        terms = rng.standard_normal(20000) * 10.0 ** rng.integers(-12, 12, 20000)
        parts = [p for i in range(0, terms.size, 777) for p in counting.exact_parts(terms[i:i + 777])]
        assert math.fsum(parts).hex() == math.fsum(terms).hex()

    # The one-level certificate: its edges are totals near a rounding
    # midpoint (where the TwoSum residual must send it to the fallback),
    # zero totals and subnormal totals.

    @settings(max_examples=300, deadline=None)
    @given(midpoint_arrays())
    def test_bits_of_fsum_near_a_midpoint(self, terms):
        assert _outcome(counting.exact_sum, terms) == _outcome(math.fsum, terms)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(513, 3000), st.integers(0, 2 ** 32 - 1),
           st.sampled_from(("cancel", "zeros", "subnormal")))
    def test_bits_of_fsum_at_zero_and_subnormal_totals(self, n, seed, kind):
        rng = np.random.default_rng(seed)
        if kind == "zeros":
            terms = rng.choice((0.0, -0.0), n, p=rng.dirichlet((1.0, 1.0)))
        else:
            lo, hi = (-60, 60) if kind == "cancel" else (-1074, -900)
            terms = np.ldexp(rng.uniform(-1.0, 1.0, n), rng.integers(lo, hi, n))
            # the exact total: 0, or a few of the least subnormal
            extra = [] if kind == "cancel" else [math.ldexp(float(rng.integers(-9, 10)), -1074)]
            terms = rng.permutation(np.concatenate([terms, _exact_negation(terms), extra]))
        assert _outcome(counting.exact_sum, terms) == _outcome(math.fsum, terms)
        total = counting.exact_sum(terms)
        if kind != "subnormal":
            assert total == 0.0
        else:
            assert abs(total) < 2.0 ** -1022

    def test_lattice_step_terms_certified_after_one_split(self, monkeypatch):
        # step_integral's terms on integer_lattice(5e4) at complex points:
        # one _split call each, and fsum's bits
        seq = integer_lattice(5e4)
        real_split = counting._split
        calls = []

        def counted(terms, big):
            calls.append(terms.size)
            return real_split(terms, big)

        monkeypatch.setattr(counting, "_split", counted)
        log_b = counting._center_logs(seq, 0j, 0.0, math.inf)
        rng = np.random.default_rng(15)
        ties = 0
        for _ in range(16):
            z = complex(rng.uniform(-10.0, 10.0), rng.uniform(0.1, 10.0))
            calls.clear()
            got = step_integral(seq, 0.0, z, 0.0, math.inf)
            terms = counting._center_logs(seq, z, 0.0, math.inf) - log_b
            assert got.hex() == math.fsum(terms).hex()
            # Most terms are differences of logs near log 5e4, multiples of
            # 2**-49, so the exact total can be a midpoint of got and a
            # neighbour: that tie alone needs the next levels.
            rest = math.fsum(np.append(terms, -got))   # exact: the total less got
            tie = rest == (math.nextafter(got, math.copysign(math.inf, rest)) - got) / 2.0
            ties += tie
            assert calls == [len(seq)] if not tie else len(calls) > 1
        assert ties <= 2

    def test_lows_are_summed_pairwise(self):
        # the certificate's bound counts the rounded additions of numpy's
        # pairwise sum over the 1-D lows; past 8192 terms (numpy's buffer
        # size) a sum in chunks would show
        rng = np.random.default_rng(16)
        terms = rng.standard_normal(40000) * 10.0 ** rng.integers(-8, 8, 40000)
        _, low, _ = counting._split(terms, float(np.abs(terms).max()))
        assert float(low.sum()) == _numpy_pairwise(low.tolist())


class TestRealAxis:
    @settings(max_examples=60, deadline=None)
    @given(seq=evaluator_sequences(), t_lo=st.sampled_from((0.0, 1.0)),
           span=st.tuples(st.floats(-60.0, 0.0), st.floats(0.5, 60.0)),
           samples=st.integers(1, 400), data=st.data())
    def test_within_bound_of_the_dense_kernels(self, seq, t_lo, span, samples, data):
        lo, hi = span
        b = default_base_point(seq) if t_lo == 0.0 else 0.0
        axis = counting._RealAxis(seq, b, t_lo, lo, hi, samples)
        drawn = data.draw(st.lists(st.floats(lo, hi), min_size=1, max_size=30))
        real = seq.positions.real[(seq.positions.imag == 0.0) & (seq.positions.real >= lo)
                                  & (seq.positions.real <= hi)]
        xs = np.concatenate([drawn, real, [lo, hi]])
        got = axis.values(xs)
        dense = log_potential(seq, xs, b, t_lo)
        # real zeros give exactly -inf, and only they, when t_lo = 0
        on_zero = np.isin(xs, real)
        assert np.array_equal(got == -math.inf, on_zero if t_lo == 0.0 else np.zeros(xs.size, bool))
        keep = np.isfinite(dense)
        assert np.array_equal(keep, np.isfinite(got))
        bound = 150 * U * value_scale(seq, xs[keep], b, t_lo) + axis.far_bound(xs[keep])
        assert np.all(np.abs(got[keep] - dense[keep]) <= bound)
        # off the zeros, far enough that |x - a|**2 stays a normal float
        off = np.abs(seq.positions[:, None] - xs).min(axis=0) >= 1e-3
        slopes = axis.slopes(xs[off])
        dense_slopes = counting._log_potential_slope(seq, xs[off], t_lo)
        bound = 150 * U * slope_scale(seq, xs[off], t_lo) + axis.slope_bound(xs[off])
        assert np.all(np.abs(slopes - dense_slopes) <= bound)
        # a point's value and slope alone are its bits in the batch
        alone = np.concatenate([axis._evaluate(xs[i:i + 1]) for i in range(xs.size)])
        assert alone.tobytes() == got.tobytes()
        # so are a sibling's of another base point and lower limit, whose far
        # field is this one's unless t_lo moves a near window (2h < 1 here)
        other = counting._RealAxis(seq, default_base_point(seq), 1.0 - t_lo, lo, hi, samples)
        sibling = other.sibling(b, t_lo)
        assert (sibling._far is other._far) == bool(np.all(2.0 * other._far.halves >= 1.0))
        assert sibling.values(xs).tobytes() == got.tobytes()
        if off.any():
            alone = np.concatenate([axis.slopes(x[None]) for x in xs[off]])
            assert alone.tobytes() == slopes.tobytes()
        # two threads over many small blocks give the same bits
        with mock.patch.object(counting, "_BLOCK_CELLS", 3 * len(seq)), \
                mock.patch.object(counting, "_SMALL_BLOCK_CELLS", 3 * len(seq)):
            two = counting._RealAxis(seq, b, t_lo, lo, hi, samples, threads=2)
            assert two.values(xs).tobytes() == got.tobytes()
            assert two.slopes(xs[off]).tobytes() == slopes.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(seq=even_sequences(), t_lo=st.sampled_from((0.0, 1.0)), span=st.floats(0.5, 60.0),
           samples=st.integers(1, 400), data=st.data())
    def test_even_sets_fold_within_bound(self, seq, t_lo, span, samples, data):
        b = default_base_point(seq) if t_lo == 0.0 else 0.0
        axis = counting._RealAxis(seq, b, t_lo, -span, span, samples)
        assert counting._even(seq) and axis._far.fold
        real = np.abs(seq.positions.real[(seq.positions.imag == 0.0)
                                         & (np.abs(seq.positions.real) <= span)])
        half = np.concatenate([data.draw(st.lists(st.floats(0.0, span), min_size=1, max_size=30)),
                               real, [0.0, span]])
        xs = np.concatenate([half, -half])
        got = axis.values(xs)
        # values are even, bit for bit, and each |x| is computed once
        left, right = np.split(got, 2)
        assert left.tobytes() == right.tobytes()
        assert axis.diagnostics()["kernel_points"] == np.unique(half).size
        # both sides within the dense kernel's bound plus E of the |x| cell
        dense = log_potential(seq, xs, b, t_lo)
        keep = np.isfinite(dense)
        assert np.array_equal(keep, np.isfinite(got))
        bound = 150 * U * value_scale(seq, xs[keep], b, t_lo) + axis.far_bound(xs[keep])
        assert np.all(np.abs(got[keep] - dense[keep]) <= bound)
        # slopes are odd, off the zeros, and within their bound on both sides
        half = half[np.abs(seq.positions[:, None] - half).min(axis=0) >= 1e-3]
        xs = np.concatenate([half, -half])
        slopes = axis.slopes(xs)
        left, right = np.split(slopes, 2)
        assert np.array_equal(left, -right)
        dense_slopes = counting._log_potential_slope(seq, xs, t_lo)
        bound = 150 * U * slope_scale(seq, xs, t_lo) + axis.slope_bound(xs)
        assert np.all(np.abs(slopes - dense_slopes) <= bound)

    @pytest.mark.parametrize("extra, lo, hi, digest", [
        ((), -40.0, 50.0, "54d15e3236f6aaf3a147d0409337ee621393bc9834528bc1739b48ed34033848"),
        ((0.75,), -45.0, 45.0, "ff52f2b0e07fd271a0ff23b4c50280998f75ad55c0ab11b6523ecadb1a31e24d"),
    ], ids=["asymmetric-range", "one-zero-more"])
    def test_unfolded_cases_keep_their_bits(self, extra, lo, hi, digest):
        # an even set on an asymmetric range, and S and -S with one zero more
        # on a symmetric one, are computed at x itself: the sha256 of their
        # values, slopes and bounds, pinned from the evaluator before the fold
        seq = _mirrored(extra)
        p = np.linspace(0.1, 39.9, 50) + 0.013
        xs = np.concatenate([p, -p])
        out = []
        for b, t_lo in ((0.5, 0.0), (0.0, 1.0)):
            axis = counting._RealAxis(seq, b, t_lo, lo, hi, 400)
            assert not axis._far.fold
            out += [axis.values(xs), axis.slopes(xs), axis.far_bound(xs), axis.slope_bound(xs)]
        assert hashlib.sha256(np.concatenate(out).tobytes()).hexdigest() == digest

    def test_even_compares_positions_and_multiplicities(self):
        build = ZeroSequence.from_arrays
        assert counting._even(build([1.0, -1.0, 2.0 + 1.0j, -2.0 - 1.0j], [1, 1, 3, 3]))
        assert not counting._even(build([1.0, -1.0], [1, 2]))
        assert not counting._even(build([2.0 + 1.0j, -2.0 - 1.0j, 3.0], [2, 1, 1]))
        assert not counting._even(build([2.0 + 1.0j, -2.0 + 1.0j], [1, 1]))
        assert not counting._even(_mirrored([0.75]))
        # 0.0 and -0.0 are one position, alone or as a zero part
        assert counting._even(build([0.0, -0.0], [1, 1]))
        assert counting._even(build([complex(-0.0, 0.0)], [2]))
        assert counting._even(build([complex(3.0, 0.0), complex(-3.0, 0.0)], [2, 2]))
        assert counting._even(build([complex(0.0, 2.0), complex(-0.0, -2.0), 0.0], [1, 1, 1]))
        assert counting._even(ZeroSequence(()))

    def test_near_sums_take_the_rule_of_the_whole_sequence(self):
        # a near slice holding only real zeros takes the off-axis rule when
        # the sequence has complex zeros, as the base point's logs do
        real = np.arange(-12.0, 13.0) + 0.5
        mixed = ZeroSequence.from_arrays(np.concatenate([real, [40.0 + 5.0j, 40.0 - 5.0j]]),
                                         np.ones(real.size + 2))
        xs = np.linspace(-9.9, 9.9, 50)
        for seq, want_real in ((ZeroSequence.from_arrays(real, np.ones(real.size)), True),
                               (mixed, False)):
            axis = counting._RealAxis(seq, 0.25, 0.0, -10.0, 10.0, 200)
            with mock.patch.object(counting, "_potential_sums",
                                   wraps=counting._potential_sums) as kernel:
                got = axis.values(xs)
            ims = [call.args[1] for call in kernel.call_args_list]
            assert ims and all((im is None) == want_real for im in ims)
            if not want_real:
                assert any(not im.any() for im in ims)   # all-real slices occur
            dense = log_potential(seq, xs, 0.25)
            bound = 150 * U * value_scale(seq, xs, 0.25, 0.0) + axis.far_bound(xs)
            assert np.all(np.abs(got - dense) <= bound)

    def test_mpmath_reference_at_1e5_zeros(self):
        seq = integer_lattice(5e4)
        K = len(seq) // 2
        rng = np.random.default_rng(32)
        b = 0.25
        xs = rng.uniform(-1.25e4, 1.25e4, 16)
        assert float(np.abs(seq.positions.real[:, None] - xs).min()) > 1e-3
        with mpmath.workdps(30):
            ref_b = lattice_log_abs(K, b)
            exact = [float(lattice_log_abs(K, x) - ref_b) for x in xs]
            psi = mpmath.digamma
            exact_slopes = [float(psi(K + 1 + mpmath.mpf(x)) - psi(K + 1 - mpmath.mpf(x))
                                  + psi(1 - mpmath.mpf(x)) - psi(1 + mpmath.mpf(x))) for x in xs]
        axis = counting._RealAxis(seq, b, 0.0, -1.25e4, 1.25e4, 2000)
        assert axis.cells == 10
        got = axis.values(xs)
        bound = 80 * U * value_scale(seq, xs, b, 0.0) + axis.far_bound(xs)
        assert np.all(np.abs(got - exact) <= bound)
        slopes = axis.slopes(xs)
        bound = 80 * U * slope_scale(seq, xs, 0.0) + axis.slope_bound(xs)
        assert np.all(np.abs(slopes - exact_slopes) <= bound)
        # the far terms are a small share of the bound
        assert axis.diagnostics()["far_error_bound"] <= 1e-9

    def test_interpolation_is_exact_at_the_nodes(self):
        rng = np.random.default_rng(5)
        f = rng.standard_normal(counting._NODES)
        assert counting._interpolate(f, counting._CHEB).tobytes() == f.tobytes()
        s = np.linspace(-1.0, 1.0, 101)
        line = counting._interpolate(3.0 - 2.0 * counting._CHEB, s)
        assert np.all(np.abs(line - (3.0 - 2.0 * s)) <= 1e-13)
        # _DIFF takes a polynomial of degree p - 1 at the nodes to its
        # derivative there, to within the rounding that E' allows for it
        cheb = np.polynomial.chebyshev
        for _ in range(20):
            coef = rng.standard_normal(counting._NODES) * 10.0 ** rng.integers(-3, 4)
            values = cheb.chebval(counting._CHEB, coef)
            got = counting._interpolate(counting._DIFF @ values, s)
            allowed = (6 * counting._NODES * counting._LEBESGUE * U * counting._DIFF_NORM
                       * np.abs(values).max())
            assert np.all(np.abs(got - cheb.chebval(s, cheb.chebder(coef))) <= allowed)

    @pytest.mark.parametrize("t_lo", [0.0, 1.0, 4.0])
    def test_truncation_terms_bound_the_exact_interpolants(self, t_lo):
        # one cell's far sum f and its slope f', and the interpolant through
        # f at the exact Chebyshev nodes, all at 40 digits: the interpolation
        # errors are what the truncation terms of E and E' bound, free of
        # the rounding terms that dominate a float comparison.  The nearest
        # far zeros sit just past the cell's near window |Re a - c| < 3h,
        # or 3h + t_lo where 2h < t_lo (h = 1 here).
        edge = 3.0 + (t_lo if 2.0 < t_lo else 0.0)
        pos = np.concatenate([[1.0 + edge + 1e-3, 1.0 - edge - 0.05, 1.3 + edge + 0.2j,
                               1.3 + edge - 0.2j, 20.0 + 5.0j, 20.0 - 5.0j],
                              np.arange(8.0, 60.0), -np.arange(6.0, 50.0, 1.5)])
        seq = ZeroSequence.from_arrays(pos, np.arange(pos.size) % 3 + 1)
        axis = counting._RealAxis(seq, 0.5, t_lo, -10.0, 10.0, 2000)
        k = 5
        far = axis._far
        c, h = float(far.centres[k]), float(far.halves[k])
        assert (c, h) == (1.0, 1.0)
        assert far.reach[k] == 3.0 * h + edge - 3.0
        i, j = far.near[k]
        assert i == j   # every zero is far from this cell
        values, slopes = counting._truncation_bounds(h, np.hypot(c - far.re, far.im), far.mult)
        p = counting._NODES
        with mpmath.workdps(40):
            zeros = [(mpmath.mpc(a), m) for a, m in zip(seq.positions, seq.multiplicities)]

            def f(s):
                return mpmath.fsum(m * mpmath.log(abs(c + h * s - a)) for a, m in zeros)

            def slope(s):
                return mpmath.fsum(m * mpmath.re(1 / (c + h * s - a)) for a, m in zeros)

            # the interpolant in the Chebyshev basis, from the values at the
            # nodes cos(theta_k): T_j(cos theta) = cos(j theta), and
            # T_j' = j sin(j theta) / sin(theta)
            nodes = [mpmath.pi * (2 * q + 1) / (2 * p) for q in range(p)]
            at_nodes = [f(mpmath.cos(th)) for th in nodes]
            coef = [2 * mpmath.fsum(v * mpmath.cos(n * th) for v, th in zip(at_nodes, nodes)) / p
                    for n in range(p)]
            coef[0] /= 2
            value_err = slope_err = 0
            for q in range(80):
                th = mpmath.pi * (q + 0.5) / 80
                s = mpmath.cos(th)
                fit = mpmath.fsum(a * mpmath.cos(n * th) for n, a in enumerate(coef))
                fit_slope = mpmath.fsum(a * n * mpmath.sin(n * th) for n, a in enumerate(coef))
                value_err = max(value_err, abs(f(s) - fit))
                slope_err = max(slope_err, abs(slope(s) - fit_slope / mpmath.sin(th) / h))
        assert 0 < value_err <= values
        assert 0 < slope_err <= slopes

    def test_accurate_sums_against_fsum(self):
        rng = np.random.default_rng(6)
        terms = rng.standard_normal((8, 1000)) * 10.0 ** rng.integers(-8, 8, (8, 1000))
        terms[3] = 0.0
        for got, row in zip(counting._accurate_sums(terms), terms):
            exact = math.fsum(row)
            assert abs(got - exact) <= U * abs(exact) + 32 * row.size ** 2 * U * U * np.abs(row).max()

    def test_points_outside_the_range_rejected(self):
        axis = counting._RealAxis(integer_lattice(50.0), 0.5, 0.0, -10.0, 10.0, 100)
        for bad in ([10.5], [-11.0], [math.nan]):
            with pytest.raises(ValueError):
                axis.values(np.array(bad))

    def test_empty_sequence_and_one_point_range(self):
        axis = counting._RealAxis(ZeroSequence(()), 0.0, 0.0, -3.0, 3.0, 50)
        assert axis.values(np.array([-3.0, 0.5, 3.0])).tolist() == [0.0, 0.0, 0.0]
        assert axis.slopes(np.array([1.0])).tolist() == [0.0]
        assert axis.diagnostics()["far_error_bound"] == 0.0
        seq = integer_lattice(50.0)
        one = counting._RealAxis(seq, 0.5, 0.0, 2.5, 2.5, 1)
        assert abs(one.values(np.array([2.5]))[0] - log_potential(seq, [2.5], 0.5)[0]) <= 1e-12


class TestLogPotentialSlope:
    @settings(max_examples=40, deadline=None)
    @given(seq=axis_sequences(), xs=st.lists(st.floats(-2e3, 2e3), min_size=1, max_size=20),
           t_lo=st.sampled_from((0.0, 1.0)))
    def test_matches_an_mpmath_sum(self, seq, xs, t_lo):
        xs = np.array(xs)
        # off the zeros, far enough that |x - a|**2 stays a normal float
        assume(np.abs(seq.positions[:, None] - xs).min() >= 1e-3)
        got = counting._log_potential_slope(seq, xs, t_lo)
        for x, g in zip(xs, got):
            terms = [m * mpmath.re(1 / (mpmath.mpf(x) - mpmath.mpc(a.real, a.imag)))
                     for a, m in zip(seq.positions, seq.multiplicities) if abs(x - a) > t_lo]
            scale = math.fsum(m / max(abs(x - a), t_lo) for a, m in zip(seq.positions, seq.multiplicities))
            assert abs(g - float(mpmath.fsum(terms))) <= 70 * 2.0 ** -53 * scale

    def test_is_the_derivative_of_log_potential(self):
        seq = integer_lattice(200.0)
        xs = np.array([0.5, 3.25, 17.7, -40.1])
        h = 1e-6
        for t_lo in (0.0, 1.0):
            slope = counting._log_potential_slope(seq, xs, t_lo)
            fd = (log_potential(seq, xs + h, 0.5, t_lo) - log_potential(seq, xs - h, 0.5, t_lo)) / (2 * h)
            assert np.allclose(slope, fd, rtol=1e-6, atol=1e-6)


class TestLogPotential:
    def test_mpmath_reference_at_1e5_zeros(self):
        with mpmath.workdps(30):
            # the closed form agrees with a direct 30-digit sum on a small lattice
            direct = mpmath.fsum(mpmath.log(abs(k - mpmath.mpf(2.5)) * abs(k + mpmath.mpf(2.5)))
                                 for k in range(1, 21))
            assert abs(lattice_log_abs(20, 2.5) - direct) < mpmath.mpf(10) ** -25

            seq = integer_lattice(5e4)
            K = len(seq) // 2
            rng = np.random.default_rng(31)
            b = 0.25
            xs = rng.uniform(-1.25e4, 1.25e4, 16)
            assert float(np.abs(seq.positions.real[:, None] - xs).min()) > 1e-3
            ref_b = lattice_log_abs(K, b)
            exact = [float(lattice_log_abs(K, x) - ref_b) for x in xs]
        batch = log_potential(seq, xs, b)
        for x, want, got in zip(xs, exact, batch):
            scalar = step_integral(seq, b, x, 0.0, math.inf)
            bound = _exact_bound(seq, x, b)
            assert abs(got - want) <= bound
            assert abs(scalar - want) <= bound
            assert abs(got - scalar) <= _reduction_bound(seq, x, b, scalar)

    def test_mpmath_reference_off_the_axis(self):
        # complex points, where every term is 1/2 log(dx**2 + dy**2): eight
        # scattered ones and the nodes of one Jensen circle
        seq = integer_lattice(5e4)
        K = len(seq) // 2
        rng = np.random.default_rng(34)
        b = 0.25
        points = np.concatenate([rng.uniform(-1.25e4, 1.25e4, 8) + 1j * rng.uniform(-3.0, 3.0, 8),
                                 1.3 + 2.1j + np.exp(2j * np.pi * np.arange(64) / 64)])
        with mpmath.workdps(30):
            ref_b = lattice_log_abs(K, b)
            exact = [float(lattice_log_abs(K, p) - ref_b) for p in points]
        batch = log_potential(seq, points, b)
        for p, want, got in zip(points, exact, batch):
            scalar = step_integral(seq, b, p, 0.0, math.inf)
            bound = _exact_bound(seq, p, b)
            assert abs(got - want) <= bound
            assert abs(scalar - want) <= bound
            assert abs(got - scalar) <= _reduction_bound(seq, p, b, scalar)

    @settings(max_examples=60, deadline=None)
    @given(zero_lists, st.lists(st.complex_numbers(max_magnitude=40, allow_nan=False,
                                                   allow_infinity=False), min_size=1, max_size=20),
           st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
           st.sampled_from([0.0, 0.5, 3.0]), st.sampled_from([math.inf, 8.0, 50.0]))
    def test_batch_equals_scalar_within_bound(self, raw, points, b, t_lo, t_hi):
        # the first two zeros join the points: the two paths agree on them too
        seq = _sequence(raw)
        if t_lo == 0.0:
            assume(not np.any(seq.positions == b))
        points = np.append(np.array(points), seq.positions[:2])
        batch = log_potential(seq, points, b, t_lo, t_hi)
        for p, got in zip(points, batch):
            _assert_scalar_matches(seq, b, p, t_lo, t_hi, got)

    @settings(max_examples=60, deadline=None)
    @given(guard_cases(), st.sampled_from([(0.0, math.inf), (1e-200, math.inf), (0.0, 1e250),
                                           (0.5, math.inf)]))
    def test_guard_near_zeros_and_far_out(self, case, t_range):
        # squared distances that underflow (points 1e-300 to 1e-155 from a
        # zero) or overflow (positions near 1e200), and squared clamp
        # limits out of range, all take the hypot fallback
        seq, points, b = case
        t_lo, t_hi = t_range
        batch = log_potential(seq, points, b, t_lo, t_hi)
        # exactly -inf on the zeros when t_lo = 0, finite everywhere else
        on_zero = np.isin(points, seq.positions) & (t_lo == 0.0)
        assert np.array_equal(batch == -math.inf, on_zero)
        assert np.all(np.isfinite(batch[~on_zero]))
        for p, got in zip(points, batch):
            _assert_scalar_matches(seq, b, p, t_lo, t_hi, got)
        alone = np.concatenate([log_potential(seq, points[i:i + 1], b, t_lo, t_hi)
                                for i in range(points.size)])
        assert alone.tobytes() == batch.tobytes()
        with mock.patch.object(counting, "_BLOCK_CELLS", 3 * len(seq)), \
                mock.patch.object(counting, "_SMALL_BLOCK_CELLS", 3 * len(seq)):
            two = log_potential(seq, points, b, t_lo, t_hi, threads=2)
        assert two.tobytes() == batch.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(zero_lists, st.floats(-5, 5))
    def test_minus_inf_exactly_at_zeros(self, raw, b):
        # one rule for the batch and the scalar path
        seq = _sequence(raw)
        assume(not np.any(seq.positions == b))
        points = np.concatenate([seq.positions, seq.positions + 1e-3])
        on_zero = (points[:, None] == seq.positions[None, :]).any(axis=1)
        scalar = np.array([step_integral(seq, b, p, 0.0, math.inf) for p in points])
        for vals in (log_potential(seq, points, b), scalar):
            assert np.array_equal(vals == -math.inf, on_zero)
            assert np.all(np.isfinite(vals[~on_zero]))
        # a range starting at t > 0 never diverges
        assert np.all(np.isfinite(log_potential(seq, seq.positions, b, 0.5)))
        assert all(math.isfinite(step_integral(seq, b, p, 0.5, math.inf))
                   for p in seq.positions)

    @settings(max_examples=40, deadline=None)
    @given(zero_lists, st.data())
    def test_base_point_on_zero_raises(self, raw, data):
        seq = _sequence(raw)
        k = data.draw(st.integers(0, len(seq) - 1))
        b = complex(seq.positions[k])
        calls = [lambda: log_potential(seq, [0.5, 1.5j], b),
                 lambda: step_integral(seq, b, 0.5, 0.0, math.inf),
                 lambda: step_integral(seq, b, b, 0.0, 7.0)]
        if b.imag == 0.0:
            calls.append(lambda: phi(seq, b.real, 0.5))
        for call in calls:
            with pytest.raises(DivergentIntegralError) as err:
                call()
            assert err.value.zero == b

    def test_pairwise_reduction_bit_for_bit(self):
        # the stated bounds rest on each point's row being summed pairwise:
        # a linear or chunked sum of the same terms gives other bits
        rng = np.random.default_rng(61)
        lattice = integer_lattice(1.5e4)
        pos = rng.uniform(-1e4, 1e4, 25000) + 1j * rng.uniform(-50.0, 50.0, 25000)
        scattered = ZeroSequence.from_arrays(pos, rng.integers(1, 4, pos.size))
        assert len(lattice) >= 2e4 and len(scattered) >= 2e4
        cases = ((lattice, rng.uniform(-1e4, 1e4, 4) + 0.5, 0.25),
                 (scattered, rng.uniform(-1e4, 1e4, 4) + 1j * rng.uniform(-60, 60, 4), 3.5 + 1j))

        def term_logs(seq, p):
            # the lattice at real points is on the axis: log|a - p|; the
            # scattered zeros are off it: 1/2 log(dx**2 + dy**2)
            if seq is lattice:
                return np.log(np.abs(seq.positions - p))
            dx, dy = seq.positions.real - p.real, seq.positions.imag - p.imag
            return 0.5 * np.log(dx * dx + dy * dy)

        for seq, points, b in cases:
            got = log_potential(seq, points, b)
            log_b = term_logs(seq, b)
            for p, value in zip(points, got):
                terms = (term_logs(seq, p) - log_b) * seq.multiplicities
                assert value == _numpy_pairwise(terms.tolist())
        xs = rng.uniform(-1e4, 1e4, 4) + 0.5
        for seq in (lattice, scattered):
            got = counting._log_potential_slope(seq, xs)
            re, im = seq.positions.real, seq.positions.imag
            for x, value in zip(xs, got):
                dx = x - re
                terms = dx / (dx * dx + im * im) * seq.multiplicities
                assert value == _numpy_pairwise(terms.tolist())

    def test_shape_and_empty(self):
        grid = np.linspace(-3, 3, 12).reshape(3, 4) + 0.5j
        assert log_potential(TRIO, grid, 0.0).shape == (3, 4)
        assert log_potential(ZeroSequence(()), grid, 0.0).tolist() == np.zeros((3, 4)).tolist()
        assert log_potential(TRIO, np.empty(0), 0.0).shape == (0,)

    def test_rejects_bad_threads_and_range(self):
        with pytest.raises(ValueError):
            log_potential(TRIO, [0.5], 0.0, threads=0)
        with pytest.raises(ValueError):
            log_potential(TRIO, [0.5], 0.0, 2.0, 1.0)
        seq = ZeroSequence((Zero(1 + 0j),), truncation_radius=10.0)
        with pytest.raises(ValueError):
            log_potential(seq, [3.0], 0.0, 0.0, 8.0)

    def test_worker_count_is_capped(self, monkeypatch):
        seq = integer_lattice(50.0)
        xs = np.linspace(-40.0, 40.0, 35) + 0.25
        monkeypatch.setattr(counting, "_BLOCK_CELLS", len(seq) * 10)  # 4 blocks
        serial = log_potential(seq, xs, 0.5)
        assert log_potential(seq, xs, 0.5, threads=2).tobytes() == serial.tobytes()
        seen = []

        class RecordingExecutor:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(counting, "ThreadPoolExecutor", RecordingExecutor)
        monkeypatch.setattr(counting.os, "cpu_count", lambda: 64)
        assert log_potential(seq, xs, 0.5, threads=10 ** 6).tobytes() == serial.tobytes()
        monkeypatch.setattr(counting.os, "cpu_count", lambda: 3)
        log_potential(seq, xs, 0.5, threads=10 ** 6)
        monkeypatch.setattr(counting.os, "cpu_count", lambda: None)
        log_potential(seq, xs, 0.5, threads=10 ** 6)
        assert seen == [4, 3]
