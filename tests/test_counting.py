import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    draw_point,
    outer_zero_above_hypot,
    random_sequence,
    random_symmetric_sequence,
    riemann_step_integral,
)
from expozeros import counting
from expozeros import (
    DivergentIntegralError,
    Zero,
    ZeroSequence,
    angular_density,
    count_disc,
    count_square,
    growth_check,
    imaginary_inverse_sum,
    integer_lattice,
    lindelof_sums,
    log_potential,
    profile,
    shift_origin,
    step_integral,
)

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


class TestImaginaryInverseSum:
    def test_real_zeros(self):
        assert imaginary_inverse_sum(ZeroSequence((Zero(1 + 0j), Zero(-1 + 0j)))) == 0.0

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


class TestStepIntegral:
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


def _lattice_log_abs(K, x):
    """log of prod_{k=1..K} |k - x| |k + x| at 30 digits, in closed form:
    log |Gamma(K+1-x) Gamma(K+1+x) / (Gamma(1-x) Gamma(1+x))|."""
    x = mpmath.mpf(x)
    lg = mpmath.loggamma
    return mpmath.re(lg(K + 1 - x) + lg(K + 1 + x) - lg(1 - x) - lg(1 + x))


zero_lists = st.lists(
    st.tuples(st.floats(-30, 30), st.floats(-30, 30), st.integers(1, 3)),
    min_size=1, max_size=150,
)


def _sequence(raw):
    return ZeroSequence(tuple(Zero(complex(re, im), m) for re, im, m in raw))


class TestLogPotential:
    def test_mpmath_reference_at_1e5_zeros(self):
        with mpmath.workdps(30):
            # the closed form agrees with a direct 30-digit sum on a small lattice
            direct = mpmath.fsum(mpmath.log(abs(k - mpmath.mpf(2.5)) * abs(k + mpmath.mpf(2.5)))
                                 for k in range(1, 21))
            assert abs(_lattice_log_abs(20, 2.5) - direct) < mpmath.mpf(10) ** -25

            seq = integer_lattice(5e4)
            K = len(seq) // 2
            rng = np.random.default_rng(31)
            b = 0.25
            xs = rng.uniform(-1.25e4, 1.25e4, 16)
            assert float(np.abs(seq.positions.real[:, None] - xs).min()) > 1e-3
            ref_b = _lattice_log_abs(K, b)
            exact = [float(_lattice_log_abs(K, x) - ref_b) for x in xs]
        batch = log_potential(seq, xs, b)
        for x, want, got in zip(xs, exact, batch):
            scalar = step_integral(seq, b, x, 0.0, math.inf)
            bound = _exact_bound(seq, x, b)
            assert abs(got - want) <= bound
            assert abs(scalar - want) <= bound
            assert abs(got - scalar) <= _reduction_bound(seq, x, b, scalar)

    @settings(max_examples=60, deadline=None)
    @given(zero_lists, st.lists(st.complex_numbers(max_magnitude=40, allow_nan=False,
                                                   allow_infinity=False), min_size=1, max_size=20),
           st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
           st.sampled_from([0.0, 0.5, 3.0]), st.sampled_from([math.inf, 8.0, 50.0]))
    def test_batch_equals_scalar_within_bound(self, raw, points, b, t_lo, t_hi):
        seq = _sequence(raw)
        if t_lo == 0.0:
            assume(not np.isin(np.array(points + [b]), seq.positions).any())
        batch = log_potential(seq, np.array(points), b, t_lo, t_hi)
        for p, got in zip(points, batch):
            scalar = step_integral(seq, b, p, t_lo, t_hi)
            assert abs(got - scalar) <= _reduction_bound(seq, p, b, scalar, t_lo, t_hi)

    @settings(max_examples=40, deadline=None)
    @given(zero_lists, st.floats(-5, 5))
    def test_minus_inf_exactly_at_zeros(self, raw, b):
        seq = _sequence(raw)
        assume(not np.any(seq.positions == b))
        points = np.concatenate([seq.positions, seq.positions + 1e-3])
        on_zero = (points[:, None] == seq.positions[None, :]).any(axis=1)
        vals = log_potential(seq, points, b)
        assert np.array_equal(vals == -math.inf, on_zero)
        assert np.all(np.isfinite(vals[~on_zero]))
        # a range starting at t > 0 never diverges
        assert np.all(np.isfinite(log_potential(seq, seq.positions, b, 0.5)))

    @settings(max_examples=40, deadline=None)
    @given(zero_lists, st.data())
    def test_base_point_on_zero_raises(self, raw, data):
        seq = _sequence(raw)
        k = data.draw(st.integers(0, len(seq) - 1))
        with pytest.raises(DivergentIntegralError) as err:
            log_potential(seq, [0.5, 1.5j], seq.positions[k])
        assert err.value.zero == seq.positions[k]

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
