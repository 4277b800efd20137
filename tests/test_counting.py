import math
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
    outer_zero_above_hypot,
    random_conjugate_sequence,
    random_sequence,
    random_symmetric_sequence,
    riemann_step_integral,
    slope_scale,
    value_scale,
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
from expozeros.criteria import default_base_point

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


_points = st.complex_numbers(max_magnitude=2e3, allow_nan=False, allow_infinity=False)


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
        alone = np.concatenate([axis.values(xs[i:i + 1]) for i in range(xs.size)])
        assert alone.tobytes() == got.tobytes()
        if off.any():
            alone = np.concatenate([axis.slopes(x[None]) for x in xs[off]])
            assert alone.tobytes() == slopes.tobytes()
        # two threads over many small blocks give the same bits
        with mock.patch.object(counting, "_BLOCK_CELLS", 3 * len(seq)), \
                mock.patch.object(counting, "_SMALL_BLOCK_CELLS", 3 * len(seq)):
            two = counting._RealAxis(seq, b, t_lo, lo, hi, samples, threads=2)
            assert two.values(xs).tobytes() == got.tobytes()
            assert two.slopes(xs[off]).tobytes() == slopes.tobytes()

    def test_mpmath_reference_at_1e5_zeros(self):
        seq = integer_lattice(5e4)
        K = len(seq) // 2
        rng = np.random.default_rng(32)
        b = 0.25
        xs = rng.uniform(-1.25e4, 1.25e4, 16)
        assert float(np.abs(seq.positions.real[:, None] - xs).min()) > 1e-3
        with mpmath.workdps(30):
            ref_b = _lattice_log_abs(K, b)
            exact = [float(_lattice_log_abs(K, x) - ref_b) for x in xs]
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

    @pytest.mark.parametrize("t_lo", [0.0, 1.0])
    def test_truncation_terms_bound_the_exact_interpolants(self, t_lo):
        # one cell's far sum f and its slope f', and the interpolant through
        # f at the exact Chebyshev nodes, all at 40 digits: the interpolation
        # errors are what the truncation terms of E and E' bound, free of
        # the rounding terms that dominate a float comparison.  The nearest
        # far zeros sit just past the cell's near window |Re a - c| < 3h + t_lo.
        edge = 3.0 + t_lo
        pos = np.concatenate([[1.0 + edge + 1e-3, 1.0 - edge - 0.05, 1.3 + edge + 0.2j,
                               1.3 + edge - 0.2j, 20.0 + 5.0j, 20.0 - 5.0j],
                              np.arange(8.0, 60.0), -np.arange(6.0, 50.0, 1.5)])
        seq = ZeroSequence.from_arrays(pos, np.arange(pos.size) % 3 + 1)
        axis = counting._RealAxis(seq, 0.5, t_lo, -10.0, 10.0, 2000)
        k = 5
        c, h = float(axis._centres[k]), float(axis._halves[k])
        assert (c, h) == (1.0, 1.0)
        i, j = axis._near[k]
        assert i == j   # every zero is far from this cell
        values, slopes = counting._truncation_bounds(h, np.hypot(c - axis._re, axis._im),
                                                     axis._mult)
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
