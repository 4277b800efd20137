import dataclasses
import math
import re
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    clustered_sequences,
    draw_point,
    random_conjugate_sequence,
    random_sequence,
    random_symmetric_sequence,
    value_scale,
)
from expozeros import (
    INCONCLUSIVE,
    SATISFIED,
    VIOLATED,
    CriterionReport,
    Zero,
    ZeroSequence,
    build_generator,
    cartwright_integral,
    check_B,
    check_C,
    check_D,
    classify,
    footnote_sequence,
    integer_lattice,
    log_modulus_via_counting,
    log_potential,
    phi,
    phi_profile,
    scaled_lattice,
    shift_origin,
    step_integral,
    type_bound,
)
from expozeros import counting, criteria
from expozeros.criteria import default_base_point, default_grid, default_x_max

U = 2.0 ** -53


@pytest.fixture(scope="module")
def footnote_big():
    return footnote_sequence(1e6)


class TestPhi:
    def test_at_base_point(self):
        rng = np.random.default_rng(20)
        seq = random_sequence(rng, n_max=40)
        b = draw_point(rng, seq, 5.0).real
        assert phi(seq, b, b) == 0.0

    def test_single_imaginary(self):
        assert phi(ZeroSequence((Zero(1j),)), 0.0, 1.0) == pytest.approx(
            0.5 * math.log(2.0), abs=1e-15
        )

    def test_on_zero_is_minus_inf(self):
        seq = integer_lattice(50.0)
        assert phi(seq, 0.5, 1.0) == -math.inf

    def test_base_on_zero_rejected(self):
        with pytest.raises(ValueError):
            phi(integer_lattice(50.0), 1.0, 0.3)

    def test_empty(self):
        assert phi(ZeroSequence(()), 0.0, 7.0) == 0.0

    def test_base_point_invariance(self):
        rng = np.random.default_rng(21)
        for _ in range(15):
            seq = random_sequence(rng, n_max=100, r_min=1.0, r_max=30.0)
            b1 = draw_point(rng, seq, 5.0, min_dist=0.05).real
            b2 = draw_point(rng, seq, 5.0, min_dist=0.05).real
            xs = [draw_point(rng, seq, 8.0, min_dist=0.05).real for _ in range(12)]
            deltas = [phi(seq, b1, x) - phi(seq, b2, x) for x in xs]
            spread = max(deltas) - min(deltas)
            assert spread <= 1e-12 * (1.0 + max(abs(d) for d in deltas))
            # the constant is phi evaluated between the base points
            assert deltas[0] == pytest.approx(phi(seq, b1, b2), rel=1e-12, abs=1e-12)

    def test_matches_shifted_log_modulus(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            seq = random_sequence(rng, n_max=60, r_min=1.0, r_max=30.0)
            b = draw_point(rng, seq, 4.0, min_dist=0.05).real
            x = draw_point(rng, seq, 8.0, min_dist=0.05).real
            moved = shift_origin(seq, b)
            expect = log_modulus_via_counting(moved, x - b)
            got = phi(seq, b, x)
            assert got == pytest.approx(expect, rel=1e-12, abs=1e-12)

    def test_renormalization_constant(self):
        rng = np.random.default_rng(23)
        seq = random_sequence(rng, n_max=60, r_min=1.0, r_max=30.0)
        b = draw_point(rng, seq, 4.0, min_dist=0.05).real
        for _ in range(8):
            x = draw_point(rng, seq, 8.0, min_dist=0.05).real
            lhs = phi(seq, b, x)
            rhs = log_modulus_via_counting(seq, x) - phi(seq, 0.0, b)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestPhiProfile:
    def test_clipped_points(self):
        seq = integer_lattice(50.0)
        prof = phi_profile(seq, 0.5, np.arange(-3.0, 3.5, 0.5))
        assert set(prof.clipped) == {-3.0, -2.0, -1.0, 1.0, 2.0, 3.0}
        xs = [x for x, _ in prof.samples]
        assert xs == sorted(xs)


def assert_no_gap_work(rep, points):
    """A B or D report over a grid with no real-zero gap: the grid is
    evaluated in one kernel call and nothing else is done."""
    diag = rep.diagnostics
    assert diag["kernel_calls"] == 1
    assert diag["kernel_points"] == diag["grid_aug_points"] == points
    assert diag["gaps"] == diag["gaps_searched"] == diag["slope_points"] == 0


class TestCheckB:
    def test_lattice_bounded(self):
        seq = integer_lattice(200.0)
        rep = check_B(seq, 0.5, np.linspace(-50.0, 50.0, 201))
        assert rep.verdict == SATISFIED
        assert 0.2 < rep.extremum_value < 0.7
        assert abs(rep.witness) < 1.0

    def test_footnote_violated(self, footnote_big):
        rep = check_B(footnote_big, 0.0, np.geomspace(1.0, 2.5e5, 400))
        assert rep.verdict == VIOLATED
        assert rep.extremum_value > 100.0
        # growth exceeds the construction's own lower bound at x = 100
        assert phi(footnote_big, 0.0, 100.0) >= 1.0 + 100.0 / (2.0 * math.log(100.0))

    def test_empty_sup_zero(self):
        grid = np.linspace(-20.0, 20.0, 101)
        rep = check_B(ZeroSequence(()), 0.0, grid)
        assert rep.verdict == SATISFIED
        assert rep.extremum_value == 0.0
        for rep in (rep, check_D(ZeroSequence(()), grid)):
            assert_no_gap_work(rep, grid.size)

    @pytest.mark.parametrize("seq, grid", [
        (ZeroSequence.from_arrays([2 + 1j, 2 - 1j, -3 + 0.5j], [1, 1, 2]), np.linspace(-20.0, 20.0, 101)),
        (integer_lattice(50.0), np.array([2.5])),
    ], ids=["complex-zeros-only", "one-point-grid"])
    def test_no_gap_costs_one_kernel_call(self, seq, grid):
        for rep in (check_B(seq, default_base_point(seq), grid), check_D(seq, grid)):
            assert_no_gap_work(rep, grid.size)

    def test_witness_absent_when_inconclusive(self):
        seq = integer_lattice(50.0)
        rep = check_B(seq, 0.5, np.linspace(0.0, 1.0, 9))
        assert rep.verdict == INCONCLUSIVE
        assert rep.witness is None
        # a grid of one zero has no finite value to judge
        rep = check_B(integer_lattice(10.0), 0.5, [1.0])
        assert (rep.verdict, rep.witness, rep.notes) == (INCONCLUSIVE, None, "no finite grid values")
        assert rep.extremum_value == -math.inf


class TestCheckD:
    def test_lattice_midpoint_value(self):
        seq = integer_lattice(1e4)
        rep = check_D(seq, np.linspace(0.0, 1.0, 17))
        assert abs(rep.extremum_value - math.log(4.0 / math.pi)) < 1e-3

    def test_zero_at_origin_base(self):
        seq = integer_lattice(100.0)
        assert step_integral(seq, 0.0, 0.0, 1.0, math.inf) == 0.0

    def test_grid_may_touch_zeros(self):
        seq = integer_lattice(100.0)
        assert math.isfinite(step_integral(seq, 0.0, 1.0, 1.0, math.inf))

    def test_footnote_violated(self, footnote_big):
        rep = check_D(footnote_big, np.geomspace(1.0, 2.5e5, 300))
        assert rep.verdict == VIOLATED

    def test_reflection_symmetry_exact(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            seq = random_symmetric_sequence(rng)
            neg = ZeroSequence(tuple(Zero(-z.position, z.multiplicity) for z in seq.zeros))
            x = float(rng.uniform(0.3, 25.0))
            assert step_integral(seq, 0.0, x, 1.0, math.inf) == step_integral(neg, 0.0, -x, 1.0, math.inf)


class TestCheckC:
    def test_lattice_satisfied(self):
        seq = integer_lattice(500.0)
        rep = check_C(seq, 0.5)
        assert rep.verdict == SATISFIED

    def test_footnote_violated(self, footnote_big):
        rep = check_C(footnote_big, 0.0)
        assert rep.verdict == VIOLATED
        assert rep.trend_slope is not None and rep.trend_slope > -0.4

    def test_empty_satisfied(self):
        rep = check_C(ZeroSequence(()), 0.0, 16.0)
        assert rep.verdict == SATISFIED
        assert rep.extremum_value == 0.0


class TestTail:
    def test_one_rim_zero_measured_with_hypot(self):
        # a sits on the shell edge R/2 = np.abs(a) by numpy's array abs, but
        # below it by hypot, the modulus the completeness radius is checked
        # with: the rim holds only rim_zero
        rng = np.random.default_rng(36)
        while True:
            a = complex(rng.uniform(1.0, 10.0), rng.uniform(1.0, 10.0))
            if float(np.abs(np.array([a]))[0]) > abs(a):
                break
        R = 2.0 * float(np.abs(np.array([a]))[0])
        rim_zero = 0.75 * R
        tail = criteria._Tail.of(ZeroSequence.from_arrays(np.array([a, rim_zero]), np.ones(2), R))
        kap2 = 1.0 / rim_zero ** 2
        xs = np.array([-3.0, 0.0, 0.5, 3.0])
        assert bits(tail.envelope(xs)) == bits(0.5 * kap2 * xs ** 2)
        assert bits(tail.slope(xs)) == bits(kap2 * xs)
        assert tail.error_bound(3.0) == 3.0 / rim_zero + 9.0 / rim_zero ** 2
        assert f"coeff {kap2:.3g}" in str(tail)

    def test_complete_sequence_has_none(self):
        tail = criteria._Tail.of(ZeroSequence.from_arrays([1.0, -2.0, 3.0 + 1.0j], [1, 2, 1]))
        xs = np.linspace(-50.0, 50.0, 11)
        assert not tail.envelope(xs).any() and not tail.slope(xs).any()
        assert tail.error_bound(50.0) == 0.0


class TestCartwrightIntegral:
    def test_nonpositive_samples(self):
        assert cartwright_integral([(x, 0.0) for x in np.linspace(-5, 5, 11)]) == 0.0

    def test_half_log_growth(self):
        xs = np.arange(-100.0, 100.0, 0.01)
        samples = [(x, 0.5 * math.log(1.0 + x * x)) for x in xs]
        got = cartwright_integral(samples)
        # high-resolution quadrature oracle on the same range
        fine = np.arange(-100.0, 100.0, 0.0005)
        oracle = np.trapezoid(0.5 * np.log1p(fine ** 2) / (1.0 + fine ** 2), fine)
        assert got == pytest.approx(float(oracle), rel=1e-4)

    def test_minus_inf_samples_ignored(self):
        val = cartwright_integral([(-1.0, -math.inf), (0.0, 1.0), (1.0, -math.inf)])
        assert math.isfinite(val) and val > 0.0

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            cartwright_integral([(1.0, 0.0), (0.0, 0.0)])

    def test_footnote_exceeds_divergence_benchmark(self, footnote_big):
        # sampled log-modulus mass beats the known growth benchmark on [e^2, 1e4]
        xs = np.geomspace(math.e ** 2, 1e4, 2000)
        samples = [(x, log_modulus_via_counting(footnote_big, complex(x))) for x in xs]
        got = cartwright_integral(samples)
        bench = np.trapezoid((1.0 + xs / (2.0 * np.log(xs))) / (1.0 + xs ** 2), xs)
        assert got >= float(bench)


class TestTypeBound:
    def test_lattice_near_pi(self):
        seq = integer_lattice(1e4)
        ys = [250.0, -250.0, 500.0, -500.0, 1000.0, -1000.0]
        rep = type_bound(seq, 0.5, ys, math.pi)
        assert abs(rep.extremum_value - math.pi) <= 0.05 * math.pi
        assert rep.verdict == SATISFIED

    def test_scaled_lattice_doubles_type(self):
        seq = scaled_lattice(0.5, 8000.0)
        ys = [150.0, -150.0, 300.0, -300.0]
        rep = type_bound(seq, 0.25, ys, 2.0 * math.pi)
        assert abs(rep.extremum_value - 2.0 * math.pi) <= 0.05 * 2.0 * math.pi

    def test_diagnostics_count_the_one_kernel_call(self):
        seq = integer_lattice(200.0)
        ys = [10.0, -10.0, 20.0, -20.0, 40.0, -40.0]
        diag = type_bound(seq, 0.5, ys, math.pi).diagnostics
        c_keys = list(check_C(seq, 0.5, 20.0, grid=8).diagnostics)
        assert list(diag) == c_keys[:5]
        assert diag["kernel_calls"] == 1
        assert (diag["kernel_points"] == diag["grid_base_points"] == diag["grid_aug_points"]
                == len(ys))
        assert diag["zero_points"] == len(seq) * len(ys)

    def test_empty_below_any_sigma(self):
        rep = type_bound(ZeroSequence(()), 0.0, [1.0, -1.0, 2.0, -2.0], 0.0)
        assert rep.verdict == SATISFIED
        assert rep.extremum_value == 0.0

    def test_unstable_plateau_inconclusive(self):
        # one zero at 1: the values on the plateau |y| >= 1 vary by 0.29,
        # beyond the tolerance, so an estimate above sigma's threshold is
        # not judged
        rep = type_bound(ZeroSequence([1.0]), 0.5, [1.0, -1.0, 2.0, -2.0], 0.5)
        assert rep.verdict == INCONCLUSIVE
        assert rep.witness is None
        assert rep.extremum_value > 0.5 + criteria.TYPE_TOLERANCE * 1.5
        assert rep.notes == "sigma = 0.5; plateau variation = 0.291"

    def test_requires_both_signs(self):
        with pytest.raises(ValueError):
            type_bound(ZeroSequence(()), 0.0, [1.0, 2.0], 1.0)

    def test_requires_ascending_magnitudes(self):
        with pytest.raises(ValueError):
            type_bound(ZeroSequence(()), 0.0, [2.0, -1.0], 1.0)


def _all_distances_base_point(seq: ZeroSequence) -> float:
    """The base-point rule that takes every candidate's distance first."""
    candidates = (0.0, 0.5, 0.25, 0.75, 1.0 / 3.0, 0.2, 0.7, 1.0 / 7.0)
    if not len(seq):
        return candidates[0]
    pos = seq.positions
    dists = [float(np.hypot(pos.real - c, pos.imag).min()) for c in candidates]
    for c, d in zip(candidates, dists):
        if d >= 1e-6:
            return c
    return candidates[int(np.argmax(dists))]


class TestDefaultBasePoint:
    CANDIDATES = (0.0, 0.5, 0.25, 0.75, 1.0 / 3.0, 0.2, 0.7, 1.0 / 7.0)

    @pytest.mark.parametrize("seq, want", [
        (ZeroSequence(()), 0.0),
        (integer_lattice(50.0), 0.0),
        (ZeroSequence([0.0, 0.5]), 0.25),
        (ZeroSequence([0.0, 0.5 + 1e-7j, 0.25 - 5e-7, 0.75]), 1.0 / 3.0),
        # a zero on every candidate: the first of the equally far ones
        (ZeroSequence(CANDIDATES), 0.0),
        # a zero within 1e-6 of every candidate: the farthest candidate
        (ZeroSequence([c + 1e-8 for c in CANDIDATES if c != 0.75] + [0.75 + 5e-7j]), 0.75),
    ], ids=["empty", "lattice", "zero-and-half", "near-misses", "every-candidate",
            "near-every-candidate"])
    def test_in_order_rule_matches_all_distances(self, seq, want):
        assert default_base_point(seq) == _all_distances_base_point(seq) == want

    def test_first_clear_candidate_takes_one_distance(self, monkeypatch):
        calls = []

        def hypot(*args):
            calls.append(1)
            return np.hypot(*args)

        monkeypatch.setattr(criteria, "np", mock.Mock(wraps=np, hypot=hypot))
        assert default_base_point(integer_lattice(4e3)) == 0.0
        assert default_base_point(ZeroSequence([0.0, 0.5])) == 0.25
        assert len(calls) == 1 + 3


class TestNonFiniteArguments:
    @pytest.mark.parametrize("call, name", [
        (lambda s: type_bound(s, 0.5, [1, -1, math.nan, -4], math.pi), "y_values"),
        (lambda s: type_bound(s, 0.5, [1, -1, 2, -4], math.nan), "sigma"),
        (lambda s: type_bound(s, math.inf, [1, -1, 2, -4], math.pi), "b"),
        (lambda s: check_B(s, math.nan, default_grid(16.0)), "b"),
        (lambda s: check_B(s, 0.5, [0.0, math.nan, 1.0]), "x_grid"),
        (lambda s: check_D(s, [-math.inf, 1.0]), "x_grid"),
        (lambda s: check_C(s, math.nan), "b"),
        (lambda s: check_C(s, 0.5, math.nan), "x_max"),
        (lambda s: check_C(s, 0.5, math.inf), "x_max"),
        (lambda s: phi(s, math.nan, 1.0), "b"),
        (lambda s: phi(s, 0.5, math.nan), "x"),
        (lambda s: phi_profile(s, 0.5, [1.0, math.inf]), "xs"),
        (lambda s: classify(s, b=math.nan), "b"),
        (lambda s: classify(s, x_max=math.nan), "x_max"),
        (lambda s: classify(s, sigma=math.nan), "sigma"),
    ], ids=["type-y", "type-sigma", "type-b", "B-b", "B-grid", "D-grid", "C-b", "C-x_max",
            "C-x_max-inf", "phi-b", "phi-x", "profile-xs", "classify-b", "classify-x_max",
            "classify-sigma"])
    def test_raises_naming_the_argument(self, call, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            call(integer_lattice(50))


class TestSpanInsideR:
    """A truncated sequence stores no zero at |x| >= R, so the checks judge
    only |x| < R."""

    @pytest.mark.parametrize("call, name", [
        (lambda s: check_C(s, 0.5, 60.0), "x_max"),
        (lambda s: check_C(s, 0.5, 50.0), "x_max"),
        (lambda s: classify(s, x_max=60.0), "x_max"),
        (lambda s: check_B(s, 0.5, np.linspace(-60.0, 60.0, 11)), "x_grid"),
        (lambda s: check_B(s, 0.5, [-50.0, 1.0]), "x_grid"),
        (lambda s: check_D(s, np.linspace(-60.0, 60.0, 11)), "x_grid"),
        (lambda s: check_D(s, [1.0, 50.0]), "x_grid"),
        (lambda s: type_bound(s, 0.5, [40.0, -40.0, 80.0, -80.0], math.pi), "y_values"),
        (lambda s: type_bound(s, 0.5, [25.0, -25.0, -50.0], math.pi), "y_values"),
    ], ids=["C", "C-at-R", "classify", "B", "B-at-R", "D", "D-at-R", "type", "type-at-R"])
    def test_raises_naming_the_argument(self, call, name):
        with pytest.raises(ValueError, match=f"^{name} must lie"):
            call(integer_lattice(50))

    def test_inside_R_and_complete_sequences_run(self):
        x = math.nextafter(50.0, 0.0)
        seq = integer_lattice(50)
        for rep in (check_C(seq, 0.5, x), check_B(seq, 0.5, [-x, x]), check_D(seq, [-x, x])):
            assert rep.truncation_radius == 50.0
        complete = ZeroSequence.from_arrays([1.0, -2.0], [1, 1])
        assert check_B(complete, 0.5, np.linspace(-60.0, 60.0, 11)).truncation_radius == 0.0
        assert type_bound(complete, 0.5, [60.0, -60.0], math.pi).truncation_radius == 0.0

    @pytest.mark.parametrize("R", [2.5, 4.0])
    def test_classify_sigma_below_a_small_R(self, R):
        # the type check's span is x_max where 4 would reach R
        report = classify(integer_lattice(R), sigma=1.0)
        assert max(report.reports["type_sigma"].window_x) == report.x_max < R


class TestClassify:
    def test_tail_model_built_once(self):
        with mock.patch.object(criteria._Tail, "of", wraps=criteria._Tail.of) as of:
            classify(integer_lattice(200.0))
        assert of.call_count == 1

    def test_empty_all_satisfied(self):
        rep = classify(ZeroSequence(()))
        assert all(r.verdict == SATISFIED for r in rep.reports.values())

    def test_origin_zero_rejected(self):
        with pytest.raises(ValueError):
            classify(ZeroSequence((Zero(0j), Zero(1 + 0j))))

    def test_report_serializes(self):
        import json

        rep = classify(integer_lattice(60.0))
        payload = rep.to_dict()
        assert set(payload["criteria"]) == {"C", "B", "D"}
        json.dumps(payload, allow_nan=True)
        # complete only inside R = 1: no annulus fits, so the growth fields
        # are NaN and no radius is sampled
        small = ZeroSequence.from_arrays([0.5, -0.5 + 0.25j], [1, 2], truncation_radius=1.0)
        payload = classify(small).to_dict()
        growth = payload["growth"]
        assert math.isnan(growth["linear_ratio_sup"])
        assert math.isnan(growth["annulus_increment_max_ratio"])
        assert growth["sample_radii"] == []
        assert json.loads(json.dumps(payload, allow_nan=True))["growth"]["sample_radii"] == []

    @pytest.mark.parametrize("verdicts, downgraded", [
        ({"C": VIOLATED, "B": SATISFIED, "D": INCONCLUSIVE}, ("B",)),
        # B is downgraded first, so D is downgraded by its pair with C only
        ({"C": VIOLATED, "B": SATISFIED, "D": SATISFIED}, ("B", "D")),
    ], ids=["B-under-C", "D-and-B-under-C"])
    def test_verdicts_closed_under_the_inclusion_chain(self, monkeypatch, verdicts, downgraded):
        canned = {name: CriterionReport(name, verdict, 2.0, 1.0, 0.0, "canned grid",
                                        notes="base point b = 0.0" if name == "B" else "")
                  for name, verdict in verdicts.items()}
        monkeypatch.setattr(criteria, "_weighted_check", lambda *args: canned["C"])
        monkeypatch.setattr(criteria, "_sup_check", lambda seq, name, *args: canned[name])
        rep = classify(integer_lattice(20.0))
        for name, before in canned.items():
            if name not in downgraded:
                assert rep.reports[name] is before
                continue
            note = "downgraded: conflicts with C violation (numerical artifact)"
            assert rep.reports[name] == dataclasses.replace(
                before, verdict=INCONCLUSIVE, witness=None,
                notes=f"{before.notes}; {note}" if before.notes else note)
        assert rep.consistency_notes == tuple(
            f"{name} evidence said satisfied while C said violated; "
            f"{name} downgraded to inconclusive" for name in downgraded)

    def test_type_check_included_when_sigma_given(self):
        rep = classify(integer_lattice(200.0), sigma=math.pi)
        assert "type_sigma" in rep.reports

    def test_threads_do_not_change_values(self):
        seq = integer_lattice(150.0)
        one = check_B(seq, 0.5, np.linspace(-30, 30, 121), threads=1)
        four = check_B(seq, 0.5, np.linspace(-30, 30, 121), threads=4)
        assert one.extremum_value == four.extremum_value
        assert one.window_values == four.window_values


def bits(values) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


@st.composite
def real_axis_sequences(draw):
    """Real zeros off the origin (so the grids have gaps to refine) plus a
    few complex ones, multiplicities 1-3."""
    reals = draw(st.lists(st.tuples(st.floats(0.2, 40.0), st.sampled_from((1.0, -1.0))),
                          min_size=2, max_size=30))
    others = draw(st.lists(st.tuples(st.floats(-20.0, 20.0), st.floats(0.1, 20.0)), max_size=8))
    positions = [s * x for x, s in reals] + [complex(x, y) for x, y in others]
    mults = draw(st.lists(st.integers(1, 3), min_size=len(positions), max_size=len(positions)))
    return ZeroSequence.from_arrays(positions, mults)


def _judged_points(check, *args):
    """Run a B or D check with its evaluator's kernel recorded; return the
    report and every point the kernel computed a value for."""
    calls = []
    evaluate = counting._RealAxis._evaluate

    def recording(axis, points):
        calls.append(np.array(points, dtype=float))
        return evaluate(axis, points)

    with mock.patch.object(counting._RealAxis, "_evaluate", recording):
        rep = check(*args)
    return rep, np.concatenate(calls)


def assert_within_bound(axis, xs):
    """axis's values at xs lie within its stated bound plus log_potential's
    of the dense kernel, and are -inf exactly where the dense ones are."""
    seq = axis.seq
    got = axis.values(xs)
    dense = log_potential(seq, xs, axis.b, axis.t_lo)
    assert np.array_equal(got == -math.inf, dense == -math.inf)
    keep = np.isfinite(dense)
    scale = value_scale(seq, xs[keep], axis.b, axis.t_lo)
    assert np.all(np.abs(got[keep] - dense[keep]) <= 150 * U * scale + axis.far_bound(xs[keep]))


def _no_bound(za, *rest):
    """A gap bound that is never below its target, at no slope point."""
    return np.full(za.size, math.inf), 0


class TestEvaluatedOnce:
    @settings(max_examples=40, deadline=None)
    @given(seq=real_axis_sequences(), span=st.floats(2.0, 60.0), count=st.integers(3, 40))
    def test_judged_values_are_fresh_kernel_values(self, seq, span, count):
        grid = np.linspace(-span, span, count)
        b = default_base_point(seq)
        # a fresh evaluator with the check's layout: the grid's range and size
        fresh = _gap_objectives(seq, b, -span, span, np.unique(grid).size)[1]
        # D's evaluator shares B's far field: its near windows reach 3h, as
        # 2h >= t_lo = 1 on every cell here
        assert fresh["D"][3]._far is fresh["B"][3]._far
        for rep, asked in (_judged_points(check_B, seq, b, grid), _judged_points(check_D, seq, grid)):
            diag = rep.diagnostics
            # each point once, and every point evaluated is judged
            assert np.unique(asked).size == asked.size == diag["kernel_points"]
            assert diag["zero_points"] == diag["near_points"] + diag["node_points"]
            assert diag["near_points"] <= len(seq) * asked.size
            assert diag["grid_aug_points"] == asked.size
            xs = np.sort(asked)
            _, _, objective, axis = fresh[rep.criterion]
            vals = objective(xs)
            assert_within_bound(axis, xs)
            keep = np.isfinite(vals)
            xs, vals = xs[keep], vals[keep]
            top = int(np.argmax(vals))
            assert bits([rep.extremum_value]) == bits([vals[top]])
            _, running = criteria._running_sup_windows(xs, vals)
            assert bits(rep.window_values) == bits(running)

    def test_survivor_reuse_keeps_the_golden_brackets(self):
        # each gap's objective peaks at a random point; the three passes must
        # probe where a search that evaluates both points per pass does, to
        # rounding, with four probes per gap instead of six
        rng = np.random.default_rng(41)
        for _ in range(10):
            zeros = np.sort(rng.uniform(-30.0, 30.0, 12))
            peaks = rng.uniform(zeros[:-1], zeros[1:])

            def objective(x):
                return -(x - peaks[np.clip(np.searchsorted(zeros, x) - 1, 0, peaks.size - 1)]) ** 2

            base = np.linspace(zeros[0], zeros[-1], 7)
            pts, vals, _ = criteria._augment_grid(zeros, base, objective, _no_bound)
            assert bits(vals) == bits(objective(pts))
            mids = 0.5 * (zeros[:-1] + zeros[1:])
            probes = pts[~np.isin(pts, np.concatenate([base, mids]))]
            assert probes.size == 4 * peaks.size
            g = criteria._GOLDEN
            for a, b in zip(zeros[:-1], zeros[1:]):
                for _ in range(3):
                    x1, x2 = b - g * (b - a), a + g * (b - a)
                    for x in (x1, x2):
                        assert np.min(np.abs(probes - x)) <= 1e-12 * (1.0 + abs(x))
                    a, b = (x1, b) if objective(np.array([x1]))[0] < objective(np.array([x2]))[0] else (a, x2)

    def test_lattice_points_evaluated_once(self):
        # the dense path evaluated 6373 (B) and 6745 (D) kernel points here,
        # and searching all 499 gaps 2909 each; B searches only the gap
        # (-1, 1), D (which also judges the integers) the gaps whose bound
        # beats their window's sup
        seq = integer_lattice(1e3)
        xs = default_grid(default_x_max(seq), 24)
        counts = {"B": (917, 917, 1, 498), "D": (1445, 1445, 29, 470)}
        # value terms: near zeros summed densely plus far zeros at the nodes
        # (dense: 1832166 and 2887110 zeros x points).  D's near windows
        # reach 3h, as B's do (2h >= 1 on every cell), so its far field and
        # node terms are B's
        terms = {"B": (273502, 169960), "D": (431059, 169960)}
        for rep in (check_B(seq, 0.0, xs), check_D(seq, xs)):
            diag = rep.diagnostics
            augmented = int(re.match(r"^(\d+)-point grid .*augmented to (\d+) points",
                                     rep.grid_description)[2])
            assert diag["grid_base_points"] == xs.size
            assert diag["grid_aug_points"] == augmented
            assert (diag["grid_aug_points"], diag["kernel_points"], diag["gaps_searched"],
                    diag["slope_points"]) == counts[rep.criterion]
            assert diag["gaps"] == 499
            # base grid and midpoints (and D's real zeros), then three golden passes
            assert diag["kernel_calls"] == 4
            assert (diag["near_points"], diag["node_points"]) == terms[rep.criterion]
            assert diag["zero_points"] == sum(terms[rep.criterion])

    def test_C_matches_level_by_level_evaluation(self):
        # reference: every refinement level evaluated afresh, both signs
        # in separate calls, as the windows were computed before reuse
        rng = np.random.default_rng(40)
        for k in range(12):
            seq = (random_sequence, random_symmetric_sequence, random_conjugate_sequence)[k % 3](rng)
            b = default_base_point(seq)
            x_max = float(rng.uniform(0.5, 40.0))
            rep = check_C(seq, b, x_max, grid=8)
            tail = criteria._Tail.of(seq)
            edges = [0.0, min(1.0, x_max)]
            while edges[-1] < x_max:
                edges.append(min(2.0 * max(edges[-1], 1.0), x_max))
            # a fresh evaluator with the check's layout, B's and D's in classify
            axis = counting._RealAxis(seq, b, 0.0, -x_max, x_max, default_grid(x_max, 8).size)
            windows, points, judged = [], 0, []
            for lo, hi in zip(edges, edges[1:]):
                n, prev = 8, None
                while True:
                    xs = np.linspace(lo, hi, n + 1)
                    env = tail.envelope(xs)
                    up = np.maximum(axis._evaluate(xs) - env, 0.0)
                    um = np.maximum(axis._evaluate(-xs) - env, 0.0)
                    assert_within_bound(axis, np.concatenate([xs, -xs]))
                    val = float(np.trapezoid((up + um) / (1.0 + xs ** 2), xs))
                    if prev is not None and (abs(val - prev) <= 1e-4 * (1.0 + abs(val)) or n >= 128):
                        break
                    prev, n = val, 2 * n
                windows.append(val)
                points += 2 * (n + 1)
                judged += [xs, -xs]
            assert bits(rep.window_values) == bits(windows)
            assert rep.diagnostics["grid_aug_points"] == points
            # each window edge is judged by both windows, and x = 0 as 0.0
            # and -0.0, but computed once
            distinct = np.unique(np.concatenate(judged) + 0.0).size
            assert rep.diagnostics["kernel_points"] == distinct < points
            # the distinct base points, as B and D count the same grid
            assert rep.diagnostics["grid_base_points"] == default_grid(x_max, 8).size


REPORT_FIELDS = ("verdict", "witness", "extremum_value", "window_x", "window_values",
                 "trend_slope", "tail_error_bound")


def _report_bits(rep):
    # a float's repr names its bits, -0.0 included
    return tuple(repr(getattr(rep, f)) for f in REPORT_FIELDS)


def _unpruned(check, *args):
    """The check with every gap searched."""
    with mock.patch.object(counting._RealAxis, "gap_bounds", lambda *args: _no_bound(*args[2:])):
        return check(*args)


def _gap_objectives(seq, b, lo, hi, samples):
    """The tail model, and per criterion the base point, t_lo, judged
    objective and evaluator of check_B and check_D on a grid over [lo, hi]
    of samples points, computed afresh: D's evaluator is a sibling of B's,
    as in classify."""
    tail = criteria._Tail.of(seq)
    out = {}
    axis = counting._RealAxis(seq, b, 0.0, lo, hi, samples)
    for name, base, t_lo in (("B", b, 0.0), ("D", 0.0, 1.0)):
        axis = axis.sibling(base, t_lo)

        def objective(xs, axis=axis, t_lo=t_lo):
            h = axis.values(xs) - tail.envelope(xs)
            return np.abs(h) if t_lo > 0.0 else h

        out[name] = (base, t_lo, objective, axis)
    return tail, out


def _golden_max(objective, ga, gb, passes=40):
    """Golden-section maximum of objective on every gap [ga, gb] at once."""
    g = criteria._GOLDEN
    x1, x2 = gb - g * (gb - ga), ga + g * (gb - ga)
    f1, f2 = objective(x1), objective(x2)
    best = np.maximum(f1, f2)
    for _ in range(passes):
        move_lo = f1 < f2
        ga, gb = np.where(move_lo, x1, ga), np.where(move_lo, gb, x2)
        new = np.where(move_lo, ga + g * (gb - ga), gb - g * (gb - ga))
        f_new = objective(new)
        best = np.maximum(best, f_new)
        x1, x2 = np.where(move_lo, x2, new), np.where(move_lo, new, x1)
        f1, f2 = np.where(move_lo, f2, f_new), np.where(move_lo, f_new, f1)
    return best


class TestGapPruning:
    @settings(max_examples=40, deadline=None)
    @given(seq=real_axis_sequences(), span=st.floats(2.0, 60.0), count=st.integers(3, 40),
           per_octave=st.integers(2, 24))
    def test_reports_match_searching_every_gap(self, seq, span, count, per_octave):
        b = default_base_point(seq)
        for grid in (np.linspace(-span, span, count), default_grid(span, per_octave)):
            for check, args in ((check_B, (seq, b, grid)), (check_D, (seq, grid))):
                assert _report_bits(check(*args)) == _report_bits(_unpruned(check, *args))

    def test_conftest_and_lattice_reports_match(self):
        rng = np.random.default_rng(43)
        cases = [(integer_lattice(300.0), default_grid(75.0, 24))]
        for k in range(24):
            seq = (random_symmetric_sequence, random_conjugate_sequence)[k % 2](rng)
            cases.append((seq, default_grid(float(rng.uniform(4.0, 40.0)), 12)))
        pruned = 0
        for seq, grid in cases:
            b = default_base_point(seq)
            for check, args in ((check_B, (seq, b, grid)), (check_D, (seq, grid))):
                rep = check(*args)
                assert _report_bits(rep) == _report_bits(_unpruned(check, *args))
                pruned += rep.diagnostics["gaps"] - rep.diagnostics["gaps_searched"]
        assert pruned > 0

    @settings(max_examples=80, deadline=None)
    @given(seq=st.one_of(real_axis_sequences(), clustered_sequences()),
           lo=st.floats(-60.0, -2.0), hi=st.floats(2.0, 60.0))
    def test_bound_covers_the_gap_maximum(self, seq, lo, hi):
        # every gap's bound, not only the pruned ones, against a dense sample
        # plus a golden search of the gap
        tail, objectives = _gap_objectives(seq, default_base_point(seq), lo, hi, 200)
        axis = objectives["B"][3]
        rz = axis.real_zeros
        first, last = np.searchsorted(rz, lo), np.searchsorted(rz, hi, side="right")
        rz = rz[max(first - 1, 0):last + 1]
        za, zb = rz[:-1], rz[1:]
        ga, gb = np.maximum(za, lo), np.minimum(zb, hi)
        keep = gb - ga > 1e-9 * (1.0 + np.abs(ga))
        za, zb, ga, gb = za[keep], zb[keep], ga[keep], gb[keep]
        if not ga.size:
            return
        for name, (b, t_lo, objective, axis) in objectives.items():
            ub, slope_points = axis.gap_bounds(tail, za, zb, ga, gb,
                                               np.clip(0.5 * (za + zb), lo, hi), objective,
                                               math.inf)
            assert slope_points == ga.size
            assert_within_bound(axis, np.linspace(ga, gb, 257).ravel())
            dense = objective(np.linspace(ga, gb, 257)).max(axis=0)
            assert np.all(dense <= ub), name
            assert np.all(_golden_max(objective, ga, gb) <= ub), name

    def test_bound_covers_dense_clusters(self):
        # real zeros 0.05-0.6 apart with multiplicities up to 7 put several
        # near zeros on every gap, so each of D's near sums adds many terms
        rng = np.random.default_rng(44)
        for _ in range(400):
            reals = rng.uniform(-30.0, 30.0) + np.cumsum(rng.uniform(0.05, 0.6, rng.integers(2, 30)))
            px = rng.uniform(reals.min() - 2.0, reals.max() + 2.0, rng.integers(0, 10))
            py = rng.uniform(0.02, 1.0, px.size)
            positions = np.concatenate([reals, px + 1j * py, px - 1j * py])
            seq = ZeroSequence.from_arrays(positions, rng.integers(1, 8, positions.size))
            if not seq.origin_excluded:
                continue
            za, zb = reals[:-1], reals[1:]
            tail, objectives = _gap_objectives(seq, default_base_point(seq), reals[0], reals[-1],
                                               200)
            for name, (b, t_lo, objective, axis) in objectives.items():
                ub, _ = axis.gap_bounds(tail, za, zb, za, zb, 0.5 * (za + zb), objective,
                                        math.inf)
                dense = objective(np.linspace(za, zb, 257)).max(axis=0)
                assert np.all(dense <= ub), name

    @settings(max_examples=60, deadline=None)
    @given(seq=st.one_of(st.integers(0, 2 ** 32 - 1).map(
               lambda seed: random_conjugate_sequence(np.random.default_rng(seed))),
               clustered_sequences()),
           heights=st.lists(st.floats(0.02, 1.5), max_size=6), data=st.data())
    def test_zeros_by_real_part_put_a_real_zero_first(self, seq, heights, data):
        # gap_bounds takes its near zeros from the evaluator's order: Re a
        # ascending, a real zero before complex zeros of equal Re.  Conjugate
        # pairs at the real parts of some real zeros put such ties in.
        real = seq.positions.real[seq.positions.imag == 0.0]
        if real.size:
            at = data.draw(st.lists(st.sampled_from(real.tolist()), min_size=len(heights),
                                    max_size=len(heights)))
            pairs = np.array(at) + 1j * np.array(heights)
            seq = ZeroSequence.from_arrays(np.concatenate([seq.positions, pairs, pairs.conj()]),
                                           np.concatenate([seq.multiplicities,
                                                           np.ones(2 * pairs.size)]))
        axis = counting._RealAxis(seq, 0.0, 1.0, -1.0, 1.0, 20)
        re, im = axis._far.re, axis._far.im
        assert np.all(np.diff(re) >= 0.0)
        # positions are merged, so a real zero is first among its ties
        # exactly when none ties with the zero before it
        assert not np.any((re[1:] == re[:-1]) & (im[1:] == 0.0))

    def test_lattice_4e3_point_budget(self):
        seq = integer_lattice(4e3)
        xs = default_grid(default_x_max(seq), 24)
        assert check_B(seq, 0.0, xs).diagnostics["kernel_points"] <= 3000
        assert check_D(seq, xs).diagnostics["kernel_points"] <= 6000


def _alone(seq, b=None, x_max=None, grid=24):
    """check_C, check_B and check_D called alone with classify's arguments."""
    b = default_base_point(seq) if b is None else b
    x_max = default_x_max(seq) if x_max is None else x_max
    xs = default_grid(x_max, max(8, grid))
    return {"C": check_C(seq, b, x_max, grid=grid), "B": check_B(seq, b, xs),
            "D": check_D(seq, xs)}


def _complex_multiple():
    # conjugate pairs off the axis and real zeros, multiplicities 1 to 3
    n = np.arange(1.0, 30.0)
    pos = np.concatenate([n + 0.5, -n - 0.25, n + 0.3j, n - 0.3j, -n + 1.5j, -n - 1.5j])
    return ZeroSequence.from_arrays(pos, np.arange(pos.size) % 3 + 1, truncation_radius=31.0)


def _complete_x_max_12():
    # complete, so x_max = 2 max|a| + 4 = 12: C's old cell rule gave 4 cells
    # (2 (grid + 1) windows = 250 samples), the grid's size 3 (241 points)
    return ZeroSequence.from_arrays([1.0, -1.5, 2.5, 3.0 + 1.0j, 3.0 - 1.0j, -4.0], [1, 1, 2, 1, 1, 2])


class TestSharedAxis:
    """classify reads one real-axis far field for C, B and D, and one set of
    values for C and B; its reports are the checks' alone, bit for bit."""

    @pytest.mark.parametrize("make, kwargs", [
        (lambda: integer_lattice(200.0), {}),
        (lambda: scaled_lattice(0.5, 200.0), {}),
        (lambda: build_generator("alpha", c=1.0, N=200), {}),
        (lambda: integer_lattice(200.0), {"b": 0.5}),
        (_complex_multiple, {}),
        (_complete_x_max_12, {}),
    ], ids=["lattice", "scaled", "alpha", "lattice-b", "complex-multiple", "complete-x_max-12"])
    def test_reports_are_the_checks_alone(self, make, kwargs):
        seq = make()
        rep = classify(seq, **kwargs)
        assert rep.consistency_notes == ()   # no verdict downgraded
        alone = _alone(seq, **kwargs)
        for name in ("C", "B", "D"):
            assert _report_bits(rep.reports[name]) == _report_bits(alone[name]), name
        cells = {r.diagnostics["cells"] for r in (*rep.reports.values(), *alone.values())}
        assert len(cells) == 1

    def test_node_sums_made_once(self):
        seq = integer_lattice(200.0)
        diag = {name: r.diagnostics for name, r in classify(seq).reports.items()}
        alone = {name: r.diagnostics for name, r in _alone(seq).items()}
        # C builds every cell's node sums; B and D find them built
        assert diag["C"]["node_points"] == sum(d["node_points"] for d in diag.values())
        assert diag["B"]["node_points"] == diag["D"]["node_points"] == 0
        assert {d["node_points"] for d in alone.values()} == {diag["C"]["node_points"]} != {0}
        # each report counts its own check's work: B computes only the
        # points C did not, D all of its own
        assert diag["C"] == alone["C"]
        assert 0 < diag["B"]["kernel_points"] < alone["B"]["kernel_points"]
        assert diag["B"]["near_points"] < alone["B"]["near_points"]
        assert (diag["D"]["kernel_points"], diag["D"]["near_points"]) == (
            alone["D"]["kernel_points"], alone["D"]["near_points"])

    def test_one_density_below_eight_an_octave(self):
        # grid = 4 is taken as 8 for all three, as check_C always took it
        seq = integer_lattice(1e3)
        four, eight = classify(seq, grid=4), classify(seq, grid=8)
        x_max = default_x_max(seq)
        for name in ("C", "B", "D"):
            assert _report_bits(four.reports[name]) == _report_bits(eight.reports[name]), name
            assert four.reports[name].diagnostics == eight.reports[name].diagnostics
        assert four.reports["B"].diagnostics["grid_base_points"] == default_grid(x_max, 8).size
        assert len({r.diagnostics["cells"] for r in four.reports.values()}) == 1


# C/B/D verdicts of classify with default arguments on every catalog
# generator: the benchmark's radii and one smaller radius each.
GOLDEN_VERDICTS = [
    ("lattice", {"R": 1e3}, (SATISFIED, SATISFIED, VIOLATED),
     "sin(pi z)/(pi z) is bounded on the axis; its base-1 integral falls like "
     "-log|x| at the integers, so D's windows grow about log 2 per octave"),
    ("lattice", {"R": 4e3}, (SATISFIED, SATISFIED, VIOLATED),
     "the same function at four times the radius: verdicts do not depend on R"),
    ("lattice", {"R": 200.0}, (SATISFIED, SATISFIED, VIOLATED),
     "the same function on x_max = 50, still five octaves for the trend fits"),
    ("scaled", {"h": 0.5, "R": 1e3}, (SATISFIED, SATISFIED, VIOLATED),
     "sin(2 pi z)/(2 pi z): the lattice rescaled, same real-axis behaviour"),
    ("scaled", {"h": 0.5, "R": 200.0}, (SATISFIED, SATISFIED, VIOLATED),
     "the rescaled lattice on x_max = 50"),
    ("alpha", {"c": 1.0, "N": 1000}, (VIOLATED, VIOLATED, VIOLATED),
     "density t + log(1+t) adds a growing surplus of zeros over the lattice, so "
     "the leading part of the counting integral grows and every window trend fails"),
    ("alpha", {"c": 1.0, "N": 200}, (VIOLATED, VIOLATED, VIOLATED),
     "the same surplus on x_max of about 49"),
    ("footnote", {"R": 1e5}, (INCONCLUSIVE, VIOLATED, VIOLATED),
     "one-sided density r/log^2 r: log|f(x)| >= 1 + x/(2 log x) breaks B and D; "
     "the C windows fall like 1/octave, too slowly to call at R = 1e5"),
    ("footnote", {"R": 1e4}, (SATISFIED, VIOLATED, VIOLATED),
     "B and D as at 1e5; C is a truncation artefact: its last window [2048, 2500] "
     "spans 0.29 octave, and its small value steepens the fitted slope to -0.63, "
     "past the -0.5 band"),
]


@pytest.mark.parametrize("name, params, verdicts, reason", GOLDEN_VERDICTS,
                         ids=[f"{g}-{','.join(f'{k}={v:g}' for k, v in p.items())}"
                              for g, p, _, _ in GOLDEN_VERDICTS])
def test_golden_verdicts(name, params, verdicts, reason):
    rep = classify(build_generator(name, **params))
    assert tuple(rep.reports[k].verdict for k in ("C", "B", "D")) == verdicts, reason


def _lattice(R, add=(), drop=()):
    """integer_lattice(R) with the real zeros add joined and drop removed."""
    n = np.arange(-math.floor(R), math.floor(R) + 1, dtype=float)
    n = n[(n != 0.0) & (np.abs(n) < R) & ~np.isin(n, drop)]
    pos = np.concatenate([n, add])
    return ZeroSequence.from_arrays(pos, np.ones(pos.size), R)


def _shifted(R, y, add=(), drop=()):
    """The shifted lattice, n + i y for every integer n with |n + i y| < R,
    with the zeros add joined and drop removed: sin(pi (z - i y)) / sin(-i pi y)
    times a rational factor."""
    n = np.arange(-math.floor(R), math.floor(R) + 1, dtype=float)
    pos = (n + 1j * y)[np.hypot(n, y) < R]
    pos = np.concatenate([pos[~np.isin(pos, drop)], np.asarray(add, dtype=complex)])
    return ZeroSequence.from_arrays(pos, np.ones(pos.size), R)


# Finite changes to sine-type functions: each multiplies f by a rational
# factor, so each row's C/B/D answer is known exactly.
KNOWN_ANSWERS = [
    ("lattice+-1/2", lambda R: _lattice(R, [0.5, -0.5]), (SATISFIED, VIOLATED, VIOLATED),
     "(1 - 4z^2) sin(pi z)/(pi z) grows like |x| on the axis: unbounded, but "
     "log|f| / (1 + x^2) is integrable"),
    ("lattice+-1/2+-1/4", lambda R: _lattice(R, [0.5, -0.5, 0.25, -0.25]),
     (SATISFIED, VIOLATED, VIOLATED), "two more factors: growth like |x|^3"),
    ("lattice-+-1", lambda R: _lattice(R, drop=[1.0, -1.0]), (SATISFIED, SATISFIED, VIOLATED),
     "sin(pi z)/(pi z (1 - z^2)) decays like |x|^-3, bounded as the lattice is"),
    ("shifted-1/2+1/2", lambda R: _shifted(R, 0.5, [0.5]), (SATISFIED, VIOLATED, VIOLATED),
     "a sine-type function times (1 - 2z): growth like |x|"),
    ("shifted-1/2-i/2", lambda R: _shifted(R, 0.5, drop=[0.5j]), (SATISFIED, SATISFIED, VIOLATED),
     "a sine-type function over (1 + 2iz): decay like |x|^-1"),
]


@pytest.mark.parametrize("R", [200.0, 1e3, 4e3], ids=lambda R: f"R={R:g}")
@pytest.mark.parametrize("name, make, verdicts, reason", KNOWN_ANSWERS,
                         ids=[row[0] for row in KNOWN_ANSWERS])
def test_known_answer_verdicts(name, make, verdicts, reason, R):
    rep = classify(make(R))
    assert tuple(rep.reports[k].verdict for k in ("C", "B", "D")) == verdicts, reason


# Sine-type functions: |f| is bounded above and below off a strip, so C, B
# and D all hold.  From R = 1e3 on, the quadratic envelope misses the
# tail's x^4 and higher terms (about R/1536 at x = R/4 on the lattice),
# which ROADMAP's item "Take the truncation envelope to all orders"
# removes; these cases must flip to passing with it.
_ENVELOPE_MISS = pytest.mark.xfail(strict=True, reason="the quadratic truncation envelope "
                                   "misses the tail's higher orders (ROADMAP's envelope item)")
SINE_TYPE = [
    ("lattice+1/2", lambda R: _lattice(R, [0.5])),
    ("shifted-1/2", lambda R: _shifted(R, 0.5)),
    ("shifted-1", lambda R: _shifted(R, 1.0)),
]


@pytest.mark.parametrize("R", [200.0, pytest.param(1e3, marks=_ENVELOPE_MISS),
                               pytest.param(4e3, marks=_ENVELOPE_MISS)], ids=lambda R: f"R={R:g}")
@pytest.mark.parametrize("name, make", SINE_TYPE, ids=[row[0] for row in SINE_TYPE])
def test_sine_type_verdicts(name, make, R):
    rep = classify(make(R))
    assert tuple(rep.reports[k].verdict for k in ("C", "B", "D")) == (SATISFIED,) * 3
