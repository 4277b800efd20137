import cmath
import gc
import hashlib
import math
import weakref
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    draw_point,
    lattice_log_abs,
    outer_zero_above_hypot,
    random_conjugate_sequence,
    random_sequence,
)
from expozeros import counting, product
from expozeros.counting import (_center_logs, exact_sum, log_potential, partial_log_potential,
                                shell_index, step_integral)
from expozeros import (
    LogComplex,
    Zero,
    ZeroSequence,
    circle_average,
    derivative_at_multiple_zero,
    evaluate_product,
    finite_difference_log_derivative,
    integer_lattice,
    jensen_counting_side,
    jensen_identity_check,
    log_modulus_via_counting,
    tail_correction,
)

PAIR = ZeroSequence((Zero(1 + 0j), Zero(-1 + 0j)), truncation_radius=10.0)
U = 2.0 ** -53


def _scattered_sequence(seed: int, n: int = 300) -> ZeroSequence:
    """n complex zeros with moduli from 0.05 to 40 (some inside the unit
    disc) and multiplicities 1 to 3."""
    rng = np.random.default_rng(seed)
    pos = rng.uniform(0.05, 40.0, n) * np.exp(2j * np.pi * rng.random(n))
    return ZeroSequence.from_arrays(pos, rng.integers(1, 4, n))


def _oracle_sum(seq: ZeroSequence, z: complex, lp) -> tuple[float, float]:
    """sum of m * (lp(|a - z|) - log|a|) at 30 digits, and the bound
    70 u * sum of m * (1 + |L_p| + |L_b|) of log_potential's docstring with
    L_p = lp(|a - z|) and L_b = log|a|."""
    with mpmath.workdps(30):
        z = mpmath.mpc(z.real, z.imag)
        total, weight = mpmath.mpf(0), mpmath.mpf(0)
        for a, m in zip(seq.positions.tolist(), seq.multiplicities.tolist()):
            a = mpmath.mpc(a.real, a.imag)
            l_p, l_b = lp(abs(a - z)), mpmath.log(abs(a))
            total += m * (l_p - l_b)
            weight += m * (1 + abs(l_p) + abs(l_b))
        return float(total), float(70 * U * weight)


def _stated_bound(seq: ZeroSequence, z: complex, value: float, R: float = math.inf) -> float:
    """evaluate_product's stated error bound for its log-magnitude value at
    z over |a| < R.  A far zero, in a dyadic shell 2**j <= |a| < 2**(j + 1)
    at or beyond A (the least power of two at or above 16 |z|) that lies
    whole inside R, is bounded by F = (9u + (16/15) 16**-14 / 15) |z/a|
    times its multiplicity.  Each other zero's term is bounded by the rule
    that takes it (the log1p rule where q = si**2 + sr (sr - 2) lies in
    [-1/2, inf), else the guard's by 1 - z/a, by (a - z)/a where
    |1 - z/a| <= _NEAR_ONE, or by the scaled parts where 1 - z/a
    overflows), times its multiplicity, plus u |L| for that product; and
    u |value| for the final rounding."""
    pos, mult = seq.positions, seq.multiplicities
    c = 2.0 if seq.all_real else 10.0
    mod = np.hypot(pos.real, pos.imag)
    inside = mod < R
    shell = np.frexp(mod)[1]
    whole = ~np.isin(shell, shell[~inside])
    frac, e = math.frexp(16.0 * abs(z))
    A = math.inf if z == 0 else 2.0 ** (e - 1 if frac == 0.5 else e)
    far = inside & whole & (mod >= A)
    with np.errstate(all="ignore"):
        if seq.all_real:
            inv = 1.0 / pos.real
            sr, si = z.real * inv, z.imag * inv
        else:
            s = z / pos
            sr, si = s.real, s.imag
        q = si * si + sr * (sr - 2.0)
        w = 1.0 - z / pos
        mod_w = np.abs(w)
        near = mod_w <= product._NEAR_ONE
        wide = ~np.isfinite(mod_w)
        logs = np.where(wide, np.log(np.abs(pos - z)) - np.log(mod),
                        np.log(np.abs(np.where(near, (pos - z) / pos, w))))
        mod_s = np.hypot(sr, si)
        fast = (q >= -0.5) & (q < math.inf)
        # the scaled parts' D = (e - ea) log 2, 2**ea scaling a's larger part
        # into [1/2, 1) and 2**e the larger of that and z's
        ea = np.frexp(np.maximum(np.abs(pos.real), np.abs(pos.imag)))[1]
        D = (np.maximum(ea, math.frexp(max(abs(z.real), abs(z.imag)))[1]) - ea) * math.log(2.0)
        terms = np.where(fast, 8.0 * (si * si + np.abs(sr) * np.abs(sr - 2.0)) + 2.0 * c * mod_s,
                         np.where(near, c, c * mod_s / mod_w) + 3.0)
        terms = np.where(wide, 6.0 + 2.0 * np.abs(logs) + 5.0 * np.abs(D), terms)
        terms += 2.0 * np.abs(logs)
        terms += np.where(mult > 1.0, np.abs(logs), 0.0)
        far_rate = 9.0 + 16.0 / 15.0 * 16.0 ** -14 / 15.0 / U
        terms = np.where(far, far_rate * np.abs(z) / mod, terms)
    return U * (float((mult * terms)[inside].sum()) + abs(value))


class TestLogComplex:
    def test_normalizes_argument(self):
        assert LogComplex(0.0, 3 * math.pi).argument == pytest.approx(math.pi)
        assert -math.pi < LogComplex(1.0, -7.5).argument <= math.pi

    def test_zero_convention(self):
        lz = LogComplex(-math.inf, 2.0)
        assert lz.argument == 0.0 and lz.is_zero
        assert lz.to_complex() == 0j

    def test_round_trip(self):
        w = -2.5 + 0.75j
        back = LogComplex.from_complex(w).to_complex()
        assert back == pytest.approx(w, rel=1e-15)


class TestEvaluateProduct:
    def test_two_factor_arithmetic(self):
        pe = evaluate_product(PAIR, 2.0, 10.0)
        assert pe.value.log_magnitude == pytest.approx(math.log(3.0), abs=1e-15)
        assert pe.value.argument == math.pi
        assert pe.factor_count == 2

    def test_at_origin_is_one(self):
        rng = np.random.default_rng(11)
        seq = random_sequence(rng, n_max=50)
        pe = evaluate_product(seq, 0.0)
        assert pe.value.log_magnitude == 0.0
        assert pe.value.argument == 0.0

    def test_exact_zero_hit(self):
        pe = evaluate_product(ZeroSequence((Zero(1 + 0j),)), 1.0)
        assert pe.value.log_magnitude == -math.inf
        assert pe.value.argument == 0.0

    def test_strict_truncation(self):
        seq = ZeroSequence((Zero(1 + 0j), Zero(2 + 0j)), truncation_radius=5.0)
        assert evaluate_product(seq, 0.5, 2.0).factor_count == 1
        assert evaluate_product(seq, 0.5, 2.0).tail_flag == "truncated"

    def test_complete_flag(self):
        seq = ZeroSequence((Zero(1 + 0j), Zero(2 + 0j)))
        assert evaluate_product(seq, 0.5).tail_flag == "complete"

    def test_origin_zero_rejected(self):
        with pytest.raises(ValueError):
            evaluate_product(ZeroSequence((Zero(0j),)), 1.0)

    def test_radius_beyond_claim_rejected(self):
        seq = ZeroSequence((Zero(1 + 0j),), truncation_radius=5.0)
        with pytest.raises(ValueError):
            evaluate_product(seq, 0.5, 6.0)

    def test_near_zero_diagnostic(self):
        seq = ZeroSequence((Zero(1 + 0j),))
        pe = evaluate_product(seq, 1.0 + 1e-13)
        assert pe.min_factor_log_magnitude < -25.0
        assert math.isfinite(pe.value.log_magnitude)

    def test_radius_compared_with_hypot(self):
        # np.abs rounds above hypot on about a third of complex points; the
        # outermost zero of a sequence complete inside R0 = np.abs(a) must
        # still count at the default radius R0
        rng = np.random.default_rng(31)
        for _ in range(50):
            seq, R0 = outer_zero_above_hypot(rng)
            pe = evaluate_product(seq, 0.5 + 0.25j)
            assert pe.radius_used == R0
            assert pe.factor_count == seq.total_multiplicity
            assert tail_correction(seq, 0.5 + 0.25j, R0).zero_count == 0

    def test_block_size_does_not_change_bits(self, monkeypatch):
        rng = np.random.default_rng(32)
        cases = []
        for _ in range(20):
            seq = random_conjugate_sequence(rng)
            z = draw_point(rng, seq, 8.0, min_dist=1e-3)
            cases.append((seq, z, evaluate_product(seq, z)))
        monkeypatch.setattr(product, "_PRODUCT_BLOCK", 3)
        for seq, z, whole in cases:
            assert evaluate_product(seq, z) == whole
        hit = random_conjugate_sequence(rng)
        at_zero = evaluate_product(hit, complex(hit.positions[-1]))
        assert at_zero.value.is_zero and at_zero.factor_count == hit.total_multiplicity

    def test_bits_of_one_fsum_at_1e5_zeros(self):
        # the exact totals against math.fsum over every term at once, on
        # integer_lattice(5e4): 99998 simple zeros.  A zero with |a| < A,
        # the least power of two at or above 16 |z|, is a dense term: a log
        # term 1/2 log1p(q) with s = z * fl(1 / a) and
        # q = si**2 + sr (sr - 2), and log|1 - z/a| where q < -1/2 (the
        # guard's cells); an argument term that of 1 - z/a.  Each dyadic
        # shell 2**j <= |a| < 2**(j + 1) from A on adds the real and the
        # imaginary part of -(z / 2**j)**k q_k / k, k = 1..14, q_k the fsum
        # of (2**j / a)**k over the shell, both powers by running products
        seq = integer_lattice(5e4)
        pos = seq.positions.real
        assert seq.all_real and seq.all_simple
        rng = np.random.default_rng(33)
        guard_cells = 0
        for i in range(12):
            z = complex(rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0) if i % 2 else 0.0)
            frac, e = math.frexp(16.0 * abs(z))
            A = 2.0 ** (e - 1 if frac == 0.5 else e)
            p = pos[np.abs(pos) < A]
            inv = 1.0 / p
            sr, si = z.real * inv, z.imag * inv
            q = si * si + sr * (sr - 2.0)
            w = 1.0 - z / (p + 0j)
            fast = (q >= -0.5) & (q < math.inf)
            guard_cells += int((~fast).sum())
            logs = np.log(np.abs(w))
            logs[fast] = 0.5 * np.log1p(q[fast])
            is_real = w.imag == 0.0
            args = np.arctan2(w.imag, w.real)
            args[is_real] = 0.0
            pi_count = int((is_real & (w.real < 0.0)).sum())
            logs, args = logs.tolist(), args.tolist()
            shell, shells = A, 0
            while shell <= np.abs(pos).max():
                t = shell / pos[(np.abs(pos) >= shell) & (np.abs(pos) < 2.0 * shell)]
                tk = t
                ur, ui = z.real / shell, z.imag / shell
                pr, pi = ur, ui
                for k in range(1, 15):
                    if k > 1:
                        tk = tk * t
                        pr, pi = pr * ur - pi * ui, pr * ui + pi * ur
                    q_k = math.fsum(tk)
                    logs.append(-(pr * q_k) / k)
                    args.append(-(pi * q_k) / k)
                shell *= 2.0
                shells += 1
            expect = LogComplex(math.fsum(logs),
                                product.wrap_angle(math.fsum(args) + (pi_count & 1) * math.pi))
            pe = evaluate_product(seq, z)
            assert (pe.dense_zeros, pe.far_shells) == (p.size, shells) and shells
            assert pe.value.log_magnitude.hex() == expect.log_magnitude.hex()
            assert pe.value.argument.hex() == expect.argument.hex()
        assert guard_cells   # the guard's terms are among those summed

    def test_mpmath_oracle_off_the_axis(self):
        # prod over 0 < |k| < 5e4 of (1 - z/k) in closed form, at 16 seeded
        # points with 0.3 <= |Im z| <= 5, within the docstring's bound
        seq = integer_lattice(5e4)
        K = len(seq) // 2
        rng = np.random.default_rng(35)
        points = (rng.uniform(-8.0, 8.0, 16)
                  + 1j * rng.choice((-1.0, 1.0), 16) * rng.uniform(0.3, 5.0, 16))
        with mpmath.workdps(30):
            at_zero = lattice_log_abs(K, 0)
            for z in points:
                got = evaluate_product(seq, z).value.log_magnitude
                err = abs(mpmath.mpf(got) - (lattice_log_abs(K, z) - at_zero))
                bound = _stated_bound(seq, z, got)
                assert bound < 1e-12
                assert err <= bound

    def test_conjugate_symmetric_argument_exact(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            seq = random_conjugate_sequence(rng)
            x = draw_point(rng, seq, 8.0, min_dist=1e-6).real
            arg = evaluate_product(seq, complex(x, 0.0)).value.argument
            assert arg == 0.0 or arg == math.pi

    def test_real_points_keep_their_bits(self):
        # real sequences at real points: the sha256 of these values, pinned
        # to the bits they had before the O(1) prefix and the hoisted
        # error state, at points on zeros, one ulp and a quarter either side, their
        # mirrors and 0, with z = x + 0i and x - 0i, at the default radius,
        # a zero's modulus and one ulp either side, and a radius inside a
        # shell
        rng = np.random.default_rng(41)
        lattice = integer_lattice(300.0)
        mult = ZeroSequence.from_arrays(np.concatenate([rng.uniform(-500.0, 500.0, 150),
                                                        rng.uniform(-2.0, 2.0, 50)]),
                                        rng.integers(1, 4, 200), 600.0)
        edges = ZeroSequence.from_arrays([0.5, -1.0, 1.0, 2.0, -4.0, 4.0 - 2.0 ** -50, 8.0,
                                          96.0, -128.0, 1e3], np.ones(10))
        values = []
        for seq in (lattice, mult, edges):
            R0 = seq.truncation_radius or math.inf
            for a in seq.positions.real[:: max(1, len(seq) // 40)].tolist():
                d = abs(a)
                radii = (None, d, math.nextafter(d, 0.0), math.nextafter(d, math.inf),
                         min(1.5 * 2.0 ** math.frexp(d)[1], R0))
                for x in (a, math.nextafter(a, -math.inf), math.nextafter(a, math.inf),
                          a - 0.25, a + 0.25, -a, 0.0):
                    for R in radii:
                        for z in (complex(x, 0.0), complex(x, -0.0)):
                            pe = evaluate_product(seq, z, R)
                            values += [pe.value.log_magnitude, pe.value.argument,
                                       pe.factor_count, pe.min_factor_log_magnitude,
                                       pe.dense_zeros, pe.far_shells]
        digest = hashlib.sha256(np.array(values, dtype=float).tobytes()).hexdigest()
        assert digest == "82f04c1191a9e23ed1f7ee556a7056dc90dc4f7d0e8be84b6c437e331fb7bfcd"

    @pytest.mark.parametrize("multiple", [False, True])
    def test_prefix_matches_the_bisection(self, monkeypatch, multiple):
        # factor_count against the zeros with hypot |a| < R, and every
        # field against the bisection over the stored order (forced by a
        # max_abs no radius passes), at the default radius, R0, a zero's
        # modulus and one ulp either side, the largest modulus and one ulp
        # above, and radii inside shells
        rng = np.random.default_rng(42)
        pos = rng.uniform(1.0, 200.0, 300) * np.exp(2j * np.pi * rng.random(300))
        pos[:40] = pos[:40].real   # equal moduli at a shell edge
        pos[40:60] = 64.0 * np.exp(2j * np.pi * rng.random(20))
        seq = ZeroSequence.from_arrays(pos, rng.integers(1, 4, 300) if multiple else np.ones(300),
                                       250.0)
        assert seq.all_simple is not multiple
        mods = np.hypot(seq.positions.real, seq.positions.imag)
        a, top = float(mods[150]), float(mods[-1])
        radii = [None, 250.0, a, math.nextafter(a, 0.0), math.nextafter(a, math.inf), top,
                 math.nextafter(top, math.inf), 64.0, math.nextafter(64.0, 0.0), 100.0, 3.0]
        points = [0.3 + 0.1j, -2.0 + 5.0j, 0.01j, 7.5]
        got = {(R, z): evaluate_product(seq, z, R) for R in radii for z in points}
        for (R, z), pe in got.items():
            inside = mods < (250.0 if R is None else R)
            assert pe.factor_count == int(seq.multiplicities[inside].sum())
        with monkeypatch.context() as patch:
            patch.setattr(ZeroSequence, "max_abs", property(lambda self: math.inf))
            for (R, z), pe in got.items():
                want = evaluate_product(seq, z, R)
                assert pe == want
                assert pe.value.log_magnitude.hex() == want.value.log_magnitude.hex()
                assert pe.value.argument.hex() == want.value.argument.hex()

    def test_default_radius_takes_no_bisection(self, monkeypatch):
        runs = []
        bisect = product._modulus_run
        monkeypatch.setattr(product, "_modulus_run", lambda *args: runs.append(args) or bisect(*args))
        seq = integer_lattice(5e3)
        whole = ZeroSequence.from_arrays(seq.positions, seq.multiplicities)   # R0 = 0
        for z in (0.3 + 0.1j, 7.0, -2.5j):
            assert evaluate_product(seq, z).factor_count == len(seq)
            assert evaluate_product(seq, z, seq.truncation_radius).factor_count == len(seq)
            assert evaluate_product(whole, z).factor_count == len(seq)
        assert runs == []
        assert evaluate_product(seq, 0.5, 100.0).factor_count == 198
        assert len(runs) == 1


class TestLogModulusViaCounting:
    def test_matches_product(self):
        assert log_modulus_via_counting(PAIR, 2.0) == pytest.approx(math.log(3.0), abs=1e-14)

    def test_single_imaginary(self):
        got = log_modulus_via_counting(ZeroSequence((Zero(1j),)), 1.0)
        assert got == pytest.approx(0.5 * math.log(2.0), abs=1e-15)
        # cross-check: |1 - 1/i| = |1 + i| = sqrt(2)
        assert got == pytest.approx(math.log(abs(1 - 1 / 1j)), abs=1e-15)

    def test_center(self):
        assert log_modulus_via_counting(PAIR, 0.0) == 0.0

    def test_zero_position_is_minus_inf(self):
        assert log_modulus_via_counting(PAIR, 1.0) == -math.inf

    def test_identity_random(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            seq = random_sequence(rng, n_max=100)
            z = draw_point(rng, seq, 10.0)
            lhs = evaluate_product(seq, z).value.log_magnitude
            rhs = log_modulus_via_counting(seq, z)
            assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(rhs))


@st.composite
def wide_sequences(draw):
    """Up to 30 zeros whose nonzero parts lie within ten decades of a drawn
    10**e, e from -290 to 290 (so no ratio of two zeros overflows), with
    +0.0 and -0.0 parts mixed in and, at times, every zero real; no zero at
    the origin.  Positions are paired through a float view, which keeps the
    sign of a zero part."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 30))
    e = draw(st.integers(-290, 290))

    def parts(zero_share):
        v = rng.uniform(1.0, 10.0, n) * 10.0 ** rng.integers(e - 10, e + 11, n)
        v *= rng.choice((-1.0, 1.0), n)
        zero = rng.random(n) < zero_share
        v[zero] = rng.choice((0.0, -0.0), int(zero.sum()))
        return v

    re = parts(draw(st.sampled_from((0.0, 0.3))))
    im = parts(draw(st.sampled_from((0.3, 1.0))))
    re[(re == 0.0) & (im == 0.0)] = 10.0 ** e
    pos = np.column_stack([re, im]).view(np.complex128)[:, 0]
    return ZeroSequence.from_arrays(pos, rng.integers(1, 4, n))


def _one_ulp_away(a: complex) -> complex:
    """a with its larger part moved one ulp away from zero."""
    if abs(a.real) >= abs(a.imag):
        return complex(math.nextafter(a.real, math.copysign(math.inf, a.real)), a.imag)
    return complex(a.real, math.nextafter(a.imag, math.copysign(math.inf, a.imag)))


class TestExactZeros:
    """Both sides of the log-modulus identity find a stored zero by its
    arithmetic, not by a scan: the product by |1 - z/a| within _NEAR_ONE of
    0 and then exact equality, the counting side by its -inf term."""

    @settings(max_examples=100, deadline=None)
    @given(wide_sequences())
    def test_minus_inf_on_zeros_finite_one_ulp_away(self, seq):
        positions = seq.positions.tolist()
        for a in positions:
            assert evaluate_product(seq, a).value.log_magnitude == -math.inf
            assert log_modulus_via_counting(seq, a) == -math.inf
            z = _one_ulp_away(a)
            if z in positions:
                continue
            # the difference from a is one ulp, subnormal below about 1e-292,
            # where the counting side's square underflows and takes hypot
            value = evaluate_product(seq, z).value
            assert math.isfinite(value.log_magnitude) and math.isfinite(value.argument)
            assert math.isfinite(log_modulus_via_counting(seq, z))

    @settings(max_examples=30, deadline=None)
    @given(wide_sequences(), st.sampled_from((0j, complex(-0.0, 0.0), complex(0.0, -0.0),
                                              complex(-0.0, -0.0))))
    def test_origin_zero_still_rejected(self, seq, origin):
        pos = np.append(seq.positions, origin)
        with_origin = ZeroSequence.from_arrays(pos, np.append(seq.multiplicities, 1.0))
        z = complex(seq.positions[0])
        for call in (evaluate_product, log_modulus_via_counting, jensen_counting_side):
            with pytest.raises(ValueError, match="0 not in the zero set"):
                call(with_origin, z)

    def test_near_factor_from_the_difference(self):
        # numpy's complex 1 - z/3 rounds to 0 at z one ulp above 3 (z times
        # fl(1/3) rounds to 1); (3 - z)/3 does not
        z = math.nextafter(3.0, 4.0)
        assert 1.0 - z / np.array([3 + 0j]) == 0.0
        pe = evaluate_product(ZeroSequence((Zero(3 + 0j),)), z)
        assert pe.value.log_magnitude == pytest.approx(math.log((z - 3.0) / 3.0), rel=1e-15)
        assert pe.min_factor_log_magnitude == pe.value.log_magnitude


@st.composite
def guard_cases(draw):
    """A point z, a block size and up to 40 zeros about z, every one real at
    times: zeros at |1 - z/a|**2 = (1 +- d)/2, with d from 1e-12 down to a
    few ulps, so that q = |1 - z/a|**2 - 1 falls on either side of the log1p
    rule's edge -1/2; zeros within a few ulps of z (at times on it); zeros
    with |z/a| > 1e155, whose squares overflow; and ordinary zeros."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    real = draw(st.booleans())
    scale = 10.0 ** draw(st.integers(-100, 100))
    z = complex(rng.uniform(0.5, 2.0) * rng.choice((-1.0, 1.0)),
                rng.uniform(-2.0, 2.0) if draw(st.booleans()) else 0.0) * scale
    zeros = []
    for d in draw(st.lists(st.sampled_from((1e-12, 1e-15, 4 * U, 2 * U, 0.0, -2 * U, -4 * U,
                                            -1e-15, -1e-12)), min_size=1, max_size=12)):
        r = math.sqrt(0.5 * (1.0 + d))
        if real:
            # the real t = 1/a with |1 - z t| = r
            disc = z.real ** 2 - abs(z) ** 2 * (1.0 - r * r)
            if disc >= 0.0:
                zeros.append(abs(z) ** 2 / (z.real + rng.choice((-1.0, 1.0)) * math.sqrt(disc)))
        else:
            zeros.append(z / (1.0 + r * cmath.exp(2j * math.pi * rng.random())))
    if not real or z.imag == 0.0:
        for k in draw(st.lists(st.integers(-3, 3), max_size=4)):
            part = z.real
            for _ in range(abs(k)):
                part = math.nextafter(part, math.copysign(math.inf, k))
            zeros.append(complex(part, z.imag))
    for e in draw(st.lists(st.integers(156, 200), max_size=4)):
        turn = 1.0 if real else cmath.exp(2j * math.pi * rng.random())
        zeros.append(abs(z) * 10.0 ** -e * turn * rng.choice((-1.0, 1.0)))
    n = draw(st.integers(0, 20))
    turns = rng.choice((-1.0, 1.0), n) if real else np.exp(2j * np.pi * rng.random(n))
    zeros.extend(abs(z) * rng.uniform(0.1, 10.0, n) * turns)
    pos = np.array(zeros, dtype=complex)
    if real:
        pos = pos.real + 0j
    seq = ZeroSequence.from_arrays(pos, rng.integers(1, 4, pos.size))
    assert seq.all_real == real
    return seq, z, draw(st.sampled_from((1, 2, 3, 5, 1 << 15)))


class TestGuard:
    """The log1p rule's guard in evaluate_product: cells with q off
    [-1/2, inf) go the complex route, next to cells that do not."""

    @settings(max_examples=150, deadline=None)
    @given(guard_cases())
    def test_values_bounds_and_argument_bits(self, case):
        seq, z, block = case
        pos, mult = seq.positions, seq.multiplicities
        with mock.patch.object(product, "_PRODUCT_BLOCK", block):
            value = evaluate_product(seq, z).value
        assert value == evaluate_product(seq, z).value
        if np.any(pos == z):
            assert value.log_magnitude == -math.inf
            return
        assert math.isfinite(value.log_magnitude) and math.isfinite(value.argument)
        with mpmath.workdps(60):
            zm = mpmath.mpc(z.real, z.imag)
            exact = mpmath.fsum(m * mpmath.log(abs(1 - zm / mpmath.mpc(a.real, a.imag)))
                                for a, m in zip(pos.tolist(), mult.tolist()))
            err = abs(mpmath.mpf(value.log_magnitude) - exact)
        assert err <= _stated_bound(seq, z, value.log_magnitude)
        # the argument is the parent formula's: the terms of 1 - z/a, or of
        # (a - z)/a where |1 - z/a| <= _NEAR_ONE, summed by fsum
        w = 1.0 - z / pos
        near = np.abs(w) <= product._NEAR_ONE
        w[near] = (pos[near] - z) / pos[near]
        is_real = w.imag == 0.0
        args = mult * np.arctan2(w.imag, w.real)
        args[is_real] = 0.0
        pi_count = int(mult[is_real & (w.real < 0.0)].sum())
        expect = product.wrap_angle(math.fsum(args) + (pi_count & 1) * math.pi)
        assert value.argument.hex() == LogComplex(0.0, expect).argument.hex()


def _spread_sequence(seed: int, n: int = 300) -> ZeroSequence:
    """n complex zeros with moduli log-uniform from 0.5 to 4000 (thirteen
    dyadic shells), in no symmetry, with multiplicities 1 to 3."""
    rng = np.random.default_rng(seed)
    moduli = np.exp(rng.uniform(math.log(0.5), math.log(4000.0), n))
    pos = moduli * np.exp(2j * np.pi * rng.random(n))
    return ZeroSequence.from_arrays(pos, rng.integers(1, 4, n))


def _mp_log_product(seq: ZeroSequence, z: complex, R: float = math.inf):
    """sum of m log(1 - z/a) over |a| < R at 40 digits: the log-modulus, and
    the argument reduced to (-pi, pi]."""
    with mpmath.workdps(40):
        zm = mpmath.mpc(z.real, z.imag)
        total = mpmath.fsum(m * mpmath.log(1 - zm / mpmath.mpc(a.real, a.imag))
                            for a, m in zip(seq.positions.tolist(), seq.multiplicities.tolist())
                            if abs(a) < R)
        return total.real, total.imag


def _check_against_mpmath(seq: ZeroSequence, z: complex, R: float | None = None):
    pe = evaluate_product(seq, z, R)
    log_mod, arg = _mp_log_product(seq, z, math.inf if R is None else R)
    value = pe.value
    bound = _stated_bound(seq, z, value.log_magnitude, math.inf if R is None else R)
    assert abs(mpmath.mpf(value.log_magnitude) - log_mod) <= bound
    with mpmath.workdps(40):
        turn = abs(mpmath.mpf(value.argument) - arg) / (2 * mpmath.pi)
        assert abs(turn - mpmath.nint(turn)) * 2 * mpmath.pi <= 1e-12
    return pe


class TestFarZeros:
    """evaluate_product's far shells: the zeros of whole dyadic shells at or
    beyond A, the least power of two at or above 16 |z|, summed from the
    sequence's table of shell power sums."""

    def test_mpmath_oracle_on_a_complex_sequence(self):
        seq = _spread_sequence(81)
        rng = np.random.default_rng(82)
        for _ in range(12):
            z = draw_point(rng, seq, 20.0, min_dist=1e-3)
            pe = _check_against_mpmath(seq, z)
            assert pe.far_shells > 0

    def test_edge_of_a_power_of_two(self):
        # |z| = 4 makes A = 64; one ulp above, A = 128 and the shell
        # [64, 128) turns dense; one ulp below, A stays 64
        seq = _spread_sequence(83)
        mod = np.hypot(seq.positions.real, seq.positions.imag)
        split = {}
        for y in (math.nextafter(4.0, 0.0), 4.0, math.nextafter(4.0, 5.0)):
            pe = _check_against_mpmath(seq, complex(0.0, y))
            split[y] = (pe.dense_zeros, pe.far_shells)
        edge = (int((mod < 64.0).sum()), 6)
        assert split[math.nextafter(4.0, 0.0)] == split[4.0] == edge
        assert split[math.nextafter(4.0, 5.0)] == (int((mod < 128.0).sum()), 5)

    def test_radius_inside_a_shell(self):
        # R = 700 lies in the shell [512, 1024): its zeros below R are
        # dense terms, after the near zeros; R = 2048 ends a shell; R = 40
        # cuts the first shell at or beyond A
        seq = _spread_sequence(84)
        mod = np.hypot(seq.positions.real, seq.positions.imag)
        z = 1.3 - 0.6j   # A = 32
        pe = _check_against_mpmath(seq, z, 700.0)
        assert (pe.dense_zeros, pe.far_shells) == (
            int((mod < 32.0).sum() + ((mod >= 512.0) & (mod < 700.0)).sum()), 4)
        pe = _check_against_mpmath(seq, z, 2048.0)
        assert (pe.dense_zeros, pe.far_shells) == (int((mod < 32.0).sum()), 6)
        for R in (20.0, 40.0):   # before A, and inside A's own shell
            pe = _check_against_mpmath(seq, z, R)
            assert (pe.dense_zeros, pe.far_shells) == (int((mod < R).sum()), 0)

    @pytest.mark.parametrize("zeros, z", [
        ([5e-324, 2.0], 3.0),                          # 1/a overflows
        ([1.5e-323 + 1e-323j, 2.0], 2e-323),           # z/a = 4/(3 + 2i) by subnormals
        ([3e-310j, -4e-310, 7.0], 1e300 + 1e300j),     # |z/a| beyond 1e308
        ([-2.5e-318, 0.5 + 0.5j], math.nextafter(-2.5e-318, 0.0)),
    ])
    def test_overflowing_quotient_takes_the_guard(self, zeros, z):
        # these cells once gave log-modulus inf and a nan argument with
        # RuntimeWarnings (pytest turns a warning into an error)
        seq = ZeroSequence.from_arrays(zeros, np.ones(len(zeros)))
        _check_against_mpmath(seq, z)
        assert evaluate_product(seq, complex(seq.positions[0])).value.is_zero


def _counting_split(z: complex) -> float:
    """2**J, the least power of two at or above 32 |z|, held at or above
    2**-1000; inf where no zero is far (z = 0 or 2**J past the doubles)."""
    if z == 0:
        return math.inf
    frac, e = math.frexp(32.0 * abs(z))
    J = max(e - 1 if frac == 0.5 else e, -1000)
    return 2.0 ** J if J < 1024 else math.inf


def _counting_bound(seq: ZeroSequence, z: complex, value: float) -> float:
    """log_modulus_via_counting's stated error bound at z: a near term
    m (L_z - L_a) within m (6u + 4u (|L_z| + |L_a|)); a far shell
    2**j <= |a| < 2**(j + 1) (at or beyond the split) of multiplicity mu
    within (2 E + 4u mu) S + mu (u/10 + 32**-16/14), with
    E = u sum of m (74 + 140 |L_a|) over the shell and S the sum of
    |z / 2**(j - 5)|**k over k = 1..15; and u |value|."""
    pos, mult = seq.positions, seq.multiplicities
    mod = np.hypot(pos.real, pos.imag)
    log_a = np.abs(np.log(mod))
    far = mod >= _counting_split(z)
    log_z = np.abs(np.log(np.abs(pos[~far] - z)))
    total = float(np.sum(mult[~far] * (6.0 + 4.0 * (log_z + log_a[~far]))))
    shells = np.frexp(mod)[1] - 1
    for j in np.unique(shells[far]).tolist():
        cell = far & (shells == j)
        mu = float(mult[cell].sum())
        E = float(np.sum(mult[cell] * (74.0 + 140.0 * log_a[cell])))
        v = abs(z) / 2.0 ** (j - 5)
        S = sum(v ** k for k in range(1, 16))
        total += (2.0 * E + 4.0 * mu) * S + mu * (0.1 + 32.0 ** -16 / 14.0 / U)
    return U * (total + abs(value))


def _dense_bound(seq: ZeroSequence, z: complex) -> float:
    """log_potential's stated bound for the dense step integral from 0 to z:
    70 u * sum of m * (1 + |L_z| + |L_a|)."""
    pos, mult = seq.positions, seq.multiplicities
    with np.errstate(divide="ignore"):
        terms = 1.0 + np.abs(np.log(np.abs(pos - z))) + np.abs(np.log(np.abs(pos)))
    return 70.0 * U * float(np.sum(mult * terms))


@st.composite
def points_below_zeros(draw):
    """A wide sequence and a point whose modulus is a zero's divided by
    10**d, d from 0 to 40 decades, at a drawn angle: the zeros beyond
    32 |z| are far shells."""
    seq = draw(wide_sequences())
    a = abs(complex(seq.positions[draw(st.integers(0, len(seq) - 1))]))
    d = draw(st.sampled_from((0.0, 0.5, 1.0, 2.0, 5.0, 12.0, 40.0)))
    return seq, complex(cmath.rect(a * 10.0 ** -d, draw(st.floats(-math.pi, math.pi))))


class TestCountingFarShells:
    """log_modulus_via_counting's far shells: the dyadic shells at or beyond
    2**J, the least power of two at or above 32 |z|, summed from each
    shell's local expansion, sampled by the counting kernel."""

    def test_mpmath_oracle_on_the_lattice(self):
        # sum over 0 < n < 5e4 of log|1 - z**2/n**2| in closed form, at 16
        # seeded complex points with |z| <= 10, and at |z| = 4 with one ulp
        # either side, where 2**J flips from 128 to 256
        seq = integer_lattice(5e4)
        K = len(seq) // 2
        rng = np.random.default_rng(36)
        points = [draw_point(rng, seq, 10.0, min_dist=1e-3) for _ in range(16)]
        points += [complex(0.0, y) for y in (math.nextafter(4.0, 0.0), 4.0,
                                             math.nextafter(4.0, 5.0))]
        with mpmath.workdps(30):
            at_zero = lattice_log_abs(K, 0)
            for z in points:
                got = log_modulus_via_counting(seq, z)
                err = abs(mpmath.mpf(got) - (lattice_log_abs(K, z) - at_zero))
                bound = _counting_bound(seq, z, got)
                assert bound < 1e-8
                assert err <= bound

    def test_mpmath_oracle_with_complex_zeros_and_multiplicities(self):
        seq = _spread_sequence(86)
        assert not seq.all_real and not seq.all_simple
        rng = np.random.default_rng(87)
        for _ in range(12):
            z = draw_point(rng, seq, 20.0, min_dist=1e-3)
            assert _counting_split(z) < seq.max_abs   # far shells are used
            got = log_modulus_via_counting(seq, z)
            want, _ = _mp_log_product(seq, z)
            assert abs(mpmath.mpf(got) - want) <= _counting_bound(seq, z, got)

    @pytest.mark.parametrize("zeros, z", [
        ([1e-305, 3e-303j, -2e-302, 1.0, 5.0 - 5.0j], 1e-306 + 1e-306j),   # below 2**-1000
        ([1e-298, 3e-296 + 1e-296j, -2e-290, 7.0], 3e-299),
        ([1e300, -3e303j, 5e305 + 5e305j, 1.7e308], 2e299 - 1e299j),   # near the top
    ])
    def test_extreme_moduli(self, zeros, z):
        seq = ZeroSequence.from_arrays(zeros, np.arange(1, len(zeros) + 1))
        got = log_modulus_via_counting(seq, z)
        want, _ = _mp_log_product(seq, z)
        assert abs(mpmath.mpf(got) - want) <= _counting_bound(seq, z, got)

    @settings(max_examples=150, deadline=None)
    @given(points_below_zeros())
    def test_dense_step_integral_within_the_bounds(self, case):
        seq, z = case
        got = log_modulus_via_counting(seq, z)
        dense = step_integral(seq, 0.0, z, 0.0, math.inf)
        if dense == -math.inf:
            assert got == -math.inf
            return
        assert abs(got - dense) <= _counting_bound(seq, z, got) + _dense_bound(seq, z)

    def test_origin_gives_exact_zero(self):
        for seq in (integer_lattice(1e3), _spread_sequence(88)):
            for origin in (0j, complex(-0.0, 0.0), complex(0.0, -0.0)):
                assert log_modulus_via_counting(seq, origin) == 0.0

    def test_coefficients_against_power_sums(self):
        # c_k = -(rho**k / k) sum of m a**-k at 30 digits: each C_k within
        # 2 E + 4u mu plus the aliasing, and the dropped C_0 (the samples'
        # mean, rebuilt here from partial_log_potential) within E + 4u mu
        seq = _spread_sequence(89)
        table = product._counting_table(seq)
        _, exponents, starts = shell_index(seq)
        assert exponents[0] >= product._COUNT_MIN_EXP   # row i is shell i
        pos, mult = seq.positions, seq.multiplicities
        log_a = np.abs(np.log(np.hypot(pos.real, pos.imag)))
        unit = np.exp(2j * np.pi * np.arange(32) / 32)
        for i, j in enumerate(exponents.tolist()):
            run = slice(starts[i], starts[i + 1])
            mu = float(mult[run].sum())
            E = U * float(np.sum(mult[run] * (74.0 + 140.0 * log_a[run])))
            samples = partial_log_potential(seq, unit * 2.0 ** (j - 5), run)
            assert abs(samples.mean()) <= E + 4.0 * U * mu
            with mpmath.workdps(30):
                rho = mpmath.mpf(2) ** (j - 5)
                for k in range(1, 16):
                    c = -rho ** k / k * mpmath.fsum(
                        m * mpmath.mpc(a.real, a.imag) ** -k
                        for a, m in zip(pos[run].tolist(), mult[run].tolist()))
                    err = abs(mpmath.mpc(table[i, k - 1]) - c)
                    assert err <= 2.0 * E + 4.0 * U * mu + mu * 32.0 ** -(32 - k)

    def test_real_sequences_sample_half_the_nodes(self, monkeypatch):
        # node M - n is node n's exact conjugate, so a real sequence's
        # shells sample nodes 0 .. 16 and mirror the rest: the coefficients
        # are those of all 32 samples, bit for bit; a complex sequence
        # samples all 32
        unit = product._COUNT_UNIT
        assert np.array_equal(unit[17:], np.conj(unit[15:0:-1]))
        sizes = []

        def spy(seq, points, zeros):
            sizes.append(points.size)
            return partial_log_potential(seq, points, zeros)

        monkeypatch.setattr(product, "partial_log_potential", spy)
        real = integer_lattice(2e3)
        table = product._counting_table(real)
        assert set(sizes) == {17}
        _, exponents, starts = shell_index(real)
        full = np.array([partial_log_potential(real, unit * 2.0 ** (j - 5),
                                               slice(starts[i], starts[i + 1]))
                         for i, j in enumerate(exponents.tolist())])
        assert np.array_equal(full @ product._COUNT_DFT, table)
        sizes.clear()
        product._counting_table(_spread_sequence(92))
        assert set(sizes) == {32}

    def test_no_table_without_far_zeros(self):
        seq = _spread_sequence(91)
        log_modulus_via_counting(seq, 200.0 + 0j)   # 32 |z| beyond every zero
        assert product._counting_table not in seq.__dict__["_derived"]

    @pytest.mark.parametrize("side", ["counting", "product"])
    def test_each_side_has_its_own_table(self, monkeypatch, side):
        # one coefficient of shell [256, 512), k = 2, moved by 1e-6
        # relative on one side breaks the identity by more than 1e-9 at
        # points with 3 <= |Re z| <= 8 and |Im z| <= 1 (both sides take
        # that shell as far there): the two sides share no table
        seq = integer_lattice(5e3)
        rng = np.random.default_rng(37)
        points = [complex(rng.choice((-1.0, 1.0)) * rng.uniform(3.2, 7.8), rng.uniform(-1.0, 1.0))
                  for _ in range(8)]
        for z in points:
            assert abs(evaluate_product(seq, z).value.log_magnitude
                       - log_modulus_via_counting(seq, z)) <= 1e-12
        shell = int(np.flatnonzero(shell_index(seq)[1] == 8)[0])
        if side == "counting":
            moved = seq.derived(product._counting_table).copy()
            moved[shell, 1] *= 1.0 + 1e-6
            monkeypatch.setitem(seq.__dict__["_derived"], product._counting_table, moved)
        else:
            real, imag = seq.derived(product._shell_table)
            moved = real.copy()
            moved[shell, 1] *= 1.0 + 1e-6
            monkeypatch.setitem(seq.__dict__["_derived"], product._shell_table, (moved, imag))
        for z in points:
            assert abs(evaluate_product(seq, z).value.log_magnitude
                       - log_modulus_via_counting(seq, z)) > 1e-9


def _far_product(seq: ZeroSequence, z: complex):
    pe = evaluate_product(seq, z)
    assert pe.far_shells > 0
    return pe


class TestDerivedValues:
    """The four values built once a sequence through ZeroSequence.derived:
    the shell index, the origin logs and the product's two tables."""

    @pytest.mark.parametrize("make, get, use", [
        (lambda: random_sequence(np.random.default_rng(6), n_max=30), shell_index,
         lambda seq, z: tail_correction(seq, z, 20.0)),
        (lambda: random_sequence(np.random.default_rng(6), n_max=30),
         lambda seq: counting._base_logs(seq, 0j, 0.0, math.inf),
         lambda seq, z: step_integral(seq, 0.0, z, 0.0, math.inf)),
        (lambda: _spread_sequence(85), lambda seq: seq.derived(product._shell_table),
         _far_product),
        (lambda: _spread_sequence(90), lambda seq: seq.derived(product._counting_table),
         log_modulus_via_counting),
    ], ids=["shell_index", "origin_logs", "shell_table", "counting_table"])
    def test_built_once_read_only_and_dropped(self, make, get, use):
        # the value is built on first use, each later read returns the same
        # arrays, read-only, a warm call gives a cold one's result, and the
        # arrays go with their sequence
        seq = make()
        built = []
        for z in (0.7 + 0.2j, -3.0 + 1.0j, 11.0j):
            assert use(seq, z) == use(make(), z)
            built.append(get(seq))
        assert all(value is built[0] for value in built)
        arrays = built[0] if isinstance(built[0], tuple) else (built[0],)
        assert not any(array.flags.writeable for array in arrays)
        held, first = weakref.ref(seq), weakref.ref(arrays[0])
        del seq, built, arrays
        gc.collect()
        assert held() is None and first() is None


class TestUnitDiscRuns:
    """jensen_counting_side and derivative_at_multiple_zero sum their
    log min(|a - c|, 1) terms over a run of zeros found by modulus; the sum
    over every zero, whose other terms are 0, is the reference."""

    @staticmethod
    def _rim_sequence(seed: int, centre: complex) -> ZeroSequence:
        # zeros on the unit circle about centre, where np.hypot of a - centre
        # often reads >= 1 while the term rule's square reads < 1, among
        # zeros spread from 0.5 to 40
        rng = np.random.default_rng(seed)
        rim = centre + np.exp(2j * np.pi * rng.random(60))
        spread = rng.uniform(0.5, 40.0, 200) * np.exp(2j * np.pi * rng.random(200))
        pos = np.concatenate([rim, spread])
        return ZeroSequence.from_arrays(pos, rng.integers(1, 4, pos.size))

    def test_unit_disc_sum_keeps_its_bits(self):
        for seed in range(5):
            seq = self._rim_sequence(seed, 0j)
            full = exact_sum(seq.multiplicities * -_center_logs(seq, 0j, 0.0, 1.0))
            for z in (3.5 + 2j, -17.0 + 0.25j, complex(seq.positions[7])):
                want = step_integral(seq, 0.0, z, 1.0, math.inf) + full
                assert np.float64(jensen_counting_side(seq, z)).tobytes() == np.float64(want).tobytes()

    def test_lower_centre_sum_keeps_its_bits(self):
        for seed in range(5):
            z0 = complex(12.0 + seed, -3.0)
            rim = self._rim_sequence(seed, z0)
            seq = ZeroSequence.from_arrays(np.append(rim.positions, z0),
                                           np.append(rim.multiplicities, 2.0))
            others = seq.positions != z0
            full = exact_sum(seq.multiplicities[others]
                             * _center_logs(seq, z0, 0.0, 1.0)[others])
            want = jensen_counting_side(seq, z0) + full
            got = derivative_at_multiple_zero(seq, z0)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()


class TestDerivativeAtMultipleZero:
    def test_mpmath_oracle(self):
        # sum over a != z0 of m * log|1 - z0/a|, less l log|z0|: the terms of
        # the l zeros at z0 are log 1 - log|z0| each
        seq = _scattered_sequence(73)
        for k in (0, 1, 5, 150, len(seq) - 1):
            z0 = complex(seq.positions[k])
            want, bound = _oracle_sum(seq, z0, lambda d: mpmath.log(d) if d else mpmath.mpf(0))
            assert abs(derivative_at_multiple_zero(seq, z0) - want) <= bound

    def test_double_zero_exact(self):
        seq = ZeroSequence((Zero(1 + 0j, 2), Zero(-1 + 0j)))
        assert derivative_at_multiple_zero(seq, 1.0) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_single_linear_factor(self):
        assert derivative_at_multiple_zero(ZeroSequence((Zero(1 + 0j),)), 1.0) == 0.0

    def test_simple_zero_with_companion(self):
        seq = ZeroSequence((Zero(1 + 0j), Zero(3 + 0j)))
        got = derivative_at_multiple_zero(seq, 1.0)
        # g(z) = (1-z)(1-z/3), g'(1) = -(1 - 1/3) = -2/3; symbolic oracle
        assert got == pytest.approx(math.log(2.0 / 3.0), abs=1e-14)

    def test_not_a_zero(self):
        with pytest.raises(ValueError):
            derivative_at_multiple_zero(PAIR, 5.0)

    def test_matches_finite_difference(self):
        seq = ZeroSequence((Zero(1 + 0j, 2), Zero(-1 + 0j)))
        fd = finite_difference_log_derivative(seq, 1.0)
        assert abs(derivative_at_multiple_zero(seq, 1.0) - fd) < 1e-5

    def test_random_multiplicities(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            pts = []
            while len(pts) < 6:
                z = complex(*rng.uniform(-8, 8, 2))
                if abs(z) < 0.8 or (pts and min(abs(z - p) for p in pts) < 0.6):
                    continue
                pts.append(z)
            mult = int(rng.integers(1, 4))
            seq = ZeroSequence((Zero(pts[0], mult),) + tuple(Zero(p) for p in pts[1:]))
            counting = derivative_at_multiple_zero(seq, pts[0])
            oracle = finite_difference_log_derivative(seq, pts[0])
            assert abs(counting - oracle) <= 1e-5 * (1.0 + abs(counting))


class TestCircleAverage:
    def test_no_zero_inside(self):
        assert circle_average(ZeroSequence((Zero(2 + 0j),)), 0.0, 1.0, 4096) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_zero_inside(self):
        got = circle_average(ZeroSequence((Zero(0.5 + 0j),)), 0.0, 1.0, 4096)
        assert got == pytest.approx(math.log(2.0), abs=1e-12)

    def test_empty(self):
        assert circle_average(ZeroSequence(()), 1 + 1j, 1.0, 64) == 0.0

    def test_node_minimum(self):
        with pytest.raises(ValueError):
            circle_average(PAIR, 0.0, 1.0, 8)

    @pytest.mark.parametrize("radius", [math.inf, -math.inf, math.nan])
    def test_non_finite_radius_named(self, radius):
        # an infinite radius once warned and then failed on "points"
        with pytest.raises(ValueError, match="radius must be finite"):
            circle_average(PAIR, 0.5j, radius, 64)

    def test_zero_on_circle_node_avoidance(self):
        # zero exactly at a would-be node; Jensen value for |a| = radius is 0
        seq = ZeroSequence((Zero(1 + 0j),))
        got = circle_average(seq, 0.0, 1.0, 1 << 14)
        assert abs(got) < 2e-3

    def test_mean_value_vs_center(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            seq = random_sequence(rng, n_max=30, r_min=5.0, r_max=40.0)
            z = draw_point(rng, seq, 2.0)
            avg = circle_average(seq, z, 1.0, 4096)
            center = log_modulus_via_counting(seq, z)
            assert avg == pytest.approx(center, rel=1e-9, abs=1e-9)


    @pytest.mark.parametrize("nodes", [4096, 64, 32, 16])
    @pytest.mark.parametrize("e, inside_nodes, outside_nodes",
                             [(1, 4096, 64), (2, 64, 32), (4, 32, 16), (8, 16, 8), (64, 2, 1)])
    def test_band_edges_set_the_rates(self, monkeypatch, e, inside_nodes, outside_nodes, nodes):
        # zeros at D = 2**e r (1 -+ 2**-20) lie in bands e - 1 (D < 2r for
        # e = 1) and e, summed at min(n, the band's nodes): one
        # partial_log_potential call a rate, the zeros in stored order
        z, r = 0.3 + 0.2j, 1.5
        inside = z + 2.0 ** e * r * (1.0 - 2.0 ** -20) * cmath.exp(0.7j)
        outside = z + 2.0 ** e * r * (1.0 + 2.0 ** -20) * cmath.exp(-2.1j)
        seq = ZeroSequence((Zero(inside), Zero(outside)))
        rate = {complex(inside): min(nodes, inside_nodes), complex(outside): min(nodes, outside_nodes)}
        calls = []

        def spy(seq, points, zeros):
            calls.append((points.size, seq.positions[zeros].tolist()))
            return partial_log_potential(seq, points, zeros)

        monkeypatch.setattr(product, "partial_log_potential", spy)
        _, terms = product.circle_average_terms(seq, z, r, nodes)
        want = [(m, [a for a in seq.positions.tolist() if rate[a] == m])
                for m in sorted(set(rate.values()), reverse=True)]
        assert calls == want
        assert terms == sum(rate.values())

    def test_rate_nodes_keep_the_rotation(self, monkeypatch):
        # a zero on a node rotates every node by half a step; a far rate's
        # nodes are every (n / M)-th of the rotated set
        seq = ZeroSequence((Zero(1.0 + 0j), Zero(40.0 + 0j)))
        calls = []

        def spy(seq, points, zeros):
            calls.append(points)
            return partial_log_potential(seq, points, zeros)

        monkeypatch.setattr(product, "partial_log_potential", spy)
        circle_average(seq, 0.0, 1.0, 64)
        near, far = calls
        assert near.size == 64 and far.size == 16   # D = 40: band e = 5, 16 nodes
        assert np.array_equal(far, near[::4])
        assert abs(cmath.phase(near[0]) - math.pi / 64) < 1e-15

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), real=st.booleans(),
           nodes=st.sampled_from([128, 512, 2048]))
    def test_two_rates_match_the_dense_average(self, seed, real, nodes):
        # the graded-rate average against the n-node one, with zeros from
        # 2**-6 to 2**10 radii away: within the aliasing bound of circle_average's
        # docstring, per zero at its rate M and at n, plus log_potential's
        # rounding bound for each sum of either side
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 60))
        z = complex(rng.uniform(-8.0, 8.0), 0.0 if real else rng.uniform(-8.0, 8.0))
        r = float(rng.uniform(0.2, 6.0))
        dist = r * 2.0 ** rng.uniform(-6.0, 10.0, k)
        if real:
            pos = z.real + rng.choice((-1.0, 1.0), k) * dist
        else:
            pos = z + dist * np.exp(2j * np.pi * rng.random(k))
        pos = pos[np.abs(pos) > 1e-3]
        seq = ZeroSequence.from_arrays(pos, rng.integers(1, 4, pos.size))
        points = z + r * np.exp(1j * (0.0 + 2.0 * np.pi / nodes * np.arange(nodes)))
        dense = exact_sum(log_potential(seq, points, 0.0)) / nodes
        got, terms = product.circle_average_terms(seq, z, r, nodes)

        a, m = seq.positions, seq.multiplicities
        dist = np.hypot((a - z).real, (a - z).imag)
        rate = np.full(a.size, nodes)
        for i, d in enumerate(dist.tolist()):
            e = math.floor(math.log2(d / r))
            e += (2.0 ** (e + 1) * r <= d) - (2.0 ** e * r > d)
            if e >= 1:
                rate[i] = min(nodes, 2 ** max(0, math.ceil(math.log2(64 / e))))
        assert terms == int(rate.sum())
        far = rate < nodes
        rho = r / dist[far]
        M = rate[far]
        assert np.all(rho ** M <= 2.0 ** -64 * (1 + 2.0 ** -45))
        alias = float(np.sum(m[far] * (rho ** M / (M * (1 - rho ** M))
                                       + rho ** nodes / (nodes * (1 - rho ** nodes)))))
        cells = m * (1.0 + np.abs(np.log(np.abs(points[:, None] - a))) + np.abs(np.log(np.abs(a))))
        weight = cells.sum(axis=1).mean() + sum(
            cells[:: nodes // rate_m, rate == rate_m].sum(axis=1).mean() for rate_m in set(rate))
        assert abs(got - dense) <= alias + 70 * U * weight + 4 * U * abs(dense)


class TestJensen:
    def test_counting_side_mpmath_oracle(self):
        # sum of m * (log max(|a - z|, 1) - log|a|), off and on the zeros
        seq = _scattered_sequence(71)
        rng = np.random.default_rng(72)
        points = np.concatenate([rng.uniform(-30.0, 30.0, 6) + 1j * rng.uniform(-30.0, 30.0, 6),
                                 seq.positions[:3], seq.positions[-2:]])
        for z in points.tolist():
            want, bound = _oracle_sum(seq, z, lambda d: mpmath.log(max(d, 1)))
            assert abs(jensen_counting_side(seq, z) - want) <= bound

    def test_simple_cases(self):
        assert jensen_identity_check(ZeroSequence((Zero(2 + 0j),)), 0.0, 4096) < 1e-6
        assert jensen_identity_check(ZeroSequence((Zero(0.5 + 0j),)), 0.0, 4096) < 1e-6

    def test_center_on_multiple_zero(self):
        seq = ZeroSequence((Zero(1 + 1j, 2), Zero(3 + 0j)))
        assert jensen_identity_check(seq, 1 + 1j, 4096) < 1e-9

    def test_node_doubling_shrinks(self):
        # one zero planted near the circle keeps the quadrature error visible
        seq = ZeroSequence((Zero(2.15 + 0j), Zero(-4 + 1j), Zero(5 - 2j)))
        z = 1.0 + 0j
        r64 = jensen_identity_check(seq, z, 64)
        r128 = jensen_identity_check(seq, z, 128)
        assert r64 > 4.0 * r128 > 0.0

    def test_lattice_at_the_bench_centres(self):
        # the product_eval centres of seed 9001, at its 4096 nodes
        seq = integer_lattice(1e4)
        for z in (4.575647061196385 + 2.5030990098933668j, 3.9856589009128367 + 1.9907561129216815j):
            assert jensen_identity_check(seq, z, 4096) < 1e-12

    def test_fifty_zeros_near_circle(self):
        # zeros in |a| < 20 kept 0.05 away from the test circle about 3 + i
        rng = np.random.default_rng(17)
        center = 3 + 1j
        points = []
        while len(points) < 50:
            z = complex(rng.uniform(-20, 20), rng.uniform(-20, 20))
            if abs(z) >= 20 or abs(z) < 0.3 or abs(abs(z - center) - 1.0) < 0.05:
                continue
            points.append(z)
        seq = ZeroSequence(tuple(Zero(p) for p in points))
        assert jensen_identity_check(seq, center, 1 << 16) < 1e-5


class TestTailCorrection:
    def test_no_tail(self):
        corr = tail_correction(PAIR, 1j, 5.0)
        assert corr.log_correction == 0j and corr.zero_count == 0

    @pytest.mark.parametrize("z, bound", [(0.5j, 0.5), (1.0, math.inf), (-1.0 + 0j, math.inf),
                                          (3j, math.inf)])
    def test_no_second_order_bound_past_the_nearest_tail_zero(self, z, bound):
        # |z| at or beyond the tail's least modulus (1 here): the series
        # behind the bound diverges
        corr = tail_correction(PAIR, z, 0.5)
        assert corr.second_order_bound == bound and corr.zero_count == 2

    def test_first_order_improves_truncation(self):
        rng = np.random.default_rng(16)
        zeros = tuple(Zero(complex(*rng.uniform(-80, 80, 2))) for _ in range(400))
        seq = ZeroSequence(tuple(z for z in zeros if abs(z.position) > 30.0))
        z = 1.5 + 0.5j
        full = evaluate_product(seq, z).value.log_magnitude
        part = evaluate_product(seq, z, 60.0).value.log_magnitude
        corr = tail_correction(seq, z, 60.0)
        assert abs(part + corr.log_correction.real - full) < abs(part - full)
        assert abs(part + corr.log_correction.real - full) <= corr.second_order_bound * 1.5


class TestFiniteDifferenceOracle:
    def test_requires_zero_position(self):
        with pytest.raises(ValueError):
            finite_difference_log_derivative(PAIR, 0.5)

    @pytest.mark.parametrize("h, text", [
        (0.0, "h must be positive"), (-1e-3, "h must be positive"),
        (math.inf, "h must be finite"), (math.nan, "h must be finite"),
    ])
    def test_bad_step_named(self, h, text):
        # h = 0 once divided by zero
        with pytest.raises(ValueError, match=text):
            finite_difference_log_derivative(PAIR, 1.0, h)
