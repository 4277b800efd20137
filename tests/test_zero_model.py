import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import axis_sequences
from expozeros import (
    SequenceFormatError,
    Zero,
    ZeroSequence,
    dump_sequence,
    dump_sequence_json,
    load_sequence,
    shift_origin,
    validate,
)


class TestZero:
    def test_basic(self):
        z = Zero(1 + 2j, 3)
        assert z.position == 1 + 2j and z.multiplicity == 3

    def test_default_multiplicity(self):
        assert Zero(1j).multiplicity == 1

    @pytest.mark.parametrize("mult", [0, -1, 1.5])
    def test_bad_multiplicity(self, mult):
        with pytest.raises(ValueError):
            Zero(1 + 0j, mult)

    @pytest.mark.parametrize("pos", [complex("inf"), complex(0, math.nan), math.inf])
    def test_nonfinite_position(self, pos):
        with pytest.raises(ValueError):
            Zero(pos)


class TestZeroSequence:
    def test_merges_equal_positions(self):
        seq = ZeroSequence((Zero(1j), Zero(1j, 2), Zero(1 + 0j)))
        assert len(seq) == 2
        by_pos = {z.position: z.multiplicity for z in seq.zeros}
        assert by_pos[1j] == 3
        assert seq.duplicate_merges == 1

    def test_sorted_by_modulus(self):
        seq = ZeroSequence((Zero(5 + 0j), Zero(1j), Zero(-2 + 0j)))
        assert [abs(z.position) for z in seq.zeros] == [1.0, 2.0, 5.0]

    def test_radius_contradiction(self):
        with pytest.raises(ValueError):
            ZeroSequence((Zero(3 + 0j),), truncation_radius=2.0)

    def test_radius_zero_means_complete(self):
        seq = ZeroSequence((Zero(100 + 0j),), truncation_radius=0.0)
        assert seq.truncation_radius == 0.0

    def test_origin_flag(self):
        assert ZeroSequence((Zero(1 + 0j),)).origin_excluded
        assert not ZeroSequence((Zero(0j),)).origin_excluded

    def test_arrays(self):
        seq = ZeroSequence((Zero(1j, 2), Zero(2 + 0j)))
        assert seq.positions.dtype == np.complex128
        assert seq.total_multiplicity == 3


def _dict_merge(records):
    """Reference merge: a dict keyed by position (which keeps the first
    spelling of an equal key), then a sort by (abs, re, im)."""
    merged: dict[complex, int] = {}
    for pos, mult in records:
        merged[pos] = merged.get(pos, 0) + mult
    items = sorted(merged.items(), key=lambda it: (abs(it[0]), it[0].real, it[0].imag))
    return items, len(records) - len(items)


_coords = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -2.5]),
    st.floats(-100, 100, allow_nan=False, allow_infinity=False),
)


class TestArrayStorage:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(_coords, _coords), min_size=1, max_size=12),
           st.lists(st.tuples(st.integers(0, 11), st.integers(1, 3)), max_size=60))
    def test_merge_matches_dict_reference(self, points, picks):
        records = [(complex(*points[i % len(points)]), m) for i, m in picks]
        items, merges = _dict_merge(records)
        expected = np.array([p for p, _ in items], dtype=np.complex128)
        built = (
            ZeroSequence.from_arrays(np.array([p for p, _ in records], dtype=np.complex128),
                                     [m for _, m in records]),
            ZeroSequence(tuple(Zero(p, m) for p, m in records)),
        )
        for seq in built:
            assert seq.positions.tobytes() == expected.tobytes()
            assert seq.multiplicities.tolist() == [float(m) for _, m in items]
            assert seq.duplicate_merges == merges
            assert seq.zeros == tuple(Zero(p, m) for p, m in items)

    def test_sort_key_is_python_abs(self):
        # |p| ties with q under Python's abs (so Re orders them), while
        # numpy's array abs can round |p| one unit higher and put q first
        p = 0.6404226504432821 + 0.19205435028986062j
        q = complex(abs(p), 0.0)
        assert ZeroSequence.from_arrays([q, p], [1, 1]).positions.tolist() == [p, q]

    def test_arrays_are_read_only(self):
        source = np.array([2 + 0j, 1j])
        seq = ZeroSequence.from_arrays(source, [1, 2])
        source[0] = 7.0  # the sequence holds its own copy
        assert seq.positions.tolist() == [1j, 2 + 0j]
        with pytest.raises(ValueError):
            seq.positions[0] = 5.0
        with pytest.raises(ValueError):
            seq.multiplicities[0] = 5.0

    def test_zeros_built_on_first_access(self):
        seq = ZeroSequence.from_arrays([1j, -2.0], [2, 1], 3.0, "p")
        assert "zeros" not in vars(seq)
        assert seq.zeros == (Zero(1j, 2), Zero(-2 + 0j))
        assert "zeros" in vars(seq)

    @pytest.mark.parametrize("positions, mults, radius", [
        ([complex("inf")], [1], 0.0),
        ([complex(0, math.nan)], [1], 0.0),
        ([1 + 0j], [1.5], 0.0),
        ([1 + 0j], [0], 0.0),
        ([1 + 0j], [math.inf], 0.0),
        ([1 + 0j], [math.nan], 0.0),
        ([1 + 0j, 2 + 0j], [1], 0.0),
        ([[1 + 0j]], [[1]], 0.0),
        ([3 + 0j], [1], 3.0),
        ([3 + 4j], [1], 4.0),
        ([1 + 0j], [1], -1.0),
        ([1 + 0j], [1], math.inf),
    ])
    def test_from_arrays_rejects(self, positions, mults, radius):
        with pytest.raises(ValueError):
            ZeroSequence.from_arrays(positions, mults, radius)


class TestLoadText:
    def test_two_records(self):
        seq = load_sequence("1 0 1\n-1 0 1")
        assert {z.position for z in seq.zeros} == {1 + 0j, -1 + 0j}
        assert len(seq) == 2

    def test_multiplicity_record(self):
        seq = load_sequence("0.5 0 2")
        assert len(seq) == 1
        assert seq.zeros[0] == Zero(0.5 + 0j, 2)

    def test_merge_rule(self):
        seq = load_sequence("2 3 1\n2 3 2")
        assert len(seq) == 1
        assert seq.zeros[0].multiplicity == 3
        assert seq.duplicate_merges == 1

    def test_comments_and_header(self):
        seq = load_sequence("# heading\n@radius 10\n1 0 1  # trailing\n\n-1 0 1")
        assert seq.truncation_radius == 10.0
        assert len(seq) == 2

    def test_malformed_line_number(self):
        with pytest.raises(SequenceFormatError) as err:
            load_sequence("1 0 1\n1 0\n")
        assert err.value.line == 2

    def test_rejects_nan(self):
        with pytest.raises(SequenceFormatError):
            load_sequence("nan 0 1")

    def test_rejects_inf(self):
        with pytest.raises(SequenceFormatError):
            load_sequence("1 inf 1")

    def test_rejects_zero_multiplicity(self):
        with pytest.raises(SequenceFormatError):
            load_sequence("1 0 0")

    def test_rejects_fractional_multiplicity(self):
        with pytest.raises(SequenceFormatError):
            load_sequence("1 0 1.5")

    def test_empty_input(self):
        assert len(load_sequence("")) == 0


class TestLoadJson:
    def test_basic(self):
        seq = load_sequence('{"radius": 5.0, "zeros": [[1, 0, 1], [0.5, -0.25, 2]]}')
        assert seq.truncation_radius == 5.0
        assert seq.total_multiplicity == 3

    def test_radius_optional(self):
        assert load_sequence('{"zeros": [[1, 0, 1]]}').truncation_radius == 0.0

    def test_bad_json(self):
        with pytest.raises(SequenceFormatError):
            load_sequence('{"zeros": [[1, 0')

    def test_bad_record(self):
        with pytest.raises(SequenceFormatError):
            load_sequence('{"zeros": [[1, 0]]}')

    def test_bad_multiplicity(self):
        with pytest.raises(SequenceFormatError):
            load_sequence('{"zeros": [[1, 0, 0.5]]}')

    @pytest.mark.parametrize("mult", ["Infinity", "NaN"])
    def test_nonfinite_multiplicity(self, mult):
        with pytest.raises(SequenceFormatError):
            load_sequence('{"zeros": [[1, 0, %s]]}' % mult)


class TestRoundTrip:
    def test_text_bit_exact(self):
        rng = np.random.default_rng(7)
        zeros = tuple(
            Zero(complex(rng.standard_normal() * math.pi, rng.standard_normal() / 3),
                 int(rng.integers(1, 4)))
            for _ in range(50)
        )
        seq = ZeroSequence(zeros, truncation_radius=1e6, provenance="roundtrip")
        again = load_sequence(dump_sequence(seq))
        assert again.zeros == seq.zeros
        assert again.truncation_radius == seq.truncation_radius

    def test_json_bit_exact(self):
        rng = np.random.default_rng(8)
        zeros = tuple(Zero(complex(*rng.standard_normal(2))) for _ in range(30))
        seq = ZeroSequence(zeros)
        again = load_sequence(dump_sequence_json(seq))
        assert again.zeros == seq.zeros

    def test_double_round_trip_stable(self):
        seq = load_sequence("0.1 0.2 1\n0.30000000000000004 0 2")
        text = dump_sequence(seq)
        assert dump_sequence(load_sequence(text)) == text


def _same_arrays(a, b):
    return (a.positions.tobytes() == b.positions.tobytes()
            and a.multiplicities.tobytes() == b.multiplicities.tobytes())


class TestRoundTripProperties:
    @settings(max_examples=60, deadline=None)
    @given(seq=axis_sequences(radius=True))
    def test_text_and_json_round_trips(self, seq):
        for dump in (dump_sequence, dump_sequence_json):
            again = load_sequence(dump(seq))
            assert _same_arrays(again, seq)
            assert again.truncation_radius == seq.truncation_radius

    @settings(max_examples=60, deadline=None)
    @given(seq=axis_sequences(), truncated=st.booleans(),
           c=st.complex_numbers(max_magnitude=50.0, allow_nan=False, allow_infinity=False))
    def test_shift_round_trip(self, seq, truncated, c):
        if truncated:
            seq = ZeroSequence.from_arrays(seq.positions, seq.multiplicities,
                                           seq.max_abs + 2.0 * abs(c) + 1.0)
        back = shift_origin(shift_origin(seq, c), -c)
        keep = (np.hypot(seq.positions.real, seq.positions.imag) < back.truncation_radius
                if truncated else slice(None))
        expect = ZeroSequence.from_arrays(seq.positions[keep], seq.multiplicities[keep])
        assert _same_arrays(back, expect)


class TestShiftOrigin:
    def test_identity_shift(self):
        seq = ZeroSequence((Zero(1 + 0j), Zero(-1 + 0j)))
        shifted = shift_origin(seq, 0.0)
        assert shifted.zeros == seq.zeros

    def test_simple_shift(self):
        seq = ZeroSequence((Zero(1 + 0j), Zero(-1 + 0j)))
        shifted = shift_origin(seq, 1.0)
        assert {z.position for z in shifted.zeros} == {0j, -2 + 0j}

    def test_radius_rule(self):
        seq = ZeroSequence((Zero(3 + 0j),), truncation_radius=10.0)
        shifted = shift_origin(seq, 2.0)
        assert {z.position for z in shifted.zeros} == {1 + 0j}
        assert shifted.truncation_radius == 8.0

    def test_shift_too_large(self):
        seq = ZeroSequence((Zero(3 + 0j),), truncation_radius=10.0)
        with pytest.raises(ValueError):
            shift_origin(seq, 10.0)

    def test_round_trip_exact(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            zeros = tuple(
                Zero(complex(*rng.uniform(-5, 5, 2)), int(rng.integers(1, 3)))
                for _ in range(20)
            )
            seq = ZeroSequence(zeros, truncation_radius=100.0)
            c = complex(*rng.uniform(-3, 3, 2))
            back = shift_origin(shift_origin(seq, c), -c)
            assert back.zeros == seq.zeros  # all zeros survive: they sit well inside
            assert back.truncation_radius >= seq.truncation_radius - 2 * abs(c) - 1e-12

    def test_round_trip_drops_only_far_rim(self):
        seq = ZeroSequence(tuple(Zero(complex(k, 0)) for k in range(-9, 10) if k), 10.0)
        back = shift_origin(shift_origin(seq, 1.5), -1.5)
        assert back.truncation_radius == 7.0
        survivors = tuple(z for z in seq.zeros if abs(z.position) < back.truncation_radius)
        assert back.zeros == survivors

    def test_round_trip_awkward_decimals(self):
        seq = ZeroSequence((Zero(0.1 + 0j), Zero(1 / 3 + 0.7j)))
        back = shift_origin(shift_origin(seq, 0.3), -0.3)
        assert back.zeros == seq.zeros


class TestValidate:
    def test_empty(self):
        rep = validate(ZeroSequence(()))
        assert rep.total_count == 0 and rep.max_radius == 0.0

    def test_origin_zero(self):
        rep = validate(ZeroSequence((Zero(0j),)))
        assert rep.has_origin_zero

    def test_merge_count(self):
        rep = validate(ZeroSequence((Zero(1j), Zero(1j))))
        assert rep.duplicate_merges == 1
        assert rep.total_count == 1
