import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import axis_sequences
from expozeros import (
    SequenceFormatError,
    Zero,
    ZeroSequence,
    dump_sequence,
    dump_sequence_json,
    integer_lattice,
    load_sequence,
    shift_origin,
    validate,
)
from expozeros import zero_model


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
            # positions are sorted by hypot, so max_abs reads the last one
            assert seq.max_abs == np.hypot(seq.positions.real, seq.positions.imag).max(initial=0.0)

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


def _lexsort_merge(positions, multiplicities):
    """The merge with its sort always taken: np.lexsort by (hypot, Re, Im),
    then the runs of equal positions summed."""
    order = np.lexsort((positions.imag, positions.real, np.hypot(positions.real, positions.imag)))
    pos = positions[order]
    starts = np.flatnonzero(np.concatenate(([True], pos[1:] != pos[:-1])))[: pos.size]
    return pos[starts], np.add.reduceat(multiplicities[order], starts)


class TestOrderedMerge:
    """_merge skips the sort on input already in (hypot, Re, Im) order."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(_coords, _coords), min_size=1, max_size=12),
           st.lists(st.tuples(st.integers(0, 11), st.integers(1, 3)), max_size=40),
           st.sampled_from(["drawn", "reversed", "sorted", "sorted_twice"]),
           st.sampled_from([2, 3, 1 << 15]))
    @example([(1.0, 0.0), (-1.0, 0.0), (0.0, -1.0), (0.0, 1.0), (-0.0, 0.0), (0.0, -0.0)],
             [(i, 1 + i % 3) for i in range(6)], "sorted", 1 << 15)
    # ties in hypot that Re, then Im, must order
    @example([(1.0, 0.0), (-1.0, 0.0)], [(0, 1), (1, 2)], "drawn", 1 << 15)
    @example([(0.0, 1.0), (0.0, -1.0)], [(0, 1), (1, 2)], "drawn", 1 << 15)
    # blocks of 2 entries, ordered within each and not across the first edge
    @example([(1.0, 0.0), (3.0, 0.0), (2.0, 0.0)], [(0, 1), (1, 1), (2, 1)], "drawn", 2)
    def test_bits_match_the_sorting_merge(self, points, picks, arrange, block):
        # pairing parts through a float view keeps the sign of a zero part
        table = np.array([points[i % len(points)] for i, _ in picks]).reshape(-1, 2)
        positions = np.ascontiguousarray(table).view(np.complex128)[:, 0]
        mults = np.array([m for _, m in picks], dtype=np.float64)
        if arrange == "reversed":
            positions, mults = positions[::-1], mults[::-1]
        elif arrange != "drawn":
            order = np.lexsort((positions.imag, positions.real,
                                np.hypot(positions.real, positions.imag)))
            positions, mults = positions[order], mults[order]
            if arrange == "sorted_twice":   # every position tied with its copy
                positions, mults = np.repeat(positions, 2), np.repeat(mults, 2)
            assert zero_model._ordered(np.hypot(positions.real, positions.imag),
                                       positions.real, positions.imag)
        # the order check runs in blocks of block entries
        with mock.patch.object(zero_model, "_CHECK_BLOCK", block):
            got = zero_model._merge(positions, mults)
        expect = _lexsort_merge(positions, mults)
        assert got[0].tobytes() == expect[0].tobytes()
        assert got[1].tobytes() == expect[1].tobytes()
        # the stored arrays are made read-only, so they never alias the input
        assert not np.shares_memory(got[0], positions)
        assert not np.shares_memory(got[1], mults)

    def test_value_checks_cross_blocks_positions_first(self, monkeypatch):
        monkeypatch.setattr(zero_model, "_CHECK_BLOCK", 4)
        positions, mults = np.arange(1.0, 14.0).astype(np.complex128), np.ones(13)
        bad_positions, bad_mults = positions.copy(), mults.copy()
        bad_positions[12], bad_mults[1] = complex(5.0, math.inf), 0.5
        # a bad position in the last block outranks a bad multiplicity in the first
        with pytest.raises(ValueError, match="positions must be finite"):
            ZeroSequence.from_arrays(bad_positions, bad_mults)
        with pytest.raises(ValueError, match="multiplicities must be positive"):
            ZeroSequence.from_arrays(positions, bad_mults)
        for bad in (math.nan, 2.5, 0.0):
            last = mults.copy()
            last[-1] = bad
            with pytest.raises(ValueError, match="multiplicities must be positive"):
                ZeroSequence.from_arrays(positions, last)
        assert len(ZeroSequence.from_arrays(positions, mults)) == 13

    def test_ordered_input_is_copied(self):
        source, mults = np.array([-1 + 0j, 1 + 0j, 2j]), np.array([1.0, 2.0, 1.0])
        seq = ZeroSequence.from_arrays(source, mults)
        source[0], mults[0] = 7.0, 5.0   # the sequence holds its own copies
        assert seq.positions.tolist() == [-1 + 0j, 1 + 0j, 2j]
        assert seq.multiplicities.tolist() == [1.0, 2.0, 1.0]
        assert not (seq.positions.flags.writeable or seq.multiplicities.flags.writeable)


def _flags(seq):
    return seq.origin_excluded, seq.all_real, seq.all_simple


def _flag_definitions(seq):
    """The flags from the whole arrays."""
    return (not np.any(seq.positions == 0), not np.any(seq.positions.imag != 0.0),
            bool(np.all(seq.multiplicities == 1.0)))


class TestSequenceFlags:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(_coords, _coords, st.sampled_from((1, 1, 1, 2))), max_size=12),
           st.tuples(_coords, _coords))
    @example([(-0.0, -0.0, 1), (1.0, 0.0, 1)], (0.0, 0.0))
    @example([(2.5, -0.0, 1), (-0.0, 1.0, 1)], (2.5, -0.0))
    def test_flags_match_their_definitions(self, records, shift):
        # pairing parts through a float view keeps the sign of a zero part
        table = np.array([[re, im] for re, im, _ in records]).reshape(-1, 2)
        positions = np.ascontiguousarray(table).view(np.complex128)[:, 0]
        mults = [m for _, _, m in records]
        seq = ZeroSequence.from_arrays(positions, mults)
        doubled = "".join(f"{line}\n{line}\n" for line in dump_sequence(seq).splitlines()
                          if not line.startswith(("#", "@")))
        shifted = shift_origin(seq, complex(*shift))
        built = [seq, load_sequence(dump_sequence(seq)), load_sequence(dump_sequence_json(seq)),
                 ZeroSequence.from_arrays(np.concatenate([positions, positions]), mults + mults),
                 load_sequence(doubled), shifted, shift_origin(shifted, -complex(*shift))]
        for each in built:
            assert _flags(each) == _flag_definitions(each)

    def test_signed_origin_spellings(self):
        for re, im in ((-0.0, -0.0), (0.0, -0.0), (-0.0, 0.0)):
            origin = np.array([re, im]).view(np.complex128)
            seq = ZeroSequence.from_arrays(np.append(origin, [3j, -1.0]), [1, 1, 1])
            assert seq.positions[0] == 0 and not seq.origin_excluded
            assert not load_sequence(f"{re!r} {im!r} 1\n2.0 0.0 1\n").origin_excluded
        assert ZeroSequence(()).origin_excluded

    def test_flags_computed_on_first_access(self):
        seq = ZeroSequence.from_arrays([1j, -2.0], [2, 1])
        assert "all_real" not in vars(seq) and "all_simple" not in vars(seq)
        assert (seq.all_real, seq.all_simple) == (False, False)
        assert "all_real" in vars(seq) and "all_simple" in vars(seq)


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


    def test_radius_keyword_is_exact(self):
        with pytest.raises(SequenceFormatError, match="unknown directive '@radiusfoo'") as err:
            load_sequence("1 0 1\n@radiusfoo 5\n")
        assert err.value.line == 2

    def test_unknown_directive(self):
        with pytest.raises(SequenceFormatError, match="unknown directive '@other'") as err:
            load_sequence("@other 5\n1 0 1")
        assert err.value.line == 1

    def test_second_header(self):
        with pytest.raises(SequenceFormatError, match="first is on line 1") as err:
            load_sequence("@radius 5\n1 0 1\n  @radius 7  # again\n")
        assert err.value.line == 3

    def test_huge_multiplicity(self):
        with pytest.raises(SequenceFormatError, match="multiplicity .* too large") as err:
            load_sequence("1 0 1\n1 0 1" + "0" * 400)
        assert err.value.line == 2

    @pytest.mark.parametrize("brk", ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                     "\u2028", "\u2029"])
    def test_splitlines_breaks_end_a_line(self, brk):
        # np.loadtxt reads these as blanks inside one line; the file format
        # ends a line at each of them, as str.splitlines does
        with pytest.raises(SequenceFormatError) as err:
            load_sequence(f"1 0 1\n1 0{brk}1\n")
        assert err.value.line == 2
        assert len(load_sequence(f"1 0 1{brk}-1 0 1{brk}")) == 2

    def test_loop_parses_what_loadtxt_refuses(self):
        seq = load_sequence("1_0 0 1\n2 0 12345678901234567890\n")
        assert seq.positions.tolist() == [2 + 0j, 10 + 0j]
        assert seq.multiplicities.tolist() == [12345678901234567890.0, 1.0]


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

    @pytest.mark.parametrize("payload, field", [
        ('{"zeros": [[1%s, 0, 1]]}', "zeros[0].re"),
        ('{"zeros": [[1, 0, 1], [0, -1%s, 1]]}', "zeros[1].im"),
        ('{"zeros": [[1, 0, 1%s]]}', "zeros[0].multiplicity"),
        ('{"radius": 1%s, "zeros": [[1, 0, 1]]}', "radius"),
    ], ids=["re", "im", "multiplicity", "radius"])
    def test_huge_integer(self, payload, field):
        with pytest.raises(SequenceFormatError, match="too large for a double") as err:
            load_sequence(payload % ("0" * 400))
        assert str(err.value).startswith(field + " ")

    def test_integer_past_the_digit_limit(self):
        with pytest.raises(SequenceFormatError, match="invalid JSON: Exceeds the limit"):
            load_sequence('{"zeros": [[1%s, 0, 1]]}' % ("0" * 5000))

    def test_bool_is_not_a_number(self):
        with pytest.raises(SequenceFormatError, match=r"zeros\[1\]\.multiplicity .* got True"):
            load_sequence('{"zeros": [[1, 0, 1], [2, 0, true]]}')


class TestValuesFromArraysRefuses:
    """Input that a chunked reader parses but whose values from_arrays
    refuses goes through the form's loop, which names no bad line or record:
    the error is from_arrays' own, without a line."""

    @pytest.mark.parametrize("source, far, chunked", [
        ("@radius 2\n1 0 1\n3 0 1\n", 3.0, True),
        ("@radius 2\n1 0 1\n-2 0 1\n", 2.0, True),
        ('{"radius": 2, "zeros": [[1, 0, 1], [3, 0, 1]]}', 3.0, True),
        ('{"radius": 2, "zeros": [[1, 0, 1], [0, 2, 1]]}', 2.0, True),
        # np.loadtxt refuses 1_0, so the text loop parses it
        ("@radius 2\n1_0 0 1\n1 0 1\n", 10.0, False),
    ], ids=["text-beyond", "text-at", "json-beyond", "json-at", "text-loop"])
    def test_zero_outside_the_claimed_radius(self, source, far, chunked):
        reader = zero_model._json_table if source.startswith("{") else zero_model._text_table
        assert (reader(source) is not None) == chunked
        with pytest.raises(SequenceFormatError) as err:
            load_sequence(source)
        assert str(err.value) == f"zero at |z| = {far} contradicts claimed completeness radius 2.0"
        assert err.value.line is None


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


_EDGE_SEQUENCE = ZeroSequence.from_arrays(
    [complex(-0.0, -0.0), complex(5e-324, 0.0), complex(-2.5, -0.0), complex(1e308, 1.0)],
    [1, 2 ** 60, 3, 1], 1.5e308)


class TestJsonDump:
    @settings(max_examples=100, deadline=None)
    @given(seq=st.one_of(axis_sequences(), axis_sequences(radius=True)))
    @example(seq=_EDGE_SEQUENCE)
    @example(seq=ZeroSequence(()))
    def test_bytes_of_json_dumps(self, seq):
        records = [[p.real, p.imag, int(m)]
                   for p, m in zip(seq.positions.tolist(), seq.multiplicities.tolist())]
        assert dump_sequence_json(seq) == json.dumps({"radius": seq.truncation_radius,
                                                      "zeros": records})


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


def _outcome(source):
    """What load_sequence gives: the sequence's bits and counts, or the
    exception's type, message and line."""
    try:
        seq = load_sequence(source)
    except Exception as exc:  # the failure itself is compared
        return type(exc), str(exc), getattr(exc, "line", None)
    return (seq.positions.tobytes(), seq.multiplicities.tobytes(),
            seq.truncation_radius.hex(), seq.duplicate_merges)


def _loop_outcome(source):
    """_outcome with the whole-array parses refusing every input, so the
    per-line and per-record loops do all the work."""
    with mock.patch.object(zero_model, "_text_table", lambda source: None), \
            mock.patch.object(zero_model, "_json_table", lambda source: None):
        return _outcome(source)


# each token strategy: a valid branch, a branch np.loadtxt refuses but the
# loop reads, and a bad branch, so that texts with one fault are common
_float_tokens = st.one_of(
    st.floats(-1e3, 1e3).map(repr),
    st.sampled_from(["0", "-0.0", "1", "-2.5", "1e-320", ".5", "1E3", "+7", "1_0", "\u0663"]),
    st.sampled_from(["nan", "inf", "-Infinity", "1e400", "0x10", "1.5.2", "abc"]),
)
_mult_tokens = st.one_of(
    st.sampled_from(["1", "2", "+3", "01"]),
    st.sampled_from(["1_0", "\u0663", "12345678901234567890"]),
    st.sampled_from(["0", "-1", "-0", "1.0", "1e0", "9" * 400]),
)
_record_lines = st.one_of(
    st.tuples(_float_tokens, _float_tokens, _mult_tokens).map(list),
    st.tuples(_float_tokens, _float_tokens, _mult_tokens).map(list),
    st.lists(st.one_of(_float_tokens, _mult_tokens), min_size=2, max_size=4),
)
_blanks = st.sampled_from([" ", "  ", "\t", "\xa0", "\u3000", "\x1f"])
_other_lines = st.one_of(
    st.sampled_from(["", "   ", "# comment", "#", "  # @radius 3", "@radius 1e4",
                     "@radius 5e3 # complete", "\xa0 @radius 1e4"]),
    st.sampled_from(["@radius -1", "@radius nan", "@radius", "@radius 1 2", "@radiusfoo 5",
                     "@other 5", "@", "1 @ 2"]),
)
_breaks = st.sampled_from(["\n"] * 12 + ["\r\n"] * 4
                          + ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                             "\u2028", "\u2029"])


@st.composite
def _texts(draw):
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.booleans()):
            fields = draw(_record_lines)
            sep = draw(_blanks)
            line = sep.join(fields) + draw(st.sampled_from(["", " ", " # note", "\t#"]))
        else:
            line = draw(_other_lines)
        lines.append(line + draw(_breaks))
    return "".join(lines) + draw(st.sampled_from(["", "1 0 1", "-0.0 -0.0 2"]))


_json_values = st.one_of(
    st.integers(-3, 3), st.floats(-1e3, 1e3), st.just(-0.0), st.booleans(), st.just("1"),
    st.just([1]), st.none(), st.sampled_from([2 ** 64 + 1, 2 ** 1000, 10 ** 400, -(10 ** 400)]),
    st.sampled_from([math.nan, math.inf, 1.5, 1e308]),
    st.sampled_from([2 ** 53 + 1, -(2 ** 60) - 1, 2 ** 63 + 1]),
)
_valid_json_records = st.one_of(
    st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), st.integers(1, 3)).map(list),
    st.tuples(st.sampled_from([-0.0, 0, 2 ** 53 + 1, -(2 ** 63) - 1]), st.floats(-1e3, 1e3),
              st.sampled_from([1, 2 ** 53 + 1, 2 ** 60])).map(list),
)
_json_records = st.one_of(
    _valid_json_records,
    st.lists(_json_values, min_size=3, max_size=3),
    st.lists(_json_values, max_size=4),
    _json_values,
)
# keys beside `zeros`, most of whose values hold brackets, in arrays or in
# strings
_json_extras = st.sampled_from([{}, {"name": "lattice"}, {"note": [1, 2]}, {"s": "], ["},
                                {"meta": {"zeros": [[1, 0, 1]]}}, {"t": "[[0, 0, 1]]"},
                                {"u": [[2, 0, 1]]}])
_json_layouts = st.sampled_from([{}, {"indent": 2}, {"indent": 0}, {"separators": (",", ":")},
                                 {"indent": "\t", "separators": (" ,", " : ")}])


@st.composite
def _jsons(draw):
    payload = {}
    if draw(st.booleans()):
        payload["radius"] = draw(_json_values) if draw(st.booleans()) else 1e4
    extras = draw(_json_extras)
    if draw(st.booleans()):
        payload.update(extras)
    # mostly a list of records, to reach the record checks, and half of
    # those valid, to reach the flat-list parse
    records = _valid_json_records if draw(st.booleans()) else _json_records
    payload["zeros"] = (draw(st.lists(records, max_size=6)) if draw(st.integers(0, 5))
                        else draw(_json_values))
    payload.update(extras)
    text = json.dumps(payload, **draw(_json_layouts))
    if draw(st.booleans()):   # json.dumps writes no bare -0
        text = text.replace("-0.0", "-0")
    # a second `zeros` key, before or after the first
    other = json.dumps(draw(st.lists(_json_records, max_size=3)))
    where = draw(st.sampled_from(["none"] * 4 + ["before", "after"]))
    if where == "before":
        text = '{"zeros": %s, %s' % (other, text[1:])
    elif where == "after":
        text = '%s, "zeros": %s}' % (text[:-1], other)
    return text


class TestFastPathMatchesLoop:
    """The whole-array parse either gives the loop's own result or refuses."""

    @settings(max_examples=500, deadline=None)
    @given(_texts())
    @example("nan 0 1\n")
    @example("1 inf 1")
    @example("1 0 0")
    @example("1 0\x0c1")
    @example("1 0 1\r-1 0 1")
    @example("1_0 0 1\n2 0 12345678901234567890")
    @example("@radius 5\n1 0 1\n@radius 7\n")
    @example("@radiusfoo 5\n1 0 1")
    @example("# only\n@radius 3\n")
    @example("1 0 1\r\n-0.0 -0.0 2\r\n")
    def test_text(self, source):
        assert _outcome(source) == _loop_outcome(source)

    @settings(max_examples=500, deadline=None)
    @given(_jsons())
    @example('{"zeros": [[1, 0, true]]}')
    @example('{"zeros": [[1, 0, 1.5]]}')
    @example('{"zeros": [[NaN, 0, 1]]}')
    @example('{"zeros": [[1, 0, 1%s]]}' % ("0" * 400))
    @example('{"zeros": [[1, 0, 1], [1, 0]]}')
    @example('{"zeros": [[1, 0, 1], 5]}')
    @example('{"zeros": [[-0.0, 0, 2.0]], "radius": 3}')
    # brackets out of place: blanked, the first two read as 3 * rows
    # numbers, which the `],[` adjacency check refuses; the third has
    # rows = 0 and one number
    @example('{"zeros": [[1, 2, 3], 4[, 5, 6]]}')
    @example('{"zeros": [1[, 2, 3]]}')
    @example('{"zeros": [0]}')
    @example('{"zeros": [[1, 2, 3] [4, 5, 6]]}')
    @example('{"zeros": [[-0, 0, 1], [9007199254740993, 0, 1152921504606846976]]}')
    @example('{"zeros": [[1, 0, 1]], "zeros": [[2, 0, 1]]}')
    @example('{"zeros": 5, "zeros": [[2, 0, 1]]}')
    @example('{"s": "], [", "zeros": [[1, 0, 1]]}')
    @example('{"zeros": [[1, 0, 1]], "u": [[2, 0, 1]]}')
    @example('{"meta": {"zeros": [[1, 0, 1]]}}')
    @example('{"radius": true, "zeros": [[1, 0, 1]]}')
    @example('{"zeros": [[1, 0, 1]]} ]')
    @example('{"zeros": [[1e400, 0, 1]]}')
    @example('{"zeros": [[1, 0, 1]\u00a0, [2, 0, 1]]}')
    @example('{"zeros": [[1 2, 0, 1]]}')
    @example('{"zeros": [[1, 0, 1]], "radius": 1e4}')
    def test_json(self, source):
        assert _outcome(source) == _loop_outcome(source)

    def test_valid_input_never_reaches_the_loop(self, monkeypatch):
        rng = np.random.default_rng(12)
        n = 10_000
        positions = np.empty(n, dtype=np.complex128)
        positions.real = rng.standard_normal(n) * 1e3
        positions.imag = rng.standard_normal(n)
        positions.real[::97] = -0.0
        positions.imag[::89] = -0.0
        seq = ZeroSequence.from_arrays(positions, rng.integers(1, 4, n), 1e5, "fast")
        assert np.signbit(seq.positions.real[seq.positions.real == 0.0]).any()

        def refuse(*args):
            raise AssertionError("valid input fell back to the loop")

        monkeypatch.setattr(zero_model, "_text_records", refuse)
        monkeypatch.setattr(zero_model, "_json_records", refuse)
        text = dump_sequence(seq)
        crlf = "# note\r\n\r\n" + text.replace("\n", "  # c\r\n")
        dumped = dump_sequence_json(seq)
        layouts = [json.dumps(json.loads(dumped), indent=2),
                   json.dumps(json.loads(dumped), separators=(",", ":"))]
        # other arrays in the object, or a second `zeros` key, leave the
        # flat parse to the record loop
        listed = ['{"note": [1], "meta": {"k": [2]}, ' + dumped[1:],
                  '{"zeros": [[1, 0, 1]], ' + dumped[1:]]
        for source in (dumped, *layouts):
            assert zero_model._json_table(source) is not None
        for source in listed:
            assert zero_model._json_table(source) is None

        def loads_back(sources):
            for source in sources:
                back = load_sequence(source)
                assert _same_arrays(back, seq)
                assert back.truncation_radius == seq.truncation_radius

        loads_back((text, crlf, dumped, *layouts))
        assert len(load_sequence("# nothing\n@radius 2\n\n")) == 0
        monkeypatch.undo()
        loads_back(listed)


def _reference_dumps(seq):
    """The text and JSON forms written one record at a time: repr for each
    float, the exact int of each multiplicity, and json.dumps for the JSON."""
    records = [(p.real, p.imag, int(m))
               for p, m in zip(seq.positions.tolist(), seq.multiplicities.tolist())]
    lines = [f"# {seq.provenance}"] if seq.provenance else []
    lines.append(f"@radius {seq.truncation_radius!r}")
    lines += [f"{re!r} {im!r} {m}" for re, im, m in records]
    return ("\n".join(lines) + "\n",
            json.dumps({"radius": seq.truncation_radius, "zeros": [list(r) for r in records]}))


_io_coordinates = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0, 5e-324, -2.5]))
_io_multiplicities = st.sampled_from([1, 1, 2, 3, 2 ** 53 + 2, 2 ** 63, 10 ** 19])


@st.composite
def _io_sequences(draw):
    """Sequences whose Im and multiplicity columns are each one value or
    mixed, with -0.0 parts, nonzero imaginary parts and multiplicities past
    2^53 and 2^63."""
    n = draw(st.integers(0, 12))
    real = draw(st.lists(_io_coordinates, min_size=n, max_size=n))
    imag = (draw(st.lists(_io_coordinates, min_size=n, max_size=n)) if draw(st.booleans())
            else [draw(_io_coordinates)] * n)
    mult = (draw(st.lists(_io_multiplicities, min_size=n, max_size=n)) if draw(st.booleans())
            else [draw(_io_multiplicities)] * n)
    positions = np.empty(n, dtype=np.complex128)
    positions.real, positions.imag = real, imag
    seq = ZeroSequence.from_arrays(positions, mult, provenance=draw(st.sampled_from(["", "io"])))
    if draw(st.booleans()):
        seq = ZeroSequence.from_arrays(seq.positions, seq.multiplicities, 2.0 * seq.max_abs + 1.0,
                                       seq.provenance)
    return seq


@st.composite
def _laid_out_text(draw, text):
    """text with blank and comment lines between its lines, comments after
    some records, the `@radius` line moved and CRLF or LF endings."""
    lines = text.splitlines()
    header = lines.pop(next(i for i, line in enumerate(lines) if line.startswith("@")))
    lines = [line + draw(st.sampled_from(["", "", " # note", "\t#"])) for line in lines]
    lines.insert(draw(st.integers(0, len(lines))), header)
    out = []
    for line in lines:
        out += draw(st.lists(st.sampled_from(["", "   ", "# c", "  # @radius 9"]), max_size=2))
        out.append(line)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(out) + draw(st.sampled_from([end, ""]))


# (_TEXT_CHUNK, _JSON_CHUNK, _DUMP_BLOCK) of a few characters, bytes and
# records, so that block edges fall inside short inputs
_block_sizes = st.tuples(st.integers(1, 24), st.integers(1, 24), st.integers(1, 4))


def _blocks(sizes):
    text, json_bytes, records = sizes
    return mock.patch.multiple(zero_model, _TEXT_CHUNK=text, _JSON_CHUNK=json_bytes,
                               _DUMP_BLOCK=records)


class TestBlockedIO:
    """Dumps and loads in blocks give the bytes and bits of one record at a
    time, wherever the block edges fall."""

    @settings(max_examples=200, deadline=None)
    @given(seq=_io_sequences(), sizes=_block_sizes)
    @example(seq=_EDGE_SEQUENCE, sizes=(1, 1, 1))
    @example(seq=ZeroSequence(()), sizes=(1, 1, 1))
    # equal Im values, one of them -0.0, in one block
    @example(seq=ZeroSequence.from_arrays([1.0, complex(-2.0, -0.0), 3.0], [2, 2, 2]),
             sizes=(24, 24, 4))
    def test_dumps_and_round_trips(self, seq, sizes):
        with _blocks(sizes):
            text, dumped = dump_sequence(seq), dump_sequence_json(seq)
            assert (text, dumped) == _reference_dumps(seq)
            for source in (text, dumped):
                back = load_sequence(source)
                assert _same_arrays(back, seq)
                assert back.truncation_radius.hex() == seq.truncation_radius.hex()

    @settings(max_examples=200, deadline=None)
    @given(seq=_io_sequences(), sizes=_block_sizes, data=st.data())
    def test_laid_out_loads_match_the_loops(self, seq, sizes, data):
        text = data.draw(_laid_out_text(dump_sequence(seq)))
        dumped = json.dumps(json.loads(dump_sequence_json(seq)), **data.draw(_json_layouts))
        with _blocks(sizes):
            for source in (text, dumped):
                assert _outcome(source) == _loop_outcome(source)
            if seq.multiplicities.max(initial=1.0) < 2.0 ** 63:
                assert zero_model._text_table(text) is not None
            assert zero_model._json_table(dumped) is not None

    @settings(max_examples=300, deadline=None)
    @given(source=st.one_of(_texts(), _jsons()), sizes=_block_sizes)
    def test_faults_match_the_loops(self, source, sizes):
        with _blocks(sizes):
            assert _outcome(source) == _loop_outcome(source)


class TestLargeMultiplicities:
    """Multiplicities past 2^53 and 2^63 are written as the exact int of
    their float, so both forms reload them bit for bit."""

    @pytest.mark.parametrize("mult", [2.0 ** 53 + 2, 2.0 ** 63, 1e19])
    def test_round_trip(self, mult):
        seq = ZeroSequence.from_arrays([1.0, -0.0j, 2.5j], [mult, 1, mult])
        text, dumped = dump_sequence(seq), dump_sequence_json(seq)
        assert f" {int(mult)}\n" in text and f", {int(mult)}]" in dumped
        for source in (text, dumped):
            assert _same_arrays(load_sequence(source), seq)


def _traced_peak(call, *args):
    """call(*args) and the most memory tracemalloc saw it hold at once."""
    tracemalloc.start()
    try:
        out = call(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestIOPeaks:
    """No step of a dump or load holds a copy of the whole input or a
    Python object per record."""

    def test_lattice_1e5(self):
        seq = integer_lattice(1e5)
        arrays = seq.positions.nbytes + seq.multiplicities.nbytes
        for dump in (dump_sequence, dump_sequence_json):
            written, peak = _traced_peak(dump, seq)
            assert peak < 3 * len(written), dump.__name__
            back, peak = _traced_peak(load_sequence, written)
            assert peak < 4 * arrays, dump.__name__
            assert _same_arrays(back, seq)


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

    @pytest.mark.parametrize("seq, c", [
        (integer_lattice(10.0), math.nan),
        (integer_lattice(10.0), complex(0.0, math.nan)),
        (ZeroSequence((Zero(1 + 0j), Zero(-2 + 1j))), math.inf),
    ], ids=["nan", "nan-imaginary-part", "inf-no-radius"])
    def test_nonfinite_shift_is_named(self, seq, c):
        with pytest.raises(ValueError, match=r"^shift c must be finite, got"):
            shift_origin(seq, c)

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
