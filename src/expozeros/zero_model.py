"""Zero-sequence data model: positions with multiplicities, file I/O, origin shifts.

A sequence is stored as a canonically merged multiset in two read-only
arrays: equal positions are combined by summing multiplicities (exact
coordinate equality, no epsilon), and entries are sorted by (|position|, Re,
Im).  That ordering is also the truncation order used by the product module.
Every producer builds through ZeroSequence.from_arrays.
"""

from __future__ import annotations

import cmath
import io
import json
import math
import re
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "Zero",
    "ZeroSequence",
    "ValidationReport",
    "SequenceFormatError",
    "load_sequence",
    "dump_sequence",
    "dump_sequence_json",
    "shift_origin",
    "validate",
]


class SequenceFormatError(ValueError):
    """Malformed sequence file; carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Zero:
    """One zero of an entire function: a finite plane point with multiplicity >= 1."""

    position: complex
    multiplicity: int = 1

    def __post_init__(self):
        pos = complex(self.position)
        mult = int(self.multiplicity)
        if mult != self.multiplicity or mult < 1:
            raise ValueError(f"multiplicity must be a positive integer, got {self.multiplicity!r}")
        if not (math.isfinite(pos.real) and math.isfinite(pos.imag)):
            raise ValueError(f"zero position must be finite, got {pos!r}")
        object.__setattr__(self, "position", pos)
        object.__setattr__(self, "multiplicity", mult)


# entries from_arrays checks, and orders, at a time: every temporary of a
# check is a block's, not the input's size
_CHECK_BLOCK = 1 << 15


def _check_values(positions: np.ndarray, multiplicities: np.ndarray) -> None:
    """Raise ValueError unless every position is finite and every
    multiplicity a positive integer: all positions first, then all
    multiplicities, in blocks of _CHECK_BLOCK."""
    for lo in range(0, positions.size, _CHECK_BLOCK):
        if not np.isfinite(positions[lo:lo + _CHECK_BLOCK]).all():
            raise ValueError("zero positions must be finite")
    for lo in range(0, multiplicities.size, _CHECK_BLOCK):
        m = multiplicities[lo:lo + _CHECK_BLOCK]
        if not np.all(np.isfinite(m) & (m >= 1) & (m == np.floor(m))):
            raise ValueError("multiplicities must be positive integers")


def _merge(positions: np.ndarray, multiplicities: np.ndarray,
           owned: tuple[bool, bool] = (False, False)) -> tuple[np.ndarray, np.ndarray]:
    """Sort by (|a|, Re, Im) and sum the multiplicities of equal positions.
    |a| is np.hypot: it matches Python's abs(complex) bit for bit, np.abs does
    not and would reorder near ties.  The sort is stable, so a run of equal
    positions keeps its first spelling (0.0 or -0.0), as a dict would.

    The result is never a view of the input.  Input already in order skips
    the sort, and input with no equal neighbours the run sums; an input
    array that reaches the result as it is is copied once, unless owned
    marks it (positions, multiplicities) as made for this call alone."""
    if not _in_order(positions):
        real, imag = positions.real, positions.imag
        order = np.lexsort((imag, real, np.hypot(real, imag)))
        positions, multiplicities, owned = positions[order], multiplicities[order], (True, True)
    differs = positions[1:] != positions[:-1]
    if differs.all():
        return (positions if owned[0] else positions.copy(),
                multiplicities if owned[1] else multiplicities.copy())
    # a run starts wherever a position differs from its left neighbour;
    # indexing and reduceat give new arrays
    starts = np.flatnonzero(np.concatenate(([True], differs)))
    return positions[starts], np.add.reduceat(multiplicities, starts)


def _in_order(positions: np.ndarray) -> bool:
    """Whether positions ascend by (hypot, Re, Im): _ordered over blocks of
    _CHECK_BLOCK + 1 entries, each sharing its first entry with the last
    one's end."""
    for lo in range(0, positions.size - 1, _CHECK_BLOCK):
        block = positions[lo:lo + _CHECK_BLOCK + 1]
        real, imag = block.real, block.imag
        if not _ordered(np.hypot(real, imag), real, imag):
            return False
    return True


def _ordered(key: np.ndarray, real: np.ndarray, imag: np.ndarray) -> bool:
    """Whether (key, real, imag) is non-decreasing, lexicographically, along
    the arrays: every neighbour pair by key, and pairs of equal key by
    (real, imag)."""
    if not np.all(key[:-1] <= key[1:]):
        return False
    tie = np.flatnonzero(key[:-1] == key[1:])
    left, right = real[tie], real[tie + 1]
    return bool(np.all((left < right) | ((left == right) & (imag[tie] <= imag[tie + 1]))))


@dataclass(frozen=True, eq=False, init=False)
class ZeroSequence:
    """Finite multiset of zeros plus completeness metadata.

    positions (complex128) and multiplicities (float64) are merged, sorted
    and read-only; `zeros` views them as Zero objects, and the flags
    all_real and all_simple, max_abs and total_multiplicity are computed,
    on first access.
    truncation_radius > 0 claims the stored list is complete inside
    |z| < truncation_radius; 0 means the sequence is exactly this finite set
    on all of the plane.  Instances are immutable and safe to share across
    threads.
    """

    positions: np.ndarray
    multiplicities: np.ndarray
    truncation_radius: float
    provenance: str
    duplicate_merges: int
    # Chained shifts are recomputed from the original arrays so that a shift
    # and its exact negation cancel bit-for-bit: (a - c) + c is not a.
    shift_base: tuple[np.ndarray, np.ndarray] | None = field(repr=False)
    shift_offset: complex = field(repr=False)

    def __new__(cls, zeros=(), truncation_radius=0.0, provenance="", duplicate_merges=0):
        """Build from Zero objects, (position, multiplicity) tuples or bare positions."""
        entries = [z if isinstance(z, Zero) else Zero(*z) if isinstance(z, tuple) else Zero(z)
                   for z in zeros]
        return cls.from_arrays([z.position for z in entries], [z.multiplicity for z in entries],
                               truncation_radius, provenance, duplicate_merges)

    @classmethod
    def from_arrays(cls, positions, multiplicities, truncation_radius=0.0, provenance="",
                    duplicate_merges=0, *, shift_base=None, shift_offset=0j) -> "ZeroSequence":
        """Validate, merge and sort one zero per entry of the two arrays."""
        given = positions, multiplicities
        positions = np.asarray(positions, dtype=np.complex128)
        multiplicities = np.asarray(multiplicities, dtype=np.float64)
        if positions.ndim != 1 or positions.shape != multiplicities.shape:
            raise ValueError(f"need 1-D arrays of one length, got {positions.shape}, {multiplicities.shape}")
        _check_values(positions, multiplicities)
        radius = float(truncation_radius)
        if not math.isfinite(radius) or radius < 0:
            raise ValueError(f"truncation_radius must be finite and >= 0, got {radius!r}")
        # an array asarray made, owning its data, is this call's own
        owned = tuple(array is not arg and array.flags.owndata
                      for array, arg in zip((positions, multiplicities), given))
        pos, mult = _merge(positions, multiplicities, owned)
        pos.flags.writeable = mult.flags.writeable = False
        seq = object.__new__(cls)
        # a frozen dataclass takes its fields through __dict__
        seq.__dict__.update(positions=pos, multiplicities=mult, truncation_radius=radius,
                            provenance=provenance, shift_base=shift_base,
                            duplicate_merges=int(duplicate_merges) + positions.size - pos.size,
                            shift_offset=complex(shift_offset))
        if radius > 0 and seq.max_abs >= radius:
            raise ValueError(f"zero at |z| = {seq.max_abs} contradicts claimed completeness radius {radius}")
        return seq

    @cached_property
    def zeros(self) -> tuple[Zero, ...]:
        return tuple(Zero(p, int(m)) for p, m in zip(self.positions.tolist(), self.multiplicities.tolist()))

    @property
    def origin_excluded(self) -> bool:
        """Whether 0 is not a stored zero: by the (|a|, Re, Im) order, a
        stored origin (however its zero parts are signed) is positions[0]."""
        return not (len(self) and self.positions[0] == 0)

    @cached_property
    def all_real(self) -> bool:
        """Whether every stored zero lies on the real axis (Im a == 0)."""
        return not self.positions.imag.any()

    @cached_property
    def all_simple(self) -> bool:
        """Whether every stored multiplicity is 1."""
        return bool(np.all(self.multiplicities == 1.0))

    @cached_property
    def total_multiplicity(self) -> int:
        return int(self.multiplicities.sum())

    @cached_property
    def max_abs(self) -> float:
        """The largest |a| (np.hypot): the last position's, by the stored order."""
        last = self.positions[-1:]
        return float(np.hypot(last.real, last.imag).max(initial=0.0))

    def derived(self, build):
        """build(self), built on first use and kept in the instance's own
        __dict__, so it is dropped with the sequence: for data that depends
        on the zeros alone and is built once a sequence.  The value is one
        array or a tuple of arrays, each made read-only, so callers and
        threads share it; threads racing on a first use may each build, and
        every one gets the value stored first."""
        store = self.__dict__.setdefault("_derived", {})
        value = store.get(build)
        if value is None:
            value = build(self)
            for array in value if isinstance(value, tuple) else (value,):
                array.flags.writeable = False
            value = store.setdefault(build, value)
        return value

    def __len__(self) -> int:
        return len(self.positions)


@dataclass(frozen=True)
class ValidationReport:
    total_count: int
    max_radius: float
    has_origin_zero: bool
    duplicate_merges: int


_TOO_LARGE = "must be a finite number, got an integer too large for a double"


def _parse_float(token: str, line: int, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise SequenceFormatError(f"cannot parse {what} {token!r}", line) from None
    if not math.isfinite(value):
        raise SequenceFormatError(f"{what} must be finite, got {token!r}", line)
    return value


def _parse_mult(token: str, line: int) -> int:
    try:
        mult = int(token)
    except ValueError:
        raise SequenceFormatError(f"cannot parse multiplicity {token!r}", line) from None
    if mult < 1:
        raise SequenceFormatError(f"multiplicity must be >= 1, got {mult}", line)
    try:
        float(mult)
    except OverflowError:
        raise SequenceFormatError(f"multiplicity {_TOO_LARGE}", line) from None
    return mult


def _fill(size: int, blocks) -> tuple[np.ndarray, np.ndarray]:
    """Positions and multiplicities of the (re, im, mult) column blocks,
    written in turn into arrays of size entries, of which the filled prefix
    is returned; a block past size entries raises ValueError.  re and im are
    paired by assignment, which keeps every bit (re + 1j*im can flip a
    -0.0)."""
    positions, mult, rows = np.empty(size, dtype=np.complex128), np.empty(size), 0
    for re, im, m in blocks:
        block = slice(rows, rows + len(m))
        positions.real[block], positions.imag[block], mult[block] = re, im, m
        rows = block.stop
    return positions[:rows], mult[:rows]


def _columns(records) -> tuple[np.ndarray, np.ndarray]:
    """Positions and multiplicities of checked [re, im, mult] records."""
    return _fill(len(records), [np.asarray(records, dtype=np.float64).reshape(-1, 3).T])


def _radius_header(line: str, lineno: int) -> float:
    """The value of a comment-stripped `@` line, which must read `@radius <R>`."""
    parts = line.split()
    if parts[0] != "@radius":
        raise SequenceFormatError(f"unknown directive {parts[0]!r}; the only one is '@radius <R>'",
                                  lineno)
    if len(parts) != 2:
        raise SequenceFormatError("expected '@radius <R>'", lineno)
    radius = _parse_float(parts[1], lineno, "radius")
    if radius < 0:
        raise SequenceFormatError(f"radius must be >= 0, got {radius}", lineno)
    return radius


def _text_records(source: str) -> tuple[np.ndarray, np.ndarray, float]:
    """Line-by-line parse: the reference that names the first bad line."""
    radius = 0.0
    header = None
    records: list[tuple[float, float, int]] = []
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("@"):
            radius = _radius_header(line, lineno)
            if header is not None:
                raise SequenceFormatError(f"second '@radius' header; the first is on line {header}",
                                          lineno)
            header = lineno
            continue
        fields = line.split()
        if len(fields) != 3:
            raise SequenceFormatError(
                f"expected 're im multiplicity', got {len(fields)} fields", lineno
            )
        records.append((_parse_float(fields[0], lineno, "real part"),
                        _parse_float(fields[1], lineno, "imaginary part"),
                        _parse_mult(fields[2], lineno)))
    return *_columns(records), radius


# Line breaks of str.splitlines that np.loadtxt reads as field separators
# (a lone \r it rejects); text holding any of them goes to the line loop.
_LOADTXT_MISSES = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
# a line whose first non-blank character starts a record
_RECORD_LINE = re.compile(r"^[^\S\n]*[^\s#]", re.MULTILINE)
_TEXT_DTYPE = [("re", "f8"), ("im", "f8"), ("m", "i8")]
# characters, about, of text one np.loadtxt call parses; a chunk ends at a
# newline
_TEXT_CHUNK = 1 << 18


def _text_table(source: str) -> tuple[np.ndarray, np.ndarray, float] | None:
    """(positions, multiplicities, radius) parsed from text, values
    unchecked; None when the text needs the line loop, to name its bad line
    or to parse what np.loadtxt refuses (1_0, 20-digit multiplicities,
    non-ASCII digits).  np.loadtxt rounds floats as float() does, so the two
    paths agree bit for bit.  It parses the body, the text without its `@`
    line, in chunks of whole lines, each written straight into arrays sized
    by the line count."""
    if (any(c in source for c in _LOADTXT_MISSES)
            or source.count("\r") != source.count("\r\n")):
        return None
    # `@` lines are few: find each, parse it and cut it from the body
    radius = None
    starts, ends = [0], []
    at = source.find("@")
    while at >= 0:
        lo = source.rfind("\n", 0, at) + 1
        hi = source.find("\n", at)
        hi = len(source) if hi < 0 else hi
        line = source[lo:hi].split("#", 1)[0].strip()
        if line.startswith("@"):
            if radius is not None:
                return None
            try:
                radius = _radius_header(line, 0)
            except SequenceFormatError:  # the loop names the header's line
                return None
            ends.append(lo)
            starts.append(hi)
        at = source.find("@", hi)
    ends.append(len(source))

    def chunks():
        for start, end in zip(starts, ends):
            while start < end:
                stop = source.find("\n", min(start + _TEXT_CHUNK, end), end)
                stop = end if stop < 0 else stop + 1
                chunk = source[start:stop]
                start = stop
                if _RECORD_LINE.search(chunk):  # np.loadtxt warns on input with no records
                    table = np.loadtxt(io.StringIO(chunk), dtype=_TEXT_DTYPE, comments="#",
                                       ndmin=1)
                    yield table["re"], table["im"], table["m"]

    try:
        return *_fill(source.count("\n") + 1, chunks()), 0.0 if radius is None else radius
    except ValueError:
        return None


def _check_json_number(value, what: str) -> None:
    """Raise unless value is a JSON number (not a bool) a double holds finitely."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return
        except OverflowError:
            raise SequenceFormatError(f"{what} {_TOO_LARGE}") from None
    raise SequenceFormatError(f"{what} must be a finite number, got {value!r}")


def _json_records(source: str) -> tuple[np.ndarray, np.ndarray, float]:
    """Full json.loads and a record-by-record check: the reference that
    names the fault, the first bad zeros[i] among them."""
    try:
        payload = json.loads(source)
    except json.JSONDecodeError as exc:
        raise SequenceFormatError(f"invalid JSON: {exc.msg}", exc.lineno) from exc
    except ValueError as exc:  # an integer literal past int()'s digit limit
        raise SequenceFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise SequenceFormatError("top-level JSON value must be an object")
    radius = payload.get("radius", 0.0)
    _check_json_number(radius, "radius")
    records = payload.get("zeros", [])
    if not isinstance(records, list):
        raise SequenceFormatError("'zeros' must be an array of [re, im, mult] triples")
    for i, rec in enumerate(records):
        if not (isinstance(rec, list) and len(rec) == 3):
            raise SequenceFormatError(f"zeros[{i}] must be a [re, im, mult] triple")
        for label, v in zip(("re", "im", "multiplicity"), rec):
            _check_json_number(v, f"zeros[{i}].{label}")
        if int(rec[2]) != rec[2] or rec[2] < 1:
            raise SequenceFormatError(f"zeros[{i}] multiplicity must be a positive integer, got {rec[2]!r}")
    return *_columns(records), float(radius)


_JSON_BLANKS = b" \t\n\r"
# the bytes of JSON number tokens; json.loads reads text made of these,
# commas and blanks as ints and floats or not at all
_JSON_NUMBER_BYTES = b"0123456789+-.eE"
_BRACKETS_TO_BLANKS = bytes.maketrans(b"[]", b"  ")
# bytes, about, of the `zeros` array one json.loads call parses; a chunk
# ends at the comma after a record
_JSON_CHUNK = 1 << 18


def _json_table(source: str) -> tuple[np.ndarray, np.ndarray, float] | None:
    """(positions, multiplicities, radius) of a JSON object whose `zeros` is
    an array of number triples, parsed without a Python list per record,
    values unchecked; None when the input needs the record loop, to name
    its fault or to read another layout.

    The span from the first `[` to the last `]` must be the `zeros` array:
    the source with that span cut to `[]` must load as an object whose
    `zeros` is that empty list.  The span, blanks deleted, must read
    [[n,n,n],[n,n,n],...] where each n holds only number bytes: what is
    left after deleting them is rows of `[,,]` joined by `,`, and `],[`
    occurs rows - 1 times.  Then json.loads reads the span with its
    brackets blanked as flat lists of ints and floats, in chunks that end at
    the comma after a record, each written straight into arrays of rows
    records, and the chunks must hold 3 * rows numbers.  Every number is
    parsed by json.loads, so the bits are those of the full parse."""
    lo, hi = source.find("["), source.rfind("]")
    if lo < 0 or hi < lo:
        return None
    try:
        shell = json.loads(source[:lo] + "[]" + source[hi + 1:])
        body = source[lo:hi + 1].encode("ascii")
    except (ValueError, RecursionError):   # UnicodeEncodeError is a ValueError
        return None
    if not (isinstance(shell, dict) and isinstance(shell.get("zeros"), list)):
        return None
    radius = shell.get("radius", 0.0)
    try:
        _check_json_number(radius, "radius")
    except SequenceFormatError:
        return None
    compact = body.translate(None, _JSON_BLANKS)
    rows = compact.count(b"[") - 1
    if compact.translate(None, _JSON_NUMBER_BYTES) != b"[" + (b"[,,]," * rows)[:-1] + b"]":
        return None
    if rows and not (compact.startswith(b"[[") and compact.endswith(b"]]")
                     and compact.count(b"],[") == rows - 1):
        return None
    del compact  # free it before the arrays are made

    def chunks():
        start = 0
        while start < len(body):
            # end at the `,` after the first `]` past _JSON_CHUNK bytes: it parts two records
            stop = body.find(b",", body.find(b"]", min(start + _JSON_CHUNK, len(body) - 1)))
            stop = len(body) if stop < 0 else stop
            values = json.loads(b"[" + body[start:stop].translate(_BRACKETS_TO_BLANKS) + b"]")
            start = stop + 1
            yield np.array(values, dtype=np.float64).reshape(-1, 3).T

    try:
        positions, mult = _fill(rows, chunks())
    except (ValueError, OverflowError):
        return None
    return (positions, mult, float(radius)) if len(mult) == rows else None


def load_sequence(source: str, provenance: str = "") -> ZeroSequence:
    """Parse sequence-file content (text or JSON form) into a ZeroSequence.

    Text form: one `re im multiplicity` record per line (lines end where
    str.splitlines ends them), `#` comments, and at most one `@radius <R>`
    header.  JSON form: an object with fields `radius` and `zeros` (array of
    [re, im, mult]).  Equal positions are merged with summed multiplicities.
    Each form has one chunked reader, which parses without checking values
    and writes its bounded chunks straight into the two arrays; for JSON it
    reads an object whose only brackets are those of `zeros`.  from_arrays
    checks the values.  Input the reader refuses, or whose values
    from_arrays refuses, goes through the form's per-line or per-record
    loop, and a SequenceFormatError names the first bad 1-based line or
    zeros[i], or gives from_arrays' message.
    """
    if source.lstrip().startswith("{"):
        table, records = _json_table, _json_records
    else:
        table, records = _text_table, _text_records
    parsed = table(source)
    if parsed is not None:
        try:
            return ZeroSequence.from_arrays(*parsed, provenance)
        except ValueError:
            pass  # the loop names the bad line or record, if there is one
    parsed = records(source)
    try:
        return ZeroSequence.from_arrays(*parsed, provenance)
    except ValueError as exc:
        raise SequenceFormatError(str(exc)) from exc


# records a dump renders at a time
_DUMP_BLOCK = 1 << 14


def _render(seq: ZeroSequence, head: str, record: str, sep: str, tail: str) -> str:
    """head, the records joined by sep, and tail, joined once.  A record is
    record.format(re, im, m): floats by repr, which keeps every bit on
    reload, and multiplicities as the exact int of their float.  Blocks of
    _DUMP_BLOCK records are rendered from tolist() slices; an Im or
    multiplicity column whose bits are one value in a block is rendered
    once for the block."""
    pos, mults = seq.positions, seq.multiplicities
    out = [head]
    for lo in range(0, len(pos), _DUMP_BLOCK):
        block = slice(lo, lo + _DUMP_BLOCK)
        fields, columns = ["{}"], [map(repr, pos.real[block].tolist())]
        for values, text in ((pos.imag[block], repr), (mults[block], int)):
            bits = values.view(np.int64)
            if (bits == bits[0]).all():
                fields.append(str(text(values[0].item())))
            else:
                fields.append("{}")
                columns.append(map(text, values.tolist()))
        template = record.format(*fields)
        if lo:
            out.append(sep)
        if len(columns) == 1:
            before, after = template.split("{}")
            out += [before, (after + sep + before).join(columns[0]), after]
        else:
            out.append(sep.join(map(template.format, *columns)))
    out.append(tail)
    return "".join(out)


def dump_sequence(seq: ZeroSequence) -> str:
    """Render the text form; float repr keeps doubles bit-exact on reload."""
    head = f"# {seq.provenance}\n" if seq.provenance else ""
    return _render(seq, f"{head}@radius {seq.truncation_radius!r}\n", "{} {} {}\n", "", "")


def dump_sequence_json(seq: ZeroSequence) -> str:
    """Render the JSON form: the bytes json.dumps gives for {"radius": R,
    "zeros": [[re, im, m], ...]}, written without a list per record (json
    writes a finite float by float.__repr__ and an int by int.__repr__)."""
    return _render(seq, f'{{"radius": {seq.truncation_radius!r}, "zeros": [', "[{}, {}, {}]",
                   ", ", "]}")


def shift_origin(seq: ZeroSequence, c: complex) -> ZeroSequence:
    """Move the origin to c: every position a becomes a - c.

    The completeness radius shrinks by |c| (the largest disc still guaranteed
    complete) and far-rim zeros that land outside it are dropped, keeping the
    stored-inside-radius invariant.  Shift chains are recomputed from the
    original coordinates, so shifting by c and then by -c restores the
    surviving positions bit-exactly.
    """
    c = complex(c)
    if not cmath.isfinite(c):
        raise ValueError(f"shift c must be finite, got {c!r}")
    radius = seq.truncation_radius
    if radius > 0 and abs(c) >= radius:
        raise ValueError(
            f"shift magnitude {abs(c)} leaves no complete disc (radius {radius})"
        )
    base_pos, base_mult = seq.shift_base or (seq.positions, seq.multiplicities)
    offset = seq.shift_offset + c
    new_radius = radius - abs(c) if radius > 0 else 0.0
    moved, mult = base_pos - offset, base_mult
    if new_radius > 0:
        keep = np.hypot(moved.real, moved.imag) < new_radius
        if not keep.all():
            moved, mult = moved[keep], base_mult[keep]
    provenance = f"{seq.provenance}|shift({c})" if seq.provenance else f"shift({c})"
    return ZeroSequence.from_arrays(moved, mult, new_radius, provenance,
                                    shift_base=(base_pos, base_mult), shift_offset=offset)


def validate(seq: ZeroSequence) -> ValidationReport:
    """Reporting only: counts and flags consistent with the stored sequence."""
    return ValidationReport(
        total_count=len(seq),
        max_radius=seq.max_abs,
        has_origin_zero=not seq.origin_excluded,
        duplicate_merges=seq.duplicate_merges,
    )
