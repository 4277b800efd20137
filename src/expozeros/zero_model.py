"""Zero-sequence data model: positions with multiplicities, file I/O, origin shifts.

A sequence is stored as a canonically merged multiset in two read-only
arrays: equal positions are combined by summing multiplicities (exact
coordinate equality, no epsilon), and entries are sorted by (|position|, Re,
Im).  That ordering is also the truncation order used by the product module.
Every producer builds through ZeroSequence.from_arrays.
"""

from __future__ import annotations

import json
import math
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


def _merge(positions: np.ndarray, multiplicities: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort by (|a|, Re, Im) and sum the multiplicities of equal positions.
    |a| is np.hypot: it matches Python's abs(complex) bit for bit, np.abs does
    not and would reorder near ties.  The sort is stable, so a run of equal
    positions keeps its first spelling (0.0 or -0.0), as a dict would."""
    order = np.lexsort((positions.imag, positions.real, np.hypot(positions.real, positions.imag)))
    pos = positions[order]
    # a run starts wherever a position differs from its left neighbour; the
    # slice drops the lone start that an empty input would otherwise get
    starts = np.flatnonzero(np.concatenate(([True], pos[1:] != pos[:-1])))[: pos.size]
    return pos[starts], np.add.reduceat(multiplicities[order], starts)


@dataclass(frozen=True, eq=False, init=False)
class ZeroSequence:
    """Finite multiset of zeros plus completeness metadata.

    positions (complex128) and multiplicities (float64) are merged, sorted
    and read-only; `zeros` views them as Zero objects, built on first access.
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
        positions = np.asarray(positions, dtype=np.complex128)
        multiplicities = np.asarray(multiplicities, dtype=np.float64)
        if positions.ndim != 1 or positions.shape != multiplicities.shape:
            raise ValueError(f"need 1-D arrays of one length, got {positions.shape}, {multiplicities.shape}")
        if not np.all(np.isfinite(positions)):
            raise ValueError("zero positions must be finite")
        if not np.all(np.isfinite(multiplicities) & (multiplicities >= 1)
                      & (multiplicities == np.floor(multiplicities))):
            raise ValueError("multiplicities must be positive integers")
        radius = float(truncation_radius)
        if not math.isfinite(radius) or radius < 0:
            raise ValueError(f"truncation_radius must be finite and >= 0, got {radius!r}")
        pos, mult = _merge(positions, multiplicities)
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
        return not np.any(self.positions == 0)

    @property
    def total_multiplicity(self) -> int:
        return int(self.multiplicities.sum())

    @property
    def max_abs(self) -> float:
        return float(np.hypot(self.positions.real, self.positions.imag).max(initial=0.0))

    def __len__(self) -> int:
        return len(self.positions)


@dataclass(frozen=True)
class ValidationReport:
    total_count: int
    max_radius: float
    has_origin_zero: bool
    duplicate_merges: int


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
    return mult


def _from_records(records, radius: float, provenance: str) -> ZeroSequence:
    """Checked [re, im, mult] records as a sequence; re and im are paired
    through a float view, which keeps every bit (re + 1j*im can flip a -0.0)."""
    table = np.array(records, dtype=np.float64).reshape(-1, 3)
    positions = np.ascontiguousarray(table[:, :2]).view(np.complex128)[:, 0]
    try:
        return ZeroSequence.from_arrays(positions, table[:, 2], radius, provenance)
    except ValueError as exc:
        raise SequenceFormatError(str(exc)) from exc


def _load_text(source: str, provenance: str) -> ZeroSequence:
    radius = 0.0
    records: list[tuple[float, float, int]] = []
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("@radius"):
            parts = line.split()
            if len(parts) != 2:
                raise SequenceFormatError("expected '@radius <R>'", lineno)
            radius = _parse_float(parts[1], lineno, "radius")
            if radius < 0:
                raise SequenceFormatError(f"radius must be >= 0, got {radius}", lineno)
            continue
        fields = line.split()
        if len(fields) != 3:
            raise SequenceFormatError(
                f"expected 're im multiplicity', got {len(fields)} fields", lineno
            )
        records.append((_parse_float(fields[0], lineno, "real part"),
                        _parse_float(fields[1], lineno, "imaginary part"),
                        _parse_mult(fields[2], lineno)))
    return _from_records(records, radius, provenance)


def _load_json(source: str, provenance: str) -> ZeroSequence:
    try:
        payload = json.loads(source)
    except json.JSONDecodeError as exc:
        raise SequenceFormatError(f"invalid JSON: {exc.msg}", exc.lineno) from exc
    if not isinstance(payload, dict):
        raise SequenceFormatError("top-level JSON value must be an object")
    radius = payload.get("radius", 0.0)
    if not isinstance(radius, (int, float)) or isinstance(radius, bool) or not math.isfinite(radius):
        raise SequenceFormatError(f"radius must be a finite number, got {radius!r}")
    records = payload.get("zeros", [])
    if not isinstance(records, list):
        raise SequenceFormatError("'zeros' must be an array of [re, im, mult] triples")
    for i, rec in enumerate(records):
        if not (isinstance(rec, list) and len(rec) == 3):
            raise SequenceFormatError(f"zeros[{i}] must be a [re, im, mult] triple")
        for label, v in zip(("re", "im", "multiplicity"), rec):
            if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
                raise SequenceFormatError(f"zeros[{i}].{label} must be a finite number, got {v!r}")
        if int(rec[2]) != rec[2] or rec[2] < 1:
            raise SequenceFormatError(f"zeros[{i}] multiplicity must be a positive integer, got {rec[2]!r}")
    return _from_records(records, float(radius), provenance)


def load_sequence(source: str, provenance: str = "") -> ZeroSequence:
    """Parse sequence-file content (text or JSON form) into a ZeroSequence.

    Text form: one `re im multiplicity` record per line, `#` comments, and an
    optional `@radius <R>` header.  JSON form: an object with fields `radius`
    and `zeros` (array of [re, im, mult]).  Equal positions are merged with
    summed multiplicities.
    """
    if source.lstrip().startswith("{"):
        return _load_json(source, provenance)
    return _load_text(source, provenance)


def _records(seq: ZeroSequence):
    """(re, im, multiplicity) as Python floats and ints, for exact reprs."""
    pos = seq.positions
    return zip(pos.real.tolist(), pos.imag.tolist(), seq.multiplicities.astype(np.int64).tolist())


def dump_sequence(seq: ZeroSequence) -> str:
    """Render the text form; float repr keeps doubles bit-exact on reload."""
    lines = []
    if seq.provenance:
        lines.append(f"# {seq.provenance}")
    lines.append(f"@radius {seq.truncation_radius!r}")
    lines.extend(f"{re!r} {im!r} {m}" for re, im, m in _records(seq))
    return "\n".join(lines) + "\n"


def dump_sequence_json(seq: ZeroSequence) -> str:
    return json.dumps({"radius": seq.truncation_radius,
                       "zeros": [[re, im, m] for re, im, m in _records(seq)]})


def shift_origin(seq: ZeroSequence, c: complex) -> ZeroSequence:
    """Move the origin to c: every position a becomes a - c.

    The completeness radius shrinks by |c| (the largest disc still guaranteed
    complete) and far-rim zeros that land outside it are dropped, keeping the
    stored-inside-radius invariant.  Shift chains are recomputed from the
    original coordinates, so shifting by c and then by -c restores the
    surviving positions bit-exactly.
    """
    c = complex(c)
    radius = seq.truncation_radius
    if radius > 0 and abs(c) >= radius:
        raise ValueError(
            f"shift magnitude {abs(c)} leaves no complete disc (radius {radius})"
        )
    base_pos, base_mult = seq.shift_base or (seq.positions, seq.multiplicities)
    offset = seq.shift_offset + c
    new_radius = radius - abs(c) if radius > 0 else 0.0
    moved = base_pos - offset
    keep = np.hypot(moved.real, moved.imag) < new_radius if new_radius > 0 else slice(None)
    provenance = f"{seq.provenance}|shift({c})" if seq.provenance else f"shift({c})"
    return ZeroSequence.from_arrays(moved[keep], base_mult[keep], new_radius, provenance,
                                    shift_base=(base_pos, base_mult), shift_offset=offset)


def validate(seq: ZeroSequence) -> ValidationReport:
    """Reporting only: counts and flags consistent with the stored sequence."""
    return ValidationReport(
        total_count=len(seq),
        max_radius=seq.max_abs,
        has_origin_zero=not seq.origin_excluded,
        duplicate_merges=seq.duplicate_merges,
    )
