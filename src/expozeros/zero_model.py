"""Zero-sequence data model: positions with multiplicities, file I/O, origin shifts.

A sequence is stored as a canonically merged multiset: equal positions are
combined by summing multiplicities (exact coordinate equality, no epsilon),
and entries are sorted by (|position|, Re, Im).  That ordering is also the
truncation order used by the product module.
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


def _coerce_zero(entry) -> Zero:
    if isinstance(entry, Zero):
        return entry
    if isinstance(entry, tuple):
        return Zero(*entry)
    return Zero(entry)


@dataclass(frozen=True, eq=False)
class ZeroSequence:
    """Finite multiset of zeros plus completeness metadata.

    truncation_radius > 0 claims the stored list is complete inside
    |z| < truncation_radius; 0 means the sequence is exactly this finite set
    on all of the plane.  Instances are immutable and safe to share across
    threads.
    """

    zeros: tuple[Zero, ...]
    truncation_radius: float = 0.0
    provenance: str = ""
    duplicate_merges: int = 0
    # Chained shifts are recomputed from the original coordinates so that a
    # shift and its exact negation cancel bit-for-bit.
    shift_base: tuple[Zero, ...] | None = field(default=None, repr=False)
    shift_offset: complex = field(default=0j, repr=False)

    def __post_init__(self):
        merged: dict[complex, int] = {}
        merges = 0
        for entry in self.zeros:
            z = _coerce_zero(entry)
            if z.position in merged:
                merged[z.position] += z.multiplicity
                merges += 1
            else:
                merged[z.position] = z.multiplicity
        items = sorted(merged.items(), key=lambda it: (abs(it[0]), it[0].real, it[0].imag))
        radius = float(self.truncation_radius)
        if not math.isfinite(radius) or radius < 0:
            raise ValueError(f"truncation_radius must be finite and >= 0, got {radius!r}")
        if radius > 0 and items:
            worst = max(abs(p) for p, _ in items)
            if worst >= radius:
                raise ValueError(
                    f"zero at |z| = {worst} contradicts claimed completeness radius {radius}"
                )
        object.__setattr__(self, "zeros", tuple(Zero(p, m) for p, m in items))
        object.__setattr__(self, "truncation_radius", radius)
        object.__setattr__(self, "duplicate_merges", int(self.duplicate_merges) + merges)

    @cached_property
    def positions(self) -> np.ndarray:
        return np.array([z.position for z in self.zeros], dtype=np.complex128)

    @cached_property
    def multiplicities(self) -> np.ndarray:
        return np.array([z.multiplicity for z in self.zeros], dtype=np.float64)

    @property
    def origin_excluded(self) -> bool:
        return not np.any(self.positions == 0)

    @property
    def total_multiplicity(self) -> int:
        return int(self.multiplicities.sum())

    @property
    def max_abs(self) -> float:
        return max((abs(z.position) for z in self.zeros), default=0.0)

    def __len__(self) -> int:
        return len(self.zeros)


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


def _load_text(source: str, provenance: str) -> ZeroSequence:
    radius = 0.0
    zeros: list[Zero] = []
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
        re = _parse_float(fields[0], lineno, "real part")
        im = _parse_float(fields[1], lineno, "imaginary part")
        mult = _parse_mult(fields[2], lineno)
        zeros.append(Zero(complex(re, im), mult))
    try:
        return ZeroSequence(tuple(zeros), truncation_radius=radius, provenance=provenance)
    except ValueError as exc:
        raise SequenceFormatError(str(exc)) from exc


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
    zeros: list[Zero] = []
    for i, rec in enumerate(records):
        if not (isinstance(rec, list) and len(rec) == 3):
            raise SequenceFormatError(f"zeros[{i}] must be a [re, im, mult] triple")
        re, im, mult = rec
        for label, v in (("re", re), ("im", im)):
            if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
                raise SequenceFormatError(f"zeros[{i}].{label} must be a finite number, got {v!r}")
        if isinstance(mult, bool) or not isinstance(mult, (int, float)) or int(mult) != mult or mult < 1:
            raise SequenceFormatError(f"zeros[{i}] multiplicity must be a positive integer, got {mult!r}")
        zeros.append(Zero(complex(re, im), int(mult)))
    try:
        return ZeroSequence(tuple(zeros), truncation_radius=float(radius), provenance=provenance)
    except ValueError as exc:
        raise SequenceFormatError(str(exc)) from exc


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


def dump_sequence(seq: ZeroSequence) -> str:
    """Render the text form; float repr keeps doubles bit-exact on reload."""
    lines = []
    if seq.provenance:
        lines.append(f"# {seq.provenance}")
    lines.append(f"@radius {seq.truncation_radius!r}")
    for z in seq.zeros:
        lines.append(f"{z.position.real!r} {z.position.imag!r} {z.multiplicity}")
    return "\n".join(lines) + "\n"


def dump_sequence_json(seq: ZeroSequence) -> str:
    payload = {
        "radius": seq.truncation_radius,
        "zeros": [[z.position.real, z.position.imag, z.multiplicity] for z in seq.zeros],
    }
    return json.dumps(payload)


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
    base = seq.shift_base if seq.shift_base is not None else seq.zeros
    offset = seq.shift_offset + c
    new_radius = radius - abs(c) if radius > 0 else 0.0
    shifted = tuple(
        Zero(z.position - offset, z.multiplicity)
        for z in base
        if new_radius == 0.0 or abs(z.position - offset) < new_radius
    )
    return ZeroSequence(
        shifted,
        truncation_radius=new_radius,
        provenance=f"{seq.provenance}|shift({c})" if seq.provenance else f"shift({c})",
        shift_base=base,
        shift_offset=offset,
    )


def validate(seq: ZeroSequence) -> ValidationReport:
    """Reporting only: counts and flags consistent with the stored sequence."""
    return ValidationReport(
        total_count=len(seq.zeros),
        max_radius=seq.max_abs,
        has_origin_zero=not seq.origin_excluded,
        duplicate_merges=seq.duplicate_merges,
    )
