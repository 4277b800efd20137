"""The benchmark's three workloads.

Each workload makes its inputs from a seed (``setup``), runs one timed pass
through the library's public API (``run_pass``) and checks every output it
gets.  All three are closed-loop with one caller and pass ``threads=1``
wherever the library takes it.  A pass takes the same inputs every time, so
the work of a pass does not depend on how many passes a run makes.

Span names are ``<module>.<call>`` for library calls and ``bench.<step>``
for the benchmark's own operations; the work counts recorded beside them
are computed from input sizes, not measured.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import struct
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np
from spans import Checks

from expozeros import (
    INCONCLUSIVE,
    SATISFIED,
    VIOLATED,
    angular_density,
    build_generator,
    check_B,
    check_C,
    check_D,
    classify,
    dump_sequence,
    dump_sequence_json,
    evaluate_product,
    footnote_sequence,
    growth_check,
    integer_lattice,
    jensen_identity_check,
    lindelof_sums,
    load_sequence,
    log_modulus_via_counting,
    phi,
    phi_profile,
    shift_origin,
)
from expozeros.criteria import default_base_point, default_grid, default_x_max

# Tolerances of the checks.  LOG_MODULUS_TOL is the bound of the library's
# acceptance test 1.  The batch phi path documents ~1e-10 but sits near
# 1e-8 on 1e5 zeros; PHI_SANITY_TOL only catches gross breakage, and the
# actual error is reported as criteria.phi_batch_err.
LOG_MODULUS_TOL = 1e-9
JENSEN_TOL = 1e-6
PHI_SANITY_TOL = 1e-6

# classify's default grid density, which the traced decomposition repeats.
GRID_PER_OCTAVE = 24


def same_bits(a: float, b: float) -> bool:
    return struct.pack("<d", a) == struct.pack("<d", b)


def same_sequence(a, b) -> bool:
    """Positions, multiplicities and radius equal bit for bit."""
    return (
        a.positions.tobytes() == b.positions.tobytes()
        and a.multiplicities.tobytes() == b.multiplicities.tobytes()
        and same_bits(a.truncation_radius, b.truncation_radius)
    )


def digest(*parts) -> str:
    """sha256 of the inputs a seed produced (floats by their bits)."""
    h = hashlib.sha256()
    for part in parts:
        h.update(np.asarray(part).tobytes() if not isinstance(part, str) else part.encode())
    return h.hexdigest()


def _draw_points(rng, seq, n: int, draw, min_dist: float) -> np.ndarray:
    """n points from draw(rng), each at least min_dist from every zero."""
    pos = seq.positions
    out = []
    while len(out) < n:
        z = draw(rng)
        if float(np.abs(pos - z).min()) >= min_dist:
            out.append(z)
    return np.array(out)


# --- classify_catalog ----------------------------------------------------------

@dataclass(frozen=True)
class CatalogEntry:
    generator: str
    params: tuple[tuple[str, float], ...]
    verdicts: tuple[str, str, str]  # expected C, B, D verdicts from classify
    reason: str

    @property
    def label(self) -> str:
        args = ",".join(f"{k}={v:g}" for k, v in self.params)
        return f"{self.generator}({args})"


# Golden verdicts of classify with default arguments.  A flip is a failed
# check: it shows a kernel or grid change that moved a verdict.
GOLDEN = (
    CatalogEntry("lattice", (("R", 1e3),), (SATISFIED, SATISFIED, VIOLATED),
                 "sin(pi z)/(pi z) is bounded on the axis, but its base-1 integral "
                 "falls like -log|x| at the integers, so D grows ~log 2 per octave"),
    CatalogEntry("lattice", (("R", 4e3),), (SATISFIED, SATISFIED, VIOLATED),
                 "same function at four times the radius; verdicts must not depend on R"),
    CatalogEntry("scaled", (("h", 0.5), ("R", 1e3)), (SATISFIED, SATISFIED, VIOLATED),
                 "sin(2 pi z)/(2 pi z): the lattice rescaled, same real-axis behaviour"),
    CatalogEntry("alpha", (("c", 1.0), ("N", 1000)), (VIOLATED, VIOLATED, VIOLATED),
                 "density t + log(1+t) adds a growing surplus of zeros over the lattice; "
                 "the leading part of the counting integral grows, so every window trend fails"),
    CatalogEntry("footnote", (("R", 1e5),), (INCONCLUSIVE, VIOLATED, VIOLATED),
                 "one-sided density r/log^2 r: log|f(x)| >= 1 + x/(2 log x) breaks B and D; "
                 "at R = 1e5 the C windows decay too slowly to call"),
)

# "<base>-point grid ... augmented to <n> points": the grid sizes appear
# only in this text today.  A diagnostics field on CriterionReport is to
# replace this parse.
_GRID_SIZES = re.compile(r"^(\d+)-point grid .*augmented to (\d+) points")


@dataclass
class CatalogInputs:
    order: list[CatalogEntry]
    # label -> ClassifyReport of the last untraced pass, which the traced
    # decomposition must reproduce bit for bit
    reference: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ClassifyCatalog:
    """build_generator, classify and JSON serialisation of each catalog
    entry, in an order drawn from the seed."""

    name: ClassVar[str] = "classify_catalog"
    catalog: tuple[CatalogEntry, ...] = GOLDEN

    def setup(self, seed: int) -> CatalogInputs:
        rng = np.random.default_rng(seed)
        return CatalogInputs([self.catalog[i] for i in rng.permutation(len(self.catalog))])

    def digest(self, inputs: CatalogInputs) -> str:
        return digest(*(e.label for e in inputs.order))

    def run_pass(self, inputs: CatalogInputs, tracer, checks: Checks) -> None:
        for entry in inputs.order:
            with tracer.span("bench.classify_entry", op=entry.label):
                with tracer.span("catalog.build_generator"):
                    seq = build_generator(entry.generator, **dict(entry.params))
                tracer.count("catalog.zeros", len(seq))
                if tracer.enabled:
                    self._decomposed(seq, entry, inputs.reference.get(entry.label), tracer, checks)
                else:
                    report = classify(seq, threads=1)
                    decoded = json.loads(json.dumps(report.to_dict()))
                    got = tuple(decoded["criteria"][k]["verdict"] for k in ("C", "B", "D"))
                    checks.check(got == entry.verdicts,
                                 f"{entry.label} verdicts {got} != golden {entry.verdicts}")
                    inputs.reference[entry.label] = report

    @staticmethod
    def _decomposed(seq, entry: CatalogEntry, ref, tracer, checks: Checks) -> None:
        """The public calls classify makes, in its order, each in a span.
        The prerequisite radii are read back from the untraced report."""
        if ref is None:
            checks.check(False, f"{entry.label}: no untraced report to compare with")
            return
        with tracer.span("criteria.defaults"):
            b = default_base_point(seq)
            x_max = default_x_max(seq)
            xs = default_grid(x_max, GRID_PER_OCTAVE)
        with tracer.span("counting.lindelof_sums"):
            lindelof_sums(seq, ref.lindelof.radii)
        if ref.growth.sample_radii:
            with tracer.span("counting.growth_check"):
                growth_check(seq, ref.growth.sample_radii)
        # catalog sequences all carry a positive truncation radius, which is
        # the radius classify gives the sector densities
        for alpha, _ in ref.angular:
            with tracer.span("counting.angular_density"):
                angular_density(seq, alpha, seq.truncation_radius)
        with tracer.span("criteria.check_C"):
            rep_c = check_C(seq, b, x_max, grid=GRID_PER_OCTAVE, threads=1)
        with tracer.span("criteria.check_B"):
            rep_b = check_B(seq, b, xs, threads=1)
        with tracer.span("criteria.check_D"):
            rep_d = check_D(seq, xs, threads=1)
        with tracer.span("criteria.to_dict"):
            json.dumps([rep.to_dict() for rep in (rep_c, rep_b, rep_d)])
        for rep in (rep_c, rep_b, rep_d):
            want = ref.reports[rep.criterion].extremum_value
            checks.check(same_bits(rep.extremum_value, want),
                         f"{entry.label} {rep.criterion}: traced extremum {rep.extremum_value!r} "
                         f"!= classify's {want!r}")
        for rep in (rep_b, rep_d):
            sizes = _GRID_SIZES.match(rep.grid_description)
            checks.check(sizes is not None,
                         f"{entry.label} {rep.criterion}: grid sizes not found in "
                         f"{rep.grid_description!r}")
            if sizes:
                base, augmented = int(sizes[1]), int(sizes[2])
                tracer.count("criteria.grid_base_points", base)
                tracer.count("criteria.grid_aug_points", augmented)
                tracer.count("criteria.zero_points", len(seq) * augmented)


# --- product_eval --------------------------------------------------------------

# Product points lie in |z| <= POINT_SCALE, at least MIN_ZERO_DIST from every
# zero, as in the library's acceptance test 1.
POINT_SCALE = 10.0
MIN_ZERO_DIST = 0.01
# Where the footnote sequence's log-modulus must beat 1 + x/(2 log x).
FOOTNOTE_XS = (math.exp(3.0), 100.0, 1000.0)

@dataclass
class ProductInputs:
    lattice: object
    jensen_lattice: object
    footnote: object
    points: np.ndarray
    phi_base: float
    phi_xs: np.ndarray
    centres: np.ndarray


@dataclass(frozen=True)
class ProductEval:
    """Products and counting integrals at many points on prebuilt sequences.
    Grid augmentation is not used here."""

    name: ClassVar[str] = "product_eval"
    lattice_R: float = 5e4
    jensen_R: float = 1e4
    footnote_R: float = 1e6
    points: int = 100
    phi_points: int = 16
    jensen_points: int = 2
    jensen_nodes: int = 4096  # a power of two, so it is the node count used

    def setup(self, seed: int) -> ProductInputs:
        lattice = integer_lattice(self.lattice_R)
        jensen_lattice = integer_lattice(self.jensen_R)
        footnote = footnote_sequence(self.footnote_R)
        for seq in (lattice, jensen_lattice, footnote):
            seq.positions, seq.multiplicities  # finish lazy set-up before timing
        rng = np.random.default_rng(seed)

        def in_disc(rng):
            while True:
                z = complex(rng.uniform(-POINT_SCALE, POINT_SCALE),
                            rng.uniform(-POINT_SCALE, POINT_SCALE))
                if abs(z) <= POINT_SCALE:
                    return z

        points = _draw_points(rng, lattice, self.points, in_disc, MIN_ZERO_DIST)
        x_max = default_x_max(lattice)
        phi_xs = _draw_points(rng, lattice, self.phi_points,
                              lambda rng: rng.uniform(-x_max, x_max), MIN_ZERO_DIST).real
        # |Im| >= 1.5 keeps the unit circle 0.5 away from the real lattice
        centres = np.array([
            complex(rng.uniform(-5.0, 5.0), rng.choice((-1.0, 1.0)) * rng.uniform(1.5, 3.0))
            for _ in range(self.jensen_points)
        ])
        return ProductInputs(lattice, jensen_lattice, footnote, points,
                             default_base_point(lattice), phi_xs, centres)

    def digest(self, inputs: ProductInputs) -> str:
        return digest(inputs.points, inputs.phi_xs, inputs.centres, np.float64(inputs.phi_base))

    def run_pass(self, inputs: ProductInputs, tracer, checks: Checks) -> None:
        seq = inputs.lattice
        for k, z in enumerate(inputs.points):
            with tracer.span("bench.point", op=f"point{k}"):
                with tracer.span("product.evaluate_product"):
                    ev = evaluate_product(seq, z)
                with tracer.span("product.log_modulus_via_counting"):
                    counted = log_modulus_via_counting(seq, z)
                residual = abs(ev.value.log_magnitude - counted) / (1.0 + abs(counted))
                checks.check(residual <= LOG_MODULUS_TOL,
                             f"log-modulus scaled residual {residual:.3e} at z = {z}")
            tracer.count("product.evaluate_calls", 1)
            tracer.count("product.zero_points", 2 * len(seq))

        with tracer.span("bench.phi", op="phi"):
            b = inputs.phi_base
            with tracer.span("criteria.phi_profile"):
                prof = phi_profile(seq, b, inputs.phi_xs)
            with tracer.span("criteria.phi"):
                scalar = [phi(seq, b, x) for x in inputs.phi_xs]
            batch = [v for _, v in prof.samples]
            complete = len(batch) == len(scalar)
            err = max(abs(v - s) for v, s in zip(batch, scalar)) if complete else math.inf
            worst = max((abs(v - s) / (1.0 + abs(s)) for v, s in zip(batch, scalar)),
                        default=math.inf)
            checks.check(complete and worst <= PHI_SANITY_TOL,
                         f"phi_profile vs phi: {len(batch)}/{len(scalar)} samples, "
                         f"scaled error {worst:.3e}")
            tracer.maximum("criteria.phi_batch_err", err)

        for k, centre in enumerate(inputs.centres):
            with tracer.span("bench.jensen", op=f"jensen{k}"):
                with tracer.span("product.jensen_identity_check"):
                    residual = jensen_identity_check(inputs.jensen_lattice, centre,
                                                     self.jensen_nodes)
                checks.check(residual < JENSEN_TOL,
                             f"Jensen residual {residual:.3e} at centre {centre}")
            tracer.count("product.circle_zero_nodes",
                         len(inputs.jensen_lattice) * self.jensen_nodes)

        for x in FOOTNOTE_XS:
            with tracer.span("bench.footnote", op=f"footnote{x:g}"):
                with tracer.span("product.log_modulus_via_counting"):
                    value = log_modulus_via_counting(inputs.footnote, complex(x))
                bound = 1.0 + x / (2.0 * math.log(x))
                checks.check(value >= bound,
                             f"footnote log-modulus {value} below 1 + x/(2 log x) = {bound} "
                             f"at x = {x:g}")
            tracer.count("product.zero_points", len(inputs.footnote))


# --- sequence_io ---------------------------------------------------------------

@dataclass(frozen=True)
class SequenceInputs:
    R: float
    shift: complex


def _doubled_records(text: str) -> str:
    """The same sequence text with every zero record written twice."""
    lines = []
    for line in text.splitlines():
        lines.append(line)
        if line and line[0] not in "#@":
            lines.append(line)
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SequenceIO:
    """Build, text and JSON round trips, a duplicate-merging load and a shift
    round trip, all on in-memory strings."""

    name: ClassVar[str] = "sequence_io"
    R: float = 1e5

    def setup(self, seed: int) -> SequenceInputs:
        rng = np.random.default_rng(seed)
        return SequenceInputs(self.R, complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)))

    def digest(self, inputs: SequenceInputs) -> str:
        return digest(np.array([inputs.R]), np.array([inputs.shift]))

    def run_pass(self, inputs: SequenceInputs, tracer, checks: Checks) -> None:
        with tracer.span("bench.build", op="build"):
            with tracer.span("catalog.integer_lattice"):
                seq = integer_lattice(inputs.R)
            n = len(seq)
            checks.check(n == 2 * (math.ceil(inputs.R) - 1),
                         f"integer_lattice({inputs.R:g}) has {n} zeros")
        tracer.count("catalog.zeros", n)

        for form, dump in (("text", dump_sequence), ("json", dump_sequence_json)):
            with tracer.span(f"bench.{form}_round_trip", op=f"{form}_round_trip"):
                with tracer.span(f"zero_model.{dump.__name__}"):
                    written = dump(seq)
                with tracer.span("zero_model.load_sequence"):
                    back = load_sequence(written)
                checks.check(same_sequence(back, seq), f"{form} round trip lost bits")
                if form == "text":
                    text = written
            tracer.count("zero_model.records", 2 * n)

        with tracer.span("bench.duplicate_load", op="duplicate_load"):
            doubled = _doubled_records(text)
            with tracer.span("zero_model.load_sequence"):
                merged = load_sequence(doubled)
            checks.check(
                bool(np.all(merged.multiplicities == 2.0))
                and merged.duplicate_merges == n
                and merged.positions.tobytes() == seq.positions.tobytes(),
                f"doubled records: {merged.duplicate_merges} merges for {n} records",
            )
        tracer.count("zero_model.records", 2 * n)

        with tracer.span("bench.shift_round_trip", op="shift_round_trip"):
            c = inputs.shift
            with tracer.span("zero_model.shift_origin"):
                moved = shift_origin(seq, c)
            with tracer.span("zero_model.shift_origin"):
                back = shift_origin(moved, -c)
            # each shift shrinks the completeness radius by |c| and drops the
            # zeros outside it; the survivors must come back bit for bit
            radius = (seq.truncation_radius - abs(c)) - abs(c)
            kept = np.abs(seq.positions) < radius
            checks.check(
                same_bits(back.truncation_radius, radius)
                and back.positions.tobytes() == seq.positions[kept].tobytes()
                and back.multiplicities.tobytes() == seq.multiplicities[kept].tobytes(),
                f"shift round trip by {c} lost bits",
            )
        tracer.count("zero_model.records", 2 * n)


WORKLOADS = {w.name: w for w in (ClassifyCatalog(), ProductEval(), SequenceIO())}
