"""Command-line front end.

Subcommands: classify, eval, identity-check, phi-profile, reproduce.
Verdicts are data, not errors: only input problems (exit 2) and reproduce
assertion failures (exit 1) change the exit code.  Numbers are printed with
17 significant digits so every double round-trips; runs are deterministic
for a fixed --seed.  Set EXPOZEROS_LOG=DEBUG|INFO|... for progress logging.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import catalog, criteria, product, zero_model
from .counting import log_potential
from .criteria import default_base_point, default_x_max
from .product import (
    circle_average,
    derivative_at_multiple_zero,
    evaluate_product,
    finite_difference_log_derivative,
    jensen_counting_side,
    log_modulus_via_counting,
    tail_correction,
)
from .zero_model import SequenceFormatError, load_sequence

LOG = logging.getLogger("expozeros")

E_CUBED = math.exp(3.0)


class CLIError(Exception):
    """Input/configuration problem: maps to exit status 2."""


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _sanitize(obj):
    """Make a payload strict-JSON safe: non-finite floats become strings
    ('-inf', 'inf', 'nan'), complex values become [re, im] pairs."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _sanitize(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, complex):
        return [_sanitize(obj.real), _sanitize(obj.imag)]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return _sanitize(obj.item())
    if isinstance(obj, float) and not math.isfinite(obj):
        return "nan" if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    return obj


def _finite_float(text: str) -> float:
    """A finite float; the argparse type of every float flag."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _parse_gen(spec: str) -> tuple[str, dict]:
    parts = spec.split(",")
    name = parts[0].strip()
    params: dict = {}
    for item in parts[1:]:
        if "=" not in item:
            raise CLIError(f"generator parameter {item!r} must look like key=value")
        key, raw = item.split("=", 1)
        try:
            params[key.strip()] = _finite_float(raw)
        except argparse.ArgumentTypeError:
            raise CLIError(f"generator parameter {item!r} needs a finite number") from None
    return name, params


def _build_sequence(args) -> zero_model.ZeroSequence:
    if (args.gen is None) == (args.file is None):
        raise CLIError("exactly one sequence source is required: --gen or --file")
    if args.file is not None:
        path = Path(args.file)
        try:
            text = path.read_text()
        except OSError as exc:
            raise CLIError(f"cannot read {path}: {exc}") from exc
        try:
            return load_sequence(text, provenance=f"file:{path}")
        except SequenceFormatError as exc:
            raise CLIError(f"{path}: {exc}") from exc
    name, params = _parse_gen(args.gen)
    if args.R is not None:
        params["R"] = args.R
    try:
        return catalog.build_generator(name, **params)
    except (TypeError, ValueError) as exc:
        raise CLIError(f"generator {args.gen!r}: {exc}") from exc


def _emit(args, payload: dict, rows: list[dict], fieldnames: list[str],
          comments: list[str] = ()) -> None:
    if args.format == "json":
        text = json.dumps(_sanitize(payload), indent=2) + "\n"
    else:
        buf = io.StringIO()
        for line in comments:
            buf.write(f"# {line}\n")
        writer = csv.writer(buf)
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_fmt(row[k]) for k in fieldnames])
        text = buf.getvalue()
    if args.output:
        Path(args.output).write_text(text)
        LOG.info("wrote %s", args.output)
    else:
        sys.stdout.write(text)


def _draw_points(rng, seq, count: int, scale: float, min_dist: float = 0.01) -> list[complex]:
    points = []
    pos = seq.positions
    attempts = 0
    while len(points) < count and attempts < 1000 * count:
        attempts += 1
        z = complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))
        if abs(z) > scale:
            continue
        if pos.size and float(np.abs(pos - z).min()) < min_dist:
            continue
        points.append(z)
    if len(points) < count:
        raise CLIError("could not sample evaluation points away from the zero set")
    return points


# --- subcommands --------------------------------------------------------------

def run_classify(args) -> int:
    seq = _build_sequence(args)
    LOG.info("classify: %d zeros, radius %g", len(seq), seq.truncation_radius)
    extra = {}
    if args.alpha:
        extra["alphas"] = tuple(args.alpha)
    report = criteria.classify(
        seq,
        b=args.b,
        x_max=args.x_max,
        grid=args.grid,
        sigma=args.sigma,
        threads=args.threads,
        **extra,
    )
    rows = []
    for name, rep in report.reports.items():
        rows.append({
            "criterion": name,
            "verdict": rep.verdict,
            "witness": rep.witness if rep.witness is not None else math.nan,
            "extremum_value": rep.extremum_value,
            "trend_slope": rep.trend_slope if rep.trend_slope is not None else math.nan,
            "truncation_radius": rep.truncation_radius,
            "tail_error_bound": rep.tail_error_bound,
        })
    payload = {
        "command": "classify",
        "config": _config_dict(args),
        "report": report.to_dict(),
    }
    comments = [
        f"provenance: {report.provenance}",
        f"lindelof converged: {report.lindelof.converged}",
        f"consistency: {'; '.join(report.consistency_notes) or 'ok'}",
    ]
    _emit(args, payload, rows, list(rows[0].keys()), comments)
    return 0


def run_eval(args) -> int:
    seq = _build_sequence(args)
    if args.points:
        zs = []
        for tok in args.points.split(";"):
            try:
                re_s, im_s = tok.split(",")
                zs.append(complex(_finite_float(re_s), _finite_float(im_s)))
            except (ValueError, argparse.ArgumentTypeError):
                raise CLIError(f"point {tok!r} must look like 're,im' with finite numbers") from None
    else:
        span = args.x_max if args.x_max is not None else default_x_max(seq)
        zs = [complex(x, 0.0) for x in np.linspace(-span, span, args.grid + 1)]
    eval_radius = args.eval_radius
    rows = []
    for z in zs:
        pe = evaluate_product(seq, z, eval_radius)
        logmod = pe.value.log_magnitude
        arg = pe.value.argument
        tail_re = tail_im = tail_bound = 0.0
        if eval_radius is not None:
            corr = tail_correction(seq, z, eval_radius)
            tail_re = corr.log_correction.real
            tail_im = corr.log_correction.imag
            tail_bound = corr.second_order_bound
            if args.tail_correct and math.isfinite(logmod):
                logmod += tail_re
                arg = product.wrap_angle(arg + tail_im)
        rows.append({
            "re": z.real, "im": z.imag,
            "log_modulus": logmod, "argument": arg,
            "factor_count": pe.factor_count, "tail_flag": pe.tail_flag,
            "tail_log_re": tail_re, "tail_log_im": tail_im,
            "tail_second_order_bound": tail_bound,
        })
    payload = {"command": "eval", "config": _config_dict(args), "rows": rows}
    _emit(args, payload, rows, list(rows[0].keys()))
    return 0


def run_identity_check(args) -> int:
    seq = _build_sequence(args)
    rng = np.random.default_rng(args.seed)
    R = seq.truncation_radius
    scale = min(10.0, R / 4.0) if R > 0 else max(4.0, seq.max_abs / 2.0 + 1.0)
    rows = []
    residuals = []

    for z in _draw_points(rng, seq, args.count, scale):
        pe = evaluate_product(seq, z)
        cs = log_modulus_via_counting(seq, z)
        resid = abs(pe.value.log_magnitude - cs)
        residuals.append(resid)
        rows.append({
            "kind": "log_modulus", "re": z.real, "im": z.imag,
            "lhs": pe.value.log_magnitude, "rhs": cs, "residual": resid, "note": "",
        })

    first_zeros = seq.positions[:3]
    for z in first_zeros:
        pe = evaluate_product(seq, complex(z))
        cs = log_modulus_via_counting(seq, complex(z))
        exact = pe.value.log_magnitude == cs == -math.inf
        rows.append({
            "kind": "log_modulus", "re": z.real, "im": z.imag,
            "lhs": pe.value.log_magnitude, "rhs": cs, "residual": 0.0,
            "note": "exact-match-at-zero" if exact else "mismatch-at-zero",
        })

    for z in _draw_points(rng, seq, args.jensen_count, min(scale, 3.0), min_dist=0.0):
        left = circle_average(seq, z, 1.0, args.nodes)
        right = jensen_counting_side(seq, z)
        resid = abs(left - right)
        residuals.append(resid)
        rows.append({
            "kind": "jensen", "re": z.real, "im": z.imag,
            "lhs": left, "rhs": right, "residual": resid, "note": f"nodes={args.nodes}",
        })

    multi = seq.multiplicities >= 2
    for z, m in zip(seq.positions[multi][:5].tolist(), seq.multiplicities[multi][:5].tolist()):
        counting = derivative_at_multiple_zero(seq, z)
        oracle = finite_difference_log_derivative(seq, z)
        resid = abs(counting - oracle)
        residuals.append(resid)
        rows.append({
            "kind": "multiple_zero", "re": z.real, "im": z.imag,
            "lhs": counting, "rhs": oracle, "residual": resid,
            "note": f"multiplicity={int(m)}",
        })

    max_residual = max(residuals) if residuals else 0.0
    payload = {
        "command": "identity-check",
        "config": _config_dict(args),
        "rows": rows,
        "summary": {"max_residual": max_residual, "checks": len(rows)},
    }
    _emit(args, payload, rows, ["kind", "re", "im", "lhs", "rhs", "residual", "note"],
          [f"max_residual = {_fmt(max_residual)}"])
    return 0


def run_phi_profile(args) -> int:
    seq = _build_sequence(args)
    b = args.b if args.b is not None else default_base_point(seq)
    span = args.x_max if args.x_max is not None else default_x_max(seq)
    xs = np.linspace(-span, span, args.grid + 1)
    phi_vals = log_potential(seq, xs, b, threads=args.threads)
    d_vals = log_potential(seq, xs, 0.0, 1.0, threads=args.threads)
    rows = [
        {"x": float(x), "phi": float(p), "d_integrand": float(q)}
        for x, p, q in zip(xs, phi_vals, d_vals)
    ]
    payload = {
        "command": "phi-profile",
        "config": _config_dict(args),
        "base_point": b,
        "rows": rows,
    }
    _emit(args, payload, rows, ["x", "phi", "d_integrand"], [f"base point b = {_fmt(b)}"])
    return 0


def run_reproduce(args) -> int:
    if args.target == "footnote":
        return _reproduce_footnote(args)
    return _reproduce_alpha(args)


def _reproduce_footnote(args) -> int:
    R = args.R if args.R is not None else 1e6
    seq = catalog.footnote_sequence(R)
    xs = args.x if args.x else [E_CUBED, 100.0, 1000.0]
    if min(xs) <= 1.0:
        # the bound 1 + x / (2 log x) needs log x > 0
        raise CLIError(f"footnote points need x > 1, got --x {_fmt(min(xs))}")
    rows = []
    failed = None
    for x in xs:
        computed = log_modulus_via_counting(seq, complex(x))
        bound = 1.0 + x / (2.0 * math.log(x))
        ok = computed >= bound
        rows.append({"x": x, "computed_log_modulus": computed, "bound": bound, "ok": ok})
        if not ok and failed is None:
            failed = rows[-1]
    payload = {
        "command": "reproduce", "target": "footnote",
        "config": _config_dict(args), "rows": rows,
        "summary": {"all_ok": failed is None, "zeros": len(seq), "R": R},
    }
    _emit(args, payload, rows, ["x", "computed_log_modulus", "bound", "ok"],
          [f"R = {_fmt(R)}, zeros = {len(seq)}"])
    if failed is not None:
        print(f"reproduce footnote: FAILED at x = {_fmt(failed['x'])}: "
              f"computed {_fmt(failed['computed_log_modulus'])} < bound {_fmt(failed['bound'])}",
              file=sys.stderr)
        return 1
    return 0


def _reproduce_alpha(args) -> int:
    spec = catalog.AlphaSpec(c=args.c)
    xs = args.x if args.x else [100.0, 1000.0, 10000.0]
    lower_bound = -(spec.c * math.pi ** 2 / 4.0 + 0.05)
    rows = []
    failed = None
    prev_first = -math.inf
    for x in xs:
        t_max = max(1e5, 20.0 * x)
        dec = catalog.int_decomposition(spec, x, t_max)
        ok = dec.third >= 0.0 and dec.second >= lower_bound and dec.first > prev_first
        rows.append({
            "x": x, "first": dec.first, "second": dec.second, "third": dec.third,
            "second_lower_bound": lower_bound, "ok": ok,
        })
        if not ok and failed is None:
            failed = rows[-1]
        prev_first = dec.first
    ratio = rows[1]["first"] / rows[0]["first"] if len(rows) > 1 and rows[0]["first"] else math.nan
    payload = {
        "command": "reproduce", "target": "alpha-example",
        "config": _config_dict(args), "rows": rows,
        "summary": {"all_ok": failed is None, "first_ratio_12": ratio, "c": spec.c},
    }
    _emit(args, payload, rows,
          ["x", "first", "second", "third", "second_lower_bound", "ok"],
          [f"c = {_fmt(spec.c)}"])
    if failed is not None:
        print(f"reproduce alpha-example: FAILED at x = {_fmt(failed['x'])}: {failed}",
              file=sys.stderr)
        return 1
    return 0


# --- argument plumbing ---------------------------------------------------------

def _config_dict(args) -> dict:
    skip = {"func"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _add_source_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gen", help="generator spec, e.g. 'lattice,R=1e4' or 'alpha,c=1,N=100000'")
    p.add_argument("--file", help="sequence file path (text or JSON format)")
    p.add_argument("--R", type=_finite_float, default=None, help="generator radius override")


def _add_output_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output", default=None, help="output file (default: stdout)")


def _add_span_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--x-max", dest="x_max", type=_finite_float, default=None,
                   help="real-axis span (default: truncation radius / 4)")
    p.add_argument("--grid", type=int, default=64, help="grid density")


def _add_potential_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--b", type=_finite_float, default=None, help="real base point (default: picked off the zero set)")
    p.add_argument("--threads", type=int, default=1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expozeros",
        description="Canonical products and zero-counting criteria for "
                    "entire functions of exponential type",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="run prerequisite estimates and the three class criteria")
    _add_source_options(p)
    _add_span_options(p)
    _add_potential_options(p)
    _add_output_options(p)
    p.add_argument("--sigma", type=_finite_float, default=None, help="also check the type bound against sigma")
    p.add_argument("--alpha", type=_finite_float, action="append", default=None,
                   help="sector half-angle for the density estimates, in (0, pi/2] (repeatable)")
    p.set_defaults(func=run_classify, grid=24)

    p = sub.add_parser("eval", help="evaluate the canonical product")
    _add_source_options(p)
    _add_span_options(p)
    _add_output_options(p)
    p.add_argument("--tail-correct", dest="tail_correct", action="store_true",
                   help="apply the first-order product tail correction instead of only reporting it")
    p.add_argument("--points", help="explicit points 're,im;re,im;...' (default: real-axis sweep)")
    p.add_argument("--eval-radius", dest="eval_radius", type=_finite_float, default=None,
                   help="product truncation radius (default: whole stored sequence)")
    p.set_defaults(func=run_eval)

    p = sub.add_parser("identity-check", help="product-vs-counting residual table")
    _add_source_options(p)
    _add_output_options(p)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--count", type=int, default=100, help="number of random evaluation points")
    p.add_argument("--jensen-count", dest="jensen_count", type=int, default=5)
    p.add_argument("--nodes", type=int, default=4096, help="circle-average quadrature nodes")
    p.set_defaults(func=run_identity_check)

    p = sub.add_parser("phi-profile", help="plot-friendly profile of the counting integrals")
    _add_source_options(p)
    _add_span_options(p)
    _add_potential_options(p)
    _add_output_options(p)
    p.set_defaults(func=run_phi_profile, grid=512)

    p = sub.add_parser("reproduce", help="rebuild one of the two explicit constructions")
    p.add_argument("target", choices=("footnote", "alpha-example"))
    p.add_argument("--R", type=_finite_float, default=None, help="footnote truncation radius (default 1e6)")
    p.add_argument("--c", type=_finite_float, default=1.0, help="alpha coefficient")
    p.add_argument("--x", type=_finite_float, action="append", default=None,
                   help="evaluation point (repeatable)")
    _add_output_options(p)
    p.set_defaults(func=run_reproduce)

    return parser


def main(argv=None) -> int:
    level = os.environ.get("EXPOZEROS_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(name)s %(levelname)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for flag, least in (("threads", 1), ("grid", 1), ("count", 0), ("jensen_count", 0)):
            value = getattr(args, flag, least)
            if value < least:
                raise CLIError(f"--{flag.replace('_', '-')} must be >= {least}, got {value}")
        return args.func(args)
    except (CLIError, ValueError, OSError) as exc:
        # a library ValueError here comes from a flag value it rejects
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
