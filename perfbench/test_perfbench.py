"""Tests of the benchmark itself, on inputs small enough to run in seconds."""

import json
import math
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import run

run.import_library()

import workloads  # noqa: E402  (needs the library on sys.path)
from expozeros import SATISFIED, VIOLATED, Zero, ZeroSequence  # noqa: E402
from spans import Tracer  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

LATTICE_100 = workloads.CatalogEntry(
    "lattice", (("R", 100.0),), (SATISFIED, SATISFIED, VIOLATED), "small lattice")

SMALL = {
    "classify_catalog": workloads.ClassifyCatalog(catalog=(LATTICE_100,)),
    "product_eval": workloads.ProductEval(
        lattice_R=200.0, jensen_R=50.0, footnote_R=1e5, points=5, phi_points=4,
        jensen_points=2, jensen_nodes=256),
    "sequence_io": workloads.SequenceIO(R=200.0),
}


def small_run(name, trace=False, workload=None):
    return run.measure(workload or SMALL[name], seed=1, seconds=0, trace=trace,
                       import_seconds=lambda: 0.0)["result"]


def test_small_workloads_cover_every_benchmark_workload():
    assert set(SMALL) == set(workloads.WORKLOADS) == {w["name"] for w in BENCHMARK["workloads"]}


@pytest.mark.parametrize("name", sorted(SMALL))
@pytest.mark.parametrize("trace", [False, True])
def test_every_named_metric_is_emitted_with_its_unit(name, trace):
    result = small_run(name, trace)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def test_flipped_golden_verdict_is_a_failure():
    flipped = workloads.CatalogEntry(
        "lattice", (("R", 100.0),), (SATISFIED, SATISFIED, SATISFIED), "D flipped")
    result = small_run("classify_catalog", workload=workloads.ClassifyCatalog(catalog=(flipped,)))
    assert result["failed"] == 1 and not result["correct"]


def _nudged(seq):
    """seq with the first position moved by one unit in the last place."""
    zeros = list(seq.zeros)
    first = zeros[0].position
    zeros[0] = Zero(complex(np.nextafter(first.real, math.inf), first.imag), zeros[0].multiplicity)
    return ZeroSequence(tuple(zeros), seq.truncation_radius, seq.provenance, seq.duplicate_merges)


@pytest.mark.parametrize("call, expected", [("load_sequence", 3), ("shift_origin", 1)])
def test_corrupted_round_trip_is_a_failure(monkeypatch, call, expected):
    real = getattr(workloads, call)
    monkeypatch.setattr(workloads, call, lambda *args: _nudged(real(*args)))
    result = small_run("sequence_io")
    assert result["failed"] == expected and not result["correct"]


def test_wrong_jensen_residual_is_a_failure(monkeypatch):
    monkeypatch.setattr(workloads, "jensen_identity_check", lambda *args: 1e-3)
    result = small_run("product_eval")
    assert result["failed"] == 2 and not result["correct"]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_inputs_depend_only_on_the_seed(name):
    w = SMALL[name] if name != "classify_catalog" else workloads.ClassifyCatalog()
    assert w.digest(w.setup(7)) == w.digest(w.setup(7))
    assert w.digest(w.setup(7)) != w.digest(w.setup(8))


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    with tracer.span("bench.outer", op="op1"):
        time.sleep(0.02)
        with tracer.span("criteria.inner"):
            time.sleep(0.03)
    outer, = (s for s in tracer.spans if s.name == "bench.outer")
    inner, = (s for s in tracer.spans if s.name == "criteria.inner")
    assert inner.parent == outer.sid and inner.op == outer.op == "op1"
    self_times = tracer.self_times()
    assert self_times["criteria.inner"] == inner.duration
    assert self_times["bench.outer"] == pytest.approx(outer.duration - inner.duration)


def test_run_without_library_source_exits_without_result(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "traces"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sequence_io", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
