"""Tests of the benchmark itself, on shrunken inputs.

    python3 -m pytest perfbench/tests -q

Run from the root of a brickir checkout.
"""

import dataclasses
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL = workloads.Scale(programs=8, shard=4, walls=1, wall_paths=2, wall_shard=2, min_items=1)
NAMES = list(workloads.WORKLOADS)

# Counts that must repeat exactly for a seed: they depend only on the inputs.
COUNTS = (
    "cli.calls", "ldraw.instances", "graph.edges", "graph.sample_path.calls",
    "collision.add.calls", "collision.broadphase_pairs", "collision.intersects.calls",
    "collision.intersects.hits", "collision.tri_tests", "geometry.rigid_transforms",
    "geometry.connector_frames", "graph.truncate.kept_ratio", "program.valid_action_ratio",
)


def traced_round(name, seed, where: Path, monkeypatch):
    """One traced round of a workload in its own directory."""
    where.mkdir()
    monkeypatch.chdir(where)
    workload = workloads.make(name, seed, SMALL)
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    try:
        records, first, _ = run.execute(workload, 0.0, tracer)
    finally:
        tracer.restore()
    assert all(ok for _, _, ok in records)
    assert run.check_outputs(records, first) == set()
    parts = sum(call.parts for call, _, _ in records)
    wall = sum(took for _, took, _ in records)
    return workload, tracer, tracing.layer_metrics(tracer, parts, wall), run.output_digest(first)


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_repeats_counts_and_outputs(name, tmp_path, monkeypatch):
    w1, _, m1, d1 = traced_round(name, 7, tmp_path / "a", monkeypatch)
    w2, _, m2, d2 = traced_round(name, 7, tmp_path / "b", monkeypatch)
    assert w1.input_digest() == w2.input_digest()
    assert d1 == d2
    assert {k: m1[k] for k in COUNTS} == {k: m2[k] for k in COUNTS}


@pytest.mark.parametrize("name", NAMES)
def test_other_seed_gives_other_inputs(name, tmp_path, monkeypatch):
    digests = set()
    for seed in (1, 2):
        (tmp_path / str(seed)).mkdir()
        monkeypatch.chdir(tmp_path / str(seed))
        digests.add(workloads.make(name, seed, SMALL).input_digest())
    assert len(digests) == 2


def test_pool_worker_spans_nest_under_their_cli_call(tmp_path, monkeypatch):
    _, tracer, metrics, _ = traced_round("eval-corrupted", 3, tmp_path / "w", monkeypatch)
    spans = {s[0]: s for s in tracer.spans}
    main = threading.get_ident()
    for sid, name, start, end, parent, item, _ in tracer.spans:
        if name == "cli":
            assert parent is None
            continue
        root = spans[parent]
        while root[1] != "cli":
            root = spans[root[4]]
        assert root[5] == item and root[2] <= start and end <= root[3]
    assert metrics["program.validate_prefix.self_s"][0] > 0
    if SMALL.shard > 1 and (run.os.cpu_count() or 1) > 1:
        assert any(s[6] != main for s in tracer.spans if s[1] == "program.validate_prefix")


def test_self_time_subtracts_the_union_of_children():
    spans = [
        (1, "p", 0.0, 10.0, None, None, 0),
        (2, "c", 1.0, 4.0, 1, None, 0),
        (3, "c", 2.0, 5.0, 1, None, 1),  # overlaps its sibling on another thread
        (4, "c", 8.0, 9.0, 1, None, 0),
        (5, "g", 8.5, 9.0, 4, None, 0),
    ]
    self_s, calls, _ = tracing.self_times(spans)
    assert self_s["p"] == pytest.approx(10.0 - 4.0 - 1.0)
    assert self_s["c"] == pytest.approx(3.0 + 3.0 + 0.5)
    assert calls["c"] == 3


def test_wall_edge_counts_follow_the_construction():
    text, edges = workloads.wall_ldr(length=2, courses=4, phase=1, colors=[4])
    # Two rows of running bond: each course pair shares 3 stud positions per
    # row; course 1 is technic, so two pins with two axle edges each.
    assert edges == {"stud": 3 * 3 * 2, "axle": 4}
    assert text.count("3673.dat") == 2 and text.count("3700.dat") == 4


def test_fresh_setup_keeps_the_process_modules(tmp_path):
    cli = sys.modules["brickir.cli"]
    catalog = tmp_path / "catalog.json"
    catalog.write_text(workloads.build_demo_catalog().dumps())
    assert run.fresh_setup(str(catalog)) > 0
    assert sys.modules["brickir.cli"] is cli


def test_a_repeat_that_writes_nothing_fails(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    workload = workloads.make("eval-corrupted", 5, dataclasses.replace(SMALL, min_items=4))
    real = run.run_call
    executions = []

    def skip_repeats(call):  # a repeat exits 0 without writing its output
        executions.append(call.key)
        return real(call) if executions.count(call.key) == 1 else (0.0, True)

    monkeypatch.setattr(run, "run_call", skip_repeats)
    records, first, _ = run.execute(workload, 0.0, setup=None)
    assert len(records) > len(first)
    assert all(ok == (executions[:i].count(call.key) == 0)
               for i, (call, _, ok) in enumerate(records))
