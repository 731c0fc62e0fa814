"""Tests of the benchmark itself: seeded inputs, the ops, and the tracer.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402

run.import_program()

import tracing  # noqa: E402
import workloads  # noqa: E402


def _small(monkeypatch):
    """Shrink the library workloads; the games sweep keeps its full size."""
    monkeypatch.setattr(workloads, "LACUNARY_MATRICES", 3)
    monkeypatch.setattr(workloads, "IRRATIONAL_INPUTS", 2)
    monkeypatch.setattr(workloads, "RATIONAL_INPUTS", 3)
    monkeypatch.setattr(workloads, "AVOIDANCE_INSTANCES", 4)


def _files(work: Path):
    return {p.relative_to(work): p.read_bytes() for p in sorted(work.rglob("*.json"))}


@pytest.mark.parametrize("workload", sorted(workloads.BUILDERS))
def test_inputs_are_deterministic_per_seed(workload, tmp_path, monkeypatch):
    _small(monkeypatch)
    a = workloads.build(workload, 3, run.ROOT, tmp_path / "a")
    b = workloads.build(workload, 3, run.ROOT, tmp_path / "b")
    workloads.build(workload, 4, run.ROOT, tmp_path / "c")
    assert [op.label for op in a] == [op.label for op in b]
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    if workload == "avoidance":
        assert workloads.avoidance_instances(3) == workloads.avoidance_instances(3)
        assert workloads.avoidance_instances(3) != workloads.avoidance_instances(4)
    else:
        assert _files(tmp_path / "a") != _files(tmp_path / "c")


@pytest.mark.parametrize("workload", sorted(workloads.BUILDERS))
def test_every_generated_input_passes_its_checks(workload, tmp_path, monkeypatch):
    """Every generated config loads and runs through cli.main (or the library
    entry point for avoidance) and passes the workload's correctness checks."""
    _small(monkeypatch)
    ops = workloads.build(workload, 5, run.ROOT, tmp_path)
    result = run.run_pass(ops, check=True)
    assert result.failures == {}
    assert all(out for out in result.outputs)


def test_checks_catch_a_wrong_margin():
    res = workloads.CliResult(0, json.dumps({"rational": True, "bad_margin": "1/5"}), "")
    check = workloads._check_badapprox(
        "half-third", {"badapprox": {"A": [["1/2"]], "x": ["1/3"], "q_bound": 10 ** 4}}
    )
    assert check(res) is not None
    assert workloads.rational_margin(Fraction(1, 2), Fraction(1, 3), 10 ** 4) == Fraction(1, 6)


def _mixed_ops(tmp_path, monkeypatch):
    _small(monkeypatch)
    ops = []
    for name in ("lacunarity", "badapprox", "avoidance"):
        ops += workloads.build(name, 2, run.ROOT, tmp_path / name)[:2]
    games = workloads.build("games", 2, run.ROOT, tmp_path / "games")
    return ops + [op for op in games if "pow3" in op.label][:4]


def test_two_traced_runs_give_identical_counts(tmp_path, monkeypatch):
    ops = _mixed_ops(tmp_path, monkeypatch)
    counts = []
    for _ in range(2):
        plain, traced, tracer = run.trace_ops(ops)
        assert plain.failures == {} and traced.failures == {}
        assert traced.digest() == plain.digest()
        metrics = tracer.metrics()
        counts.append({k: v for k, v in metrics.items() if not k.endswith("_s")})
    assert counts[0] == counts[1]
    assert counts[0]["cli.main.calls"] == 8
    assert counts[0]["strategies.avoidance_move.calls"] >= 2


def test_tracer_restores_every_binding():
    from schmidtgame import geometry, strategies
    from schmidtgame.matseq import MatrixSequence

    before = (strategies.slab_distance_exceeds, geometry.slab_distance_exceeds, MatrixSequence.t)
    with tracing.Tracer().installed():
        assert strategies.slab_distance_exceeds is not before[0]
        assert geometry.slab_distance_exceeds is strategies.slab_distance_exceeds
    assert (strategies.slab_distance_exceeds, geometry.slab_distance_exceeds, MatrixSequence.t) == before


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.BUILDERS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.PER_LAYER


def test_tail_keeps_ten_samples_beyond():
    value, pct = run.tail([float(i) for i in range(1, 101)])
    assert (value, pct) == (90.0, 90.0)
