"""Tests of the benchmark itself.  Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from rokhlin import crossed, rsh, towers  # noqa: E402


def _describe(op):
    """A comparable description of an operation (inputs by value, not identity)."""
    key, *items = op
    out = [key]
    for item in items:
        if isinstance(item, rsh.StageElement):
            out += [(w, c.values[w].tobytes()) for c in item.components
                    for w in sorted(c.values)]
        elif isinstance(item, crossed.FormalElement):
            out.append(json.dumps(item.to_json()))
        elif isinstance(item, str):  # TowersCold config file
            out.append(Path(item).read_text())
        else:
            out.append(item)
    return tuple(out)


@pytest.fixture
def small_towers_cold(monkeypatch):
    monkeypatch.setattr(workloads, "TOWERS_COLD_SYSTEMS",
                        [("fibonacci", workloads.FIBONACCI, 2)])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_operations_and_digest(name, tmp_path, small_towers_cold):
    cls = workloads.WORKLOADS[name]
    runs = []
    for i, seed in enumerate((7, 7, 8)):
        workdir = tmp_path / str(i)
        workdir.mkdir()
        wl = cls(seed, workdir)
        ops = [[_describe(op) for op in wl.round(r)] for r in range(2)]
        loop = run.drive(wl, 0.0, wl.round(0), rounds=2)
        assert loop.failed == 0, loop.failures
        runs.append((ops, loop.digest.hexdigest(), loop.digest_all.hexdigest()))
    assert runs[0] == runs[1]
    assert runs[0][0] != runs[2][0]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_rounds_draw_fresh_inputs_in_the_same_mix(name, tmp_path,
                                                  small_towers_cold):
    wl = workloads.WORKLOADS[name](7, tmp_path)
    first, second = ([_describe(op) for op in wl.round(r)] for r in range(2))
    assert len(first) == len(second)
    # Every round covers the same words; each word's position and variant
    # are drawn again, from few choices, so some may repeat.
    towers = [[d for d in ops if d[0][0] == "towers"] for ops in (first, second)]
    assert sorted(d[0][:3] for d in towers[0]) == sorted(d[0][:3] for d in towers[1])
    assert towers[0] != towers[1] or not towers[0]
    # Every other input is new.
    rest = [[d for d in ops if d[0][0] != "towers"] for ops in (first, second)]
    assert rest[0]
    assert sorted(d[0] for d in rest[0]) == sorted(d[0] for d in rest[1])
    assert not {d[1:] for d in rest[0]} & {d[1:] for d in rest[1]}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_round_has_enough_operations_for_p90(name, tmp_path):
    wl = workloads.WORKLOADS[name](1, tmp_path)
    assert run.percentile(range(len(wl.round(0))), 90) is not None


class _Counting:
    """A workload whose every operation sleeps ``cost`` seconds."""

    def __init__(self, cost):
        self.cost = cost

    def round(self, r):
        return [(("k", r, i),) for i in range(3)]

    def run(self, op):
        time.sleep(self.cost)

    def check(self, op, result):
        return b""


def test_round_zero_runs_whole_and_the_loop_stops_at_the_deadline():
    wl = _Counting(0.05)
    loop = run.drive(wl, 0.0, wl.round(0))
    assert len(loop.latencies) == 3 and loop.round_ends == [3]
    loop = run.drive(wl, 0.175, wl.round(0))
    # Round 0 (about 0.15 s) runs whole; round 1 is cut after one operation.
    assert loop.round_ends == [3, 4] and loop.cut
    assert loop.kinds == ["k"] * 4
    loop = run.drive(wl, 10.0, wl.round(0), rounds=2)
    assert loop.round_ends == [3, 6] and not loop.cut
    assert run.kind_lines(loop) == [
        "kind k: 6 ops, %.4g ops/s, p50 n/a (fewer than ten samples beyond it), "
        "p90 n/a (fewer than ten samples beyond it)" % (6 / sum(loop.latencies))]


def test_percentile_needs_ten_samples_beyond():
    samples = list(range(1, 101))
    assert run.percentile(samples, 90) == 90
    assert run.percentile(samples, 50) == 50
    assert run.percentile(samples[:99], 90) is None
    assert run.percentile(samples[:99], 50) == 50
    assert run.percentile([], 50) is None


def test_tracing_sees_calls_bound_inside_the_package():
    S = workloads.make_towers(workloads.PERIOD_DOUBLING, "101")
    b = rsh.StageElement.identity(S)
    original = towers.admissible_sequences
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert rsh.admissible_sequences is not original
        rsh.lift(S, b)
    finally:
        tracer.uninstall()
    assert rsh.admissible_sequences is original
    assert tracer.total("towers.admissible_sequences")["calls"] > 0
    assert tracer.total("rsh.lift")["calls"] == 1
    lift = tracer.total("rsh.lift")
    assert 0 < lift["self_s"] < lift["s"]


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        run.per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold-forward",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
