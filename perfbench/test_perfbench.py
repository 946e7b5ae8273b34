"""Quick-size tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import random
import shutil
import subprocess
import sys
from itertools import islice

import pytest

import inputs
import run
from tracer import CLI_COMMANDS, PER_LAYER
from workloads import WORKLOADS

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def lib():
    return run.load_library(run.ROOT)


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in BENCHMARK["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == PER_LAYER


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_runs_with_no_errors(name, lib, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    attempted, failed, metrics, units, details = run.run_untraced(
        WORKLOADS[name], lib, 3, 0.2, tmp_path
    )
    assert attempted >= 1 and failed == 0
    assert set(metrics) == {m for m, _ in run.END_TO_END}
    assert all(v > 0 for v in metrics.values())
    assert details["tail_samples"] == attempted


def _bump(obj):
    """Every number and flag of a JSON value, changed."""
    if isinstance(obj, bool):
        return not obj
    if isinstance(obj, int):
        return obj + 1
    if isinstance(obj, list):
        return [_bump(x) for x in obj]
    if isinstance(obj, dict):
        return {k: _bump(v) for k, v in obj.items()}
    return obj


def _corrupt(name, result):
    if name == "exhaustive_roundtrip":
        iso, (k2, k2_local), c2 = result
        return iso, (k2, k2_local + 1), c2
    if name == "bezout_pairs":
        corners = dict(result["corners"])
        flat = next(iter(corners), (0, 1))
        corners[flat] = corners.get(flat, 0) + 1
        return dict(result, corners=corners)
    code, out = result
    return code, json.dumps(_bump(json.loads(out)))


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_corrupted_answers_count_as_failures(name, lib, tmp_path):
    wl = WORKLOADS[name]
    state = wl.setup(lib, random.Random(5), tmp_path)
    items = list(islice(wl.items(state), 4))

    class Corrupted:
        def op(self, state, item):
            return _corrupt(name, wl.op(state, item))

        def check(self, state, item, result):
            return wl.check(state, item, result)

    loop = run.closed_loop(Corrupted(), state, items)
    assert len(loop.latencies) == 4 and loop.failed == 4


def test_exceptions_count_as_failures_and_do_not_stop_the_run():
    class Flaky:
        def op(self, state, item):
            if item % 2:
                raise ValueError("boom")
            return item

        def check(self, state, item, result):
            return result == item

    loop = run.closed_loop(Flaky(), run.SimpleNamespace(), range(6))
    assert len(loop.latencies) == 6 and loop.failed == 3


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(name, lib, tmp_path, monkeypatch):
    wl = WORKLOADS[name]
    monkeypatch.setattr(wl, "trace_ops", 8 if name == "cli_oneshot" else 2)
    attempted, failed, metrics, units, _ = run.run_traced(
        wl, lib, 7, tmp_path, tmp_path / "trace.json.gz"
    )
    assert failed == 0 and attempted == 2 * wl.trace_ops
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert metrics["trace.throughput_ratio"] > 0
    busy = {
        "exhaustive_roundtrip": "bergman.reconstruct_matroid.s",
        "bezout_pairs": "intlinalg.solve.in_contains_direction.s",
        "cli_oneshot": "cli.process_overhead_s",
    }[name]
    assert metrics[busy] > 0
    if name == "cli_oneshot":
        assert all(metrics[f"cli.{c}.s"] > 0 for c in CLI_COMMANDS)
        assert metrics["cli.import_s"] > 0
        # the homology layers are measured inside the one-shot processes
        assert metrics["cosheaf_homology.CellComplex.boundary_matrix.calls"] > 0
        assert metrics["intlinalg.smith_invariants.entries"] > 0
    if name == "exhaustive_roundtrip":
        assert metrics["matroid.enumerate_simple_rank3.s"] > 0
    # tracing is removed again
    assert not hasattr(lib.bg.solve, "__wrapped__")
    assert not hasattr(lib.bg.Basis.decompose, "__wrapped__")


def test_inputs_depend_only_on_the_seed(lib):
    def draw(seed):
        rng = random.Random(seed)
        return (
            inputs.grid_complex(rng, "klein_bottle", 2, 3),
            inputs.random_surface_expr(lib.sc, rng),
            inputs.big_lines(inputs.random_matroid(lib.mt, rng, 7)),
        )

    assert draw(11) == draw(11)
    assert draw(11) != draw(12)


def test_command_line_contract(tmp_path):
    cmd = [sys.executable, "perfbench/run.py", "--workload", "bezout_pairs",
           "--seed", "1", "--seconds", "0.2", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(run.END_TO_END)

    # without the library next to it the benchmark fails and prints no result
    bare = tmp_path / "bare"
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
