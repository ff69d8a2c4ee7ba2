"""Tests of the benchmark's own code (collected by the repository's pytest run)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import run as bench
from perfbench import workloads
from perfbench.system import tail
from perfbench.tracing import Span, Tracer, self_times_ns, totals_by_name

ROOT = Path(__file__).resolve().parent.parent


def _names(entries):
    return [entry["name"] for entry in entries]


DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


# --------------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------------- #
def _flat(calls):
    return [tokens.tolist() for call in calls for tokens in call]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_inputs(workload):
    def inputs(seed):
        return _flat(workloads.schedule(workloads.FULL, workload, seed, 1000))

    assert inputs(7) == inputs(7)
    assert inputs(7) != inputs(8)


def test_bulk_workloads_share_inputs():
    def inputs(workload):
        return _flat(workloads.schedule(workloads.FULL, workload, 5, 1000))

    assert inputs("bulk_fp32") == inputs("bulk_int8") != inputs("online_short")


def test_every_bulk_call_carries_the_same_tokens_and_fills_a_bucket():
    profile = workloads.FULL
    calls = workloads.schedule(profile, "bulk_fp32", 3, 1000)
    assert len(calls) == workloads.CYCLES * len(profile.bulk_templates)
    assert {sum(len(r) for r in call) for call in calls} == {256}
    lengths = {len(r) for call in calls for r in call}
    assert lengths <= {64, 128, 256} and len(lengths) == 3
    assert any(len(call) > len({len(r) for r in call}) for call in calls)


def test_online_calls_are_single_short_requests_of_a_fixed_mix():
    profile = workloads.FULL
    calls = workloads.schedule(profile, "online_short", 3, 1000)
    assert {len(call) for call in calls} == {1}
    cycle = sorted(len(call[0]) for call in calls[: len(profile.online_lengths)])
    assert cycle == sorted(profile.online_lengths)
    assert min(cycle) >= 4 and max(cycle) <= 64


def test_whole_cycles_are_traced_in_abba_order():
    pattern = [workloads.traced_call(i, 2) for i in range(16)]
    assert pattern == [False, False, True, True, True, True, False, False] * 2


# --------------------------------------------------------------------------- #
# BENCHMARK.json
# --------------------------------------------------------------------------- #
def test_benchmark_json_names_the_workloads():
    assert _names(DECLARED["workloads"]) == list(workloads.WORKLOADS)
    setup = next(m for m in DECLARED["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in DECLARED["end_to_end"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_emits_exactly_the_declared_metrics(workload, trace):
    result, lines, report = bench.run(
        workload, seed=1, seconds=0.2, trace=trace, profile=workloads.SMOKE
    )
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == _names(declared)
    assert all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in declared)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        return
    assert report["spans"]
    values = {name: m["value"] for name, m in result["metrics"].items()}
    serving = workload == "online_short"
    # The model runs in this process for the bulk workloads only; the
    # serving layers run for online_short only.
    assert (values["models.forward_ms"] > 0) != serving
    assert (values["sharding.dispatch_ms"] > 0) == serving
    assert (values["transport.send_us"] > 0) == serving
    assert (values["setup.pool_spawn_s"] > 0) == serving
    int8 = values["kernels.gemm_int8_ms"] + values["kernels.quantize_ms"]
    assert (int8 > 0) == (workload == "bulk_int8")
    if serving:
        assert values["sharding.service_inflation_x"] > 0
        assert 0 < values["transport.ring_frac"] <= 1
        # Every dispatch span carries the request it served.
        dispatches = [s for s in report["spans"] if s["name"] == "sharding.dispatch"]
        assert dispatches and all(len(s["requests"]) == 1 for s in dispatches)


def test_traced_methods_are_restored():
    from repro.api import InferenceSession
    from repro.core.kernels import NativeKernel, NumpyKernel
    from repro.transformer.layers import Linear

    before = (InferenceSession.forward, NumpyKernel.matmul_fp32,
              NativeKernel.gemm_int8, Linear.__call__)
    bench.run("bulk_int8", seed=2, seconds=0.1, trace=True, profile=workloads.SMOKE)
    after = (InferenceSession.forward, NumpyKernel.matmul_fp32,
             NativeKernel.gemm_int8, Linear.__call__)
    assert after == before


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bulk_fp32", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_child_processes_are_stopped_and_waited_for():
    # In a fresh interpreter: stopping children here would reach the test run's own.
    script = """
import multiprocessing, time
from multiprocessing import shared_memory
from perfbench.system import _child_pids, stop_child_processes
block = shared_memory.SharedMemory(create=True, size=64)  # starts the resource tracker
worker = multiprocessing.get_context("spawn").Process(target=time.sleep, args=(60,))
worker.start()
block.close()
block.unlink()
before = len(_child_pids())
stop_child_processes()
print(before, len(_child_pids()))
"""
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["2", "0"]


# --------------------------------------------------------------------------- #
# Span arithmetic
# --------------------------------------------------------------------------- #
def _span(span_id, name, parent, start, end):
    return Span(span_id=span_id, name=name, parent=parent, start_ns=start, end_ns=end)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(0, "forward", -1, 0, 100),
        _span(1, "linear", 0, 10, 30),
        _span(2, "gemm", 1, 12, 28),
        # Two children that overlap each other (e.g. recorded on a thread
        # pool) count their union once.
        _span(3, "softmax", 0, 40, 70),
        _span(4, "softmax", 0, 60, 80),
        # A child sticking out of its parent only counts inside it.
        _span(5, "layernorm", 0, 95, 120),
    ]
    selfs = self_times_ns(spans)
    assert selfs == {0: 100 - 20 - 40 - 5, 1: 4, 2: 16, 3: 30, 4: 20, 5: 25}
    totals = totals_by_name(spans)
    assert totals["softmax"].calls == 2
    assert totals["softmax"].inclusive_ns == 50
    assert totals["forward"].self_ns == 35


def test_tracer_nests_spans_and_collapses_same_name_delegation():
    class Inner:
        def run(self, x):
            return x + 1

    class Outer:
        def __init__(self):
            self.inner = Inner()

        def run(self, x):
            return self.inner.run(x) * 2

        def alias(self, x):
            return self.run(x)

    tracer = Tracer()
    tracer.wrap(Outer, "run", "outer")
    tracer.wrap(Outer, "alias", "outer")
    tracer.wrap(Inner, "run", "inner", work=lambda args, kwargs, result: {"calls": 1})
    outer = Outer()
    assert outer.run(1) == 4  # disabled: nothing recorded
    with tracer.recording(), tracer.request(9, []):
        assert outer.alias(1) == 4
    tracer.restore()
    assert "alias" in Outer.__dict__ and Outer.run(outer, 1) == 4
    names = {span.name: span for span in tracer.spans}
    assert len(tracer.spans) == 2
    assert names["inner"].parent == names["outer"].span_id
    assert names["inner"].requests == names["outer"].requests == (9,)
    assert names["inner"].work == {"calls": 1}


def test_tail_has_ten_samples_beyond_it():
    values = list(range(1, 41))
    value, percentile, beyond = tail(values)
    assert value == 30 and beyond == 10 and percentile == 75.0
    assert tail([3.0, 1.0]) == (3.0, 100.0, 0)


def test_table5_shares_sum_to_one():
    from perfbench.layers import table5_shares

    spans = [
        _span(0, "models.forward", -1, 0, 100),
        _span(1, "attention", 0, 0, 50),
        _span(2, "layers.linear", 1, 0, 20),
        _span(3, "nonlinear.softmax", 1, 20, 30),
        _span(4, "nonlinear.gelu", 0, 50, 60),
        _span(5, "kernels.epilogue", 0, 60, 65),
    ]
    shares = table5_shares(totals_by_name(spans))
    assert shares["matmul"] == pytest.approx(0.4)  # linear 20 + attention self 20
    assert shares["softmax"] == pytest.approx(0.1)
    assert shares["unaccounted"] == pytest.approx(0.35)
    assert sum(shares.values()) == pytest.approx(1.0)
    assert np.isclose(sum(v for k, v in shares.items() if k != "unaccounted"), 0.65)
