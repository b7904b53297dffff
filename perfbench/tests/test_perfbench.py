"""The benchmark's own tests: a tiny smoke run of every workload in both
modes, one test per correctness gate showing it trips on an injected
mismatch, and the tracer's bookkeeping.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
The smoke runs train specs from a cold cache, so the module takes a
few minutes.
"""

import dataclasses
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time

import pytest

from repro.errors import ReproError
from repro.fleet.loadgen import OpRequest, TenantPlan
from repro.fleet.registry import RegistryStats, SpecRegistry
from repro.gateway.arrivals import ArrivalSpec, TenantStream, build_streams
from repro.gateway.engine import Gateway

from perfbench import calibrate, gates, layers, workloads
from perfbench.tracing import Patches, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


# ---------------------------------------------------------------------------
# contract and smoke
# ---------------------------------------------------------------------------

def test_benchmark_json_matches_catalog():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    assert [w["name"] for w in bench["workloads"]] == \
        list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in bench["end_to_end"]} == layers.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in bench["per_layer"]} == layers.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_emits_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3",
                     "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    catalog = layers.PER_LAYER if trace else layers.END_TO_END
    assert {name: entry["unit"] for name, entry
            in result["metrics"].items()} == \
        {name: spec[0] for name, spec in catalog.items()}
    # no time reads 0: a layer absent from a workload is a share
    assert all(entry["value"] > 0 for entry in result["metrics"].values()
               if not trace or entry["unit"] in ("s", "ms", "ns"))


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "guest-mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


# ---------------------------------------------------------------------------
# gates
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def registry():
    return SpecRegistry()


def test_stratified_mix_keeps_the_weighted_proportions():
    ops = workloads.guest_ops(seed=4, count=7 * 40)
    fdc = [op.index for name, op in ops if name == "fdc"]
    # fdc weights 0.15/0.15/0.2/0.35/0.15 over 40 ops
    assert [fdc.count(i) for i in range(5)] == [6, 6, 8, 14, 6]
    assert ops == workloads.guest_ops(seed=4, count=7 * 40)
    assert ops != workloads.guest_ops(seed=5, count=7 * 40)


def test_replica_gate_trips_on_different_work():
    same = ((1, 2), (3,))
    assert gates.replica_failures([same, same, same]) == []
    assert gates.replica_failures([same, ((1, 2), (4,)), same])


def test_twin_gate_trips_on_a_different_op_seed(registry):
    guest = workloads.Guest.boot("fdc", registry.get("fdc"))
    twin = workloads.Guest.boot("fdc")
    assert gates.twin_failures({"fdc": guest}, {"fdc": twin}) == []
    op = OpRequest("common", 0, 1)          # a sector write
    guest.run(op)
    twin.run(dataclasses.replace(op, seed=2))
    assert gates.twin_failures({"fdc": guest}, {"fdc": twin})


def test_verdict_gate_trips_on_a_rare_command(registry):
    guest = workloads.Guest.boot("fdc", registry.get("fdc"))
    assert gates.guard_verdict_failures({"fdc": guest}) == []
    try:
        # never seen in training: the paper's false-positive source
        guest.prof.rare_ops[0](guest.vm, guest.driver, random.Random(1))
    except ReproError:
        pass
    assert gates.guard_verdict_failures({"fdc": guest})


def _tiny_gateway(registry, disarm: bool):
    plans = [TenantPlan("t0-fdc", "fdc"), TenantPlan("t1-fdc", "fdc"),
             TenantPlan("t2-fdc", "fdc", "2.3.0", "CVE-2015-3456")]
    arrival = ArrivalSpec(pattern="poisson", horizon_s=0.02)
    streams = build_streams(plans, arrival, seed=5)
    if disarm:
        # the attacked tenant's exploit op replaced by a benign one
        streams = [TenantStream(s.plan, tuple(
            (t, OpRequest("common", 3, 9) if op.kind == "exploit" else op)
            for t, op in s.arrivals)) for s in streams]
    config = workloads.gateway_config(5, arrival, None)
    result = Gateway(config, registry=registry).run(plans, streams)
    return gates.gateway_failures(result, plans)


def test_gateway_gate_passes_and_trips_on_a_disarmed_attack(registry):
    assert _tiny_gateway(registry, disarm=False) == []
    failures = _tiny_gateway(registry, disarm=True)
    assert any("missed ['t2-fdc']" in f for f in failures)


def test_cold_setup_gate_trips_on_a_warm_cache():
    pairs = [("fdc", "99.0.0"), ("fdc", "2.3.0")]
    assert gates.cold_setup_failures(RegistryStats(trains=2), pairs) == []
    assert gates.cold_setup_failures(
        RegistryStats(trains=0, disk_hits=2), pairs)


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

def test_calibration_scales_host_times_to_the_reference_speed():
    assert calibrate.kernel() == calibrate.kernel()
    slowed = calibrate.Calibration()
    slowed.samples = [2 * calibrate.REFERENCE_SLICE_S] * 3
    assert slowed.factor() == pytest.approx(0.5)
    serve = workloads.GuestServe(["fdc", "fdc"], [0.004, 0.002],
                                 [0.001, 0.001], [10, 10], [8, 8])
    raw = workloads.guest_metrics(1.0, serve, 1.0)
    scaled = workloads.guest_metrics(1.0, serve, slowed.factor())
    for name in ("op_ms_gmean", "op_ms_tail", "guard_ms_per_op"):
        assert scaled[name][0] == pytest.approx(raw[name][0] / 2)
    assert scaled["ops_per_s"][0] == pytest.approx(2 * raw["ops_per_s"][0])
    # setup and the cycle model are not host-speed figures
    for name in ("setup_s", "cycle_overhead_pct", "sim_op_ms"):
        assert scaled[name] == raw[name]


def test_calibration_ticks_inside_a_long_call_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    ticking = calibrate.Calibration()
    with ticking.ticking(interval_s=0.01):
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert len(ticking.samples) >= 5
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------

class _Layer:
    def outer(self, n):
        return self.inner(n) + 1

    def inner(self, n):
        return n


def test_dispatch_log_is_the_only_submit_wrapper():
    from repro.fleet.supervisor import FleetSession
    original = FleetSession.submit
    tracer = Tracer()
    layers.install_serving(tracer)
    assert FleetSession.submit is original
    with workloads.DispatchLog() as log:
        assert FleetSession.submit is not original
    tracer.uninstall()
    assert FleetSession.submit is original and log.records == []


def test_patches_restore_newest_first():
    with Patches() as patches:
        patches.patch(_Layer, "inner", lambda self, n: 0)
        patches.patch(_Layer, "inner", lambda self, n: 1)
        assert _Layer().outer(5) == 2
    assert _Layer().outer(5) == 6


def test_tracer_nests_tags_counts_and_uninstalls():
    original = _Layer.__dict__["outer"]
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    tracer.wrap(_Layer, "outer", "outer", tag=lambda self, n: f"d{n}",
                count=lambda result, args: result)
    tracer.wrap(_Layer, "inner", "inner")
    with tracer.span("op", context="guarded"):
        assert _Layer().outer(4) == 5
    tracer.uninstall()
    assert _Layer.__dict__["outer"] is original
    summary = tracer.summary()
    assert summary.calls("inner", ("guarded",), "d4") == 1
    assert summary.counted("outer") == 5
    assert summary.under_parent("inner", "outer") == (1, 1.0)
    assert summary.total("op") == 5.0
    assert set(tracer.root) == {0}
