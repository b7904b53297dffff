"""Per-layer metrics from a traced run, and the catalog of every metric
the benchmark reports.

Layers are named after the program's modules.  :func:`install_setup`
and :func:`install_serving` put span wrappers around each layer's
public functions; :func:`guest_layers` and :func:`gateway_layers` fold
the spans into the per-layer metrics.  Every workload reports every
metric.  A layer's time is in seconds when every workload runs that
layer, and otherwise a share of the serving time (a ratio), so a layer
that does not run in a workload — the gateway in guest-mix — reads 0
without a time that never moves.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.workloads.profiles import PROFILES

from perfbench.tracing import SpanSummary, Tracer

#: every device profile (guest-mix serves them all)
DEVICES = tuple(PROFILES)
#: the devices every workload serves (gateway-credit's tenants)
SHARED_DEVICES = ("fdc", "sdhci", "pcnet")

#: name -> (unit, better, bound): what a user of the system sees.
END_TO_END: Dict[str, Tuple[str, str, float]] = {
    # host time, scaled to the reference host's speed (calibrate.py);
    # what the seed leaves spreads up to 0.15, so the bounds are the
    # widest allowed
    "setup_s": ("s", "lower", 0.25),
    "ops_per_s": ("ops/s", "higher", 0.25),
    "op_ms_gmean": ("ms", "lower", 0.25),
    "op_ms_tail": ("ms", "lower", 0.25),
    "dispatch_ms_gmean": ("ms", "lower", 0.25),
    "dispatch_ms_tail": ("ms", "lower", 0.25),
    "guard_ms_per_op": ("ms", "lower", 0.25),
    # cycle model: exact for a seed, varies only with the seed
    "cycle_overhead_pct": ("%", "lower", 0.1),
    "sim_op_ms": ("ms", "lower", 0.25),
    # allocator and collector timing move it by a tenth between seeds
    "peak_rss_mb": ("MiB", "lower", 0.25),
}

#: name -> (unit, better): one layer each, from the traced run.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    # offline training -> setup_s
    "spec.train_s": ("s", "lower"),
    "spec.trains": ("count", "lower"),
    "spec.training_rounds": ("count", "lower"),
    "ipt.decode_s": ("s", "lower"),
    "cfg.itc_s": ("s", "lower"),
    "analysis.select_taint_s": ("s", "lower"),
    "spec.build_s": ("s", "lower"),
    "spec.exec_s": ("s", "lower"),
    "checker.lower_s": ("s", "lower"),
    "fleet.boot_s": ("s", "lower"),
    # tenants' lazy instance boot inside serving -> gateway ops_per_s
    "fleet.boot_share": ("ratio", "lower"),
    # per-round checker -> guard_ms_per_op, op_ms_gmean, ops_per_s
    "checker.check_io_s": ("s", "lower"),
    "checker.rounds": ("count", "lower"),
    "checker.walk_s": ("s", "lower"),
    "checker.clone_s": ("s", "lower"),
    "checker.toll_s": ("s", "lower"),
    "checker.resync_ratio": ("ratio", "lower"),
    **{f"checker.ns_per_round.{d}": ("ns", "lower")
       for d in SHARED_DEVICES},
    # batched checker -> gateway-credit ops_per_s
    "checker.batch_share": ("ratio", "lower"),
    "checker.batches": ("count", "lower"),
    "checker.rounds_per_batch": ("count", "higher"),
    # vm -> guard_ms_per_op
    "vm.io_rounds": ("count", "lower"),
    "vm.coexec_rounds": ("count", "lower"),
    "vm.coexec_snapshot_s": ("s", "lower"),
    "vm.glue_s": ("s", "lower"),
    # devices -> ops_per_s, op_ms_*
    "devices.handle_io_s": ("s", "lower"),
    "devices.twin_s": ("s", "lower"),
    # fleet -> gateway-credit ops_per_s, dispatch_ms_*
    "fleet.transport_share": ("ratio", "lower"),
    "fleet.worker_utilization": ("ratio", "higher"),
    "fleet.batches": ("count", "lower"),
    # gateway -> gateway-credit ops_per_s
    "gateway.self_share": ("ratio", "lower"),
    "gateway.offered": ("count", "higher"),
    "gateway.admitted": ("count", "higher"),
    "gateway.refused": ("count", "lower"),
    "gateway.dispatches": ("count", "lower"),
    "gateway.coalesce_mean": ("count", "higher"),
    # open-loop arrival->completion on the cycle-model clock (seed-bound:
    # a few queueing collisions move it)
    "gateway.sim_p95_cycles": ("cycles", "lower"),
    # paper comparison, host wall (untraced pass) and cycle model
    "guard_overhead_pct": ("%", "lower"),
    **{f"guard_overhead_pct.{d}": ("%", "lower") for d in DEVICES},
    **{f"cycle_overhead_pct.{d}": ("%", "lower") for d in DEVICES},
    # the cost of tracing itself
    "trace.ops_per_s": ("ops/s", "higher"),
    "trace.overhead_pct": ("%", "lower"),
}

GUARDED = ("guarded",)
VM_IO_METHODS = ("outb", "inb", "outl", "inl", "mmio_write", "mmio_read")


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------

def install_setup(tracer: Tracer) -> None:
    """Training and boot: registry misses, the pipeline's phases,
    checker construction (bytecode lowering) and fleet instance boot.
    A fleet instance boots lazily inside its first batch; its spans run
    in the ``setup`` context so boot work never counts as serving."""
    import repro.core
    import repro.core.pipeline as pipeline
    from repro.checker import ESChecker
    from repro.fleet.instance import GuardedInstance
    from repro.fleet.registry import SpecRegistry
    from repro.ipt import Decoder

    tracer.wrap(SpecRegistry, "_train", "spec.train")
    tracer.wrap(repro.core, "build_execution_spec", "spec.pipeline",
                count=lambda result, args: result.training_rounds)
    tracer.wrap(Decoder, "decode_stream", "ipt.decode")
    tracer.wrap(pipeline, "build_itc_cfg", "cfg.itc")
    tracer.wrap(pipeline, "select_parameters", "analysis.select")
    tracer.wrap(pipeline, "analyze_taint", "analysis.taint")
    tracer.wrap(pipeline, "build_spec", "spec.build")
    tracer.wrap(ESChecker, "__init__", "checker.lower")
    tracer.wrap(GuardedInstance, "__init__", "fleet.instance_boot",
                context="setup")


def install_serving(tracer: Tracer) -> None:
    """Serving layers: checker, vm, devices, fleet instance and batch,
    and the dispatch entry."""
    from repro.checker import ESChecker
    from repro.checker.bytecode import BytecodeSpec
    from repro.devices.base import Device
    from repro.fleet.instance import GuardedInstance
    from repro.fleet.worker import FleetWorker
    from repro.spec import DeviceState
    from repro.vm.machine import GuestVM
    import repro.workloads.profiles  # noqa: F401  (registers devices)

    # checker spans take their device tag from the enclosing op
    tracer.wrap(ESChecker, "check_io", "checker.check_io")
    tracer.wrap(ESChecker, "check_batch", "checker.check_batch",
                count=lambda result, args: len(result))
    tracer.wrap(ESChecker, "resync", "checker.resync")
    tracer.wrap(BytecodeSpec, "run", "checker.walk")
    tracer.wrap(DeviceState, "clone", "checker.clone")
    for method in VM_IO_METHODS:
        tracer.wrap(GuestVM, method, "vm.io")
    tracer.wrap(Device, "snapshot", "device.snapshot")
    for cls in [Device] + _subclasses(Device):
        if "handle_io" in cls.__dict__:
            tracer.wrap(cls, "handle_io", "device.handle_io")
    tracer.wrap(GuardedInstance, "apply", "fleet.apply")
    tracer.wrap(FleetWorker, "run_batch", "fleet.batch",
                tag=lambda worker, batch: batch.device)
    # FleetSession.submit is timed by the workloads' DispatchLog, whose
    # records give the fleet layer's dispatch figures


def _subclasses(cls) -> list:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


# ---------------------------------------------------------------------------
# folding spans into metrics
# ---------------------------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _pct(guarded: float, base: float) -> float:
    return 100.0 * (guarded - base) / base if base else 0.0


def _training(s: SpanSummary) -> Dict[str, float]:
    train = s.total("spec.train")
    decode = s.total("ipt.decode")
    itc = s.total("cfg.itc")
    select_taint = s.total("analysis.select") + s.total("analysis.taint")
    build = s.total("spec.build")
    return {
        "spec.train_s": train,
        "spec.trains": s.calls("spec.train"),
        "spec.training_rounds": s.counted("spec.pipeline"),
        "ipt.decode_s": decode,
        "cfg.itc_s": itc,
        "analysis.select_taint_s": select_taint,
        "spec.build_s": build,
        # the two interpreted training passes and everything else
        "spec.exec_s": train - decode - itc - select_taint - build,
        "checker.lower_s": s.total("checker.lower"),
        "fleet.boot_s": (s.total("fleet.boot")
                         + s.total("fleet.instance_boot")),
    }


def _serving(s: SpanSummary, op_span: str) -> Dict[str, float]:
    """Checker, vm and device layers inside guarded ops (*op_span*)."""
    check_io = s.total("checker.check_io", GUARDED)
    check_batch = s.total("checker.check_batch", GUARDED)
    op_wall = s.total(op_span, GUARDED)
    batches = s.calls("checker.check_batch", GUARDED)
    batch_rounds = s.counted("checker.check_batch", GUARDED)
    rounds = s.calls("checker.check_io", GUARDED) + batch_rounds
    _, walk = s.under_parent("checker.walk", "checker.check_io", GUARDED)
    coexec, snapshot = s.under_parent("device.snapshot", "vm.io", GUARDED)
    # FDC.handle_io extends Device.handle_io: count the outer span only
    handle_io = (s.total("device.handle_io", GUARDED)
                 - s.under_parent("device.handle_io", "device.handle_io",
                                  GUARDED)[1])
    out = {
        "checker.check_io_s": check_io,
        "checker.rounds": rounds,
        "checker.walk_s": walk,
        "checker.clone_s": s.total("checker.clone", GUARDED),
        "checker.toll_s": check_io - walk,
        "checker.resync_ratio": _ratio(s.calls("checker.resync", GUARDED),
                                       rounds),
        "checker.batch_share": _ratio(check_batch, op_wall),
        "checker.batches": batches,
        "checker.rounds_per_batch": _ratio(batch_rounds, batches),
        "vm.io_rounds": s.calls("vm.io", GUARDED),
        "vm.coexec_rounds": coexec,
        "vm.coexec_snapshot_s": snapshot,
        "vm.glue_s": op_wall - check_io - check_batch - handle_io
        - snapshot,
        "devices.handle_io_s": handle_io,
    }
    for device in SHARED_DEVICES:
        vetted = (s.calls("checker.check_io", GUARDED, device)
                  + s.counted("checker.check_batch", GUARDED, device))
        spent = (s.total("checker.check_io", GUARDED, device)
                 + s.total("checker.check_batch", GUARDED, device))
        out[f"checker.ns_per_round.{device}"] = 1e9 * _ratio(spent, vetted)
    return out


def guest_layers(summary: SpanSummary, traced, typical,
                 plain_ops_per_s: float) -> Dict[str, Tuple[float, str]]:
    """*traced*: the traced :class:`~perfbench.workloads.GuestServe`;
    *typical*: the untraced replicas' per-op median times;
    *plain_ops_per_s*: the untraced replicas' median throughput."""
    values = {name: 0.0 for name in PER_LAYER}
    values.update(_training(summary))
    values.update(_serving(summary, "op.guarded"))
    values["devices.twin_s"] = sum(typical.twin_s)
    values.update(_paper(typical.per_device()))
    values["trace.ops_per_s"] = traced.ops_per_s
    values["trace.overhead_pct"] = _pct(plain_ops_per_s, traced.ops_per_s)
    return _with_units(values)


def gateway_layers(summary: SpanSummary, traced, typical,
                   plain_ops_per_s: float
                   ) -> Dict[str, Tuple[float, str]]:
    """*traced*: the traced :class:`~perfbench.workloads.GatewayServe`;
    *typical*: the untraced replicas' per-dispatch median times (twins
    included); *plain_ops_per_s*: the untraced replicas' median
    throughput."""
    values = {name: 0.0 for name in PER_LAYER}
    values.update(_training(summary))
    values.update(_serving(summary, "fleet.apply"))
    stats = traced.result.stats
    submit = sum(d.wall_s for d in traced.dispatches)
    worker = sum(d.result.wall_seconds for d in traced.dispatches
                 if d.result is not None)
    values.update({
        "devices.twin_s": sum(d.twin_s for d in typical.dispatches),
        "fleet.transport_share": _ratio(submit - worker, submit),
        "fleet.worker_utilization": _ratio(
            worker, traced.serve_s * traced.workers),
        "fleet.batches": len(traced.dispatches),
        # tenants' instance boot inside the guarded batches' worker
        # wall (the boots directly under setup warmed the caches)
        "fleet.boot_share": _ratio(
            summary.total("fleet.instance_boot")
            - summary.under_parent("fleet.instance_boot", "setup")[1],
            worker),
        "gateway.self_share": _ratio(traced.serve_s - submit,
                                     traced.serve_s),
        "gateway.offered": stats.offered,
        "gateway.admitted": stats.admitted,
        "gateway.refused": stats.quota_rejected + stats.queue_shed,
        "gateway.dispatches": stats.dispatches,
        "gateway.coalesce_mean": stats.coalesce_mean,
        "gateway.sim_p95_cycles": stats.p95_latency_cycles,
        "trace.ops_per_s": traced.ops_per_s,
        "trace.overhead_pct": _pct(plain_ops_per_s, traced.ops_per_s),
    })
    values.update(_paper(typical.per_device()))
    return _with_units(values)


def _paper(per_device) -> Dict[str, float]:
    """Guarded-versus-twin overhead on host wall and on the cycle model,
    overall and per device (devices a workload does not serve read 0)."""
    sums = per_device.values()
    out = {"guard_overhead_pct": _pct(sum(s.guarded_s for s in sums),
                                      sum(s.twin_s for s in sums))}
    for device, s in per_device.items():
        out[f"guard_overhead_pct.{device}"] = _pct(s.guarded_s, s.twin_s)
        out[f"cycle_overhead_pct.{device}"] = _pct(s.guarded_cycles,
                                                   s.twin_cycles)
    return out


def _with_units(values: Dict[str, float]) -> Dict[str, Tuple[float, str]]:
    return {name: (float(values[name]), PER_LAYER[name][0])
            for name in PER_LAYER}
