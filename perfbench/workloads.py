"""The benchmark workloads: ``guest-mix`` and ``gateway-credit``.

Every workload has the same shape:

1. **inputs** — made from the seed alone, before any clock starts;
2. **setup** (``setup_s``) — from an empty spec cache to the first op:
   cold :class:`SpecRegistry` training of every (device, qemu_version)
   pair the workload needs, plus one guarded guest or fleet instance
   boot per profile or pair;
3. **serving**, in identical replicas — the same inputs served again
   on freshly booted guests or a fresh gateway.  Every benign op also
   runs on an unguarded *twin* guest, so the host time enforcement adds
   is a measured difference: in guest-mix right after its guarded run,
   in gateway-credit in twin passes after the guarded replicas, which
   keeps the twins' memory out of ``peak_rss_mb``;
4. **gates** — correctness checks that fail the run instead of
   publishing numbers (see :mod:`perfbench.gates`).

The replicas do identical work (a gate checks their cycle books
match), so each op's or dispatch's host time is reported as its median
across them.  A shared host runs the same code fast for a few tens of
milliseconds at a time and slower in between, in proportions that
drift over minutes: the least of a few samples then lands in either
state, run to run, while the median stays in the state the host spends
most of its time in.  The drift itself is taken out by a calibration
slice run after every untraced op or dispatch (see
:mod:`perfbench.calibrate`): every host-time metric but ``setup_s`` is
quoted at the reference host's speed, and the raw figures go to the
``info`` line.

Only public entry points of the program are driven: ``deploy`` and
``GuestVM`` with the profile ops, ``SpecRegistry``, ``GuardedInstance``
(setup's warm boot), and ``Gateway.run`` with plans and arrival streams
built here.  Work is sized from ``--seconds`` so that the replicas and
their twins together take about that long on a 2-core host; the size,
and so every simulated metric, depends only on the seed and
``--seconds``.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import os
import random
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.checker import Mode
from repro.core import deploy
from repro.errors import ReproError
from repro.fleet.instance import GuardedInstance
from repro.fleet.loadgen import OpRequest, RequestBatch, TenantPlan, \
    plan_tenants
from repro.fleet.registry import SpecRegistry
from repro.fleet.supervisor import FleetSession
from repro.gateway.arrivals import ArrivalSpec, TenantStream, tenant_rng
from repro.gateway.engine import Gateway, GatewayConfig, GatewayResult
from repro.workloads.benchtools import CYCLES_PER_SECOND
from repro.workloads.profiles import PROFILES

from perfbench import gates, layers
from perfbench.calibrate import Calibration
from perfbench.tracing import Patches, Tracer

BACKEND = "bytecode"
WORKLOADS = ("guest-mix", "gateway-credit")

#: guest-mix: every device profile, one guarded guest each
GUEST_DEVICES: Tuple[str, ...] = layers.DEVICES
#: identical guest-mix serving replicas per run; each op's host time is
#: the median across them
GUEST_REPLICAS = 4
#: guarded ops (each with its twin and a calibration slice) per second
#: of ``--seconds``, over all replicas: 700 ops per replica at 25 s
GUEST_OPS_PER_SECOND = 112

#: gateway-credit's tenants
GATEWAY_DEVICES: Tuple[str, ...] = layers.SHARED_DEVICES
GATEWAY_TENANTS = 64
#: one attacked tenant for each detectable CVE on these devices
ATTACKED_TENANTS = 5
#: mean ops per simulated second per tenant (bursty: 8x in bursts)
ARRIVAL_RATE = 400.0
#: ops per tenant and replica per second of ``--seconds``: 16 per
#: tenant (1024 ops) at 25 s
TENANT_OPS_PER_SECOND = 0.64
#: identical serving replicas (and twin passes) per run: few, each with
#: many ops, because the seed moves the ops' cost more than the host
#: does once calibrated
GATEWAY_REPLICAS = 3
#: share of the slowest samples whose mean is a timing's tail
TAIL_SHARE = 0.1


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def geomean(values: Sequence[float]) -> float:
    """Geometric mean: the typical op of a mix whose op classes span
    three orders of magnitude.  The median of such a mix sits in a gap
    between two classes and jumps from one to the other as the seed
    moves a few ops across; a geometric mean moves smoothly, and every
    class's speed-up moves it."""
    return math.exp(statistics.fmean(math.log(v) for v in values))


def tail_mean(values: Sequence[float], share: float = TAIL_SHARE) -> float:
    """Mean of the slowest *share* of the samples.  A percentile of a
    mix of op classes jumps from one class to the next as the seed
    moves the class counts; a tail mean moves smoothly."""
    ordered = sorted(values, reverse=True)
    return statistics.mean(ordered[:max(1, math.ceil(share * len(ordered)))])


def peak_rss_mb() -> float:
    """Peak resident set (MiB); Linux reports ``ru_maxrss`` in KiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def span(tracer: Optional[Tracer], name: str, tag: str = "",
         context: Optional[str] = None):
    return tracer.span(name, tag, context) if tracer else nullcontext()


def timed_setup(build, tracer: Optional[Tracer]):
    """Run *build()* as a workload's setup; returns (``setup_s``, its
    calibration, what *build* returned).  Untraced, a calibration slice
    runs every 50 ms inside setup; its time is taken out of the wall
    time and the rest is scaled to the reference host's speed, as the
    serving metrics are.  A traced run reports no ``setup_s`` and keeps
    the slices out of its training spans."""
    calibration = Calibration()
    ticking = calibration.ticking() if tracer is None else nullcontext()
    start = time.perf_counter()
    with ticking, span(tracer, "setup", "", "setup"):
        built = build()
    wall = time.perf_counter() - start - sum(calibration.samples)
    return wall * calibration.factor(), calibration, built


def cold_registry(work_dir: str) -> SpecRegistry:
    """A registry over an empty on-disk cache inside *work_dir*."""
    cache = os.path.join(work_dir, "spec-cache")
    os.makedirs(cache)
    return SpecRegistry(cache_dir=cache)


@dataclass
class Sums:
    """Guarded-versus-unguarded totals for one device."""

    guarded_s: float = 0.0
    twin_s: float = 0.0
    guarded_cycles: int = 0
    twin_cycles: int = 0


@dataclass
class Outcome:
    """What one workload run produced."""

    workload: str
    attempted: int = 0
    failed: int = 0
    refused_after_detection: int = 0
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    layers: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)
    info: Dict[str, object] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.failures


@dataclass
class Guest:
    """One guest VM with one device profile's driver; guarded when a
    spec is deployed on it (``attachment``), an unguarded twin
    otherwise."""

    prof: object
    vm: object
    device: object
    driver: object
    attachment: object = None

    @classmethod
    def boot(cls, name: str, spec=None,
             qemu_version: str = "99.0.0") -> "Guest":
        """Boot and prepare a guest.  With *spec*, deploy it first in
        PROTECTION mode with the per-round discipline: strict rounds,
        co-execution on the spec's sync keys."""
        prof = PROFILES[name]
        vm, device = prof.make_vm(qemu_version, backend=BACKEND)
        attachment = None
        if spec is not None:
            attachment = deploy(vm, device, spec, mode=Mode.PROTECTION,
                                backend=BACKEND)
        driver = prof.make_driver(vm)
        prof.prepare(vm, driver)
        return cls(prof, vm, device, driver, attachment)

    def run(self, op: OpRequest) -> None:
        """One benign common op, resolved exactly as a fleet instance
        resolves it (same op index wrap, same per-op RNG seed)."""
        ops = self.prof.common_ops
        ops[op.index % len(ops)](self.vm, self.driver,
                                 random.Random(op.seed))


# ---------------------------------------------------------------------------
# guest-mix
# ---------------------------------------------------------------------------

def stratified_ops(device: str, count: int,
                   rng: random.Random) -> List[OpRequest]:
    """*count* benign common ops of *device* in the profile's weighted
    proportions (largest remainder), shuffled, each with its own seed.
    Only the order and the ops' arguments vary with the seed, not the
    mix, so the seed moves the ops' host cost far less than
    independent weighted draws would."""
    prof = PROFILES[device]
    weights = prof.op_weights or [1.0] * len(prof.common_ops)
    quotas = [count * w / sum(weights) for w in weights]
    counts = [int(q) for q in quotas]
    by_remainder = sorted(range(len(quotas)),
                          key=lambda i: counts[i] - quotas[i])
    for index in by_remainder[:count - sum(counts)]:
        counts[index] += 1
    indices = [i for i, c in enumerate(counts) for _ in range(c)]
    rng.shuffle(indices)
    return [OpRequest("common", i, rng.randrange(1 << 31))
            for i in indices]


def guest_ops(seed: int, count: int) -> List[Tuple[str, OpRequest]]:
    """The guest-mix client's requests: devices round-robin, each
    device's ops a stratified weighted benign mix."""
    rng = random.Random(seed)
    width = len(GUEST_DEVICES)
    streams = {name: iter(stratified_ops(name, len(range(i, count, width)),
                                         rng))
               for i, name in enumerate(GUEST_DEVICES)}
    order = [GUEST_DEVICES[i % width] for i in range(count)]
    return [(name, next(streams[name])) for name in order]


@dataclass
class GuestServe:
    """Per-op samples of one guest-mix serving replica."""

    devices: List[str] = field(default_factory=list)
    guarded_s: List[float] = field(default_factory=list)
    twin_s: List[float] = field(default_factory=list)
    guarded_cycles: List[int] = field(default_factory=list)
    twin_cycles: List[int] = field(default_factory=list)
    failed: int = 0

    @property
    def ops_per_s(self) -> float:
        return len(self.guarded_s) / sum(self.guarded_s)

    def per_device(self) -> Dict[str, Sums]:
        out = {name: Sums() for name in GUEST_DEVICES}
        for i, name in enumerate(self.devices):
            sums = out[name]
            sums.guarded_s += self.guarded_s[i]
            sums.twin_s += self.twin_s[i]
            sums.guarded_cycles += self.guarded_cycles[i]
            sums.twin_cycles += self.twin_cycles[i]
        return out

    def signature(self) -> tuple:
        """The replica's work in cycles: equal for identical replicas."""
        return tuple(self.guarded_cycles), tuple(self.twin_cycles)

    @classmethod
    def typical(cls, replicas: Sequence["GuestServe"]) -> "GuestServe":
        """Each op's median host time across identical replicas."""
        first = replicas[0]
        median = statistics.median
        return cls(first.devices,
                   [median(t) for t in zip(*(r.guarded_s for r in replicas))],
                   [median(t) for t in zip(*(r.twin_s for r in replicas))],
                   first.guarded_cycles, first.twin_cycles,
                   sum(r.failed for r in replicas))


def guest_setup(work_dir: str, tracer: Optional[Tracer] = None):
    """Cold-train the 7 patched specs and boot one guarded guest per
    profile; returns (setup seconds, its calibration, (registry,
    guests))."""
    def build():
        registry = cold_registry(work_dir)
        specs = {name: registry.get(name) for name in GUEST_DEVICES}
        guests = {}
        for name in GUEST_DEVICES:
            with span(tracer, "fleet.boot", name):
                guests[name] = Guest.boot(name, specs[name])
        return registry, guests

    return timed_setup(build, tracer)


def guest_serve(guests: Dict[str, Guest],
                ops: Sequence[Tuple[str, OpRequest]],
                tracer: Optional[Tracer] = None,
                calibration: Optional[Calibration] = None
                ) -> Tuple[GuestServe, List[str]]:
    """One replica: a closed loop with one client.  Each guarded op is
    followed at once by the same op on a fresh unguarded twin, so
    machine drift hits both sides, and then by a *calibration* slice.
    Returns the samples and the failed gates."""
    twins = {name: Guest.boot(name) for name in guests}
    out = GuestServe()
    errors: List[str] = []
    clock = time.perf_counter
    for name, op in ops:
        guest, twin = guests[name], twins[name]
        warned = len(guest.attachment.warnings)
        cycles = guest.vm.stats.total_cycles
        twin_cycles = twin.vm.stats.total_cycles
        with span(tracer, "op.guarded", name, "guarded"):
            t0 = clock()
            try:
                guest.run(op)
            except ReproError as exc:
                out.failed += 1
                errors.append(f"{name}: guarded op {op} raised {exc}")
            t1 = clock()
        if len(guest.attachment.warnings) != warned:
            out.failed += 1
        with span(tracer, "op.twin", name, "twin"):
            t2 = clock()
            try:
                twin.run(op)
            except ReproError as exc:
                errors.append(f"{name}: twin op {op} raised {exc}")
            t3 = clock()
        if calibration is not None:
            calibration.sample()
        out.devices.append(name)
        out.guarded_s.append(t1 - t0)
        out.twin_s.append(t3 - t2)
        out.guarded_cycles.append(guest.vm.stats.total_cycles - cycles)
        out.twin_cycles.append(twin.vm.stats.total_cycles - twin_cycles)
    errors += gates.guard_verdict_failures(guests)
    errors += gates.twin_failures(guests, twins)
    return out, errors


def guest_metrics(setup_s: float, serve: GuestServe, factor: float
                  ) -> Dict[str, Tuple[float, str]]:
    """Host times are scaled by the calibration *factor* (1 for raw)."""
    guarded = factor * sum(serve.guarded_s)
    op_ms = [1e3 * factor * s for s in serve.guarded_s]
    typical, tail = geomean(op_ms), tail_mean(op_ms)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(op_ms) / guarded, "ops/s"),
        "op_ms_gmean": (typical, "ms"),
        "op_ms_tail": (tail, "ms"),
        # no batching in guest-mix: each client dispatch is one op
        "dispatch_ms_gmean": (typical, "ms"),
        "dispatch_ms_tail": (tail, "ms"),
        "guard_ms_per_op": (1e3 * (guarded - factor * sum(serve.twin_s))
                            / len(op_ms), "ms"),
        # the twin books the guarded side's vmexit + device cycles
        # (the twin gate checks this), so the difference is the checker
        "cycle_overhead_pct": (100.0 * (sum(serve.guarded_cycles)
                                        - sum(serve.twin_cycles))
                               / sum(serve.twin_cycles), "%"),
        "sim_op_ms": (1e3 * statistics.mean(serve.guarded_cycles)
                      / CYCLES_PER_SECOND, "ms"),
    }


def run_guest_mix(seed: int, seconds: float, work_dir: str,
                  tracer: Optional[Tracer]) -> Outcome:
    out = Outcome("guest-mix")
    count = max(len(GUEST_DEVICES),
                round(seconds * GUEST_OPS_PER_SECOND / GUEST_REPLICAS))
    ops = guest_ops(seed, count)
    setup_s, setup_calibration, (registry, guests) = guest_setup(
        work_dir, tracer)
    out.failures += gates.cold_setup_failures(
        registry.stats, [(name, "99.0.0") for name in GUEST_DEVICES])
    traced = None
    if tracer is not None:
        # The traced replica gives the spans; the untraced replicas
        # that follow give every host-time figure.
        traced, errors = guest_serve(guests, ops, tracer)
        out.failures += errors
        tracer.uninstall()
        guests = None
    replicas = []
    calibration = Calibration()
    for _ in range(GUEST_REPLICAS):
        # free the previous replica's guests before the next one, so
        # peak memory is one replica's, not an accident of gc timing
        gc.collect()
        if guests is None:
            guests = {name: Guest.boot(name, registry.get(name))
                      for name in GUEST_DEVICES}
        serve, errors = guest_serve(guests, ops, calibration=calibration)
        out.failures += errors
        replicas.append(serve)
        guests = None
    out.failures += gates.replica_failures(
        [r.signature() for r in replicas])
    typical = GuestServe.typical(replicas)
    out.attempted = len(ops) * len(replicas)
    out.failed = typical.failed
    out.metrics = guest_metrics(setup_s, typical, calibration.factor())
    out.metrics["peak_rss_mb"] = (peak_rss_mb(), "MiB")
    out.info.update(ops=len(ops), replicas=len(replicas),
                    ops_per_device=len(ops) // len(GUEST_DEVICES),
                    **raw_info(guest_metrics(setup_s, typical, 1.0),
                               setup_calibration, calibration))
    if traced is not None:
        out.layers = layers.guest_layers(
            tracer.summary(), traced, typical,
            statistics.median(r.ops_per_s for r in replicas))
    return out


# ---------------------------------------------------------------------------
# gateway-credit
# ---------------------------------------------------------------------------

def gateway_inputs(seed: int, seconds: float
                   ) -> Tuple[List[TenantPlan], List[TenantStream],
                              ArrivalSpec]:
    """64 tenants over fdc/sdhci/pcnet, 5 of them attacked, seeded
    bursty arrivals."""
    plans = plan_tenants(GATEWAY_DEVICES, GATEWAY_TENANTS,
                         inject_fraction=ATTACKED_TENANTS / GATEWAY_TENANTS,
                         seed=seed)
    per_tenant = max(1, round(seconds * TENANT_OPS_PER_SECOND))
    arrival, times = tenant_arrivals(plans, per_tenant, seed)
    return plans, gateway_streams(plans, times, seed), arrival


def tenant_arrivals(plans: Sequence[TenantPlan], per_tenant: int,
                    seed: int) -> Tuple[ArrivalSpec, Dict[str, List[int]]]:
    """Each tenant's first *per_tenant* arrivals of its bursty stream,
    drawn exactly as ``build_streams`` draws them (per-tenant keyed
    RNG) over the shortest doubling of the horizon that gives every
    tenant that many.  Every tenant, and so every device, serves a
    fixed number of ops: over one fixed horizon, whether a tenant's
    bursts fell inside it moved a replica's op count by a fifth between
    seeds."""
    horizon_s = per_tenant / ARRIVAL_RATE
    while True:
        arrival = ArrivalSpec(pattern="bursty", rate_per_sec=ARRIVAL_RATE,
                              horizon_s=horizon_s)
        times = {p.tenant: arrival.sample(tenant_rng(seed, p.tenant))
                 for p in plans}
        if all(len(t) >= per_tenant for t in times.values()):
            return arrival, {tenant: t[:per_tenant]
                             for tenant, t in times.items()}
        horizon_s *= 2


def gateway_streams(plans: Sequence[TenantPlan],
                    times: Dict[str, List[int]],
                    seed: int) -> List[TenantStream]:
    """Each tenant's arrivals at *times*.  The ops are each device's
    stratified weighted benign mix over all of that device's arrivals,
    as in guest-mix: with independent draws, the count of heavy sdhci
    block ops alone moved throughput 1.5x between seeds.  An attacked
    tenant's middle arrival carries its exploit, as ``build_streams``
    splices it."""
    rng = random.Random(seed)
    mixes = {device: iter(stratified_ops(
        device, sum(len(times[p.tenant]) for p in plans
                    if p.device == device), rng))
        for device in GATEWAY_DEVICES}
    streams = []
    for plan in plans:
        pairs = [(t, next(mixes[plan.device])) for t in times[plan.tenant]]
        if plan.attacked:
            middle = len(pairs) // 2
            pairs[middle] = (pairs[middle][0],
                             OpRequest("exploit", cve=plan.attack_cve))
        streams.append(TenantStream(plan, tuple(pairs)))
    return streams


def gateway_config(seed: int, arrival: ArrivalSpec,
                   cache_dir: Optional[str]) -> GatewayConfig:
    """2 shards x 2 inline lanes, credit-batch discipline."""
    return GatewayConfig(
        shards=2, workers_per_shard=2, coalesce_max=8, inline=True,
        backend=BACKEND, batch_rounds=8, mode=Mode.PROTECTION,
        cache_dir=cache_dir, seed=seed, arrival=arrival)


@dataclass
class Dispatch:
    """One ``FleetSession.submit`` call, timed from outside."""

    batch: RequestBatch
    result: object              # BatchResult, or None when lost
    wall_s: float               # host wall of the submit call
    twin_s: float = 0.0         # the same ops on the unguarded twin
    twin_cycles: int = 0


class DispatchLog:
    """Times every ``FleetSession.submit`` call (one dispatch) while the
    ``with`` block runs, each followed by a *calibration* slice whose
    time ``calibration_s`` sums."""

    def __init__(self, calibration: Optional[Calibration] = None) -> None:
        self.records: List[Dispatch] = []
        self.calibration_s = 0.0
        self._patches = Patches()
        self._calibration = calibration

    def __enter__(self) -> "DispatchLog":
        original = FleetSession.submit
        clock = time.perf_counter
        records = self.records
        calibration = self._calibration

        def submit(session, batch):
            t0 = clock()
            result = original(session, batch)
            t1 = clock()
            records.append(Dispatch(batch, result, t1 - t0))
            if calibration is not None:
                calibration.sample()
                self.calibration_s += clock() - t1
            return result

        self._patches.patch(FleetSession, "submit", submit)
        return self

    def __exit__(self, *exc) -> None:
        self._patches.uninstall()


def twin_pass(dispatches: Sequence[Dispatch], benign: Sequence[str],
              calibration: Calibration) -> List[Tuple[float, int]]:
    """Replay every benign tenant's dispatched ops, in dispatch order, on
    that tenant's unguarded twin guest, each dispatch followed by a
    *calibration* slice; returns (host wall, cycles) per dispatch,
    (0, 0) for the others.  A twin boots on its tenant's first
    dispatch, as the guarded fleet instance does, and its boot counts
    in that dispatch's wall on both sides."""
    twins: Dict[str, Guest] = {}
    out = []
    for d in dispatches:
        batch = d.batch
        if d.result is None or batch.tenant not in benign:
            out.append((0.0, 0))
            continue
        t0 = time.perf_counter()
        twin = twins.get(batch.tenant)
        if twin is None:
            twin = twins[batch.tenant] = Guest.boot(
                batch.device, qemu_version=batch.qemu_version)
        before = twin.vm.stats.total_cycles
        for op in batch.ops:
            twin.run(op)
        out.append((time.perf_counter() - t0,
                    twin.vm.stats.total_cycles - before))
        calibration.sample()
    return out


@dataclass
class GatewayServe:
    """One ``Gateway.run`` with its dispatches."""

    result: GatewayResult
    #: Gateway.run wall, less its warm registry priming
    serve_s: float
    dispatches: List[Dispatch]
    workers: int

    @property
    def completed(self) -> int:
        return sum(d.result.completed for d in self.dispatches
                   if d.result is not None)

    @property
    def ops_per_s(self) -> float:
        return self.completed / self.serve_s

    def twinned(self) -> List[Dispatch]:
        """Dispatches of benign tenants, which have a twin."""
        return [d for d in self.dispatches if d.twin_cycles]

    def per_device(self) -> Dict[str, Sums]:
        """Guarded (worker wall) versus twin totals per device."""
        out = {device: Sums() for device in GATEWAY_DEVICES}
        for d in self.twinned():
            sums = out[d.batch.device]
            sums.guarded_s += d.result.wall_seconds
            sums.twin_s += d.twin_s
            sums.guarded_cycles += d.result.cycles
            sums.twin_cycles += d.twin_cycles
        return out

    def signature(self) -> tuple:
        """The replica's work: every dispatch's batch and cycles."""
        return tuple((d.batch, d.result and d.result.cycles)
                     for d in self.dispatches)

    @classmethod
    def typical(cls, replicas: Sequence["GatewayServe"],
                twins: Sequence[List[Tuple[float, int]]]
                ) -> "GatewayServe":
        """Each dispatch's median host time across identical replicas,
        and its twin's median across the twin passes; serving time is
        the dispatches' sum plus the median gateway time spent outside
        them."""
        median = statistics.median
        dispatches = []
        for same, twin in zip(zip(*(r.dispatches for r in replicas)),
                              zip(*twins)):
            result = same[0].result
            if result is not None:
                result = dataclasses.replace(result, wall_seconds=median(
                    d.result.wall_seconds for d in same))
            dispatches.append(Dispatch(
                same[0].batch, result, median(d.wall_s for d in same),
                median(t for t, _ in twin), twin[0][1]))
        outside = median(r.serve_s - sum(d.wall_s for d in r.dispatches)
                         for r in replicas)
        first = replicas[0]
        return cls(first.result,
                   outside + sum(d.wall_s for d in dispatches),
                   dispatches, first.workers)


def gateway_serve(config: GatewayConfig, registry: SpecRegistry,
                  plans, streams, tracer: Optional[Tracer] = None,
                  calibration: Optional[Calibration] = None
                  ) -> GatewayServe:
    """One ``Gateway.run``; its serving time leaves out the registry
    priming and the *calibration* slices after each dispatch."""
    with DispatchLog(calibration) as log:
        gateway = Gateway(config, registry=registry)
        with span(tracer, "gateway.run", "", "guarded"):
            t0 = time.perf_counter()
            result = gateway.run(plans, streams)
            wall = time.perf_counter() - t0
    return GatewayServe(
        result, wall - result.stats.warmup_seconds - log.calibration_s,
        log.records, config.shards * config.workers_per_shard)


def gateway_accounting(plans: Sequence[TenantPlan], serve: GatewayServe
                       ) -> Tuple[int, int, int]:
    """(attempted, failed, refused_after_detection) for one replica.

    A failed op is a benign op whose outcome is not ``ok`` (detected,
    fault, trace gap, shed, lost, quota-rejected or queue-shed), or an
    exploit op that completed without detection.  Ops refused because
    their own *attacked* tenant was quarantined are counted apart."""
    stats = serve.result.stats
    attacked = {p.tenant for p in plans if p.attacked}
    failed = stats.quota_rejected + stats.queue_shed
    refused = 0
    for d in serve.dispatches:
        result = d.result
        if result is None:
            failed += len(d.batch.ops)
            continue
        exploits = sum(op.kind == "exploit" for op in d.batch.ops)
        false_positives = result.detections - min(result.detections,
                                                  exploits)
        accounted = (result.completed + result.rejected + result.faults
                     + result.trace_gaps + result.shed)
        failed += (result.faults + result.trace_gaps + result.shed
                   + result.exploit_escapes + false_positives
                   + result.submitted - accounted)
        if d.batch.tenant in attacked:
            refused += result.rejected
        else:
            failed += result.rejected
    return stats.offered, failed, refused


def gateway_metrics(setup_s: float, serve: GatewayServe, factor: float,
                    twin_factor: float) -> Dict[str, Tuple[float, str]]:
    """Host times of the guarded replicas are scaled by the calibration
    *factor*, and the twin passes', which run later, by their own
    *twin_factor* (1 for raw)."""
    dispatch_ms = [1e3 * factor * d.wall_s for d in serve.dispatches]
    op_ms: List[float] = []
    for d, wall_ms in zip(serve.dispatches, dispatch_ms):
        # each op is charged its dispatch's wall over the ops in it
        ops = len(d.batch.ops)
        op_ms.extend([wall_ms / ops] * ops)
    twinned = serve.twinned()
    ops = sum(len(d.batch.ops) for d in twinned)
    guarded_s = factor * sum(d.result.wall_seconds for d in twinned)
    twin_s = twin_factor * sum(d.twin_s for d in twinned)
    guarded_cycles = sum(d.result.cycles for d in twinned)
    twin_cycles = sum(d.twin_cycles for d in twinned)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (serve.ops_per_s / factor, "ops/s"),
        "op_ms_gmean": (geomean(op_ms), "ms"),
        "op_ms_tail": (tail_mean(op_ms), "ms"),
        "dispatch_ms_gmean": (geomean(dispatch_ms), "ms"),
        "dispatch_ms_tail": (tail_mean(dispatch_ms), "ms"),
        # guarded side: the worker wall of the same batches
        "guard_ms_per_op": (1e3 * (guarded_s - twin_s) / ops, "ms"),
        "cycle_overhead_pct": (100.0 * (guarded_cycles - twin_cycles)
                               / twin_cycles, "%"),
        "sim_op_ms": (1e3 * statistics.mean(
            c for d in serve.dispatches if d.result is not None
            for c in d.result.op_cycles) / CYCLES_PER_SECOND, "ms"),
    }


def gateway_setup(seed: int, plans, arrival, work_dir: str,
                  tracer: Optional[Tracer] = None):
    """Cold-train every (device, qemu_version) pair the plans need —
    the attacked tenants' vulnerable builds included — and boot one
    fleet instance per pair as the gateway configures them, which
    lowers each device program and each spec (batch-specialized under
    credit batching) to bytecode once, so the instances of every
    replica boot warm.  The tenants' own instances boot lazily inside
    ``Gateway.run``, so their boot is serving time (the traced run
    reports its share as ``fleet.boot_share``).  Returns (setup
    seconds, its calibration, (registry, config))."""
    def build():
        registry = cold_registry(work_dir)
        config = gateway_config(seed, arrival, registry.cache_dir)
        pairs = sorted({(p.device, p.qemu_version) for p in plans})
        registry.prime(pairs)
        for device, version in pairs:
            GuardedInstance("setup", device, version,
                            registry.get(device, version),
                            mode=config.mode, backend=config.backend,
                            batch_rounds=config.batch_rounds)
        return registry, config

    return timed_setup(build, tracer)


def raw_info(raw: Dict[str, Tuple[float, str]],
             *calibrations: Calibration) -> Dict[str, object]:
    """The host-time metrics as measured, before scaling, and the
    calibration slices' mean times (setup's first), for the ``info``
    line."""
    setup_s = raw["setup_s"][0] / calibrations[0].factor()
    return {"calibration_slice_ms": [round(1e3 * c.slice_s, 5)
                                     for c in calibrations],
            "raw": {"setup_s": round(setup_s, 5),
                    **{name: round(value, 5) for name, (value, unit)
                       in raw.items() if unit in ("ops/s", "ms")
                       and not name.startswith("sim_")}}}


def run_gateway(seed: int, seconds: float, work_dir: str,
                tracer: Optional[Tracer]) -> Outcome:
    out = Outcome("gateway-credit")
    plans, streams, arrival = gateway_inputs(seed, seconds)
    pairs = sorted({(p.device, p.qemu_version) for p in plans})
    benign = {p.tenant for p in plans if not p.attacked}
    setup_s, setup_calibration, (registry, config) = gateway_setup(
        seed, plans, arrival, work_dir, tracer)
    out.failures += gates.cold_setup_failures(registry.stats, pairs)
    traced = None
    if tracer is not None:
        traced = gateway_serve(config, registry, plans, streams, tracer)
        out.failures += gates.gateway_failures(traced.result, plans)
        tracer.uninstall()
    replicas = []
    calibration, twin_calibration = Calibration(), Calibration()
    for _ in range(GATEWAY_REPLICAS):
        gc.collect()
        serve = gateway_serve(config, registry, plans, streams,
                              calibration=calibration)
        out.failures += gates.gateway_failures(serve.result, plans)
        replicas.append(serve)
    out.failures += gates.replica_failures(
        [r.signature() for r in replicas])
    # peak memory of the guarded serving alone: the twins come after
    rss = peak_rss_mb()
    twins = []
    for _ in range(GATEWAY_REPLICAS):
        gc.collect()
        twins.append(twin_pass(replicas[0].dispatches, benign,
                               twin_calibration))
    out.failures += gates.replica_failures(
        [tuple(c for _, c in t) for t in twins])
    for serve in replicas:
        attempted, failed, refused = gateway_accounting(plans, serve)
        out.attempted += attempted
        out.failed += failed
        out.refused_after_detection += refused
    typical = GatewayServe.typical(replicas, twins)
    out.metrics = gateway_metrics(setup_s, typical, calibration.factor(),
                                  twin_calibration.factor())
    out.metrics["peak_rss_mb"] = (rss, "MiB")
    stats = typical.result.stats
    out.info.update(ops=stats.offered, dispatches=stats.dispatches,
                    coalesce_mean=round(stats.coalesce_mean, 3),
                    replicas=len(replicas), tenants=len(plans),
                    attacked=sum(p.attacked for p in plans),
                    spec_pairs=len(pairs), horizon_s=arrival.horizon_s,
                    **raw_info(gateway_metrics(setup_s, typical, 1.0, 1.0),
                               setup_calibration, calibration,
                               twin_calibration))
    if traced is not None:
        out.layers = layers.gateway_layers(
            tracer.summary(), traced, typical,
            statistics.median(r.ops_per_s for r in replicas))
    return out


# ---------------------------------------------------------------------------
# entry
# ---------------------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, work_dir: str,
                 trace: bool = False) -> Outcome:
    """Run one workload end to end in *work_dir* (which must not hold a
    spec cache yet).  With *trace*, span wrappers sit around the
    layers' public functions during setup and one extra, traced
    serving replica, and the outcome carries per-layer metrics in
    ``layers``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {WORKLOADS}")
    tracer = None
    if trace:
        tracer = Tracer()
        layers.install_setup(tracer)
        layers.install_serving(tracer)
    try:
        if workload == "guest-mix":
            out = run_guest_mix(seed, seconds, work_dir, tracer)
        else:
            out = run_gateway(seed, seconds, work_dir, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return out
