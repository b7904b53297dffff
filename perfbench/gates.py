"""Correctness gates.  Each returns a list of failure messages; any
message fails the run, and the benchmark then publishes no numbers."""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple


def cold_setup_failures(stats, pairs: Iterable[Tuple[str, str]]
                        ) -> List[str]:
    """``setup_s`` must be cold: every (device, qemu_version) pair the
    workload needs was trained, and nothing came from a disk cache."""
    want = len(set(pairs))
    failures = []
    if stats.trains != want:
        failures.append(f"setup trained {stats.trains} spec(s), the "
                        f"workload needs {want}: setup_s is not cold")
    if stats.disk_hits:
        failures.append(f"setup loaded {stats.disk_hits} spec(s) from "
                        f"disk: setup_s is not cold")
    return failures


def guard_verdict_failures(guests: Dict[str, object]) -> List[str]:
    """The benign mix raises no warning and no halt on any guest."""
    failures = []
    for name, guest in guests.items():
        attachment = guest.attachment
        if attachment.warnings or attachment.halts:
            failures.append(
                f"{name}: benign ops drew {len(attachment.warnings)} "
                f"warning(s) and {len(attachment.halts)} halt(s)")
    return failures


def twin_failures(guests: Dict[str, object],
                  twins: Dict[str, object]) -> List[str]:
    """Enforcement must not change what the device does: after the
    run, each guarded guest and its unguarded twin hold the same device
    state and booked the same I/O rounds and device cycles."""
    failures = []
    for name, guest in guests.items():
        twin = twins[name]
        if bytes(guest.device.snapshot().data) != \
                bytes(twin.device.snapshot().data):
            failures.append(f"{name}: guarded and twin device state differ")
        for attr in ("io_rounds", "device_cycles"):
            mine = getattr(guest.vm.stats, attr)
            theirs = getattr(twin.vm.stats, attr)
            if mine != theirs:
                failures.append(f"{name}: {attr} {mine} guarded vs "
                                f"{theirs} twin")
    return failures


def gateway_failures(result, plans: Sequence[object]) -> List[str]:
    """The gateway's own safety certificate holds, and exactly the
    attacked tenants end quarantined."""
    failures = list(result.safety_failures())
    attacked = sorted(p.tenant for p in plans if p.attacked)
    quarantined = result.quarantined_tenants()
    if quarantined != attacked:
        missed = sorted(set(attacked) - set(quarantined))
        extra = sorted(set(quarantined) - set(attacked))
        failures.append(f"quarantined tenants != attacked tenants "
                        f"(missed {missed}, extra {extra})")
    return failures


def replica_failures(signatures: Sequence[tuple]) -> List[str]:
    """The serving replicas did identical work (same ops or dispatches,
    same cycle books), so taking each op's median host time across them
    compares like with like."""
    if any(sig != signatures[0] for sig in signatures[1:]):
        return ["serving replicas did different work: the program is "
                "not deterministic for identical inputs"]
    return []
