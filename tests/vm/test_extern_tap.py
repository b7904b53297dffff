"""Extern taps: co-execution harvests on the untraced interpreter.

A tap (``Machine.add_tap``) hears only ``on_extern`` and hears it on
every backend's untraced path, so the co-execution harvest no longer
pushes its rounds onto the traced runners.  These tests hold the tap to
the traced sink it replaced: the same extern events in the same order
for every device profile (composites included) on every backend, each
event delivered exactly once when a tap and a sink are attached
together, and identical co-execution verdicts on every seeded CVE —
including the CVE-2016-7909 watchdog, which the checker classifies from
the harvested prefix.
"""

import random

import pytest

from repro.checker import ExternHarvestSink, Mode
from repro.core import deploy
from repro.exploits.corpus import trained_spec
from repro.exploits.pocs import EXPLOITS, exploit_by_cve, run_exploit
from repro.interp.sinks import TraceSink
from repro.workloads.profiles import PROFILES, profile

ALL_DEVICES = ("fdc", "ehci", "pcnet", "sdhci", "scsi",
               "virtio-net", "virtio-blk")
COMPOSITES = ("virtio-net+virtio-blk", "fdc+sdhci")
BACKENDS = ("reference", "compiled", "bytecode")


class ExternLog(TraceSink):
    """Records every extern event, destless ones included."""

    def __init__(self) -> None:
        self.events = []

    def on_extern(self, caller, func, dest, args, result) -> None:
        self.events.append((caller, func, dest, tuple(args), result))


def _drive(name, backend, attach):
    """Run the profile's benign workload with ``attach(machine)``
    applied to every device machine; returns the VM."""
    prof = profile(name)
    vm, _ = prof.make_vm(backend=backend)
    for device in vm.devices.values():
        attach(device.machine)
    driver = prof.make_driver(vm)
    prof.prepare(vm, driver)
    rng = random.Random(2024)
    for op in prof.common_ops + prof.rare_ops:
        op(vm, driver, rng)
    return vm


def _observables(vm):
    return {name: (bytes(dev.state.data), dev.machine.cycles)
            for name, dev in vm.devices.items()}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", ALL_DEVICES + COMPOSITES)
class TestTapParity:
    def test_tap_events_equal_traced_sink_events(self, name, backend):
        taps, sinks = {}, {}

        def as_tap(machine):
            taps[machine.program.name] = machine.add_tap(ExternLog())

        def as_sink(machine):
            sinks[machine.program.name] = machine.add_sink(ExternLog())

        tapped = _drive(name, backend, as_tap)
        traced = _drive(name, backend, as_sink)
        assert any(log.events for log in taps.values()), \
            "workload made no extern calls"
        for part, log in taps.items():
            assert log.events == sinks[part].events, part
        # The tap observes; it never changes what the device did.
        assert _observables(tapped) == _observables(traced)

    def test_harvest_queues_equal(self, name, backend):
        taps, sinks = {}, {}

        def as_tap(machine):
            taps[machine.program.name] = machine.add_tap(
                ExternHarvestSink())

        def as_sink(machine):
            sinks[machine.program.name] = machine.add_sink(
                ExternHarvestSink())

        _drive(name, backend, as_tap)
        _drive(name, backend, as_sink)
        for part, harvest in taps.items():
            assert harvest.queues == sinks[part].queues, part

    def test_tap_and_sink_each_hear_every_extern_once(self, name, backend):
        alone, tap_side, sink_side = {}, {}, {}

        def tap_only(machine):
            alone[machine.program.name] = machine.add_tap(ExternLog())

        def both(machine):
            part = machine.program.name
            tap_side[part] = machine.add_tap(ExternLog())
            sink_side[part] = machine.add_sink(ExternLog())

        _drive(name, backend, tap_only)
        _drive(name, backend, both)
        for part, log in alone.items():
            assert tap_side[part].events == log.events, part
            assert sink_side[part].events == log.events, part


class TestTapLifecycle:
    def test_harvest_is_a_tap_not_a_sink(self):
        spec = trained_spec("sdhci")
        vm, device = PROFILES["sdhci"].make_vm(backend="bytecode")
        attachment = deploy(vm, device, spec, backend="bytecode")
        assert any(attachment.sync_keys.values())
        assert device.machine._taps == [attachment.harvest]
        assert device.machine._sinks == []

    def test_redeploy_and_detach_release_the_tap(self):
        spec = trained_spec("sdhci")
        vm, device = PROFILES["sdhci"].make_vm(backend="bytecode")
        deploy(vm, device, spec, backend="bytecode")
        second = deploy(vm, device, spec, backend="bytecode")
        assert device.machine._taps == [second.harvest]
        vm.detach_sedspec(device.NAME)
        assert device.machine._taps == []


class _ForceTraced(TraceSink):
    """A do-nothing sink: its presence puts every round on the traced
    runners, so the harvest hears externs through the traced path."""


def _attack(exploit, backend, traced):
    spec = trained_spec(exploit.device, exploit.qemu_version)
    vm, device = PROFILES[exploit.device].make_vm(exploit.qemu_version,
                                                  backend=backend)
    attachment = deploy(vm, device, spec, mode=Mode.PROTECTION,
                        backend=backend)
    if traced:
        device.machine.add_sink(_ForceTraced())
    outcome = run_exploit(vm, device, exploit)
    return outcome, attachment, device


@pytest.mark.parametrize("backend", ("compiled", "bytecode"))
@pytest.mark.parametrize("exploit", EXPLOITS, ids=lambda e: e.cve)
def test_coexec_verdicts_match_traced_harvest(exploit, backend):
    untraced = _attack(exploit, backend, traced=False)
    traced = _attack(exploit, backend, traced=True)
    (u_out, u_att, u_dev), (t_out, t_att, t_dev) = untraced, traced
    assert u_out == t_out
    assert u_att.halts == t_att.halts
    assert u_att.warnings == t_att.warnings
    assert u_att.checked_rounds == t_att.checked_rounds
    assert u_att.checker.history == t_att.checker.history
    assert bytes(u_dev.state.data) == bytes(t_dev.state.data)
    assert u_dev.halted == t_dev.halted


def test_watchdog_classified_from_untraced_harvest():
    """CVE-2016-7909: the descriptor scan spins until the device
    watchdog fires; the checker flags the round from the prefix the tap
    harvested before the fault."""
    exploit = exploit_by_cve("CVE-2016-7909")
    outcome, attachment, device = _attack(exploit, "bytecode",
                                          traced=False)
    assert device.machine._sinks == []
    assert outcome.detected
    assert attachment.halts
    assert set(outcome.halted_by) == {"conditional_jump"}
