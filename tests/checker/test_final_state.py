"""``CheckReport.final_state`` is exact at round time, and cheap to keep.

Each report captures the committed shadow's scalar parameters when its
round ends, as a compact values tuple.  Two properties follow and are
pinned here on every backend, per round and batched:

* **exactness** — a later round or a resync (the VM resyncs after every
  enhancement-mode WARN) never changes an earlier report's final state;
* **retention** — ``checker.history`` holds no shadow ``DeviceState``
  and no state-sized buffer per report, so a long-lived checker grows by
  a few hundred bytes per round, not by a copy of the device state.
"""

import gc
import random
import tracemalloc
from enum import Enum
from types import FunctionType, ModuleType

import pytest

from repro.checker import Action, ESChecker, Mode
from repro.exploits.corpus import trained_spec
from repro.ir import StateMemory
from repro.spec import DeviceState, ParamCodec
from repro.workloads.profiles import PROFILES

from tests.checker.test_escheck import build_toy_spec
from tests.toydev import make_toy_machine

BACKENDS = ("reference", "compiled", "bytecode")

#: eight clean pushes fill the FIFO; the ninth takes the bounds check's
#: never-trained side, which enhancement mode warns about
PUSHES = [("pmio:write:1", (i,)) for i in range(8)]
OVERFILL = ("pmio:write:1", (9,))


@pytest.fixture(scope="module")
def toy_spec():
    return build_toy_spec(vuln=False)


def _eager_final_states(spec, backend):
    """Reference run: every final state read the moment its round ends."""
    machine = make_toy_machine()
    checker = ESChecker(spec, mode=Mode.ENHANCEMENT, backend=backend)
    checker.boot_sync(machine.state)
    states = []
    for key, args in PUSHES + [OVERFILL]:
        report = checker.check_io(key, args)
        states.append(dict(report.final_state))
        machine.run_entry(key, args)
    return states


@pytest.mark.parametrize("batched", (False, True), ids=("per-round",
                                                        "batched"))
@pytest.mark.parametrize("backend", BACKENDS)
def test_resync_after_warn_leaves_earlier_final_states(toy_spec, backend,
                                                       batched):
    expected = _eager_final_states(toy_spec, backend)
    machine = make_toy_machine()
    checker = ESChecker(toy_spec, mode=Mode.ENHANCEMENT, backend=backend)
    checker.boot_sync(machine.state)
    rounds = PUSHES + [OVERFILL]
    if batched:
        reports = checker.check_batch(rounds)
        for key, args in rounds:
            machine.run_entry(key, args)
    else:
        reports = []
        for key, args in rounds:
            reports.append(checker.check_io(key, args))
            machine.run_entry(key, args)
    assert [r.action for r in reports[:-1]] == [Action.ALLOW] * 8
    assert reports[-1].action is Action.WARN
    # The device executed the warned round, so its status register now
    # differs from the shadow; the VM's response is a resync.
    assert machine.state.read_field("status") == 0xFF
    assert checker.device_state.read_field("status") != 0xFF
    checker.resync(machine.state)
    assert checker.device_state.read_field("status") == 0xFF
    assert [r.final_state for r in reports] == expected
    # Later rounds leave them alone too.
    checker.check_io("pmio:write:0", (0,))
    checker.resync(make_toy_machine().state)
    assert [r.final_state for r in checker.history[:9]] == expected


def test_final_state_keys_and_values_match_dump(toy_spec):
    checker = ESChecker(toy_spec, backend="bytecode")
    checker.boot_sync(make_toy_machine().state)
    report = checker.check_io(*PUSHES[0])
    assert list(report.final_state) == sorted(checker.device_state.fields)
    assert report.final_state == checker.device_state.dump()


# ---------------------------------------------------------------------------
# retention
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def sdhci_capture():
    """Benign sdhci traffic (a ~4 KB control structure), captured at the
    VM's I/O demux with no checker attached."""
    prof = PROFILES["sdhci"]
    vm, device = prof.make_vm()
    boot = device.snapshot()
    rounds = []
    orig = vm._io

    def spy(dev, key, args):
        rounds.append((key, tuple(args)))
        return orig(dev, key, args)

    vm._io = spy
    driver = prof.make_driver(vm)
    prof.prepare(vm, driver)
    rng = random.Random(2024)
    for op in prof.common_ops + prof.rare_ops:
        op(vm, driver, rng)
    return trained_spec("sdhci"), boot, rounds


def _vet(checker, rounds, batched):
    if batched:
        for i in range(0, len(rounds), 8):
            checker.check_batch(rounds[i:i + 8])
    else:
        for key, args in rounds:
            checker.check_io(key, args)


def _reachable_heavy(report, size):
    """Shadow objects and state-sized buffers reachable from *report*.

    Follows containers, instance attributes, bound methods and closure
    cells — the ways a report could pin a shadow — but not classes,
    modules, enum members or function globals, which reach everything;
    the spec-wide parameter codec is shared, not per report."""
    seen, found, todo = set(), [], [report]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, (DeviceState, StateMemory)):
            found.append(obj)
        elif isinstance(obj, (bytes, bytearray)):
            if len(obj) >= size:
                found.append(obj)
        elif isinstance(obj, FunctionType):
            todo.extend(c.cell_contents for c in obj.__closure__ or ())
        elif not isinstance(obj, (type, ModuleType, Enum, ParamCodec)):
            todo.extend(gc.get_referents(obj))
    return found


CASES = [(b, False) for b in BACKENDS] + [("bytecode", True)]


@pytest.mark.parametrize("backend,batched", CASES,
                         ids=[f"{b}-{'batched' if x else 'per-round'}"
                              for b, x in CASES])
class TestHistoryRetention:
    def test_no_shadow_reachable_from_history(self, sdhci_capture,
                                              backend, batched):
        spec, boot, rounds = sdhci_capture
        checker = ESChecker(spec, mode=Mode.ENHANCEMENT, backend=backend)
        checker.boot_sync(boot)
        _vet(checker, rounds, batched)
        size = spec.layout.size
        assert size > 4000
        assert len(checker.history) == len(rounds)
        for report in checker.history:
            assert _reachable_heavy(report, size) == []

    def test_retained_bytes_per_report(self, sdhci_capture, backend,
                                       batched):
        spec, boot, rounds = sdhci_capture
        checker = ESChecker(spec, mode=Mode.ENHANCEMENT, backend=backend)
        checker.boot_sync(boot)
        _vet(checker, rounds, batched)        # warm caches and frames
        checker.history.clear()
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(3):
                _vet(checker, rounds, batched)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        per_report = retained / len(checker.history)
        # A report with its attribute dict, anomaly list and values
        # tuple (about 500 bytes): well under the 4 KB shadow copy each
        # report used to pin.
        assert per_report < spec.layout.size / 4, per_report
