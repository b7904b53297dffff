"""Unit tests for the shadow DeviceState (flat-layout semantics)."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import DeviceFault, SpecError
from repro.ir import FUNCPTR, I32, U8, U16, BufType, StateLayout, StateMemory
from repro.spec import DeviceState


def make_layout():
    layout = StateLayout("Shadow")
    layout.add("reg", U8, register=True)
    layout.add("buf", BufType(U8, 8))
    layout.add("count", U16)
    layout.add("signed", I32)
    layout.add("ptr", FUNCPTR)
    return layout


def make_state():
    layout = make_layout()
    return DeviceState(layout, {"reg", "count", "signed", "ptr"}, {"buf"})


class TestShadowState:
    def test_boot_sync_copies_everything(self):
        state = make_state()
        memory = StateMemory(make_layout())
        memory.write_field("reg", 0x42)
        memory.write_buf("buf", 3, 0x99)
        state.sync_from(memory)
        assert state.read_field("reg") == 0x42
        assert state.read_buf("buf", 3) == 0x99

    def test_clone_is_independent(self):
        state = make_state()
        copy = state.clone()
        copy.write_field("reg", 7)
        assert state.read_field("reg") == 0

    def test_in_range_checks_declared_types(self):
        state = make_state()
        assert state.in_range("reg", 255)
        assert not state.in_range("reg", 256)
        assert state.in_range("signed", -5)
        assert not state.in_range("count", -1)
        assert state.in_range("ptr", 2**63)

    def test_buffer_geometry(self):
        state = make_state()
        assert state.buffer_length("buf") == 8
        assert state.index_in_bounds("buf", 7)
        assert not state.index_in_bounds("buf", 8)
        assert not state.index_in_bounds("buf", -1)

    def test_flat_layout_corruption_mirrors_device(self):
        """The property the indirect-jump check relies on: a simulated
        near-OOB store corrupts the same neighbour."""
        state = make_state()
        state.write_buf("buf", 8, 0x5A)     # one past the end: count b0
        assert state.read_field("count") == 0x5A

    def test_far_oob_faults_like_device(self):
        state = make_state()
        with pytest.raises(DeviceFault):
            state.write_buf("buf", 500, 1)

    def test_non_buffer_length_rejected(self):
        with pytest.raises(SpecError):
            make_state().buffer_length("reg")

    def test_buffer_listed_as_field_rejected(self):
        layout = make_layout()
        with pytest.raises(SpecError):
            DeviceState(layout, {"buf"}, set())

    def test_dump_lists_scalar_params_only(self):
        dump = make_state().dump()
        assert set(dump) == {"reg", "count", "signed", "ptr"}

    @given(st.integers(-(2**20), 2**20))
    def test_write_field_wraps_like_c(self, value):
        state = make_state()
        state.write_field("count", value)
        assert state.read_field("count") == value % (1 << 16)

    @given(st.binary(min_size=23, max_size=23))
    def test_dump_decodes_like_read_field(self, raw):
        """The one-unpack codec behind ``dump`` and ``final_state``
        matches field-by-field reads on any bytes, signedness and
        function pointers included, in sorted-name order."""
        state = make_state()
        assert state.layout.size == len(raw)
        state.memory.data[:] = raw
        expected = {name: state.read_field(name)
                    for name in sorted(state.fields)}
        dump = state.dump()
        assert list(dump.items()) == list(expected.items())
        assert state.codec.decode(state.codec.read(raw)) == expected
