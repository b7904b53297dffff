"""Flat-memory layout of a device control structure.

QEMU device bugs are memory-safety bugs: an index running past a ``fifo``
array corrupts whatever the C compiler placed after it.  To reproduce the
paper's case studies faithfully (CVE-2015-7504 overwrites the ``irq``
function pointer adjacent to a buffer; CVE-2020-14364 writes at a *negative*
index), the control structure is backed by a real bytearray with explicit
field offsets, declared in the order the device author lists the fields —
just like a C struct.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import IRError
from repro.ir.types import BufType, FuncPtrType, IntType

ScalarOrBuf = Union[IntType, BufType, FuncPtrType]


@dataclass(frozen=True)
class FieldDecl:
    """One member of the device control structure."""

    name: str
    type: ScalarOrBuf
    offset: int
    register: bool = False      # Rule 1: mirrors a physical device register
    doc: str = ""

    @property
    def size(self) -> int:
        return self.type.size

    @property
    def is_buffer(self) -> bool:
        return isinstance(self.type, BufType)

    @property
    def is_funcptr(self) -> bool:
        return isinstance(self.type, FuncPtrType)

    @property
    def end(self) -> int:
        return self.offset + self.size


class StateLayout:
    """Ordered field declarations plus their computed offsets.

    Fields are packed back to back with no padding: deterministic layout
    makes overflow behaviour (which neighbour gets clobbered) reproducible
    across runs, which the exploit case studies rely on.
    """

    def __init__(self, struct_name: str):
        self.struct_name = struct_name
        self._fields: Dict[str, FieldDecl] = {}
        self._order: List[str] = []
        self._size = 0

    def add(self, name: str, typ: ScalarOrBuf, register: bool = False,
            doc: str = "") -> FieldDecl:
        """Append a field; offset is the current end of the struct."""
        if name in self._fields:
            raise IRError(f"duplicate field {name!r} in {self.struct_name}")
        decl = FieldDecl(name, typ, self._size, register=register, doc=doc)
        self._fields[name] = decl
        self._order.append(name)
        self._size += decl.size
        return decl

    @property
    def size(self) -> int:
        return self._size

    @property
    def fields(self) -> List[FieldDecl]:
        return [self._fields[n] for n in self._order]

    def field(self, name: str) -> FieldDecl:
        try:
            return self._fields[name]
        except KeyError:
            raise IRError(
                f"{self.struct_name} has no field {name!r}") from None

    def has_field(self, name: str) -> bool:
        return name in self._fields

    def field_at(self, offset: int) -> Optional[FieldDecl]:
        """Field whose storage covers *offset*, if any."""
        for decl in self.fields:
            if decl.offset <= offset < decl.end:
                return decl
        return None

    def neighbours(self, name: str) -> Tuple[Optional[FieldDecl],
                                             Optional[FieldDecl]]:
        """Fields immediately before and after *name* (for diagnostics)."""
        idx = self._order.index(name)
        before = self._fields[self._order[idx - 1]] if idx > 0 else None
        after = (self._fields[self._order[idx + 1]]
                 if idx + 1 < len(self._order) else None)
        return before, after

    def describe(self) -> str:
        """Human-readable struct dump, used in docs and debug output."""
        lines = [f"struct {self.struct_name} {{  /* {self.size} bytes */"]
        for decl in self.fields:
            reg = "  /* register */" if decl.register else ""
            lines.append(f"  [{decl.offset:#06x}] {decl.type} {decl.name};{reg}")
        lines.append("}")
        return "\n".join(lines)


@dataclass
class StateMemory:
    """The live backing store of one device's control structure."""

    layout: StateLayout
    data: bytearray = field(default_factory=bytearray)

    def __post_init__(self) -> None:
        if not self.data:
            self.data = bytearray(self.layout.size)
        elif len(self.data) != self.layout.size:
            raise IRError("backing store size does not match layout")

    # -- scalar access ----------------------------------------------------

    def read_field(self, name: str) -> int:
        decl = self.layout.field(name)
        if decl.is_buffer:
            raise IRError(f"{name} is a buffer; use read_buf")
        raw = int.from_bytes(
            self.data[decl.offset:decl.end], "little")
        if isinstance(decl.type, IntType) and decl.type.signed:
            return decl.type.wrap(raw).value
        return raw

    def write_field(self, name: str, value: int) -> bool:
        """Store *value* wrapped to the field's width; returns overflow flag."""
        decl = self.layout.field(name)
        if decl.is_buffer:
            raise IRError(f"{name} is a buffer; use write_buf")
        if decl.is_funcptr:
            wrapped, overflowed = value & ((1 << 64) - 1), False
        else:
            result = decl.type.wrap(value)
            wrapped, overflowed = result.value, result.overflowed
        unsigned = wrapped & ((1 << (decl.size * 8)) - 1)
        self.data[decl.offset:decl.end] = unsigned.to_bytes(decl.size, "little")
        return overflowed

    # -- buffer access (deliberately unchecked, like C) --------------------

    def buf_offset(self, name: str, index: int) -> int:
        decl = self.layout.field(name)
        if not decl.is_buffer:
            raise IRError(f"{name} is not a buffer")
        assert isinstance(decl.type, BufType)
        return decl.offset + index * decl.type.elem.size

    def read_buf(self, name: str, index: int) -> int:
        """Unchecked buffer load: an OOB index reads a neighbouring field."""
        off = self.buf_offset(name, index)
        decl = self.layout.field(name)
        assert isinstance(decl.type, BufType)
        size = decl.type.elem.size
        self._bounds_or_fault(name, off, size)
        raw = int.from_bytes(self.data[off:off + size], "little")
        if decl.type.elem.signed:
            return decl.type.elem.wrap(raw).value
        return raw

    def write_buf(self, name: str, index: int, value: int) -> None:
        """Unchecked buffer store: an OOB index corrupts neighbours."""
        off = self.buf_offset(name, index)
        decl = self.layout.field(name)
        assert isinstance(decl.type, BufType)
        size = decl.type.elem.size
        self._bounds_or_fault(name, off, size)
        masked = value & ((1 << (size * 8)) - 1)
        self.data[off:off + size] = masked.to_bytes(size, "little")

    def _bounds_or_fault(self, name: str, off: int, size: int) -> None:
        """Accesses may roam the whole struct (heap-neighbour corruption),
        but leaving the struct entirely is the analogue of a segfault."""
        if off < 0 or off + size > self.layout.size:
            from repro.errors import DeviceFault
            raise DeviceFault(
                f"access via buffer {name!r} at struct offset {off:#x} "
                f"leaves {self.layout.struct_name} ({self.layout.size} bytes)",
                device=self.layout.struct_name, kind="oob-segfault")

    # -- whole-struct helpers ----------------------------------------------

    def snapshot(self) -> "StateMemory":
        """Deep copy; used by the checker's sync-point oracle.

        Hot path (the VM snapshots the device before every
        co-execution round): skip dataclass init — the layout is
        shared immutably and the copied store matches it by
        construction, so the ``__post_init__`` re-validation is pure
        overhead here.
        """
        twin = StateMemory.__new__(StateMemory)
        twin.layout = self.layout
        twin.data = bytearray(self.data)
        return twin

    def restore(self, snap: "StateMemory") -> None:
        self.data[:] = snap.data

    def dump_fields(self) -> Dict[str, int]:
        """Scalar fields as a dict (buffers omitted); handy in tests/logs."""
        out: Dict[str, int] = {}
        for decl in self.layout.fields:
            if not decl.is_buffer:
                out[decl.name] = self.read_field(decl.name)
        return out
