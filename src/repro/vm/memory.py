"""Flat byte-addressable memory for the execution engine.

Pointers in the IR are plain integer addresses into this memory, which is
what lets ``getelementptr`` arithmetic, the cache model (which needs real
addresses to decide hits and misses) and the instrumentation byte counts all
agree with each other.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Tuple

from repro.compiler.ir.types import FloatType, IntType, PointerType, Type


class MemoryError_(Exception):
    """Raised on out-of-bounds or unmapped accesses."""


_INT_FORMATS = {8: "b", 16: "h", 32: "i", 64: "q"}
_FLOAT_FORMATS = {32: "f", 64: "d"}


class Memory:
    """A bump-allocated heap plus a per-call stack region.

    The heap starts at ``HEAP_BASE`` and grows upward; stack frames are
    carved from a separate region so that freeing a frame on return is a
    single pointer reset.  All addresses are stable for the lifetime of the
    Memory object, which the cache simulator relies on.
    """

    HEAP_BASE = 0x0001_0000
    STACK_BASE = 0x4000_0000
    STACK_SIZE = 8 * 1024 * 1024

    def __init__(self, heap_size: int = 256 * 1024 * 1024):
        self.heap_size = heap_size
        self._heap = bytearray()
        self._heap_top = self.HEAP_BASE
        self._stack = bytearray(self.STACK_SIZE)
        self._stack_top = self.STACK_BASE
        self._allocations: Dict[int, int] = {}

    # -- allocation --------------------------------------------------------------------

    def malloc(self, size: int, align: int = 16) -> int:
        """Allocate *size* bytes on the heap; returns the address."""
        if size <= 0:
            raise MemoryError_("allocation size must be positive")
        top = self._heap_top
        if top % align:
            top += align - (top % align)
        address = top
        new_top = top + size
        if new_top - self.HEAP_BASE > self.heap_size:
            raise MemoryError_(
                f"heap exhausted: requested {size} bytes at {address:#x}"
            )
        needed = new_top - self.HEAP_BASE
        if needed > len(self._heap):
            self._heap.extend(b"\x00" * (needed - len(self._heap)))
        self._heap_top = new_top
        self._allocations[address] = size
        return address

    def allocation_size(self, address: int) -> int:
        return self._allocations.get(address, 0)

    def push_stack_frame(self) -> int:
        """Begin a stack frame; returns a token for :meth:`pop_stack_frame`."""
        return self._stack_top

    def stack_alloc(self, size: int, align: int = 16) -> int:
        if size <= 0:
            raise MemoryError_("allocation size must be positive")
        top = self._stack_top
        if top % align:
            top += align - (top % align)
        address = top
        self._stack_top = top + size
        if self._stack_top - self.STACK_BASE > self.STACK_SIZE:
            raise MemoryError_("stack overflow in modelled program")
        return address

    def pop_stack_frame(self, token: int) -> None:
        self._stack_top = token

    # -- raw byte access ------------------------------------------------------------------

    def _backing(self, address: int, size: int) -> Tuple[bytearray, int]:
        if self.HEAP_BASE <= address and address + size <= self.HEAP_BASE + len(self._heap):
            return self._heap, address - self.HEAP_BASE
        if self.STACK_BASE <= address and address + size <= self.STACK_BASE + self.STACK_SIZE:
            return self._stack, address - self.STACK_BASE
        raise MemoryError_(f"unmapped access of {size} bytes at {address:#x}")

    def read_bytes(self, address: int, size: int) -> bytes:
        backing, offset = self._backing(address, size)
        return bytes(backing[offset:offset + size])

    def write_bytes(self, address: int, data: bytes) -> None:
        backing, offset = self._backing(address, len(data))
        backing[offset:offset + len(data)] = data

    # -- typed access ----------------------------------------------------------------------

    def load_typed(self, address: int, type_: Type):
        """Load a value of *type_* from *address*."""
        if isinstance(type_, IntType):
            if type_.bits == 1:
                return self.read_bytes(address, 1)[0] & 1
            fmt = _INT_FORMATS[type_.bits]
            return struct.unpack_from("<" + fmt, self.read_bytes(address, type_.bits // 8))[0]
        if isinstance(type_, FloatType):
            fmt = _FLOAT_FORMATS[type_.bits]
            return struct.unpack_from("<" + fmt, self.read_bytes(address, type_.bits // 8))[0]
        if isinstance(type_, PointerType):
            return struct.unpack_from("<q", self.read_bytes(address, 8))[0]
        raise MemoryError_(f"cannot load value of type {type_}")

    def store_typed(self, address: int, type_: Type, value) -> None:
        """Store *value* of *type_* at *address*."""
        if isinstance(type_, IntType):
            if type_.bits == 1:
                self.write_bytes(address, bytes([int(value) & 1]))
                return
            fmt = _INT_FORMATS[type_.bits]
            self.write_bytes(address, struct.pack("<" + fmt, type_.wrap(int(value))))
            return
        if isinstance(type_, FloatType):
            fmt = _FLOAT_FORMATS[type_.bits]
            self.write_bytes(address, struct.pack("<" + fmt, float(value)))
            return
        if isinstance(type_, PointerType):
            self.write_bytes(address, struct.pack("<q", int(value)))
            return
        raise MemoryError_(f"cannot store value of type {type_}")

    # -- convenience for tests and workloads --------------------------------------------------

    def alloc_float_array(self, values: List[float], double: bool = False) -> int:
        """Allocate and initialise a float (or double) array; returns its address."""
        elem = 8 if double else 4
        address = self.malloc(len(values) * elem)
        fmt = "<" + ("d" if double else "f") * len(values)
        self.write_bytes(address, struct.pack(fmt, *values))
        return address

    def read_float_array(self, address: int, count: int, double: bool = False) -> List[float]:
        elem = 8 if double else 4
        fmt = "<" + ("d" if double else "f") * count
        return list(struct.unpack(fmt, self.read_bytes(address, count * elem)))

    def alloc_int_array(self, values: List[int], bits: int = 64) -> int:
        elem = bits // 8
        address = self.malloc(len(values) * elem)
        fmt = "<" + _INT_FORMATS[bits] * len(values)
        self.write_bytes(address, struct.pack(fmt, *values))
        return address

    def read_int_array(self, address: int, count: int, bits: int = 64) -> List[int]:
        elem = bits // 8
        fmt = "<" + _INT_FORMATS[bits] * count
        return list(struct.unpack(fmt, self.read_bytes(address, count * elem)))
