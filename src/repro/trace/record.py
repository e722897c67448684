"""Memory access records.

The fundamental unit of simulation input is a :class:`MemoryAccess`: one data
reference issued by one processor.  Traces routinely contain hundreds of
millions of records, so the record type is engineered for construction speed
and footprint first:

* it subclasses a plain :func:`collections.namedtuple`, so instances are
  tuples — allocated by a single C call, immutable, and `__slots__`-free;
* the access type and execution mode are packed into one small integer
  ``code`` field (bit 0: write, bit 1: system mode) instead of two enum
  references, which lets the binary trace decoder materialise records
  straight from :meth:`struct.Struct.iter_unpack` tuples via
  ``tuple.__new__`` with no per-record transformation; and
* the enum views (:attr:`MemoryAccess.access_type`,
  :attr:`MemoryAccess.mode`) are exposed as properties decoding ``code``.

The public constructor keeps the historical keyword signature
(``MemoryAccess(pc=..., address=..., access_type=..., cpu=..., mode=...,
instruction_count=...)``) and validates its arguments; trusted bulk decoders
bypass it with ``tuple.__new__(MemoryAccess, (pc, address, code, cpu,
instruction_count))``.
"""

from __future__ import annotations

import enum
from collections import namedtuple


class AccessType(enum.Enum):
    """Kind of memory reference."""

    READ = "read"
    WRITE = "write"

    @property
    def is_read(self) -> bool:
        return self is AccessType.READ

    @property
    def is_write(self) -> bool:
        return self is AccessType.WRITE


class ExecutionMode(enum.Enum):
    """Privilege mode in which the access was issued.

    The paper's Figure 13 breaks execution time into *user busy* and *system
    busy* components; workload generators therefore tag every access with the
    mode that issued it so the timing model can reproduce the breakdown.
    """

    USER = "user"
    SYSTEM = "system"


#: ``code`` field bit layout.
CODE_WRITE = 0b01
CODE_SYSTEM = 0b10

#: Enum views indexed by ``code`` (bit 0 selects the type, bit 1 the mode).
_ACCESS_TYPE_OF_CODE = (AccessType.READ, AccessType.WRITE, AccessType.READ, AccessType.WRITE)
_MODE_OF_CODE = (ExecutionMode.USER, ExecutionMode.USER, ExecutionMode.SYSTEM, ExecutionMode.SYSTEM)

_MemoryAccessBase = namedtuple(
    "_MemoryAccessBase", ("pc", "address", "code", "cpu", "instruction_count")
)


class MemoryAccess(_MemoryAccessBase):
    """A single data reference.

    Attributes
    ----------
    pc:
        Program counter (byte address) of the load/store instruction.
    address:
        Byte address of the datum referenced.
    code:
        Packed access type and execution mode (bit 0: write, bit 1: system).
    cpu:
        Index of the issuing processor (0-based).
    instruction_count:
        Number of instructions (including non-memory ones) the workload
        executed up to and including this access.  Used to compute
        misses-per-instruction and the busy components of the timing model.
        Excluded from equality and hashing.
    """

    __slots__ = ()

    def __new__(
        cls,
        pc: int,
        address: int,
        access_type: AccessType = AccessType.READ,
        cpu: int = 0,
        mode: ExecutionMode = ExecutionMode.USER,
        instruction_count: int = 0,
    ) -> "MemoryAccess":
        if pc < 0:
            raise ValueError(f"pc must be non-negative, got {pc}")
        if address < 0:
            raise ValueError(f"address must be non-negative, got {address}")
        if cpu < 0:
            raise ValueError(f"cpu must be non-negative, got {cpu}")
        code = (CODE_WRITE if access_type is AccessType.WRITE else 0) | (
            CODE_SYSTEM if mode is ExecutionMode.SYSTEM else 0
        )
        return tuple.__new__(cls, (pc, address, code, cpu, instruction_count))

    # ------------------------------------------------------------------ #
    # Enum views over the packed ``code`` field.
    # ------------------------------------------------------------------ #
    @property
    def access_type(self) -> AccessType:
        # Mask: bits beyond the two defined ones are reserved (a corrupt or
        # future-format binary record must degrade, not raise IndexError).
        return _ACCESS_TYPE_OF_CODE[self[2] & 0b11]

    @property
    def mode(self) -> ExecutionMode:
        return _MODE_OF_CODE[self[2] & 0b11]

    @property
    def is_read(self) -> bool:
        return not self[2] & CODE_WRITE

    @property
    def is_write(self) -> bool:
        return bool(self[2] & CODE_WRITE)

    def __getnewargs__(self):
        # The tuple layout (pc, address, code, cpu, instruction_count) is not
        # the constructor signature, so pickle/deepcopy must rebuild through
        # the keyword semantics of __new__ — the inherited namedtuple default
        # would feed ``code`` into ``access_type`` and silently corrupt the
        # record.
        return (self[0], self[1], self.access_type, self[3], self.mode, self[4])

    # ------------------------------------------------------------------ #
    # instruction_count is bookkeeping, not identity: two records that
    # reference the same datum the same way are equal regardless of where in
    # the instruction stream they occurred.
    # ------------------------------------------------------------------ #
    def __eq__(self, other) -> bool:
        if isinstance(other, MemoryAccess):
            return self[:4] == other[:4]
        # False (not NotImplemented): NotImplemented would hand a plain-tuple
        # operand to the reflected tuple.__eq__, which compares element-wise
        # and would make records equal to their raw field tuples.
        return False

    def __ne__(self, other) -> bool:
        if isinstance(other, MemoryAccess):
            return self[:4] != other[:4]
        return True

    def __hash__(self) -> int:
        return hash(self[:4])

    def __repr__(self) -> str:
        return (
            f"MemoryAccess(pc={self[0]:#x}, address={self[1]:#x}, "
            f"access_type={self.access_type.name}, cpu={self[3]}, "
            f"mode={self.mode.name}, instruction_count={self[4]})"
        )

    # ------------------------------------------------------------------ #
    def block_address(self, block_size: int) -> int:
        """Return the address of the cache block containing this access."""
        return self[1] & ~(block_size - 1)

    def region_base(self, region_size: int) -> int:
        """Return the base address of the spatial region containing this access."""
        return self[1] & ~(region_size - 1)


def read_access(pc: int, address: int, cpu: int = 0, **kwargs) -> MemoryAccess:
    """Convenience constructor for a read access."""
    return MemoryAccess(pc=pc, address=address, access_type=AccessType.READ, cpu=cpu, **kwargs)


def write_access(pc: int, address: int, cpu: int = 0, **kwargs) -> MemoryAccess:
    """Convenience constructor for a write access."""
    return MemoryAccess(pc=pc, address=address, access_type=AccessType.WRITE, cpu=cpu, **kwargs)
