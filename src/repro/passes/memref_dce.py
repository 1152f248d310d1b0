"""Dead scalar-memory elimination on the control-centric side.

Removes ``memref.alloca``/``memref.alloc`` allocations that are never read
— together with the stores and deallocations that target them — modelling
the register-promotion-style cleanups a general-purpose compiler performs.

By default the pass is restricted to *scalar* (single-element) memrefs.
Whole-array dead-memory elimination is deliberately left to the
data-centric side (Dead Dataflow Elimination and Array Elimination, §6.2):
production compilers do not remove the arrays in the paper's Fig. 2
example, and keeping this asymmetry is what reproduces that figure's shape.
"""

from __future__ import annotations

from ..ir.core import Operation
from ..ir.types import MemRefType
from ..passbase import PassBase


def _is_scalar_memref(memref_type: MemRefType) -> bool:
    return memref_type.num_elements() == 1 or memref_type.rank == 0


class DeadMemoryElimination(PassBase):
    """Remove never-read (scalar, by default) allocations and their stores."""

    NAME = "memref-dce"

    def __init__(self, scalars_only: bool = True):
        self.scalars_only = scalars_only

    def run(self, module: Operation) -> bool:
        changed = False
        while self._run_once(module):
            changed = True
        return changed

    def _run_once(self, module: Operation) -> bool:
        changed = False
        for op in list(module.walk()):
            if op.parent_block is None:
                continue
            if op.name not in ("memref.alloc", "memref.alloca"):
                continue
            memref_type = op.result.type
            if not isinstance(memref_type, MemRefType):
                continue
            if self.scalars_only and not _is_scalar_memref(memref_type):
                continue
            users = op.result.users()
            removable = []
            dead = True
            for user in users:
                if user.name == "memref.store" and user.operand(1) is op.result:
                    removable.append(user)
                elif user.name == "memref.dealloc":
                    removable.append(user)
                else:
                    dead = False
                    break
            if not dead:
                continue
            for user in removable:
                user.erase()
            op.erase()
            changed = True
        return changed
