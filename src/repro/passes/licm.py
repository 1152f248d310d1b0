"""Loop-invariant code motion on ``scf.for`` loops.

Hoists operations whose operands are defined outside the loop and whose
execution cannot observe or be observed by the loop body: pure arithmetic
always, and ``memref.load`` when the loaded memref is not written anywhere
inside the loop.  This is the optimization the DaCe C frontend misses on
``syrk`` (Fig. 7) because its tasklets are indivisible — running it on the
MLIR side before conversion is precisely DCIR's point.
"""

from __future__ import annotations

from typing import Set

from ..ir.core import Operation, Value
from ..dialects.scf import ForOp
from ..passbase import PassBase


def _written_memrefs(loop: Operation) -> Set[int]:
    """ids of memref values that may be written inside ``loop``."""
    written: Set[int] = set()
    for op in loop.walk():
        if op is loop:
            continue
        if op.name == "memref.store":
            written.add(id(op.operand(1)))
        elif op.name == "memref.copy":
            written.add(id(op.operand(1)))
        elif op.name in ("memref.dealloc", "func.call"):
            # Conservative: unknown writes invalidate everything.
            return {-1}
        elif op.name == "sdfg.store":
            written.add(id(op.operand(1)))
    return written


def _values_defined_inside(loop: ForOp) -> Set[int]:
    inside: Set[int] = set()
    for block in loop.regions[0].blocks:
        inside.update(id(argument) for argument in block.arguments)
    for op in loop.walk():
        if op is loop:
            continue
        inside.update(id(result) for result in op.results)
        for region in op.regions:
            for block in region.blocks:
                inside.update(id(argument) for argument in block.arguments)
    return inside


class LoopInvariantCodeMotion(PassBase):
    """Hoist loop-invariant pure ops and safe loads out of scf.for loops."""

    NAME = "licm"

    def run(self, module: Operation) -> bool:
        changed = False
        # Innermost loops first (post-order) so invariants bubble outwards.
        loops = [op for op in module.walk(post_order=True) if isinstance(op, ForOp)]
        for loop in loops:
            if loop.parent_block is None:
                continue
            while self._hoist_once(loop):
                changed = True
        return changed

    def _hoist_once(self, loop: ForOp) -> bool:
        inside = _values_defined_inside(loop)
        written = _written_memrefs(loop)
        everything_clobbered = -1 in written
        changed = False
        for op in list(loop.body.operations):
            if op.IS_TERMINATOR or op.regions:
                continue
            if any(id(operand) in inside for operand in op.operands):
                continue
            if op.is_pure():
                pass  # always hoistable
            elif op.READS_MEMORY and not op.HAS_SIDE_EFFECTS and not op.IS_ALLOCATION:
                if everything_clobbered:
                    continue
                memref_operand = op.operand(0)
                if id(memref_operand) in written:
                    continue
            else:
                continue
            op.move_before(loop)
            changed = True
        return changed
