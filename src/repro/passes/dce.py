"""Dead code elimination on the MLIR-like IR.

Removes operations whose results are unused and that have no observable
side effects — including whole ``scf.for`` / ``scf.if`` nests whose bodies
are pure.  One of the "suite of typical control-centric passes" DCIR
applies before conversion (§4).
"""

from __future__ import annotations

from ..ir.core import Operation
from ..passbase import PassBase


def _is_trivially_dead(op: Operation) -> bool:
    if op.IS_TERMINATOR:
        return False
    if op.has_used_results():
        return False
    if op.name in ("func.func", "builtin.module", "sdfg.sdfg", "sdfg.state", "sdfg.edge"):
        return False
    # Allocations with no remaining uses are dead (nothing can observe them);
    # other side-effecting ops (stores, calls, deallocs) must stay.
    if op.IS_ALLOCATION and not op.has_used_results():
        return True
    if op.has_side_effects():
        return False
    return True


class DeadCodeElimination(PassBase):
    """Iteratively erase unused, effect-free operations."""

    NAME = "dce"

    def run(self, module: Operation) -> bool:
        changed_any = False
        while True:
            changed = False
            for op in list(module.walk(post_order=True)):
                if op is module or op.parent_block is None:
                    continue
                if _is_trivially_dead(op):
                    op.erase()
                    changed = True
            if not changed:
                break
            changed_any = True
        return changed_any
