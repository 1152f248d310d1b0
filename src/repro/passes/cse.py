"""Common subexpression elimination.

Performs block-local CSE on pure operations and — conservatively — on
``memref.load`` operations when no potentially conflicting write occurs
between the two loads.  The SDFG IR cannot natively express CSE because
tasklets are atomic (§2.2), which is exactly why the paper runs it on the
MLIR side before conversion.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..ir.core import Block, Operation, Value
from ..passbase import PassBase


def _attributes_key(op: Operation) -> Tuple:
    items = []
    for key in sorted(op.attributes):
        value = op.attributes[key]
        if isinstance(value, (list, tuple)):
            value = tuple(value)
        elif isinstance(value, dict):
            value = tuple(sorted(value.items()))
        items.append((key, str(value)))
    return tuple(items)


def _op_key(op: Operation) -> Tuple:
    return (
        op.name,
        tuple(id(operand) for operand in op.operands),
        _attributes_key(op),
        tuple(str(result.type) for result in op.results),
    )


def _is_memory_barrier(op: Operation) -> bool:
    """Whether the op may invalidate previously loaded values."""
    if op.name in ("memref.store", "memref.copy", "memref.dealloc", "func.call", "sdfg.store"):
        return True
    # Ops with regions may contain writes.
    if op.regions and op.has_side_effects():
        return True
    return False


class CommonSubexpressionElimination(PassBase):
    """Block-local CSE for pure ops and loads."""

    NAME = "cse"

    def run(self, module: Operation) -> bool:
        changed = False
        for op in module.walk():
            for region in op.regions:
                for block in region.blocks:
                    if self._run_on_block(block):
                        changed = True
        return changed

    def _run_on_block(self, block: Block) -> bool:
        changed = False
        pure_exprs: Dict[Tuple, Operation] = {}
        load_exprs: Dict[Tuple, Operation] = {}
        for op in list(block.operations):
            if op.parent_block is None:
                continue
            if _is_memory_barrier(op):
                load_exprs.clear()
            if op.regions:
                continue  # handled when recursing into their blocks
            if not op.results:
                continue
            key = _op_key(op)
            if op.is_pure():
                existing = pure_exprs.get(key)
                if existing is not None:
                    self._replace(op, existing)
                    changed = True
                else:
                    pure_exprs[key] = op
            elif op.READS_MEMORY and not op.HAS_SIDE_EFFECTS:
                existing = load_exprs.get(key)
                if existing is not None:
                    self._replace(op, existing)
                    changed = True
                else:
                    load_exprs[key] = op
        return changed

    @staticmethod
    def _replace(op: Operation, existing: Operation) -> None:
        for old_result, new_result in zip(op.results, existing.results):
            old_result.replace_all_uses_with(new_result)
        op.erase()
