"""Function inlining.

Inlines ``func.call`` sites whose callee is defined in the same module,
has a single block, and ends with ``func.return``.  Inlining is part of the
control-centric pass suite DCIR applies before conversion (§4); it also
removes the reliance on link-time optimization that the paper identifies
as a weakness of compiling MLIR tasklets separately (§5.2).
"""

from __future__ import annotations

from typing import Optional

from ..dialects.builtin import ModuleOp
from ..dialects.func import CallOp, FuncOp
from ..ir.core import Operation
from ..passbase import PassBase


def _find_callee(module: Operation, name: str) -> Optional[FuncOp]:
    for op in module.walk():
        if isinstance(op, FuncOp) and op.sym_name == name:
            return op
    return None


def _is_inlinable(callee: FuncOp, max_ops: int) -> bool:
    if len(callee.regions[0].blocks) != 1:
        return False
    body = callee.body
    terminator = body.terminator
    if terminator is None or terminator.name != "func.return":
        return False
    # Recursive functions are not inlined.
    for op in callee.walk():
        if isinstance(op, CallOp) and op.callee == callee.sym_name:
            return False
    return len(body.operations) <= max_ops


class Inlining(PassBase):
    """Inline small, single-block, non-recursive callees."""

    NAME = "inline"

    def __init__(self, max_callee_ops: int = 256, remove_inlined: bool = True):
        self.max_callee_ops = max_callee_ops
        self.remove_inlined = remove_inlined

    def run(self, module: Operation) -> bool:
        changed = False
        inlined_callees = set()
        for _ in range(8):  # bounded rounds handle call chains
            round_changed = False
            for op in list(module.walk()):
                if not isinstance(op, CallOp) or op.parent_block is None:
                    continue
                callee = _find_callee(module, op.callee)
                if callee is None or not _is_inlinable(callee, self.max_callee_ops):
                    continue
                self._inline_call(op, callee)
                inlined_callees.add(callee.sym_name)
                round_changed = True
            if not round_changed:
                break
            changed = True
        if changed and self.remove_inlined:
            self._remove_unused_callees(module, inlined_callees)
        return changed

    def _inline_call(self, call: CallOp, callee: FuncOp) -> None:
        parent = call.parent_block
        value_map = {}
        for argument, operand in zip(callee.body.arguments, call.operands):
            value_map[argument] = operand
        return_values = []
        for op in callee.body.operations:
            if op.name == "func.return":
                return_values = [value_map.get(v, v) for v in op.operands]
                continue
            clone = op.clone(value_map)
            parent.insert_before(call, clone)
        for result, value in zip(call.results, return_values):
            result.replace_all_uses_with(value)
        call.erase()

    def _remove_unused_callees(self, module: Operation, names: set) -> None:
        # Keep callees that are still called elsewhere or externally visible.
        still_called = set()
        for op in module.walk():
            if isinstance(op, CallOp):
                still_called.add(op.callee)
        for op in list(module.walk()):
            if (
                isinstance(op, FuncOp)
                and op.sym_name in names
                and op.sym_name not in still_called
                and op.get_attr("visibility") == "private"
            ):
                op.erase()
