"""Canonicalization: constant folding and algebraic simplification.

Folds ``arith`` and ``math`` operations whose operands are constants,
applies neutral/absorbing-element identities (``x + 0``, ``x * 1``,
``x * 0``), folds comparisons and selects over constants, and simplifies
``scf.if`` with a constant condition by splicing the taken branch into the
parent block.  This is the control-centric workhorse that both the GCC- and
MLIR-style baseline pipelines and DCIR share (§4 of the paper).
"""

from __future__ import annotations

from typing import Optional, Union

from ..dialects import arith, math_dialect
from ..dialects.arith import (
    BINARY_SEMANTICS,
    CMP_SEMANTICS,
    ConstantOp,
    is_integer_op,
)
from ..dialects.math_dialect import MATH_SEMANTICS
from ..ir.core import Builder, Operation, Value, defining_op
from ..ir.types import FloatType, IndexType, IntegerType
from ..passbase import PassBase


def constant_value(value: Value) -> Optional[Union[int, float]]:
    """The Python constant behind an SSA value, if its defining op is a constant."""
    op = defining_op(value)
    if isinstance(op, ConstantOp):
        return op.value
    return None


def _make_constant(builder: Builder, value, type) -> Value:
    if isinstance(type, (IntegerType, IndexType)):
        value = int(value)
    else:
        value = float(value)
    return builder.create(ConstantOp, value, type).result


class Canonicalize(PassBase):
    """Constant folding + algebraic identities + trivial scf.if folding."""

    NAME = "canonicalize"

    def run(self, module: Operation) -> bool:
        changed = False
        # Iterate locally to a fixed point: folding one op may enable more.
        for _ in range(64):
            if not self._run_once(module):
                break
            changed = True
        return changed

    # -- one sweep -------------------------------------------------------------
    def _run_once(self, module: Operation) -> bool:
        changed = False
        for op in list(module.walk(post_order=True)):
            if op.parent_block is None:
                continue  # already erased by a previous rewrite
            if self._fold_op(op):
                changed = True
        return changed

    def _fold_op(self, op: Operation) -> bool:
        name = op.name
        if name in BINARY_SEMANTICS:
            return self._fold_binary(op)
        if name in MATH_SEMANTICS:
            return self._fold_math(op)
        if name in (arith.CmpIOp.OP_NAME, arith.CmpFOp.OP_NAME):
            return self._fold_compare(op)
        if name == arith.SelectOp.OP_NAME:
            return self._fold_select(op)
        if name in (
            arith.IndexCastOp.OP_NAME,
            arith.SIToFPOp.OP_NAME,
            arith.FPToSIOp.OP_NAME,
            arith.ExtFOp.OP_NAME,
            arith.TruncFOp.OP_NAME,
            arith.ExtSIOp.OP_NAME,
            arith.TruncIOp.OP_NAME,
        ):
            return self._fold_cast(op)
        if name == "scf.if":
            return self._fold_if(op)
        if name == arith.NegFOp.OP_NAME:
            value = constant_value(op.operand(0))
            if value is not None:
                self._replace_with_constant(op, -value)
                return True
        return False

    # -- folds ------------------------------------------------------------------
    def _replace_with_constant(self, op: Operation, value) -> None:
        builder = Builder.before(op)
        constant = _make_constant(builder, value, op.result.type)
        op.result.replace_all_uses_with(constant)
        op.erase()

    def _fold_binary(self, op: Operation) -> bool:
        lhs = constant_value(op.operand(0))
        rhs = constant_value(op.operand(1))
        semantics = BINARY_SEMANTICS[op.name]
        if lhs is not None and rhs is not None:
            if op.name in ("arith.divsi", "arith.remsi", "arith.divf") and rhs == 0:
                return False  # keep the (undefined) op rather than crash folding
            result = semantics(lhs, rhs)
            if is_integer_op(op.name):
                result = int(result)
            self._replace_with_constant(op, result)
            return True
        # Algebraic identities with one constant operand.
        base_name = op.name.split(".")[-1]
        if rhs is not None:
            if rhs == 0 and base_name in ("addi", "addf", "subi", "subf", "ori", "xori"):
                return self._replace_with_value(op, op.operand(0))
            if rhs == 1 and base_name in ("muli", "mulf", "divsi", "divf", "floordivsi"):
                return self._replace_with_value(op, op.operand(0))
            if rhs == 0 and base_name in ("muli", "andi"):
                self._replace_with_constant(op, 0)
                return True
            if rhs == 0.0 and base_name == "mulf":
                self._replace_with_constant(op, 0.0)
                return True
        if lhs is not None:
            if lhs == 0 and base_name in ("addi", "addf", "ori", "xori"):
                return self._replace_with_value(op, op.operand(1))
            if lhs == 1 and base_name in ("muli", "mulf"):
                return self._replace_with_value(op, op.operand(1))
            if lhs == 0 and base_name in ("muli", "andi"):
                self._replace_with_constant(op, 0)
                return True
        return False

    def _replace_with_value(self, op: Operation, value: Value) -> bool:
        op.result.replace_all_uses_with(value)
        op.erase()
        return True

    def _fold_math(self, op: Operation) -> bool:
        values = [constant_value(operand) for operand in op.operands]
        if any(value is None for value in values):
            return False
        try:
            result = MATH_SEMANTICS[op.name](*[float(value) for value in values])
        except (ValueError, OverflowError):
            return False
        self._replace_with_constant(op, result)
        return True

    def _fold_compare(self, op: Operation) -> bool:
        lhs = constant_value(op.operand(0))
        rhs = constant_value(op.operand(1))
        if lhs is None or rhs is None:
            return False
        predicate = op.attributes["predicate"]
        result = CMP_SEMANTICS[predicate](lhs, rhs)
        self._replace_with_constant(op, 1 if result else 0)
        return True

    def _fold_select(self, op: Operation) -> bool:
        condition = constant_value(op.operand(0))
        if condition is None:
            return False
        chosen = op.operand(1) if condition else op.operand(2)
        return self._replace_with_value(op, chosen)

    def _fold_cast(self, op: Operation) -> bool:
        value = constant_value(op.operand(0))
        if value is None:
            return False
        result_type = op.result.type
        if isinstance(result_type, (IntegerType, IndexType)):
            self._replace_with_constant(op, int(value))
        elif isinstance(result_type, FloatType):
            self._replace_with_constant(op, float(value))
        else:
            return False
        return True

    def _fold_if(self, op: Operation) -> bool:
        condition = constant_value(op.operand(0))
        if condition is None:
            return False
        from ..dialects.scf import IfOp

        assert isinstance(op, IfOp)
        taken = op.then_block if condition else op.else_block
        parent = op.parent_block
        if parent is None:
            return False
        if taken is None:
            # No else region: the whole op disappears (it cannot have results).
            if op.has_used_results():
                return False
            op.erase()
            return True
        # Splice the taken block's ops (except the terminator) before the if.
        yield_op = taken.terminator
        moved = [inner for inner in list(taken.operations) if inner is not yield_op]
        for inner in moved:
            taken.remove(inner)
            parent.insert_before(op, inner)
        if yield_op is not None:
            for result, operand in zip(op.results, yield_op.operands):
                result.replace_all_uses_with(operand)
        op.erase()
        return True
