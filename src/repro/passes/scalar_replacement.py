"""Scalar replacement: store-to-load forwarding on memref scalars.

Polygeist materializes every mutable C scalar as a one-element ``memref``
(the paper notes "every SSA value becomes a scalar data container", §6.1).
This pass performs block-local store-to-load and load-to-load forwarding so
that later passes (CSE, LICM, constant folding) see through those memory
cells, and removes stores that are overwritten before being read.

The analysis is deliberately conservative:

* forwarding happens only within one block,
* a store with non-constant differing indices, a call, a copy or a dealloc
  invalidates knowledge about the affected memref (calls invalidate all),
* memrefs whose address escapes (passed to calls) are never forwarded.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..ir.core import Block, Operation, Value, defining_op
from ..dialects.arith import ConstantOp
from ..passbase import PassBase


def _index_key(indices) -> Optional[Tuple]:
    """Hashable key for an index tuple; None if any index is non-constant."""
    key = []
    for index in indices:
        op = defining_op(index)
        if isinstance(op, ConstantOp):
            key.append(("const", op.value))
        else:
            key.append(("value", id(index)))
    return tuple(key)


def _escaping_memrefs(module: Operation) -> set:
    escaping = set()
    for op in module.walk():
        if op.name == "func.call":
            for operand in op.operands:
                escaping.add(id(operand))
        elif op.name == "func.return":
            for operand in op.operands:
                escaping.add(id(operand))
    return escaping


class ScalarReplacement(PassBase):
    """Store-to-load / load-to-load forwarding within basic blocks."""

    NAME = "scalar-replacement"

    def run(self, module: Operation) -> bool:
        escaping = _escaping_memrefs(module)
        changed = False
        for op in module.walk():
            for region in op.regions:
                for block in region.blocks:
                    if self._run_on_block(block, escaping):
                        changed = True
        return changed

    def _run_on_block(self, block: Block, escaping: set) -> bool:
        changed = False
        # (memref id, index key) -> value currently known to be stored there
        known: Dict[Tuple, Value] = {}
        # (memref id, index key) -> last store op, used for dead-store removal
        last_store: Dict[Tuple, Operation] = {}

        def invalidate_memref(memref_id: int) -> None:
            for key in [key for key in known if key[0] == memref_id]:
                del known[key]
            for key in [key for key in last_store if key[0] == memref_id]:
                del last_store[key]

        for op in list(block.operations):
            if op.parent_block is None:
                continue
            name = op.name
            if name == "memref.store":
                memref = op.operand(1)
                indices = op.operands[2:]
                index_key = _index_key(indices)
                cell = (id(memref), index_key)
                # A store to an unknown index invalidates the whole memref.
                if any(part[0] == "value" for part in index_key):
                    invalidate_memref(id(memref))
                previous = last_store.get(cell)
                if previous is not None and id(memref) not in escaping:
                    # The previous store is overwritten without an
                    # intervening read: it is dead.
                    previous.erase()
                    changed = True
                known[cell] = op.operand(0)
                last_store[cell] = op
            elif name == "memref.load":
                memref = op.operand(0)
                indices = op.operands[1:]
                cell = (id(memref), _index_key(indices))
                forwarded = known.get(cell)
                if forwarded is not None and forwarded.type == op.result.type:
                    op.result.replace_all_uses_with(forwarded)
                    op.erase()
                    changed = True
                else:
                    known[cell] = op.result
                    # The cell has now been read: its last store is live.
                    last_store.pop(cell, None)
            elif name in ("memref.copy", "memref.dealloc"):
                invalidate_memref(id(op.operand(-1)))
                if name == "memref.copy":
                    invalidate_memref(id(op.operand(1)))
            elif name == "func.call" or (op.regions and op.has_side_effects()):
                known.clear()
                last_store.clear()
            elif op.regions:
                # Region ops without side effects may still read memory;
                # conservatively keep knowledge (they cannot write).
                continue
        return changed
