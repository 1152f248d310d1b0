"""SDFG → executable Python code generation.

DaCe generates C++ from SDFGs; this reproduction generates Python (the
substrate available here), preserving what matters for the evaluation:
structured loops are raised from the state machine (no per-iteration
dispatch overhead), transient containers are allocated either up front
(``persistent`` lifetime, after memory pre-allocation) or at their first
use inside whatever loop that happens to be (modelling allocation cost on
the critical path), map scopes become loops — or vectorized numpy
expressions in the ICC/SLEEF-modelling vectorized mode — and WCR memlets
become in-place updates.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..symbolic import Expr, Subset
from ..sdfg import (
    SDFG,
    AccessNode,
    Memlet,
    SDFGState,
    Scalar,
    Tasklet,
)
from ..sdfg.data import Array, DTYPES, LIFETIME_PERSISTENT, Stream
from ..sdfg.nodes import MapEntry, MapExit, is_scope_entry, is_scope_exit
from .control_flow import (
    BranchNode,
    ControlFlowNode,
    DispatchNode,
    LoopNode,
    SequenceNode,
    StateNode,
    build_control_flow,
)
from .loader import load_entry


class CodegenError(Exception):
    """Raised when an SDFG cannot be turned into executable code."""


def vectorizable_map(state, entry: "MapEntry", members) -> bool:
    """Whether a map scope can be emitted as a vector (numpy) operation.

    Shared between the code generator (the global ``vectorize`` flag of
    the ``dcir+vec`` pipeline vectorizes every eligible map) and the
    ``Vectorization`` transformation (which annotates individual maps):
    single parameter, no nested scopes, assignment-only tasklets, and no
    WCR updates (vector semantics would reorder the reduction).
    """
    if len(entry.map.params) != 1:
        return False
    for node in members:
        if isinstance(node, MapEntry):
            return False
        if isinstance(node, Tasklet):
            for line in node.code.splitlines():
                if not re.match(r"^\s*\w+\s*=[^=].*$", line) and line.strip():
                    return False
        for edge in state.in_edges(node) + state.out_edges(node):
            if edge.data.wcr is not None:
                return False
    return True


def python_expr(expression: Expr) -> str:
    """Render a symbolic expression as Python source."""
    text = str(expression)
    text = text.replace("Min(", "min(").replace("Max(", "max(")
    text = text.replace(" and ", " and ").replace(" or ", " or ")
    return text


class _Writer:
    """Tiny indentation-aware source writer."""

    def __init__(self):
        self.lines: List[str] = []
        self.indent = 0

    def emit(self, line: str = "") -> None:
        self.lines.append("    " * self.indent + line if line else "")

    def block(self):
        writer = self

        class _Indent:
            def __enter__(self_inner):
                writer.indent += 1
                self_inner.start = len(writer.lines)

            def __exit__(self_inner, *exc):
                if len(writer.lines) == self_inner.start:
                    writer.emit("pass")
                writer.indent -= 1

        return _Indent()

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


# Derived from the central dtype table so the interpreted and native
# backends can never disagree on element types (sdfg/data.py::DTYPES).
_NUMPY_DTYPES = {name: f"np.{info.numpy_name}" for name, info in DTYPES.items()}


class SDFGPythonGenerator:
    """Generates a Python ``run(**kwargs)`` function from an SDFG."""

    def __init__(self, sdfg: SDFG, vectorize: bool = False, count_allocations: bool = True):
        self.sdfg = sdfg
        self.vectorize = vectorize
        self.count_allocations = count_allocations
        self.writer = _Writer()
        self._value_counter = 0
        self._allocated_persistent: Set[str] = set()

    # -- public -------------------------------------------------------------------
    def generate(self) -> str:
        writer = self.writer
        writer.emit("import math")
        writer.emit("import numpy as np")
        writer.emit()
        writer.emit("def run(**_args):")
        with writer.block():
            self._emit_prologue()
            tree = build_control_flow(self.sdfg)
            if not tree.children:
                writer.emit("pass")
            self._emit_sequence(tree)
            self._emit_epilogue()
        return writer.text()

    # -- prologue / epilogue -----------------------------------------------------------
    def _emit_prologue(self) -> None:
        writer = self.writer
        writer.emit("_alloc_count = 0")
        # Symbols: free symbols come from the caller, constants are inlined.
        for name, value in self.sdfg.constants.items():
            writer.emit(f"{name} = {value!r}")
        free = self.sdfg.free_symbols()
        for name in sorted(free):
            writer.emit(f"{name} = _args[{name!r}]")
        for name in sorted(set(self.sdfg.symbols) - free - set(self.sdfg.constants)):
            writer.emit(f"{name} = 0")
        # Externally-visible containers are passed in.
        for name, descriptor in self.sdfg.arrays.items():
            if descriptor.transient:
                continue
            if isinstance(descriptor, Scalar):
                default = "0.0" if descriptor.dtype.startswith("float") else "0"
                writer.emit(f"{name} = _args.get({name!r}, {default})")
            else:
                writer.emit(f"{name} = _args[{name!r}]")
        # Transients: arrays are storage, allocated once here for correctness;
        # the *cost* of a non-persistent (not pre-allocated) container is
        # modelled by the _alloc_count increments emitted at its first-use
        # state (see _emit_lazy_allocations), which may sit inside a loop.
        for name, descriptor in self.sdfg.arrays.items():
            if not descriptor.transient:
                continue
            if isinstance(descriptor, Scalar):
                default = "0.0" if descriptor.dtype.startswith("float") else "0"
                writer.emit(f"{name} = {default}")
            elif isinstance(descriptor, Stream):
                writer.emit(f"{name} = []")
            else:
                count_now = descriptor.lifetime == LIFETIME_PERSISTENT
                self._emit_allocation(name, descriptor, count=count_now)
                if count_now:
                    self._allocated_persistent.add(name)

    def _emit_allocation(self, name: str, descriptor: Array, count: bool = True) -> None:
        shape = ", ".join(f"int({python_expr(dim)})" for dim in descriptor.shape)
        dtype = _NUMPY_DTYPES[descriptor.dtype]
        self.writer.emit(f"{name} = np.empty(({shape},), dtype={dtype})")
        if self.count_allocations and count:
            self.writer.emit("_alloc_count += 1")

    def _emit_epilogue(self) -> None:
        writer = self.writer
        outputs = []
        for name, descriptor in self.sdfg.arrays.items():
            if not descriptor.transient or name in self.sdfg.return_values:
                outputs.append(name)
        entries = ", ".join(f"{name!r}: {name}" for name in dict.fromkeys(outputs))
        writer.emit(f"return {{'__allocations': _alloc_count, {entries}}}")

    # -- control flow ----------------------------------------------------------------------
    def _emit_sequence(self, node: SequenceNode) -> None:
        for child in node.children:
            self._emit_cf(child)

    def _emit_cf(self, node: ControlFlowNode) -> None:
        writer = self.writer
        if isinstance(node, StateNode):
            self._emit_state(node.state)
            self._emit_assignments(node.assignments)
        elif isinstance(node, SequenceNode):
            self._emit_sequence(node)
        elif isinstance(node, LoopNode):
            if node.guard.is_empty():
                writer.emit(f"while {python_expr(node.condition)}:")
                with writer.block():
                    if node.body.children:
                        self._emit_sequence(node.body)
                    else:
                        writer.emit("pass")
            else:
                writer.emit("while True:")
                with writer.block():
                    self._emit_state(node.guard)
                    writer.emit(f"if not ({python_expr(node.condition)}):")
                    with writer.block():
                        writer.emit("break")
                    self._emit_sequence(node.body)
            self._emit_assignments(node.exit_assignments)
        elif isinstance(node, BranchNode):
            writer.emit(f"if {python_expr(node.condition)}:")
            with writer.block():
                self._emit_assignments(node.then_assignments)
                if node.then_body.children:
                    self._emit_sequence(node.then_body)
                else:
                    writer.emit("pass")
            if node.else_body.children or node.else_assignments:
                writer.emit("else:")
                with writer.block():
                    self._emit_assignments(node.else_assignments)
                    if node.else_body.children:
                        self._emit_sequence(node.else_body)
                    else:
                        writer.emit("pass")
        elif isinstance(node, DispatchNode):
            self._emit_dispatch(node)
        else:  # pragma: no cover - defensive
            raise CodegenError(f"Unknown control-flow node {node!r}")

    def _emit_assignments(self, assignments: Dict[str, Expr]) -> None:
        for name, value in assignments.items():
            self.writer.emit(f"{name} = {python_expr(value)}")

    def _emit_dispatch(self, node: DispatchNode) -> None:
        """Generic state-machine interpreter for unstructured regions."""
        writer = self.writer
        writer.emit(f"_state = {node.entry.label!r}")
        writer.emit("while _state is not None:")
        with writer.block():
            first = True
            for state in node.states:
                keyword = "if" if first else "elif"
                first = False
                writer.emit(f"{keyword} _state == {state.label!r}:")
                with writer.block():
                    self._emit_state(state)
                    out_edges = self.sdfg.out_edges(state)
                    if not out_edges:
                        writer.emit("_state = None")
                        continue
                    branch_first = True
                    unconditional_emitted = False
                    for edge in out_edges:
                        if edge.data.is_unconditional:
                            prefix = "if True" if branch_first else "else"
                            if branch_first:
                                writer.emit("if True:")
                            else:
                                writer.emit("else:")
                            unconditional_emitted = True
                        else:
                            keyword2 = "if" if branch_first else "elif"
                            writer.emit(f"{keyword2} {python_expr(edge.data.condition)}:")
                        with writer.block():
                            self._emit_assignments(edge.data.assignments)
                            writer.emit(f"_state = {edge.dst.label!r}")
                        branch_first = False
                    if not unconditional_emitted:
                        writer.emit("else:")
                        with writer.block():
                            writer.emit("_state = None")
            writer.emit("else:")
            with writer.block():
                writer.emit("_state = None")

    # -- state dataflow ------------------------------------------------------------------------
    def _emit_state(self, state: SDFGState) -> None:
        if state.is_empty():
            return
        self._emit_lazy_allocations(state)
        scope = state.scope_dict()
        value_names: Dict[Tuple[int, Optional[str]], str] = {}
        for node in state.topological_nodes():
            if scope.get(node) is not None:
                continue  # emitted as part of its map scope
            self._emit_node(state, node, scope, value_names)

    def _emit_lazy_allocations(self, state: SDFGState) -> None:
        """Charge allocation cost for non-pre-allocated transients.

        Containers that were not hoisted by memory pre-allocation (§6.3) pay
        an allocation each time their first-use state executes — inside a
        loop if that is where they are used — which is what the allocation
        counter of the run results reports.
        """
        if not self.count_allocations:
            return
        for name in sorted(state.read_set() | state.write_set()):
            descriptor = self.sdfg.arrays.get(name)
            if (
                isinstance(descriptor, Array)
                and descriptor.transient
                and descriptor.lifetime != LIFETIME_PERSISTENT
                and name not in self._allocated_persistent
            ):
                self._allocated_persistent.add(name)
                self.writer.emit(f"_alloc_count += 1  # allocation of {name} on this path")

    def _emit_node(self, state, node, scope, value_names) -> None:
        if isinstance(node, Tasklet):
            self._emit_tasklet(state, node, value_names, vector_param=None)
        elif isinstance(node, MapEntry):
            self._emit_map(state, node, scope, value_names)
        elif isinstance(node, AccessNode):
            self._emit_access_copies(state, node, value_names)
        elif isinstance(node, MapExit) or is_scope_exit(node):
            return
        elif is_scope_entry(node):
            return

    # -- access-node copies -----------------------------------------------------------------
    def _emit_access_copies(self, state, node: AccessNode, value_names) -> None:
        """Emit access→access copy edges terminating at this node."""
        for edge in state.in_edges(node):
            if not isinstance(edge.src, AccessNode) or edge.data.is_empty:
                continue
            source = edge.src.data
            destination = node.data
            src_descriptor = self.sdfg.arrays[source]
            dst_descriptor = self.sdfg.arrays[destination]
            if isinstance(dst_descriptor, Scalar) and isinstance(src_descriptor, Scalar):
                self.writer.emit(f"{destination} = {source}")
            elif isinstance(dst_descriptor, Scalar):
                subset = edge.data.subset
                index = self._subset_index(subset) if subset is not None else "0"
                self.writer.emit(f"{destination} = {source}[{index}]")
            elif isinstance(src_descriptor, Scalar):
                subset = edge.data.subset
                index = self._subset_index(subset) if subset is not None else ":"
                self.writer.emit(f"{destination}[{index}] = {source}")
            else:
                self.writer.emit(f"np.copyto({destination}, {source})")

    # -- tasklets -------------------------------------------------------------------------------
    def _emit_tasklet(self, state, tasklet: Tasklet, value_names, vector_param: Optional[str]) -> None:
        if tasklet.language == "mlir":
            raise CodegenError(
                f"Tasklet {tasklet.label!r} was kept in MLIR form and cannot be executed by "
                "the Python backend"
            )
        writer = self.writer
        # Bind input connectors.
        for edge in state.in_edges(tasklet):
            if edge.dst_conn is None:
                continue
            expression = self._read_expression(state, edge, value_names)
            writer.emit(f"{edge.dst_conn} = {expression}")
        code = tasklet.code
        if vector_param is not None:
            # Vector emission (global flag or per-map annotation): scalar
            # math functions become their numpy element-wise equivalents.
            code = code.replace("math.", "np.")
        for line in code.splitlines():
            writer.emit(line)
        # Write output connectors.
        for edge in state.out_edges(tasklet):
            if edge.src_conn is None:
                continue
            destination = edge.dst
            if isinstance(destination, (AccessNode, MapExit)):
                self._emit_write(edge, edge.src_conn)
            else:
                # Value edge to another code node.
                temp = f"_val{self._value_counter}"
                self._value_counter += 1
                writer.emit(f"{temp} = {edge.src_conn}")
                value_names[(id(tasklet), edge.src_conn)] = temp

    def _read_expression(self, state, edge, value_names) -> str:
        source = edge.src
        memlet: Memlet = edge.data
        if isinstance(source, AccessNode):
            return self._memlet_read(source.data, memlet)
        if isinstance(source, MapEntry):
            if memlet.is_empty:
                return "None"
            return self._memlet_read(memlet.data, memlet)
        # Value edge from another code node.
        key = (id(source), edge.src_conn)
        if key in value_names:
            return value_names[key]
        if memlet.is_empty:
            return "None"
        return self._memlet_read(memlet.data, memlet)

    def _memlet_read(self, data: str, memlet: Memlet) -> str:
        descriptor = self.sdfg.arrays[data]
        if isinstance(descriptor, Scalar):
            return data
        if memlet.is_empty or memlet.subset is None or memlet.dynamic:
            return data
        if memlet.subset.is_point():
            return f"{data}[{self._subset_index(memlet.subset)}]"
        if self._covers_whole(descriptor, memlet.subset):
            return data
        return f"{data}[{self._subset_slices(memlet.subset)}]"

    def _emit_write(self, edge, value_expr: str) -> None:
        memlet: Memlet = edge.data
        destination_node = edge.dst
        data = memlet.data if not memlet.is_empty else (
            destination_node.data if isinstance(destination_node, AccessNode) else None
        )
        if data is None:
            return
        descriptor = self.sdfg.arrays[data]
        writer = self.writer
        operator = {"+": "+=", "*": "*="}.get(memlet.wcr, "=") if memlet.wcr else "="
        if isinstance(descriptor, Scalar):
            if memlet.wcr in ("min", "max"):
                writer.emit(f"{data} = {memlet.wcr}({data}, {value_expr})")
            else:
                writer.emit(f"{data} {operator} {value_expr}")
            return
        if memlet.dynamic and memlet.subset is None:
            return  # in-place mutation already performed through the input view
        if memlet.subset is None:
            writer.emit(f"{data}[...] {operator} {value_expr}")
            return
        if memlet.subset.is_point():
            target = f"{data}[{self._subset_index(memlet.subset)}]"
        elif self._covers_whole(descriptor, memlet.subset) and memlet.dynamic:
            return
        else:
            target = f"{data}[{self._subset_slices(memlet.subset)}]"
        if memlet.wcr in ("min", "max"):
            writer.emit(f"{target} = {memlet.wcr}({target}, {value_expr})")
        else:
            writer.emit(f"{target} {operator} {value_expr}")

    # -- maps ------------------------------------------------------------------------------------
    def _emit_map(self, state, entry: MapEntry, scope, value_names) -> None:
        writer = self.writer
        exit_node = state.exit_node(entry)
        members = [
            node
            for node in state.topological_nodes()
            if scope.get(node) is entry and node is not exit_node
        ]
        vectorizable = (
            (self.vectorize or entry.map.vectorized)
            and self._vectorizable(state, entry, members)
        )
        params = entry.map.params
        ranges = entry.map.ranges

        if vectorizable:
            for param, rng in zip(params, ranges):
                writer.emit(
                    f"{param} = np.arange(int({python_expr(rng.start)}), "
                    f"int({python_expr(rng.end)}), int({python_expr(rng.step)}))"
                )
            for node in members:
                self._emit_scope_member(state, node, scope, value_names, vector_param=params[0])
            return

        for param, rng in zip(params, ranges):
            writer.emit(
                f"for {param} in range(int({python_expr(rng.start)}), "
                f"int({python_expr(rng.end)}), int({python_expr(rng.step)})):"
            )
            writer.indent += 1
        if not members:
            writer.emit("pass")
        for node in members:
            self._emit_scope_member(state, node, scope, value_names, vector_param=None)
        for _ in params:
            writer.indent -= 1

    def _emit_scope_member(self, state, node, scope, value_names, vector_param) -> None:
        if isinstance(node, Tasklet):
            self._emit_tasklet(state, node, value_names, vector_param)
        elif isinstance(node, MapEntry):
            self._emit_map(state, node, scope, value_names)
        elif isinstance(node, AccessNode):
            self._emit_access_copies(state, node, value_names)

    def _vectorizable(self, state, entry: MapEntry, members) -> bool:
        return vectorizable_map(state, entry, members)

    # -- subset rendering ----------------------------------------------------------------------------
    @staticmethod
    def _subset_index(subset: Subset) -> str:
        return ", ".join(python_expr(index) for index in subset.indices())

    @staticmethod
    def _subset_slices(subset: Subset) -> str:
        pieces = []
        for rng in subset.ranges:
            if rng.is_point():
                pieces.append(python_expr(rng.start))
            else:
                piece = f"int({python_expr(rng.start)}):int({python_expr(rng.end)})"
                if str(rng.step) != "1":
                    piece += f":int({python_expr(rng.step)})"
                pieces.append(piece)
        return ", ".join(pieces)

    def _covers_whole(self, descriptor, subset: Subset) -> bool:
        if len(descriptor.shape) != subset.dims:
            return False
        full = Subset.full(descriptor.shape)
        covered = subset.covers(full)
        return bool(covered)


@dataclass
class CompiledSDFG:
    """An executable program generated from an SDFG."""

    sdfg: Optional[SDFG]
    code: str
    _function: object = field(repr=False, default=None)

    def __call__(self, **kwargs):
        return self._function(**kwargs)

    def run(self, **kwargs):
        return self._function(**kwargs)

    @classmethod
    def from_code(cls, code: str, sdfg: Optional[SDFG] = None, name: str = "cached") -> "CompiledSDFG":
        """Rehydrate an executable from previously generated code.

        The SDFG is optional: the code string is self-contained, so cache
        layers can persist it alone and reload without any IR.
        """
        return cls(sdfg=sdfg, code=code, _function=load_entry(code, filename=f"<sdfg:{name}>"))


def generate_code(sdfg: SDFG, vectorize: bool = False) -> str:
    """Generate Python source implementing ``sdfg``."""
    return SDFGPythonGenerator(sdfg, vectorize=vectorize).generate()


def compile_sdfg(sdfg: SDFG, vectorize: bool = False) -> CompiledSDFG:
    """Generate and load an executable program for ``sdfg``."""
    code = generate_code(sdfg, vectorize=vectorize)
    return CompiledSDFG.from_code(code, sdfg=sdfg, name=sdfg.name)
