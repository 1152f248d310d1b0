"""The traced compile path: ``generate_program``'s stage sequence, with every
layer's public entry point called from here inside a span.

It must emit byte-identical code to
:func:`repro.pipeline.generate_program`; every traced request is checked
against an untraced ``generate_program`` call of the same request
(:class:`TracedCompiler`), and a mismatch fails the traced run.
"""

from __future__ import annotations

import re
import time

from repro.codegen import generate_code, generate_mlir_code, sdfg_movement_report
from repro.codegen.sdfg_c import NativeCodegenError, generate_c_code
from repro.codegen.toolchain import CompiledNative, compile_shared, parse_abi
from repro.conversion import mlir_to_sdfg
from repro.frontend import compile_c_to_mlir
from repro.frontend_py import as_program, compile_python_to_mlir
from repro.passbase import PassRunner
from repro.passes import CONTROL_PASSES
from repro.pipeline import GeneratedProgram, generate_program
from repro.transforms import DATA_PASSES

from harness import Tracer


class _SpannedPass:
    """A built pass whose ``run`` is recorded as a span, with its
    applied-site count; every other attribute is the wrapped pass's."""

    def __init__(self, inner, stage: str, name: str, tracer: Tracer):
        self._inner = inner
        self._label = f"{stage}.{name}"
        self._tracer = tracer

    @property
    def name(self) -> str:
        return self._inner.name

    def run(self, target) -> bool:
        with self._tracer.span(self._label):
            changed = self._inner.run(target)
        applied = getattr(self._inner, "last_applied", None)
        if applied is not None:
            self._tracer.count(f"{self._label}.applied", applied)
        return changed

    def __getattr__(self, attribute):
        return getattr(self._inner, attribute)


def _runner(registry, passes, stage: str, max_iterations: int, tracer: Tracer) -> PassRunner:
    wrapped = [
        _SpannedPass(registry.build(p.name, p.params), stage, p.name, tracer) for p in passes
    ]
    return PassRunner(wrapped, max_iterations=max_iterations, stage=stage)


def _op_count(module) -> int:
    return sum(1 for _ in module.walk())


def _node_count(sdfg) -> int:
    return sum(len(state.nodes()) for state in sdfg.states())


def traced_generate(source, spec, tracer: Tracer) -> GeneratedProgram:
    """Frontend → control passes → (bridge → data passes →) codegen."""
    start = time.perf_counter()
    if isinstance(source, str):
        with tracer.span("frontend"):
            module = compile_c_to_mlir(source, **spec.frontend_options)
    else:
        with tracer.span("frontend_py"):
            module = compile_python_to_mlir(as_program(source), **spec.frontend_options)
    tracer.count("frontend.ops", _op_count(module))
    if spec.control_passes:
        with tracer.span("control"):
            _runner(CONTROL_PASSES, spec.control_passes, "control",
                    spec.control_max_iterations, tracer).run(module)
        tracer.count("control.ops", _op_count(module))
    if not spec.bridge:
        with tracer.span("codegen"):
            code = generate_mlir_code(
                module, function=None,
                native_scalars=spec.codegen.native_scalars,
                preallocate=spec.codegen.preallocate,
            )
        tracer.count("codegen.py_bytes", len(code))
        return GeneratedProgram(
            pipeline=spec.label, function=None, code=code,
            compile_seconds=time.perf_counter() - start, mlir_module=module, spec=spec,
        )
    with tracer.span("bridge"):
        sdfg = mlir_to_sdfg(module, function=None)
    tracer.count("bridge.nodes", _node_count(sdfg))
    with tracer.span("data"):
        _runner(DATA_PASSES, spec.data_passes, "data", spec.data_max_iterations, tracer).run(sdfg)
    tracer.count("data.nodes", _node_count(sdfg))
    tracer.count("data.maps", len(list(sdfg.map_entries())))
    native_code = native_fallback = None
    with tracer.span("codegen"):
        code = generate_code(sdfg, vectorize=spec.codegen.vectorize)
        if spec.codegen.backend == "native":
            try:
                native_code = generate_c_code(sdfg, vectorize=spec.codegen.vectorize)
            except NativeCodegenError as exc:
                native_fallback = str(exc)
    tracer.count("codegen.py_bytes", len(code))
    if native_code is not None:
        tracer.count("codegen.c_bytes", len(native_code))
    return GeneratedProgram(
        pipeline=spec.label, function=None, code=code,
        compile_seconds=time.perf_counter() - start, sdfg=sdfg, mlir_module=module,
        spec=spec, native_code=native_code, native_fallback=native_fallback,
    )


class TracedCompiler:
    """Compiles requests through :func:`traced_generate` and checks each
    against an untraced ``generate_program`` of the same request.

    The two compiles alternate which goes first, and the ratio of their
    wall times is the tracing overhead.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.mismatches = 0
        self.overheads = []
        self.untraced_seconds = []
        #: Wall time of the latest call's untraced check compile, which
        #: callers timing a whole request subtract.
        self.last_check_seconds = 0.0

    def compile(self, source, spec):
        """Returns ``(traced program, traced wall seconds)``."""
        def traced():
            start = time.perf_counter()
            with self.tracer.span("request"):
                program = traced_generate(source, spec, self.tracer)
            return program, time.perf_counter() - start

        def untraced():
            start = time.perf_counter()
            program = generate_program(source, spec)
            return program, time.perf_counter() - start

        if len(self.overheads) % 2:
            reference, plain_s = untraced()
            program, traced_s = traced()
        else:
            program, traced_s = traced()
            reference, plain_s = untraced()
        if (program.code, program.native_code) != (reference.code, reference.native_code):
            self.mismatches += 1
        self.overheads.append(traced_s / plain_s)
        self.untraced_seconds.append(plain_s)
        self.last_check_seconds = plain_s
        return program, traced_s


def traced_native_run(program: GeneratedProgram, tracer: Tracer):
    """cc → load → first run of a program's C, each in its own span.

    ``CompiledNative.from_code`` builds into the same content-addressed
    ``.so`` path as the ``compile_shared`` call before it, so the ``load``
    span covers the ABI parse and ``dlopen`` of an already-built object.
    """
    code = program.native_code
    name = re.sub(r"[^A-Za-z0-9_.-]", "_", str(parse_abi(code).get("name") or program.pipeline))
    with tracer.span("cc"):
        compile_shared(code, name=name)
    with tracer.span("load"):
        native = CompiledNative.from_code(code, name=name)
    with tracer.span("first_run"):
        outputs = native.run()
    tracer.count("kernel.bytes_moved", sdfg_movement_report(program.sdfg).bytes_moved)
    return native, outputs
