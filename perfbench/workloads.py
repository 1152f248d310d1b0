"""The benchmark's three workloads.

Load model: one process, closed loop.  All timed work runs on one
worker thread (:func:`harness.run_on_worker`); the main thread waits, and
``cc`` subprocesses run while the worker waits on them, so at most two
CPUs are busy at once.  Every timed request is paired with an independent
baseline doing the same job, timed back to back on the same thread in the
same round, with the order of the two sides alternating.  The gated
numbers are the ratios: on a shared 2-vCPU machine raw wall clock drifts
15-25 % over tens of seconds, while a ratio to a same-thread, same-round
baseline repeats within a few percent.

Why these workloads:

* ``compile-cold`` — the 23 PolyBench kernels through all six registered
  pipelines via ``generate_program`` (the three bridge pipelines emit C
  too, but nothing is built or run).  Frontend, control passes, bridge,
  data passes and codegen do nearly all the work; toolchain, load and
  kernel are bypassed.  Each round draws fresh sizes, so every compile
  sees a distinct source and no cache in the library helps.
  Baseline: ``cc -O2`` building the same kernel's original source — the
  paper's reference compiler, doing the job the pipeline replaces.
* ``native-large`` — the 23 kernels through ``dcir`` with the native
  backend, at sizes where the kernel dominates a call (0.6-20 ms).
  Toolchain, ``dlopen`` and the kernel itself do most of the work, so
  loop-to-map, tiling and schedule changes show here and not in
  ``compile-cold``.  Baseline: the raw-cc path on the original source —
  build + load + first call for time to result, and the steady-state call
  for kernel speed (the paper's Fig. 6 comparison).
* ``py-cached`` — the nine traced NumPy programs x six pipelines through
  one ``Session`` with a fresh in-memory ``CompileCache``, in a shuffled
  stream where each pair recurs four times (one miss, three hits), run on
  the interpreted backend.  The same compile layers are used differently:
  cache reads beside writes, IR shapes from traced NumPy code, the Python
  frontend and the interpreted backend.  Baseline: NumPy executing the
  same program, which is also the reference its result must equal.
"""

from __future__ import annotations

import gc
import math
import random
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List

from repro.pipeline import (
    PAPER_PIPELINES,
    generate_program,
    get_pipeline,
    load_runner,
    result_from_payload,
)
from repro.service import CompileCache, Session, cache_key
from repro.workloads import polybench
from repro.workloads.python_suite import default_sizes as py_default_sizes
from repro.workloads.python_suite import get_program, kernel_names as py_kernel_names

from harness import (
    Tracer,
    agrees,
    cc_build,
    digest,
    geomean,
    load_kernel,
    median,
    percentile,
    raw_source,
)
from layers import TracedCompiler, traced_native_run

#: Pipelines whose compiles form the ``vs_base.p50/p90`` population on
#: ``compile-cold``.  Compile times of the six pipelines are bimodal
#: (control-centric 5-15 ms, data-centric 30-170 ms), so a median over
#: all six would sit in the gap between the modes and jump between them.
DATA_CENTRIC = ("dace", "dcir", "dcir+vec")

#: Kernels whose default sizes are multiplied by 20 on ``native-large``
#: (quadratic or linear work); every other size is multiplied by 7, except
#: stencil time steps, which stay (``jacobi-1d`` scales N and T by 20).
LARGE_X20 = ("atax", "bicg", "mvt", "gesummv", "gemver", "durbin", "trisolv")

#: Steady-state repetitions per side per kernel and round on ``native-large``.
STEADY_REPS = 2


def native_spec(pipeline: str):
    """A registered pipeline, with C emission when it crosses the bridge."""
    spec = get_pipeline(pipeline)
    return spec.with_codegen(backend="native") if spec.bridge else spec


def large_sizes(kernel: str) -> Dict[str, int]:
    sizes = polybench.default_sizes(kernel)
    if kernel == "jacobi-1d":
        return {key: value * 20 for key, value in sizes.items()}
    factor = 20 if kernel in LARGE_X20 else 7
    return {key: value if key == "T" else value * factor for key, value in sizes.items()}


class Workload:
    """One workload: a warm-up request, then rounds of timed requests."""

    name = ""
    #: Rounds a full run makes at least, so that each reported percentile
    #: has at least ten samples beyond it.
    min_rounds = 1
    #: What every ratio of this workload divides by.
    base = ""

    def __init__(self, seed: int, quick: bool, work: Path, tracer: Tracer):
        self.seed = seed
        self.quick = quick
        self.work = work
        self.tracer = tracer
        self.traced = TracedCompiler(tracer) if tracer.enabled else None
        self.attempted = 0
        self.failed = 0
        #: Per-request ratios to the baseline (``inf`` for a failure).
        self.ratios: List[float] = []
        self.geo: List[float] = []
        self.raw: Dict[str, List[float]] = {}
        self.inputs: List[str] = []  # round 0's generated inputs
        self.kernels_with_maps = set()
        #: Wall time spent on untimed output checks, which the run's
        #: measuring budget leaves out.
        self.check_seconds = 0.0
        self._used: Dict[str, set] = {}
        (work / "cc").mkdir(parents=True, exist_ok=True)

    # -- inputs -----------------------------------------------------------------------
    def draw_sizes(self, key: str, base: Dict[str, int], index: int,
                   low: float, high: float, unique: bool = True) -> Dict[str, int]:
        """Sizes for ``key`` in round ``index``, drawn from the seed alone.

        ``unique`` draws never repeat a binding already used in this run
        (nor the unscaled defaults the warm-up compiles), so no cold
        compile sees a source an earlier one saw; when the range runs out
        of unused bindings, its upper end grows.
        """
        used = self._used.setdefault(key, {tuple(sorted(base.items()))})
        rng = random.Random(f"{self.seed}/{key}/{index}")
        for attempt in range(10_000):
            top = high + 0.05 * (attempt // 20)
            sizes = {k: max(2, round(v * rng.uniform(low, top))) for k, v in base.items()}
            signature = tuple(sorted(sizes.items()))
            if not unique:
                return sizes
            if signature not in used:
                used.add(signature)
                return sizes
        raise RuntimeError(f"no unused sizes left for {key}")

    def record_input(self, index: int, text: str) -> None:
        if index == 0:
            self.inputs.append(text)

    def inputs_digest(self) -> str:
        return digest(self.inputs)

    # -- requests ---------------------------------------------------------------------
    def compile(self, source, spec):
        """``(program, seconds)`` through ``generate_program`` — or, in a
        traced run, through the traced compile path (checked byte-identical)."""
        if self.traced is not None:
            return self.traced.compile(source, spec)
        start = time.perf_counter()
        program = generate_program(source, spec)
        return program, time.perf_counter() - start

    def note_maps(self, index: int, kernel: str, pipeline: str, program) -> None:
        if index == 0 and pipeline == "dcir" and program.sdfg is not None:
            if any(True for _ in program.sdfg.map_entries()):
                self.kernels_with_maps.add(kernel)

    def record(self, ok: bool, ratio: float, *, gated: bool = True) -> None:
        """Account one request; a failure counts as ``inf`` in the ratios."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            ratio = math.inf
        if gated:
            self.ratios.append(ratio)
        self.geo.append(ratio)

    def report_failure(self, what: str) -> None:
        print(f"perfbench: {self.name}: {what} failed", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)

    # -- results ----------------------------------------------------------------------
    def end_to_end(self) -> Dict[str, tuple]:
        """``name -> (value, samples)`` of the gated ratios."""
        return {
            "vs_base.p50": (percentile(self.ratios, 50), len(self.ratios)),
            "vs_base.p90": (percentile(self.ratios, 90), len(self.ratios)),
            "vs_base.geomean": (geomean(self.geo), len(self.geo)),
        }

    def raw_seconds(self) -> Dict[str, tuple]:
        """``name -> (value, samples)`` of the ungated raw timings."""
        return {name: (median(values), len(values)) for name, values in self.raw.items()}


class CompileCold(Workload):
    name = "compile-cold"
    #: 2 rounds give the p90 its ten samples beyond (2 x 23 x 3 compiles);
    #: the third averages the +-8 % round-to-round drift of the ratio.
    min_rounds = 3
    base = "cc -O2 build of the same source"

    def __init__(self, *args):
        super().__init__(*args)
        self.kernels = ["atax", "gemm", "jacobi-1d"] if self.quick else polybench.kernel_names()
        self.specs = [(name, native_spec(name)) for name in PAPER_PIPELINES]

    def warm_up(self) -> None:
        source = polybench.get_kernel("gemm")
        generate_program(source, native_spec("dcir"))
        cc_build(raw_source(source), self.work / "cc", "warm-up")

    def baseline(self, stem: str, source: str):
        with self.tracer.span("baseline.cc_build"):
            start = time.perf_counter()
            library = cc_build(raw_source(source), self.work / "cc", stem)
            return library, time.perf_counter() - start

    def run_round(self, index: int) -> None:
        for position, kernel in enumerate(self.kernels):
            sizes = self.draw_sizes(kernel, polybench.default_sizes(kernel), index, 0.75, 1.35)
            source = polybench.get_kernel(kernel, sizes)
            self.record_input(index, source)
            cc_first = (index + position) % 2 == 1
            try:
                if cc_first:
                    built = self.baseline(f"r{index}-{kernel}", source)
                compiles = []
                for pipeline, spec in self.specs:
                    self.tracer.request = f"{index}/{kernel}/{pipeline}"
                    try:
                        compiles.append((pipeline, spec, *self.compile(source, spec)))
                    except Exception:
                        self.report_failure(f"{pipeline} compile of {kernel}")
                        compiles.append((pipeline, spec, None, None))
                if not cc_first:
                    built = self.baseline(f"r{index}-{kernel}", source)
            except Exception:
                self.report_failure(f"cc build of {kernel}")
                for pipeline, _ in self.specs:
                    self.record(False, math.inf, gated=pipeline in DATA_CENTRIC)
                continue
            library, cc_seconds = built
            self.raw.setdefault("baseline.cc_build_s", []).append(cc_seconds)
            # Checks, outside every timed region.  Round 0 runs each
            # compiled program (interpreted) against the raw-cc checksum.
            check_start = time.perf_counter()
            reference = load_kernel(library, source)() if index == 0 else None
            for pipeline, spec, program, seconds in compiles:
                ok = program is not None and (
                    not spec.bridge or program.native_code is not None
                )
                if ok and index == 0:
                    try:
                        ok = agrees(load_runner(program.code)().get("__return"), reference)
                    except Exception:
                        self.report_failure(f"{pipeline} run of {kernel}")
                        ok = False
                if program is not None:
                    self.note_maps(index, kernel, pipeline, program)
                    self.raw.setdefault("compile_s.p50", []).append(seconds)
                self.record(ok, seconds / cc_seconds if ok else math.inf,
                            gated=pipeline in DATA_CENTRIC)
            self.check_seconds += time.perf_counter() - check_start


class NativeLarge(Workload):
    name = "native-large"
    min_rounds = 5  # 5 x 23 cold requests >= 100 samples for p90
    base = ("raw-cc build + load + first call (p50, p90); "
            "raw-cc steady-state kernel (geomean)")

    def __init__(self, *args):
        super().__init__(*args)
        self.kernels = ["atax", "gemm"] if self.quick else polybench.kernel_names()
        self.spec = native_spec("dcir")
        self.kernel_ratios: Dict[str, List[float]] = {}
        self.kernel_seconds: Dict[str, List[float]] = {}

    def warm_up(self) -> None:
        source = polybench.get_kernel("gemm")
        generate_program(source, self.spec).to_result().run()
        load_kernel(cc_build(raw_source(source), self.work / "cc", "warm-up"), source)()

    def ours(self, index: int, kernel: str, source: str):
        """Cold request: compile, cc, dlopen, first run.  Returns
        ``(steady-state runner, first outputs, time to result)``."""
        self.tracer.request = f"{index}/{kernel}/dcir"
        start = time.perf_counter()
        program, _ = self.compile(source, self.spec)
        if self.traced is not None:
            native, outputs = traced_native_run(program, self.tracer)
            runner = native.run
        else:
            result = program.to_result()
            outputs = result.run()
            runner = result.run
        seconds = time.perf_counter() - start
        if self.traced is not None:
            seconds -= self.traced.last_check_seconds
        self.note_maps(index, kernel, "dcir", program)
        return runner, outputs, seconds

    def reference(self, index: int, kernel: str, source: str):
        """Raw-cc path: build, load, first call.  Returns
        ``(steady-state entry, checksum, time to result)``."""
        with self.tracer.span("baseline.ref_ttr"):
            start = time.perf_counter()
            library = cc_build(raw_source(source), self.work / "cc", f"r{index}-{kernel}")
            function = load_kernel(library, source)
            checksum = function()
            return function, checksum, time.perf_counter() - start

    def steady(self, ours, theirs, ours_first: bool):
        """Best-of-:data:`STEADY_REPS` of both sides, interleaved, GC off."""
        best = [math.inf, math.inf]
        sides = [("run", ours), ("baseline.ref_run", theirs)]
        gc.disable()
        try:
            for rep in range(STEADY_REPS):
                order = (0, 1) if (rep % 2 == 0) == ours_first else (1, 0)
                for side in order:
                    span, call = sides[side]
                    with self.tracer.span(span):
                        start = time.perf_counter()
                        call()
                        best[side] = min(best[side], time.perf_counter() - start)
        finally:
            gc.enable()
        return best

    def run_round(self, index: int) -> None:
        for position, kernel in enumerate(self.kernels):
            sizes = self.draw_sizes(kernel, large_sizes(kernel), index, 0.96, 1.04)
            source = polybench.get_kernel(kernel, sizes)
            self.record_input(index, source)
            ours_first = (index + position) % 2 == 0
            try:
                if ours_first:
                    runner, outputs, ttr = self.ours(index, kernel, source)
                    function, checksum, ref_ttr = self.reference(index, kernel, source)
                else:
                    function, checksum, ref_ttr = self.reference(index, kernel, source)
                    runner, outputs, ttr = self.ours(index, kernel, source)
                kernel_s, ref_kernel_s = self.steady(runner, function, ours_first)
            except Exception:
                self.report_failure(f"request for {kernel}")
                self.record(False, math.inf)
                continue
            ok = agrees(outputs.get("__return"), checksum)
            self.record(ok, ttr / ref_ttr)
            if ok:
                self.kernel_ratios.setdefault(kernel, []).append(kernel_s / ref_kernel_s)
                self.kernel_seconds.setdefault(kernel, []).append(kernel_s)
                self.raw.setdefault("time_to_result_s.p50", []).append(ttr)
                self.raw.setdefault("baseline.ref_ttr_s", []).append(ref_ttr)

    def end_to_end(self) -> Dict[str, tuple]:
        metrics = super().end_to_end()
        # Kernel speed: per kernel the median over rounds of the round's
        # best-of-R ratio (rounds differ in size), then the geomean over
        # kernels; a kernel with no correct round counts as inf.
        per_kernel = [
            median(self.kernel_ratios[k]) if self.kernel_ratios.get(k) else math.inf
            for k in self.kernels
        ]
        metrics["vs_base.geomean"] = (geomean(per_kernel), len(per_kernel))
        return metrics

    def raw_seconds(self) -> Dict[str, tuple]:
        out = super().raw_seconds()
        per_kernel = [median(v) for v in self.kernel_seconds.values()]
        out["kernel_s.geomean"] = (geomean(per_kernel), len(per_kernel))
        return out


class PyCached(Workload):
    name = "py-cached"
    min_rounds = 1  # one stream is 216 requests (54 misses), >= 100 for p90
    base = "NumPy run of the same program just before it"
    #: Times each (program, pipeline) pair recurs in a stream.
    REPEATS = 4

    def __init__(self, *args):
        super().__init__(*args)
        self.programs = ["heat1d", "mish"] if self.quick else py_kernel_names()

    def warm_up(self) -> None:
        program = get_program("axpy_chain")
        program.load()(**program.sizes)
        Session(cache=CompileCache(use_env_directory=False)).compile(program, "dcir").run()

    def request(self, session: Session, program, pipeline: str):
        """One request: compile through the session's cache, then run."""
        if self.traced is None:
            return session.compile(program, pipeline).run()
        # The traced twin of CompileCache.get_or_compile.
        cache, tracer = session.cache, self.tracer
        key = cache_key(program, pipeline)
        with tracer.span("cache.lookup"):
            payload = cache.lookup(key)
        tracer.count("cache.hit_ratio", payload is not None)
        if payload is not None:
            with tracer.span("cache.rehydrate"):
                result = result_from_payload(payload)
        else:
            generated, _ = self.traced.compile(program, get_pipeline(pipeline))
            self.note_maps(self.tracer.round, program.name, pipeline, generated)
            with tracer.span("cache.store"):
                cache.store(key, generated.to_payload())
            result = generated.to_result()
        with tracer.span("interp_run"):
            return result.run()

    def run_round(self, index: int) -> None:
        programs = {}
        for name in self.programs:
            # Every round starts from an empty cache, so repeated sizes
            # across rounds are still misses.
            sizes = self.draw_sizes(name, py_default_sizes(name), index, 0.75, 1.35,
                                    unique=False)
            program = get_program(name, sizes)
            programs[name] = (program, program.load())
            self.record_input(index, program.cache_source())
        stream = [(name, p) for name in self.programs for p in PAPER_PIPELINES] * self.REPEATS
        random.Random(f"{self.seed}/stream/{index}").shuffle(stream)
        session = Session(cache=CompileCache(use_env_directory=False))
        for position, (name, pipeline) in enumerate(stream):
            program, numpy_fn = programs[name]
            self.tracer.request = f"{index}/{position}/{name}/{pipeline}"
            if self.traced is not None:
                self.traced.last_check_seconds = 0.0
            try:
                with self.tracer.span("baseline.numpy"):
                    start = time.perf_counter()
                    expected = numpy_fn(**program.sizes)
                    numpy_s = time.perf_counter() - start
                start = time.perf_counter()
                outputs = self.request(session, program, pipeline)
                request_s = time.perf_counter() - start
            except Exception:
                self.report_failure(f"{pipeline} request for {name}")
                self.record(False, math.inf)
                continue
            if self.traced is not None:
                request_s -= self.traced.last_check_seconds
            ok = agrees(outputs.get("__return"), expected)
            self.record(ok, request_s / numpy_s)
            self.raw.setdefault("request_s.p50", []).append(request_s)
            self.raw.setdefault("baseline.numpy_s", []).append(numpy_s)


WORKLOADS = {w.name: w for w in (CompileCold, NativeLarge, PyCached)}
