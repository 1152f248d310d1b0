"""Figures 7–10 and the §7.2/§7.3 auxiliary measurements.

* Fig. 7  — syrk: DCIR (LICM before conversion) vs. the DaCe C-frontend
  view (indivisible tasklets).  Expected shape: dcir ≤ dace.
* Fig. 8  — Mish activation: eager / jit models, scalar pipelines, and the
  vectorized (ICC/SLEEF-style) DCIR backend.  Expected shape:
  dcir+vec fastest, eager slowest among the framework models.
* Fig. 9  — MILC multi-mass CG snippet: DCIR ≫ general-purpose compilers
  because two dead arrays are eliminated.
* Fig. 10 — memory bandwidth benchmark: DCIR on par with GCC/Clang and
  faster than the MLIR pipeline.
* compile time (§7.2) and container-elimination counts (§7.3).
"""

import pytest

from harness import FIGURE_PIPELINES, compile_cached, record_manual, time_pipeline
from repro import compile_c
from repro.workloads import (
    bandwidth_source,
    fig2_source,
    get_kernel,
    milc_source,
    mish_source,
    run_eager,
    run_jit,
    syrk_source,
)

# --------------------------------------------------------------------------
# Fig. 7 — syrk (DaCe misses LICM, DCIR does not)
# --------------------------------------------------------------------------

SYRK_SIZES = {"N": 22, "M": 18}


@pytest.mark.parametrize("pipeline", FIGURE_PIPELINES)
def test_fig7_syrk(benchmark, pipeline):
    source = syrk_source(SYRK_SIZES)
    reference = compile_cached(source, "gcc").run()["__return"]
    outputs = time_pipeline(benchmark, source, pipeline, "fig7_syrk", "syrk")
    assert outputs["__return"] == pytest.approx(reference, rel=1e-9)


# --------------------------------------------------------------------------
# Fig. 8 — Mish activation
# --------------------------------------------------------------------------

MISH_N = 4000
MISH_REPS = 2
MISH_PIPELINES = ["mlir", "dcir", "dcir+vec"]


def test_fig8_mish_eager(benchmark):
    result = benchmark.pedantic(lambda: run_eager(MISH_N, MISH_REPS), rounds=1, iterations=1)
    record_manual("fig8_mish", "mish", "pytorch-eager", benchmark.stats.stats.min)
    assert result.checksum > 0


def test_fig8_mish_jit(benchmark):
    result = benchmark.pedantic(lambda: run_jit(MISH_N, MISH_REPS), rounds=1, iterations=1)
    record_manual("fig8_mish", "mish", "pytorch-jit", benchmark.stats.stats.min)
    assert result.checksum > 0


@pytest.mark.parametrize("pipeline", MISH_PIPELINES)
def test_fig8_mish_pipelines(benchmark, pipeline):
    source = mish_source({"N": MISH_N, "REPS": MISH_REPS})
    outputs = time_pipeline(benchmark, source, pipeline, "fig8_mish", "mish")
    assert outputs["__return"] == pytest.approx(
        compile_cached(source, "mlir").run()["__return"], rel=1e-9
    )


# --------------------------------------------------------------------------
# Fig. 9 — MILC snippet
# --------------------------------------------------------------------------

MILC_SIZES = {"NORDER": 3000, "ITERS": 3}


@pytest.mark.parametrize("pipeline", FIGURE_PIPELINES)
def test_fig9_milc(benchmark, pipeline):
    source = milc_source(MILC_SIZES)
    reference = compile_cached(source, "gcc").run()["__return"]
    outputs = time_pipeline(benchmark, source, pipeline, "fig9_milc", "milc")
    assert outputs["__return"] == pytest.approx(reference, rel=1e-9)


# --------------------------------------------------------------------------
# Fig. 10 — bandwidth benchmark
# --------------------------------------------------------------------------

BANDWIDTH_SIZES = {"N": 1500, "NTIMES": 3}


@pytest.mark.parametrize("pipeline", FIGURE_PIPELINES)
def test_fig10_bandwidth(benchmark, pipeline):
    source = bandwidth_source(BANDWIDTH_SIZES)
    reference = compile_cached(source, "gcc").run()["__return"]
    outputs = time_pipeline(benchmark, source, pipeline, "fig10_bandwidth", "bandwidth")
    assert outputs["__return"] == pytest.approx(reference, rel=1e-9)


# --------------------------------------------------------------------------
# §7.2 compile time and §7.3 elimination counts
# --------------------------------------------------------------------------

@pytest.mark.parametrize("pipeline", ["mlir", "dcir"])
def test_compile_time(benchmark, pipeline):
    source = get_kernel("gemm", {"NI": 10, "NJ": 11, "NK": 12})

    def _compile():
        return compile_c(source, pipeline)

    result = benchmark.pedantic(_compile, rounds=1, iterations=1)
    record_manual("sec7_2_compile_time", "gemm", pipeline, benchmark.stats.stats.min)
    assert result.code


def test_elimination_counts(benchmark):
    """§7.3: '63 arrays and scalars were eliminated from the three snippets'."""

    def _count():
        total = 0
        for source in (
            fig2_source({"N": 120, "M": 20}),
            milc_source({"NORDER": 300, "ITERS": 2}),
            bandwidth_source({"N": 200, "NTIMES": 2}),
        ):
            total += len(compile_c(source, "dcir").eliminated_containers)
        return total

    total = benchmark.pedantic(_count, rounds=1, iterations=1)
    record_manual("sec7_3_eliminations", "case-studies", "dcir", float(total))
    assert total >= 20


# --------------------------------------------------------------------------
# Ablation: contribution of individual data-centric passes (DESIGN.md)
# --------------------------------------------------------------------------

@pytest.mark.parametrize(
    "disabled",
    ["none", "dead-dataflow-elimination", "redundant-iteration-elimination", "array-elimination"],
)
def test_ablation_fig2(benchmark, disabled):
    """Disable one data-centric pass at a time and measure Fig. 2 again."""
    from repro.codegen import compile_sdfg
    from repro.conversion import mlir_to_sdfg
    from repro.frontend import compile_c_to_mlir
    from repro.passes import control_centric_pipeline
    from repro.pipeline import DATA_SUITE
    from repro.transforms import DATA_PASSES

    source = fig2_source({"N": 250, "M": 25})
    module = compile_c_to_mlir(source)
    control_centric_pipeline().run(module)
    sdfg = mlir_to_sdfg(module)
    kept = [name for name in DATA_SUITE if name != disabled]
    DATA_PASSES.runner(kept, max_iterations=3, stage="data").run(sdfg)
    compiled = compile_sdfg(sdfg)

    outputs = benchmark.pedantic(compiled.run, rounds=1, iterations=1)
    record_manual("ablation_fig2", f"without {disabled}", "dcir", benchmark.stats.stats.min)
    assert outputs["__return"] == 5
