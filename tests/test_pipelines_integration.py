"""End-to-end pipeline tests: correctness across pipelines and the paper's
qualitative claims (Fig. 2, Fig. 7, Fig. 9) at test-sized workloads."""

import numpy as np
import pytest

import repro
from repro import compile_c, compile_and_run, run_compiled
from repro.pipeline import PAPER_PIPELINES
from repro.workloads import (
    bandwidth_source,
    fig2_source,
    get_kernel,
    kernel_names,
    milc_source,
    mish_source,
    reference_checksum,
    run_eager,
    run_jit,
    syrk_source,
)

#: Small problem sizes so the whole matrix of (kernel × pipeline) stays fast.
_SMALL_SIZES = {
    "2mm": {"NI": 6, "NJ": 7, "NK": 8, "NL": 9},
    "3mm": {"NI": 5, "NJ": 6, "NK": 7, "NL": 8, "NM": 9},
    "atax": {"M": 10, "N": 12},
    "bicg": {"M": 10, "N": 12},
    "cholesky": {"N": 8},
    "covariance": {"N": 10, "M": 8},
    "doitgen": {"R": 4, "Q": 3, "P": 6},
    "durbin": {"N": 16},
    "floyd-warshall": {"N": 10},
    "gemm": {"NI": 8, "NJ": 9, "NK": 10},
    "gemver": {"N": 10},
    "gesummv": {"N": 10},
    "heat-3d": {"N": 6, "T": 2},
    "jacobi-1d": {"N": 20, "T": 3},
    "jacobi-2d": {"N": 10, "T": 2},
    "lu": {"N": 8},
    "mvt": {"N": 12},
    "seidel-2d": {"N": 10, "T": 2},
    "symm": {"M": 8, "N": 9},
    "syr2k": {"N": 8, "M": 9},
    "syrk": {"N": 8, "M": 9},
    "trisolv": {"N": 12},
    "trmm": {"M": 8, "N": 9},
}


def _reference(source: str) -> float:
    return compile_and_run(source, "gcc").return_value


class TestPipelineCorrectness:
    @pytest.mark.parametrize("kernel", sorted(_SMALL_SIZES))
    @pytest.mark.parametrize("pipeline", ["clang", "mlir", "dace", "dcir"])
    def test_polybench_kernels_match_reference(self, kernel, pipeline):
        source = get_kernel(kernel, _SMALL_SIZES[kernel])
        reference = _reference(source)
        result = compile_and_run(source, pipeline).return_value
        assert result == pytest.approx(reference, rel=1e-9)

    @pytest.mark.parametrize("pipeline", PAPER_PIPELINES)
    def test_fig2_example_all_pipelines(self, pipeline):
        source = fig2_source({"N": 80, "M": 10})
        assert compile_and_run(source, pipeline).return_value == 5

    @pytest.mark.parametrize("pipeline", ["gcc", "mlir", "dace", "dcir"])
    def test_milc_all_pipelines(self, pipeline):
        source = milc_source({"NORDER": 120, "ITERS": 2})
        reference = _reference(source)
        assert compile_and_run(source, pipeline).return_value == pytest.approx(reference)

    @pytest.mark.parametrize("pipeline", ["gcc", "mlir", "dace", "dcir"])
    def test_bandwidth_all_pipelines(self, pipeline):
        source = bandwidth_source({"N": 64, "NTIMES": 2})
        reference = _reference(source)
        assert compile_and_run(source, pipeline).return_value == pytest.approx(reference)

    @pytest.mark.parametrize("pipeline", ["gcc", "mlir", "dace", "dcir", "dcir+vec"])
    def test_mish_matches_closed_form(self, pipeline):
        source = mish_source({"N": 64, "REPS": 1})
        expected = reference_checksum(64)
        assert compile_and_run(source, pipeline).return_value == pytest.approx(expected)

    def test_unknown_pipeline_rejected(self):
        with pytest.raises(repro.PipelineError):
            compile_c("int f() { return 0; }", "icc")


class TestPaperClaims:
    def test_fig2_dcir_eliminates_dead_array(self):
        """Fig. 2: only the combined pipeline removes the dead allocation."""
        source = fig2_source({"N": 150, "M": 20})
        dcir = compile_c(source, "dcir")
        dace = compile_c(source, "dace")
        assert dcir.eliminated_containers, "DCIR should eliminate the dead array A"
        # Without the control-centric half, the false dependency through A
        # remains and DaCe alone cannot remove the array (paper §1).
        dcir_arrays = [n for n in dcir.eliminated_containers if n.startswith("_arr")]
        dace_arrays = [n for n in dace.eliminated_containers if n.startswith("_arr")]
        assert len(dcir_arrays) > len(dace_arrays)

    def test_fig2_dcir_runtime_advantage(self):
        source = fig2_source({"N": 300, "M": 30})
        dcir = run_compiled(compile_c(source, "dcir"))
        mlir = run_compiled(compile_c(source, "mlir"))
        assert dcir.return_value == mlir.return_value == 5
        assert dcir.seconds * 5 < mlir.seconds, (
            "DCIR should be at least 5x faster than the MLIR pipeline on Fig. 2"
        )

    def test_fig7_syrk_licm(self):
        """Fig. 7: DCIR hoists alpha*A[i][k] out of the innermost loop; the
        DaCe C frontend view (no control-centric passes) does not."""
        source = syrk_source({"N": 6, "M": 5})
        from repro.frontend import compile_c_to_mlir
        from repro.passes import control_centric_pipeline
        from repro.ir import print_module

        module = compile_c_to_mlir(source)
        control_centric_pipeline().run(module)
        text = print_module(module)
        # After LICM the innermost (j) loop no longer contains the multiply
        # of the two loop-invariant operands.
        innermost = text.split("scf.for %j")[-1].split("}")[0]
        assert innermost.count("arith.mulf") <= 1
        # And both pipelines still agree numerically.
        reference = _reference(source)
        assert compile_and_run(source, "dcir").return_value == pytest.approx(reference)
        assert compile_and_run(source, "dace").return_value == pytest.approx(reference)

    def test_fig9_milc_array_elimination(self):
        """Fig. 9: the data-centric pipeline eliminates the arrays whose
        values are never observed (zeta_ip1, beta_i in the paper)."""
        source = milc_source({"NORDER": 200, "ITERS": 2})
        dcir = compile_c(source, "dcir")
        eliminated_arrays = [n for n in dcir.eliminated_containers if n.startswith("_arr")]
        assert len(eliminated_arrays) >= 2

    def test_elimination_counts_reported(self):
        """§7.3: the three case studies together eliminate tens of containers."""
        total = 0
        for source in (
            fig2_source({"N": 60, "M": 10}),
            milc_source({"NORDER": 100, "ITERS": 1}),
            bandwidth_source({"N": 50, "NTIMES": 2}),
        ):
            total += len(compile_c(source, "dcir").eliminated_containers)
        assert total >= 20

    def test_mish_vectorized_matches_eager_and_is_competitive(self):
        """Fig. 8: the vectorized (ICC/SLEEF-style) backend computes the same
        activation and is competitive with the eager framework model (the
        absolute ordering of the paper depends on native vector math that a
        Python substrate cannot reproduce; see EXPERIMENTS.md)."""
        n, reps = 3000, 2
        source = mish_source({"N": n, "REPS": reps})
        eager = run_eager(n, reps)
        vec = run_compiled(compile_c(source, "dcir+vec"))
        assert vec.outputs["__return"] == pytest.approx(eager.checksum, rel=1e-9)
        assert vec.seconds < eager.seconds * 3

    def test_movement_report_availability(self):
        source = bandwidth_source({"N": 64, "NTIMES": 2})
        result = compile_c(source, "dcir")
        report = result.movement_report()
        assert report is not None and report.bytes_moved > 0
        assert compile_c(source, "gcc").movement_report() is None

    def test_compile_time_reported(self):
        result = compile_c(get_kernel("gemm", _SMALL_SIZES["gemm"]), "dcir")
        assert result.compile_seconds > 0
        assert result.optimization_report is not None
