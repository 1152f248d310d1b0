"""Parallel execution: differential equality and WCR stress.

The acceptance bar for parallel execution is *semantic*: every parallel
run must compute what the sequential schedule computes — integers and
allocation counts exact, floats within 1e-12 relative drift (reduction
reassociation is the only permitted difference).  The native backend's
OpenMP code is the only parallel executor; the interpreted backend
ignores schedules and is the sequential oracle.  These tests cover:

* the interpreted backend emitting byte-identical code with and without
  parallel annotations, over the whole NumPy-frontend suite;
* native parallel vs native sequential over the NumPy-frontend suite and
  the parallelizable PolyBench kernels;
* the native OpenMP emission (reduction clauses, atomic updates) on
  hand-built WCR SDFGs, checked against the interpreted oracle;
* a discovery sweep asserting the WCR-under-parallelism property for
  every PolyBench kernel whose default-pipeline SDFG carries WCR memlets
  (currently none survive lowering — the sweep documents that and guards
  the day one does).
"""

import numpy as np
import pytest

from repro.codegen import have_compiler
from repro.codegen.sdfg_c import generate_c_code
from repro.codegen.sdfg_python import CompiledSDFG, generate_code
from repro.codegen.toolchain import CompiledNative
from repro.pipeline.pipelines import generate_sdfg
from repro.sdfg import SDFG, Memlet, SCHEDULE_PARALLEL
from repro.symbolic import Range
from repro.transforms import Parallelize
from repro.workloads import get_kernel, kernel_names
from repro.workloads.python_suite import python_suite

requires_cc = pytest.mark.skipif(not have_compiler(), reason="no C compiler on PATH")

#: Parallel float results may differ from sequential only by reduction
#: reassociation — bounded by this relative tolerance (PR acceptance bar).
FLOAT_DRIFT = 1e-12

#: Repeated parallel executions per stress case.
STRESS_RUNS = 5


def _outputs_match(reference, candidate) -> None:
    assert set(reference) == set(candidate)
    for key in reference:
        expected, actual = reference[key], candidate[key]
        if isinstance(expected, np.ndarray):
            if np.issubdtype(expected.dtype, np.integer):
                assert np.array_equal(expected, actual), key
            else:
                np.testing.assert_allclose(actual, expected, rtol=FLOAT_DRIFT, atol=0.0)
        elif isinstance(expected, float):
            assert actual == pytest.approx(expected, rel=FLOAT_DRIFT), key
        else:
            assert actual == expected, key


def _reduction_sdfg(wcr: str, dtype: str, size: int = 1000) -> SDFG:
    """A map whose only write is a WCR update of an external scalar."""
    sdfg = SDFG(f"red_{wcr.replace('*', 'x').replace('+', 'p')}_{dtype}")
    sdfg.add_array("A", [size], dtype)
    sdfg.add_scalar("s", dtype, transient=False)
    state = sdfg.add_state("s0", is_start_state=True)
    state.add_mapped_tasklet(
        "acc", {"i": Range(0, size)},
        {"_a": Memlet.simple("A", "i")}, "_out = _a",
        {"_out": Memlet(data="s", wcr=wcr)},
    )
    return sdfg


def _annotate_all(sdfg: SDFG, n_threads=None) -> int:
    transform = Parallelize(n_threads=n_threads)
    matches = transform.match(sdfg)
    for match in matches:
        transform.apply_match(sdfg, match)
    return len(matches)


# ---------------------------------------------------------------------------
# Interpreted oracle and native executor over the NumPy-frontend suite
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kernel", sorted(python_suite()))
def test_interpreted_code_ignores_schedule(kernel):
    sdfg = generate_sdfg(python_suite()[kernel], pipeline="dcir")
    sequential = generate_code(sdfg)
    assert _annotate_all(sdfg) > 0
    assert generate_code(sdfg) == sequential


@requires_cc
@pytest.mark.parametrize("kernel", sorted(python_suite()))
def test_python_suite_native_parallel_differential(kernel, monkeypatch):
    monkeypatch.setenv("REPRO_NUM_THREADS", "2")
    sdfg = generate_sdfg(python_suite()[kernel], pipeline="dcir")
    reference = CompiledNative.from_code(generate_c_code(sdfg)).run()
    assert _annotate_all(sdfg, n_threads=2) > 0
    code = generate_c_code(sdfg)
    assert "#pragma omp parallel for" in code
    parallel = CompiledNative.from_code(code).run()
    _outputs_match(reference, parallel)


@requires_cc
class TestWCRStress:
    @pytest.mark.parametrize("wcr,dtype", [
        ("+", "int64"), ("max", "int64"), ("+", "float64"),
        ("*", "float64"), ("min", "float64"),
    ])
    def test_repeated_runs_match_oracle(self, wcr, dtype, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "4")
        sdfg = _reduction_sdfg(wcr, dtype)
        if dtype == "int64":
            values = np.arange(1, 1001, dtype=np.int64)
        elif wcr == "*":
            values = np.random.default_rng(3).uniform(0.9, 1.1, 1000)
        else:
            values = np.random.default_rng(3).standard_normal(1000)
        initial = 1 if wcr == "*" else 0
        reference = CompiledSDFG.from_code(generate_code(sdfg), name="seq").run(
            A=values.copy(), s=initial
        )["s"]
        for _, entry in sdfg.map_entries():
            entry.map.schedule = SCHEDULE_PARALLEL
        code = generate_c_code(sdfg)
        assert f"reduction({wcr}:s)" in code
        native = CompiledNative.from_code(code)
        for _ in range(STRESS_RUNS):
            result = native.run(A=values.copy(), s=initial)["s"]
            if dtype == "int64":
                assert result == reference  # integers are exact
            else:
                assert result == pytest.approx(reference, rel=FLOAT_DRIFT)

    def test_native_atomic_update(self):
        sdfg = SDFG("atomic_native")
        sdfg.add_array("A", [256], "float64")
        sdfg.add_array("B", [4], "float64")
        state = sdfg.add_state("s0", is_start_state=True)
        _, entry, _ = state.add_mapped_tasklet(
            "hist", {"i": Range(0, 256)},
            {"_a": Memlet.simple("A", "i")}, "_out = _a",
            {"_out": Memlet.simple("B", "0", wcr="+")},
        )
        entry.map.schedule = SCHEDULE_PARALLEL
        entry.map.n_threads = 2
        code = generate_c_code(sdfg)
        assert "#pragma omp atomic" in code
        values = np.random.default_rng(9).standard_normal(256)
        native = CompiledNative.from_code(code)
        for _ in range(STRESS_RUNS):
            out = native.run(A=values.copy(), B=np.zeros(4))
            assert out["B"][0] == pytest.approx(values.sum(), rel=1e-9)


# ---------------------------------------------------------------------------
# PolyBench sweeps
# ---------------------------------------------------------------------------

@requires_cc
@pytest.mark.parametrize("kernel", ["atax", "bicg"])
def test_polybench_native_parallel_differential(kernel, monkeypatch):
    monkeypatch.setenv("REPRO_NUM_THREADS", "2")
    sdfg = generate_sdfg(get_kernel(kernel), pipeline="dcir")
    reference = CompiledNative.from_code(generate_c_code(sdfg)).run()
    assert _annotate_all(sdfg, n_threads=2) > 0
    code = generate_c_code(sdfg)
    assert "#pragma omp parallel for" in code
    parallel = CompiledNative.from_code(code).run()
    _outputs_match(reference, parallel)


@requires_cc
@pytest.mark.parametrize("kernel", kernel_names())
def test_polybench_wcr_under_parallelism(kernel, monkeypatch):
    """Differential gate for every PolyBench kernel carrying WCR memlets.

    The default lowering currently folds all accumulations into tasklet
    bodies before codegen, so no WCR memlet survives and each instance
    skips — but the sweep is live: the first pipeline change that keeps a
    WCR memlet puts that kernel under the parallel differential check
    automatically.
    """
    sdfg = generate_sdfg(get_kernel(kernel), pipeline="dcir")
    wcr_edges = [
        edge for state in sdfg.states() for edge in state.edges()
        if edge.data.wcr is not None
    ]
    if not wcr_edges:
        pytest.skip("no WCR memlets survive the default pipeline for this kernel")
    monkeypatch.setenv("REPRO_NUM_THREADS", "2")
    reference = CompiledNative.from_code(generate_c_code(sdfg)).run()
    if _annotate_all(sdfg, n_threads=2) == 0:
        pytest.skip("no provably-parallel map on this kernel")
    parallel = CompiledNative.from_code(generate_c_code(sdfg)).run()
    _outputs_match(reference, parallel)
