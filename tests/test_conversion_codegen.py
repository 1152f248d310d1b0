"""Tests for the MLIR→SDFG bridge (converter, translator, raising) and code generation."""

import numpy as np
import pytest

from repro.codegen import (
    build_control_flow,
    compile_mlir,
    compile_sdfg,
    generate_code,
    generate_mlir_code,
    sdfg_movement_report,
    states_in_tree,
)
from repro.codegen.control_flow import LoopNode
from repro.conversion import (
    convert_to_sdfg_dialect,
    mlir_to_sdfg,
    raise_tasklet,
    translate_module,
)
from repro.dialects.sdfg_dialect import SDFGOp, StateOp, TaskletOp
from repro.frontend import compile_c_to_mlir
from repro.ir import print_module, verify
from repro.passes import control_centric_pipeline
from repro.sdfg import Memlet, SDFG, InterstateEdge
from repro.symbolic import Range

FIG5_SOURCE = """
int fName(int *A, int *B) {
  return *A + *B;
}
"""

LOOP_SOURCE = """
double kernel() {
  double A[10];
  double s = 0.0;
  for (int i = 0; i < 10; i++)
    A[i] = i * 2.0;
  for (int i = 0; i < 10; i++)
    s += A[i];
  return s;
}
"""


class TestConverter:
    def test_fig5_walkthrough(self):
        """Reproduces the Fig. 5 conversion: dynamic memref sizes become
        symbols, the addition becomes a tasklet in its own state."""
        module = compile_c_to_mlir(FIG5_SOURCE)
        dialect_module = convert_to_sdfg_dialect(module)
        sdfg_ops = [op for op in dialect_module.body.operations if isinstance(op, SDFGOp)]
        assert len(sdfg_ops) == 1
        sdfg_op = sdfg_ops[0]
        # One fresh symbol per '?' dimension.
        assert any(name.startswith("s_") for name in sdfg_op.symbols)
        # The addition lives in its own state as a tasklet.
        tasklets = [op for op in sdfg_op.walk() if isinstance(op, TaskletOp)]
        assert any("addi" in t.sym_name for t in tasklets)
        verify(dialect_module)

    def test_converter_emits_states_and_edges(self):
        module = compile_c_to_mlir(LOOP_SOURCE)
        dialect_module = convert_to_sdfg_dialect(module)
        sdfg_op = dialect_module.body.operations[0]
        assert len(sdfg_op.states()) > 3
        assert len(sdfg_op.edges()) >= len(sdfg_op.states()) - 1

    def test_loop_becomes_guarded_state_machine(self):
        module = compile_c_to_mlir(LOOP_SOURCE)
        sdfg = mlir_to_sdfg(module)
        conditions = [str(edge.data.condition) for edge in sdfg.edges()]
        assert any("<" in c for c in conditions)
        sdfg.validate()

    def test_translator_containers_and_symbols(self):
        module = compile_c_to_mlir(LOOP_SOURCE)
        sdfg = mlir_to_sdfg(module)
        assert "__return" in sdfg.arrays
        assert any(name in sdfg.symbols for name in ("i", "i_0"))

    def test_raise_tasklet_arith(self):
        module = compile_c_to_mlir("double f(double a, double b) { return a * b + 1.0; }")
        dialect_module = convert_to_sdfg_dialect(module)
        tasklets = [
            op for op in dialect_module.walk() if isinstance(op, TaskletOp) and op.code is None
        ]
        assert tasklets
        code, inputs, outputs, language = raise_tasklet(tasklets[0])
        assert language == "python"
        assert "_out" in code

    def test_translation_of_branches(self):
        source = """
        double f() {
          double A[4];
          for (int i = 0; i < 4; i++) {
            if (i % 2 == 0)
              A[i] = 1.0;
            else
              A[i] = 2.0;
          }
          return A[0] + A[1];
        }
        """
        module = compile_c_to_mlir(source)
        sdfg = mlir_to_sdfg(module)
        sdfg.validate()
        compiled = compile_sdfg(sdfg)
        assert compiled.run()["__return"] == pytest.approx(3.0)

    def test_indirect_access_translates(self):
        source = """
        double f() {
          double A[8]; int idx[8];
          for (int i = 0; i < 8; i++) { A[i] = i; idx[i] = 7 - i; }
          double s = 0.0;
          for (int i = 0; i < 8; i++) s += A[idx[i]];
          return s;
        }
        """
        module = compile_c_to_mlir(source)
        sdfg = mlir_to_sdfg(module)
        compiled = compile_sdfg(sdfg)
        assert compiled.run()["__return"] == pytest.approx(28.0)


class TestCodegen:
    def test_structured_control_flow_covers_all_states(self):
        module = compile_c_to_mlir(LOOP_SOURCE)
        sdfg = mlir_to_sdfg(module)
        tree = build_control_flow(sdfg)
        assert len(set(states_in_tree(tree))) == len(sdfg.states())

    def test_loops_are_raised_not_dispatched(self):
        module = compile_c_to_mlir(LOOP_SOURCE)
        sdfg = mlir_to_sdfg(module)
        code = generate_code(sdfg)
        assert "while " in code
        assert "_state ==" not in code  # no generic dispatcher needed

    def test_generated_code_executes(self):
        module = compile_c_to_mlir(LOOP_SOURCE)
        sdfg = mlir_to_sdfg(module)
        assert compile_sdfg(sdfg).run()["__return"] == pytest.approx(90.0)

    def test_optimized_sdfg_matches(self):
        module = compile_c_to_mlir(LOOP_SOURCE)
        control_centric_pipeline().run(module)
        sdfg = mlir_to_sdfg(module)
        sdfg.apply_auto_optimizations()
        sdfg.validate()
        assert compile_sdfg(sdfg).run()["__return"] == pytest.approx(90.0)

    def test_mlir_codegen_matches(self):
        module = compile_c_to_mlir(LOOP_SOURCE)
        assert compile_mlir(module).run()["__return"] == pytest.approx(90.0)

    def test_mlir_codegen_native_vs_polygeist_mode(self):
        module = compile_c_to_mlir(LOOP_SOURCE)
        native = generate_mlir_code(module, native_scalars=True, preallocate=True)
        polygeist = generate_mlir_code(module, native_scalars=False, preallocate=False)
        assert native != polygeist
        for code in (native, polygeist):
            namespace = {}
            exec(code, namespace)
            assert namespace["run"]()["__return"] == pytest.approx(90.0)

    def test_vectorized_map_codegen(self):
        sdfg = SDFG("vec")
        sdfg.add_array("A", [16], "float64", transient=False)
        sdfg.add_array("B", [16], "float64", transient=False)
        state = sdfg.add_state("s0", is_start_state=True)
        state.add_mapped_tasklet(
            "exp",
            {"i": Range(0, 16)},
            {"_a": Memlet.simple("A", "i")},
            "_b = math.exp(_a)",
            {"_b": Memlet.simple("B", "i")},
        )
        compiled = compile_sdfg(sdfg, vectorize=True)
        assert "np.arange" in compiled.code
        A = np.linspace(0, 1, 16)
        B = np.zeros(16)
        compiled.run(A=A, B=B)
        np.testing.assert_allclose(B, np.exp(A))

    def test_dispatcher_fallback_for_while_loops(self):
        source = "int f() { int i = 0; while (i < 5) { i = i + 1; } return i; }"
        module = compile_c_to_mlir(source)
        sdfg = mlir_to_sdfg(module)
        assert compile_sdfg(sdfg).run()["__return"] == 5

    def test_cost_model_counts_movement(self):
        module = compile_c_to_mlir(LOOP_SOURCE)
        sdfg = mlir_to_sdfg(module)
        report = sdfg_movement_report(sdfg)
        assert report.elements_moved > 10
        assert report.bytes_moved >= report.elements_moved

    def test_cost_model_reflects_elimination(self):
        from repro.workloads import fig2_source

        source = fig2_source({"N": 50, "M": 10})
        module = compile_c_to_mlir(source)
        control_centric_pipeline().run(module)
        sdfg = mlir_to_sdfg(module)
        before = sdfg_movement_report(sdfg).elements_moved
        sdfg.apply_auto_optimizations()
        after = sdfg_movement_report(sdfg).elements_moved
        assert after < before
