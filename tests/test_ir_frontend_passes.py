"""Tests for the MLIR-like IR core, dialects, C frontend and control-centric passes."""

import pytest

from repro.dialects import ModuleOp, FuncOp, ReturnOp
from repro.dialects import arith, memref, scf
from repro.dialects.sdfg_dialect import (
    EdgeOp,
    SdfgArrayType,
    SdfgCopyOp,
    SDFGOp,
    StateOp,
    SymbolStore,
    TaskletOp,
)
from repro.frontend import CParseError, LoweringError, compile_c_to_ast, compile_c_to_mlir, parse_c
from repro.ir import (
    Builder,
    DYNAMIC,
    F64,
    FunctionType,
    I32,
    INDEX,
    MemRefType,
    VerificationError,
    print_module,
    verify,
)
from repro.passes import (
    Canonicalize,
    CommonSubexpressionElimination,
    DeadCodeElimination,
    DeadMemoryElimination,
    Inlining,
    LoopInvariantCodeMotion,
    ScalarReplacement,
    control_centric_pipeline,
)


def _simple_add_module():
    module = ModuleOp.build()
    builder = Builder.at_end(module.body)
    func_type = FunctionType([I32, I32], [I32])
    func = builder.create(FuncOp, "add", func_type, ["a", "b"])
    body = Builder.at_end(func.body)
    result = body.create(arith.AddIOp, func.body.arguments[0], func.body.arguments[1])
    body.create(ReturnOp, [result.result])
    return module, func


class TestIRCore:
    def test_build_and_print(self):
        module, _ = _simple_add_module()
        text = print_module(module)
        assert "func.func @add" in text
        assert "arith.addi" in text

    def test_verify_valid_module(self):
        module, _ = _simple_add_module()
        verify(module)

    def test_use_def_tracking(self):
        module, func = _simple_add_module()
        add_op = func.body.operations[0]
        assert func.body.arguments[0].users() == [add_op]
        assert add_op.result.has_uses()

    def test_replace_all_uses(self):
        module, func = _simple_add_module()
        add_op = func.body.operations[0]
        add_op.result.replace_all_uses_with(func.body.arguments[0])
        assert not add_op.result.has_uses()

    def test_erase_with_uses_fails(self):
        module, func = _simple_add_module()
        add_op = func.body.operations[0]
        with pytest.raises(Exception):
            add_op.erase()

    def test_clone_is_independent(self):
        module, func = _simple_add_module()
        clone = func.clone()
        assert len(clone.body.operations) == len(func.body.operations)
        assert clone.body.operations[0] is not func.body.operations[0]

    def test_verifier_catches_cross_function_use(self):
        module, func = _simple_add_module()
        builder = Builder.at_end(module.body)
        other = builder.create(FuncOp, "other", FunctionType([], [I32]), [])
        other_body = Builder.at_end(other.body)
        # Illegally reference the first function's argument.
        bad = arith.AddIOp.build(func.body.arguments[0], func.body.arguments[0])
        other.body.append(bad)
        other_body.create(ReturnOp, [bad.result])
        with pytest.raises(VerificationError):
            verify(module)

    def test_terminator_required(self):
        module = ModuleOp.build()
        builder = Builder.at_end(module.body)
        func = builder.create(FuncOp, "f", FunctionType([], []), [])
        with pytest.raises(VerificationError):
            verify(module)

    def test_memref_type_printing(self):
        t = MemRefType([DYNAMIC, 4], F64)
        assert str(t) == "memref<?x4xf64>"

    def test_memref_load_rank_mismatch(self):
        module = ModuleOp.build()
        builder = Builder.at_end(module.body)
        func = builder.create(FuncOp, "f", FunctionType([MemRefType([4, 4], F64)], []), ["A"])
        body = Builder.at_end(func.body)
        index = body.create(arith.ConstantOp, 0, INDEX)
        body.create(memref.LoadOp, func.body.arguments[0], [index.result])
        body.create(ReturnOp, [])
        with pytest.raises(VerificationError):
            verify(module)


class TestSdfgDialect:
    def test_symbolic_array_type(self):
        t = SdfgArrayType(["2*N", 4], I32)
        assert 'sym("2 * N")' in str(t)
        assert t.rank == 2

    def test_symbol_store_fresh(self):
        store = SymbolStore()
        first = store.fresh()
        second = store.fresh()
        assert first.name != second.name
        assert first.name in store

    def test_copy_size_mismatch_detected(self):
        sdfg_op = SDFGOp.build(
            "f", [SdfgArrayType(["2*N"], I32), SdfgArrayType(["N"], I32)], ["A", "B"], ["N"]
        )
        with pytest.raises(VerificationError):
            SdfgCopyOp.build(sdfg_op.body.arguments[0], sdfg_op.body.arguments[1])

    def test_copy_matching_sizes_ok(self):
        sdfg_op = SDFGOp.build(
            "f", [SdfgArrayType(["N"], I32), SdfgArrayType(["N"], I32)], ["A", "B"], ["N"]
        )
        SdfgCopyOp.build(sdfg_op.body.arguments[0], sdfg_op.body.arguments[1])

    def test_duplicate_state_names_rejected(self):
        sdfg_op = SDFGOp.build("f", [], [], [])
        builder = Builder.at_end(sdfg_op.body)
        builder.create(StateOp, "s0")
        builder.create(StateOp, "s0")
        with pytest.raises(VerificationError):
            sdfg_op.verify_op()

    def test_edge_to_unknown_state_rejected(self):
        sdfg_op = SDFGOp.build("f", [], [], [])
        builder = Builder.at_end(sdfg_op.body)
        builder.create(StateOp, "s0")
        builder.create(EdgeOp, "s0", "missing")
        with pytest.raises(VerificationError):
            sdfg_op.verify_op()

    def test_code_tasklet(self):
        tasklet = TaskletOp.build_with_code("t", [], [], [I32], "_out = 1 + 2")
        assert tasklet.code == "_out = 1 + 2"


CSOURCE = """
double kernel() {
  double A[8];
  double s = 0.0;
  for (int i = 0; i < 8; i++)
    A[i] = i * 0.5;
  for (int i = 0; i < 8; i++)
    s += A[i];
  return s;
}
"""


class TestCFrontend:
    def test_parse_function(self):
        unit = compile_c_to_ast(CSOURCE)
        assert unit.functions[0].name == "kernel"

    def test_define_expansion(self):
        unit = compile_c_to_ast("#define N 4\nint f() { int a[N]; a[0] = N; return a[0]; }")
        assert unit.defines["N"] == "4"

    def test_comments_stripped(self):
        unit = compile_c_to_ast("/* block */ int f() { // line\n return 1; }")
        assert unit.functions[0].name == "f"

    def test_parse_error_reports_line(self):
        with pytest.raises(CParseError):
            parse_c("int f() { return + ; }")

    def test_lexer_error_on_unknown_character(self):
        from repro.frontend import CLexerError

        with pytest.raises(CLexerError):
            parse_c("int f() { return $; }")

    def test_lowering_produces_scf_for(self):
        module = compile_c_to_mlir(CSOURCE)
        text = print_module(module)
        assert "scf.for" in text
        assert "memref.alloca" in text

    def test_lowering_malloc_becomes_alloc(self):
        module = compile_c_to_mlir(
            "int f() { int *p = (int*) malloc(10 * sizeof(int)); p[0] = 3; int r = p[0]; free(p); return r; }"
        )
        assert "memref.alloc " in print_module(module)

    def test_lowering_math_call(self):
        module = compile_c_to_mlir("double f() { return sqrt(2.0); }")
        assert "math.sqrt" in print_module(module)

    def test_downward_loop_is_inverted(self):
        module = compile_c_to_mlir(
            "double f() { double A[8]; for (int i = 7; i >= 0; i--) A[i] = i; return A[0]; }"
        )
        # The loop still runs upwards (scf.for limitation) and remaps the index.
        assert "scf.for" in print_module(module)

    def test_if_else_lowering(self):
        module = compile_c_to_mlir(
            "int f() { int x = 0; if (1 < 2) x = 3; else x = 4; return x; }"
        )
        assert "scf.if" in print_module(module)

    def test_while_lowering(self):
        module = compile_c_to_mlir(
            "int f() { int i = 0; while (i < 5) { i = i + 1; } return i; }"
        )
        assert "scf.while" in print_module(module)

    def test_unknown_identifier_raises(self):
        with pytest.raises(LoweringError):
            compile_c_to_mlir("int f() { return missing; }")

    def test_verifies(self):
        verify(compile_c_to_mlir(CSOURCE))


class TestControlCentricPasses:
    def test_constant_folding(self):
        module = compile_c_to_mlir("int f() { return 2 + 3 * 4; }")
        Canonicalize().run(module)
        text = print_module(module)
        assert "arith.constant 14" in text
        assert "arith.muli" not in text

    def test_cse_removes_duplicates(self):
        module = compile_c_to_mlir("double f(double a, double b) { return (a + b) * (a + b); }")
        before = sum(1 for op in module.walk() if op.name == "arith.addf")
        CommonSubexpressionElimination().run(module)
        after = sum(1 for op in module.walk() if op.name == "arith.addf")
        assert before == 2 and after == 1

    def test_dce_removes_unused(self):
        module = compile_c_to_mlir("int f() { int unused = 5 * 3; return 1; }")
        control_centric_pipeline().run(module)
        assert "arith.muli" not in print_module(module)

    def test_licm_hoists_invariant_load(self):
        source = """
        double f() {
          double A[4][4]; double C[4][4];
          for (int i = 0; i < 4; i++)
            for (int k = 0; k < 4; k++)
              A[i][k] = i + k;
          for (int i = 0; i < 4; i++)
            for (int k = 0; k < 4; k++)
              for (int j = 0; j < 4; j++)
                C[i][j] += 1.5 * A[i][k];
          return C[0][0];
        }
        """
        module = compile_c_to_mlir(source)
        control_centric_pipeline().run(module)
        # The multiplication 1.5 * A[i][k] must be hoisted out of the j loop.
        text = print_module(module)
        innermost = text.split("scf.for %j")[-1]
        assert "arith.mulf" not in innermost.split("}")[0]

    def test_scalar_replacement_forwards_store(self):
        module = compile_c_to_mlir("int f() { int x = 7; return x + 1; }")
        control_centric_pipeline().run(module)
        text = print_module(module)
        assert "arith.constant 8" in text

    def test_memref_dce_keeps_arrays(self):
        module = compile_c_to_mlir(
            "int f() { int A[10]; for (int i = 0; i < 10; i++) A[i] = 1; return 2; }"
        )
        DeadMemoryElimination().run(module)
        # Whole arrays are left for the data-centric side (scalars only).
        assert "memref.alloca" in print_module(module)

    def test_inlining(self):
        source = """
        double helper(double x) { return x * 2.0; }
        double f() { return helper(21.0); }
        """
        module = compile_c_to_mlir(source)
        Inlining().run(module)
        assert "func.call" not in print_module(module)

    def test_pipeline_is_idempotent(self):
        module = compile_c_to_mlir(CSOURCE)
        control_centric_pipeline().run(module)
        first = print_module(module)
        control_centric_pipeline().run(module)
        assert print_module(module) == first

    def test_fold_constant_if(self):
        module = compile_c_to_mlir("int f() { int x = 0; if (1 < 2) x = 5; return x; }")
        control_centric_pipeline().run(module)
        assert "scf.if" not in print_module(module)
