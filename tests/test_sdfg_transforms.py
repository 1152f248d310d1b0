"""Tests for the SDFG IR and the data-centric transformation passes."""

import pytest

from repro.sdfg import (
    SDFG,
    AccessNode,
    InterstateEdge,
    InvalidSDFGError,
    Memlet,
    Scalar,
    Tasklet,
    live_containers_per_state,
    propagate_memlets_sdfg,
    reachable_states,
    symbols_assigned_once,
)
from repro.symbolic import FALSE, Integer, Range, Subset, Symbol, parse_expr
from repro.transforms import (
    ArrayElimination,
    AugAssignToWCR,
    DeadDataflowElimination,
    DeadStateElimination,
    LoopToMap,
    MapCollapse,
    MapFusion,
    MapInterchange,
    MapTiling,
    Match,
    MemletConsolidation,
    MemoryPreAllocation,
    RedundantIterationElimination,
    ScalarToSymbolPromotion,
    StackPromotion,
    StateFusion,
    SymbolPropagation,
    Transformation,
    Vectorization,
    find_loops,
)


def _vector_scale_sdfg(n="N"):
    """A[i] -> B[i] * 2 map, used by several tests."""
    sdfg = SDFG("scale")
    sdfg.add_symbol("N")
    sdfg.add_array("A", [n], "float64")
    sdfg.add_array("B", [n], "float64")
    state = sdfg.add_state("compute", is_start_state=True)
    state.add_mapped_tasklet(
        "scale",
        {"i": Range(0, n)},
        {"_a": Memlet.simple("A", "i")},
        "_b = _a * 2.0",
        {"_b": Memlet.simple("B", "i")},
    )
    return sdfg


def _loop_sdfg():
    """State-machine loop writing A[i] = i for i in [0, N)."""
    sdfg = SDFG("loop")
    sdfg.add_symbol("N")
    sdfg.add_array("A", ["N"], "float64")
    init = sdfg.add_state("init", is_start_state=True)
    guard = sdfg.add_state("guard")
    body = sdfg.add_state("body")
    exit_state = sdfg.add_state("exit")
    sdfg.add_edge(init, guard, InterstateEdge(assignments={"i": 0}))
    sdfg.add_edge(guard, body, InterstateEdge(condition="i < N"))
    sdfg.add_edge(body, guard, InterstateEdge(assignments={"i": "i + 1"}))
    sdfg.add_edge(guard, exit_state, InterstateEdge(condition="not (i < N)"))
    tasklet = body.add_tasklet("write", [], ["_out"], "_out = i")
    write = body.add_access("A")
    body.add_edge(tasklet, "_out", write, None, Memlet.simple("A", "i"))
    return sdfg


class TestSDFGCore:
    def test_validation_passes(self):
        _vector_scale_sdfg().validate()

    def test_unknown_container_rejected(self):
        sdfg = SDFG("bad")
        state = sdfg.add_state("s", is_start_state=True)
        state.add_access("missing")
        with pytest.raises(InvalidSDFGError):
            sdfg.validate()

    def test_out_of_bounds_memlet_rejected(self):
        sdfg = SDFG("oob")
        sdfg.add_array("A", [4], "float64")
        sdfg.add_scalar("s", "float64")
        state = sdfg.add_state("s0", is_start_state=True)
        tasklet = state.add_tasklet("t", ["_a"], [], "pass")
        state.add_edge(state.add_access("A"), None, tasklet, "_a", Memlet.simple("A", "7"))
        with pytest.raises(InvalidSDFGError):
            sdfg.validate()

    def test_unconnected_connector_rejected(self):
        sdfg = SDFG("conn")
        sdfg.add_array("A", [4], "float64")
        state = sdfg.add_state("s0", is_start_state=True)
        state.add_tasklet("t", ["_a"], [], "pass")
        with pytest.raises(InvalidSDFGError):
            sdfg.validate()

    def test_duplicate_container_rejected(self):
        sdfg = SDFG("dup")
        sdfg.add_array("A", [4], "float64")
        with pytest.raises(InvalidSDFGError):
            sdfg.add_array("A", [4], "float64")

    def test_read_write_sets(self):
        sdfg = _vector_scale_sdfg()
        state = sdfg.states()[0]
        assert state.read_set() == {"A"}
        assert state.write_set() == {"B"}

    def test_memlet_propagation_through_map(self):
        sdfg = _vector_scale_sdfg()
        propagate_memlets_sdfg(sdfg)
        state = sdfg.states()[0]
        outer_reads = [
            e.data for e in state.edges()
            if isinstance(e.src, AccessNode) and e.src.data == "A"
        ]
        assert str(outer_reads[0].subset) == "0:N"
        assert outer_reads[0].volume == Symbol("N")

    def test_free_symbols(self):
        sdfg = _vector_scale_sdfg()
        assert sdfg.free_symbols() == {"N"}

    def test_loop_detection(self):
        sdfg = _loop_sdfg()
        loops = find_loops(sdfg)
        assert len(loops) == 1
        assert loops[0].induction_symbol == "i"
        assert str(loops[0].trip_count()) == "N"

    def test_reachability_and_liveness(self):
        sdfg = _loop_sdfg()
        assert len(reachable_states(sdfg)) == 4
        live = live_containers_per_state(sdfg)
        assert any("A" in names for names in live.values())

    def test_symbols_assigned_once(self):
        sdfg = _loop_sdfg()
        once = symbols_assigned_once(sdfg)
        assert "i" not in once  # assigned twice (init + increment)

    def test_arglist_excludes_transients(self):
        sdfg = _vector_scale_sdfg()
        sdfg.add_transient("tmp", ["N"], "float64")
        assert "A" in sdfg.arglist() and not any(k.startswith("tmp") for k in sdfg.arglist())


class TestTransforms:
    def test_state_fusion_merges_linear_states(self):
        sdfg = SDFG("fuse")
        sdfg.add_array("A", [4], "float64")
        sdfg.add_scalar("s", "float64")
        first = sdfg.add_state("first", is_start_state=True)
        second = sdfg.add_state("second")
        sdfg.add_edge(first, second, InterstateEdge())
        t1 = first.add_tasklet("t1", [], ["_out"], "_out = 1.0")
        first.add_edge(t1, "_out", first.add_access("s"), None, Memlet(data="s"))
        t2 = second.add_tasklet("t2", ["_in"], ["_out"], "_out = _in + 1.0")
        second.add_edge(second.add_access("s"), None, t2, "_in", Memlet(data="s"))
        second.add_edge(t2, "_out", second.add_access("A"), None, Memlet.simple("A", "0"))
        assert StateFusion().apply(sdfg)
        assert len(sdfg.states()) == 1
        sdfg.validate()

    def test_state_fusion_respects_conditions(self):
        sdfg = SDFG("nofuse")
        first = sdfg.add_state("first", is_start_state=True)
        second = sdfg.add_state("second")
        sdfg.add_edge(first, second, InterstateEdge(condition="N > 1"))
        assert not StateFusion().apply(sdfg)

    def test_dead_state_elimination(self):
        sdfg = SDFG("dse")
        start = sdfg.add_state("start", is_start_state=True)
        dead = sdfg.add_state("dead")
        sdfg.add_edge(start, dead, InterstateEdge(condition=FALSE))
        assert DeadStateElimination().apply(sdfg)
        assert len(sdfg.states()) == 1

    def test_dead_dataflow_elimination_removes_unobservable_writes(self):
        sdfg = SDFG("dde")
        sdfg.add_array("out", [4], "float64", transient=False)
        sdfg.add_transient("dead", [4], "float64")
        state = sdfg.add_state("s0", is_start_state=True)
        t1 = state.add_tasklet("t1", [], ["_out"], "_out = 1.0")
        state.add_edge(t1, "_out", state.add_access("dead"), None, Memlet.simple("dead", "0"))
        t2 = state.add_tasklet("t2", [], ["_out"], "_out = 2.0")
        state.add_edge(t2, "_out", state.add_access("out"), None, Memlet.simple("out", "0"))
        assert DeadDataflowElimination().apply(sdfg)
        assert ArrayElimination().apply(sdfg)
        assert "dead" not in sdfg.arrays
        assert "out" in sdfg.arrays

    def test_dead_dataflow_keeps_feeding_chain(self):
        sdfg = SDFG("chain")
        sdfg.add_array("out", [1], "float64", transient=False)
        sdfg.add_transient("mid", [1], "float64")
        state = sdfg.add_state("s0", is_start_state=True)
        t1 = state.add_tasklet("t1", [], ["_out"], "_out = 1.0")
        mid = state.add_access("mid")
        state.add_edge(t1, "_out", mid, None, Memlet.simple("mid", "0"))
        t2 = state.add_tasklet("t2", ["_in"], ["_out"], "_out = _in + 1.0")
        state.add_edge(mid, None, t2, "_in", Memlet.simple("mid", "0"))
        state.add_edge(t2, "_out", state.add_access("out"), None, Memlet.simple("out", "0"))
        DeadDataflowElimination().apply(sdfg)
        assert "mid" in sdfg.arrays
        assert len(state.tasklets()) == 2

    def test_redundant_iteration_elimination(self):
        sdfg = _loop_sdfg()
        # Make the body independent of the induction symbol.
        body = [s for s in sdfg.states() if s.label == "body"][0]
        for edge in body.edges():
            edge.data = Memlet.simple("A", "0")
        for tasklet in body.tasklets():
            tasklet.code = "_out = 5.0"
        assert RedundantIterationElimination().apply(sdfg)
        latch = [e for e in sdfg.edges() if e.src.label == "body" and e.dst.label == "guard"][0]
        assert latch.data.assignments["i"] == Symbol("N")

    def test_redundant_iteration_keeps_dependent_loops(self):
        sdfg = _loop_sdfg()
        assert not RedundantIterationElimination().apply(sdfg)

    def test_symbol_propagation(self):
        sdfg = SDFG("prop")
        sdfg.add_array("A", ["K"], "float64")
        first = sdfg.add_state("a", is_start_state=True)
        second = sdfg.add_state("b")
        sdfg.add_edge(first, second, InterstateEdge(assignments={"K": 8}))
        sdfg.add_symbol("K")
        assert SymbolPropagation().apply(sdfg)
        assert sdfg.constants["K"] == 8
        assert str(sdfg.arrays["A"].shape[0]) == "8"

    def test_wcr_detection(self):
        sdfg = SDFG("wcr")
        sdfg.add_array("A", [8], "float64")
        sdfg.add_scalar("v", "float64")
        state = sdfg.add_state("s0", is_start_state=True)
        tasklet = state.add_tasklet("acc", ["_in0", "_in1"], ["_out"], "_out = (_in0 + _in1)")
        state.add_edge(state.add_access("A"), None, tasklet, "_in0", Memlet.simple("A", "3"))
        state.add_edge(state.add_access("v"), None, tasklet, "_in1", Memlet(data="v"))
        state.add_edge(tasklet, "_out", state.add_access("A"), None, Memlet.simple("A", "3"))
        assert AugAssignToWCR().apply(sdfg)
        writes = [e for e in state.edges() if isinstance(e.dst, AccessNode) and e.dst.data == "A"]
        assert writes[0].data.wcr == "+"
        assert tasklet.code == "_out = _in1"

    def test_stack_promotion(self):
        sdfg = SDFG("stack")
        sdfg.add_transient("small", [16], "float64")
        sdfg.add_transient("huge", [1024 * 1024], "float64")
        StackPromotion(max_elements=1024).apply(sdfg)
        small_name = [n for n in sdfg.arrays if n.startswith("small")][0]
        huge_name = [n for n in sdfg.arrays if n.startswith("huge")][0]
        assert sdfg.arrays[small_name].storage == "stack"
        assert sdfg.arrays[huge_name].storage == "heap"

    def test_memory_preallocation(self):
        sdfg = SDFG("prealloc")
        sdfg.add_transient("tmp", [64], "float64")
        assert MemoryPreAllocation().apply(sdfg)
        name = [n for n in sdfg.arrays if n.startswith("tmp")][0]
        assert sdfg.arrays[name].lifetime == "persistent"

    def test_loop_to_map(self):
        sdfg = _loop_sdfg()
        assert LoopToMap().apply(sdfg)
        from repro.sdfg.nodes import MapEntry

        entries = [n for s in sdfg.states() for n in s.nodes() if isinstance(n, MapEntry)]
        assert len(entries) == 1
        assert entries[0].map.params == ["i"]
        sdfg.validate()

    def test_map_fusion(self):
        sdfg = SDFG("fusion")
        sdfg.add_symbol("N")
        sdfg.add_array("A", ["N"], "float64")
        sdfg.add_transient("T", ["N"], "float64")
        sdfg.add_array("B", ["N"], "float64")
        state = sdfg.add_state("s0", is_start_state=True)
        _, e1, x1 = state.add_mapped_tasklet(
            "first", {"i": Range(0, "N")},
            {"_a": Memlet.simple("A", "i")}, "_t = _a + 1.0", {"_t": Memlet.simple("T", "i")},
        )
        _, e2, x2 = state.add_mapped_tasklet(
            "second", {"j": Range(0, "N")},
            {"_t": Memlet.simple("T", "j")}, "_b = _t * 2.0", {"_b": Memlet.simple("B", "j")},
        )
        # Connect the two scopes through a single intermediate access node.
        intermediates = [n for n in state.data_nodes() if n.data == "T"]
        write_node = [n for n in intermediates if state.in_degree(n) > 0][0]
        read_node = [n for n in intermediates if state.in_degree(n) == 0][0]
        for edge in list(state.out_edges(read_node)):
            state.add_edge(write_node, None, edge.dst, edge.dst_conn, edge.data)
            state.remove_edge(edge)
        state.remove_node(read_node)
        assert MapFusion().apply(sdfg)
        from repro.sdfg.nodes import MapEntry

        entries = [n for n in state.nodes() if isinstance(n, MapEntry)]
        assert len(entries) == 1

    def test_simplify_pipeline_runs(self):
        from repro.codegen import generate_code
        from repro.pipeline import SIMPLIFY_SUITE
        from repro.transforms import DATA_PASSES

        sdfg = _loop_sdfg()
        report = DATA_PASSES.runner(SIMPLIFY_SUITE, max_iterations=4, stage="data").run(sdfg)
        assert report.records
        sdfg.validate()
        simplified = _loop_sdfg()
        assert simplified.simplify() is simplified
        assert generate_code(simplified) == generate_code(sdfg)


def _concrete_scale_sdfg(n=8):
    """A[i] -> B[i] * 2 map over a concrete extent (executable)."""
    sdfg = SDFG("scale8")
    sdfg.add_array("A", [n], "float64")
    sdfg.add_array("B", [n], "float64")
    state = sdfg.add_state("compute", is_start_state=True)
    state.add_mapped_tasklet(
        "scale",
        {"i": Range(0, n)},
        {"_a": Memlet.simple("A", "i")},
        "_b = _a * 2.0",
        {"_b": Memlet.simple("B", "i")},
    )
    return sdfg


def _run_sdfg(sdfg, **arrays):
    import numpy as np

    inputs = {name: value.copy() for name, value in arrays.items()}
    return sdfg.compile().run(**inputs), inputs


class TestRewriteEngine:
    """The Transformation base: match enumeration, drains, accounting."""

    def test_match_indices_follow_enumeration_order(self):
        sdfg = SDFG("idx")
        sdfg.add_transient("a", [4], "float64")
        sdfg.add_transient("b", [4], "float64")
        sdfg.add_state("s", is_start_state=True)
        matches = StackPromotion().matches(sdfg)
        assert [m.index for m in matches] == [0, 1]
        assert all(m.transformation == "stack-promotion" for m in matches)
        assert matches[0].to_dict()["kind"] == "container"
        assert "stack-promotion" in matches[0].describe()

    def test_only_matches_selects_a_subset(self):
        sdfg = SDFG("subset")
        sdfg.add_transient("a", [4], "float64")
        sdfg.add_transient("b", [4], "float64")
        sdfg.add_state("s", is_start_state=True)
        promotion = StackPromotion(only_matches=[1])
        assert promotion.apply(sdfg)
        assert promotion.last_matches == 2 and promotion.last_applied == 1
        names = sorted(sdfg.arrays)
        assert sdfg.arrays[names[0]].storage == "heap"
        assert sdfg.arrays[names[1]].storage == "stack"

    def test_max_applications_caps_the_run(self):
        sdfg = SDFG("cap")
        for name in ("a", "b", "c"):
            sdfg.add_transient(name, [4], "float64")
        sdfg.add_state("s", is_start_state=True)
        promotion = StackPromotion(max_applications=2)
        assert promotion.apply(sdfg)
        assert promotion.last_applied == 2
        promoted = [n for n, d in sdfg.arrays.items() if d.storage == "stack"]
        assert len(promoted) == 2

    def test_apply_with_explicit_match_rewrites_one_site(self):
        sdfg = SDFG("one")
        sdfg.add_transient("a", [4], "float64")
        sdfg.add_transient("b", [4], "float64")
        sdfg.add_state("s", is_start_state=True)
        promotion = StackPromotion()
        matches = promotion.matches(sdfg)
        assert promotion.apply(sdfg, matches[0])
        promoted = [n for n, d in sdfg.arrays.items() if d.storage == "stack"]
        assert len(promoted) == 1
        # A stale match reports failure instead of re-applying.
        assert not promotion.apply_match(sdfg, matches[0])

    def test_pass_records_carry_match_accounting(self):
        from repro.passbase import PassRunner

        sdfg = _loop_sdfg()
        report = PassRunner([LoopToMap()]).run(sdfg)
        record = report.records[0]
        assert record.matches == 1 and record.applied == 1
        assert report.match_totals()["loop-to-map"] == {"matches": 1, "applied": 1}

    def test_transformation_params_are_declared(self):
        from repro.transforms import transformation_parameters

        assert transformation_parameters(MapTiling) == {"tile_size": 32}
        assert transformation_parameters(Vectorization) == {"width": None}
        assert set(StackPromotion.PARAMS) == {"max_elements"}
        for cls in (MapTiling, MapInterchange, MapCollapse, Vectorization):
            assert cls.ADDABLE and issubclass(cls, Transformation)


class TestMatchSets:
    """Exact match enumeration per ported transform on minimal fixtures."""

    def test_state_fusion_matches_every_linear_pair(self):
        sdfg = SDFG("chain")
        states = [sdfg.add_state(f"s{i}", is_start_state=(i == 0)) for i in range(3)]
        sdfg.add_edge(states[0], states[1], InterstateEdge())
        sdfg.add_edge(states[1], states[2], InterstateEdge())
        matches = StateFusion().matches(sdfg)
        assert [m.subject for m in matches] == ["s0 <- s1", "s1 <- s2"]
        assert StateFusion().apply(sdfg)
        assert len(sdfg.states()) == 1

    def test_loop_to_map_match_set(self):
        sdfg = _loop_sdfg()
        matches = LoopToMap().matches(sdfg)
        assert len(matches) == 1
        assert matches[0].kind == "loop"
        assert "for i in [0, N) step 1" in matches[0].subject

    def test_dead_state_matches_both_kinds(self):
        sdfg = SDFG("dse")
        start = sdfg.add_state("start", is_start_state=True)
        dead = sdfg.add_state("dead")
        sdfg.add_edge(start, dead, InterstateEdge(condition=FALSE))
        matches = DeadStateElimination().matches(sdfg)
        assert [m.kind for m in matches] == ["false-edge", "unreachable-state"]
        assert DeadStateElimination().apply(sdfg)
        assert len(sdfg.states()) == 1

    def test_dead_dataflow_matches_each_dead_write(self):
        sdfg = SDFG("dde")
        sdfg.add_array("out", [4], "float64", transient=False)
        sdfg.add_transient("dead", [4], "float64")
        state = sdfg.add_state("s0", is_start_state=True)
        t1 = state.add_tasklet("t1", [], ["_out"], "_out = 1.0")
        state.add_edge(t1, "_out", state.add_access("dead"), None, Memlet.simple("dead", "0"))
        t2 = state.add_tasklet("t2", [], ["_out"], "_out = 2.0")
        state.add_edge(t2, "_out", state.add_access("out"), None, Memlet.simple("out", "0"))
        elimination = DeadDataflowElimination()
        matches = elimination.matches(sdfg)
        assert len(matches) == 1 and matches[0].subject.startswith("dead")
        assert elimination.apply(sdfg)
        assert len(state.tasklets()) == 1  # t1 cascaded away with its write

    def test_array_elimination_matches_unused_and_copies(self):
        sdfg = SDFG("arrays")
        sdfg.add_transient("never", [4], "float64")
        sdfg.add_array("src", [4], "float64")
        sdfg.add_transient("cpy", [4], "float64")
        state = sdfg.add_state("s0", is_start_state=True)
        read = state.add_access("src")
        copy_node = state.add_access("cpy")
        state.add_edge(read, None, copy_node, None, Memlet.full("src", [4]))
        t = state.add_tasklet("t", ["_in"], [], "pass")
        state.add_edge(copy_node, None, t, "_in", Memlet.simple("cpy", "0"))
        elimination = ArrayElimination()
        kinds = {(m.kind, m.subject.split(" ")[0]) for m in elimination.matches(sdfg)}
        assert ("unused", "never") in kinds
        assert any(kind == "copy" and subject.startswith("cpy") for kind, subject in kinds)
        assert elimination.apply(sdfg)
        assert "never" not in sdfg.arrays and "cpy" not in sdfg.arrays
        assert sorted(sdfg.eliminated_containers) == ["cpy", "never"]

    def test_memlet_consolidation_matches_merges_and_unions(self):
        sdfg = SDFG("memlets")
        sdfg.add_array("A", [8], "float64")
        state = sdfg.add_state("s0", is_start_state=True)
        t = state.add_tasklet("t", ["_a", "_b"], [], "pass")
        state.add_edge(state.add_access("A"), None, t, "_a", Memlet.simple("A", "0"))
        state.add_edge(state.add_access("A"), None, t, "_b", Memlet.simple("A", "1"))
        consolidation = MemletConsolidation()
        matches = consolidation.matches(sdfg)
        assert [m.kind for m in matches] == ["merge-reads"]
        assert consolidation.apply(sdfg)
        assert len([n for n in state.data_nodes() if n.data == "A"]) == 1
        # The merged node now carries parallel edges to different connectors —
        # distinct connector pairs, so no consolidate match remains.
        assert consolidation.matches(sdfg) == []

    def test_memlet_union_match_on_same_connector_pair(self):
        sdfg = SDFG("union")
        sdfg.add_array("A", [8], "float64")
        sdfg.add_array("B", [8], "float64")
        state = sdfg.add_state("s0", is_start_state=True)
        a, b = state.add_access("A"), state.add_access("B")
        state.add_edge(a, None, b, None, Memlet.simple("A", "0"))
        state.add_edge(a, None, b, None, Memlet.simple("A", "3"))
        consolidation = MemletConsolidation()
        matches = consolidation.matches(sdfg)
        assert [m.kind for m in matches] == ["consolidate"]
        assert consolidation.apply(sdfg)
        edges = state.edges_between(a, b)
        assert len(edges) == 1
        assert str(edges[0].data.subset) == "0:4"  # bounding-box union

    def test_scalar_promotion_match_and_apply(self):
        sdfg = SDFG("promote")
        sdfg.add_scalar("n", "int64")
        first = sdfg.add_state("first", is_start_state=True)
        second = sdfg.add_state("second")
        sdfg.add_edge(first, second, InterstateEdge(condition="n > 1"))
        t = first.add_tasklet("def_n", [], ["_out"], "_out = 5")
        first.add_edge(t, "_out", first.add_access("n"), None, Memlet(data="n"))
        promotion = ScalarToSymbolPromotion()
        matches = promotion.matches(sdfg)
        assert [m.subject for m in matches] == ["n = 5"]
        assert promotion.apply(sdfg)
        assert "n" not in sdfg.arrays and "n" in sdfg.symbols

    def test_symbol_propagation_match_set(self):
        sdfg = SDFG("prop")
        sdfg.add_array("A", ["K"], "float64")
        first = sdfg.add_state("a", is_start_state=True)
        second = sdfg.add_state("b")
        sdfg.add_edge(first, second, InterstateEdge(assignments={"K": 8}))
        sdfg.add_symbol("K")
        propagation = SymbolPropagation()
        assert [m.subject for m in propagation.matches(sdfg)] == ["K = 8"]
        assert propagation.apply(sdfg)
        assert propagation.matches(sdfg) == []

    def test_wcr_match_set(self):
        sdfg = SDFG("wcr")
        sdfg.add_array("A", [8], "float64")
        sdfg.add_scalar("v", "float64")
        state = sdfg.add_state("s0", is_start_state=True)
        tasklet = state.add_tasklet("acc", ["_in0", "_in1"], ["_out"], "_out = (_in0 + _in1)")
        state.add_edge(state.add_access("A"), None, tasklet, "_in0", Memlet.simple("A", "3"))
        state.add_edge(state.add_access("v"), None, tasklet, "_in1", Memlet(data="v"))
        state.add_edge(tasklet, "_out", state.add_access("A"), None, Memlet.simple("A", "3"))
        detection = AugAssignToWCR()
        matches = detection.matches(sdfg)
        assert len(matches) == 1 and "wcr +" in matches[0].subject
        assert detection.apply(sdfg)
        assert detection.matches(sdfg) == []  # idempotent: converted site gone

    def test_memory_transform_match_sets(self):
        sdfg = SDFG("mem")
        sdfg.add_transient("small", [16], "float64")
        sdfg.add_transient("huge", [1024 * 1024], "float64")
        sdfg.add_state("s", is_start_state=True)
        promotion = StackPromotion(max_elements=1024)
        assert [m.subject.split(" ")[0] for m in promotion.matches(sdfg)] == ["small"]
        prealloc = MemoryPreAllocation()
        assert len(prealloc.matches(sdfg)) == 2
        assert promotion.apply(sdfg)
        # Stack promotion made `small` persistent; preallocation still
        # matches the heap-resident one.
        assert len(prealloc.matches(sdfg)) == 1

    def test_redundant_iteration_match_set(self):
        sdfg = _loop_sdfg()
        body = [s for s in sdfg.states() if s.label == "body"][0]
        for edge in body.edges():
            edge.data = Memlet.simple("A", "0")
        for tasklet in body.tasklets():
            tasklet.code = "_out = 5.0"
        elimination = RedundantIterationElimination()
        matches = elimination.matches(sdfg)
        assert len(matches) == 1 and matches[0].kind == "redundant-loop"
        assert elimination.apply(sdfg)
        assert elimination.matches(sdfg) == []  # collapsed loops do not re-match

    def test_map_fusion_match_set(self):
        sdfg = SDFG("fusion")
        sdfg.add_symbol("N")
        sdfg.add_array("A", ["N"], "float64")
        sdfg.add_transient("T", ["N"], "float64")
        sdfg.add_array("B", ["N"], "float64")
        state = sdfg.add_state("s0", is_start_state=True)
        state.add_mapped_tasklet(
            "first", {"i": Range(0, "N")},
            {"_a": Memlet.simple("A", "i")}, "_t = _a + 1.0", {"_t": Memlet.simple("T", "i")},
        )
        state.add_mapped_tasklet(
            "second", {"j": Range(0, "N")},
            {"_t": Memlet.simple("T", "j")}, "_b = _t * 2.0", {"_b": Memlet.simple("B", "j")},
        )
        intermediates = [n for n in state.data_nodes() if n.data == "T"]
        write_node = [n for n in intermediates if state.in_degree(n) > 0][0]
        read_node = [n for n in intermediates if state.in_degree(n) == 0][0]
        for edge in list(state.out_edges(read_node)):
            state.add_edge(write_node, None, edge.dst, edge.dst_conn, edge.data)
            state.remove_edge(edge)
        state.remove_node(read_node)
        fusion = MapFusion()
        matches = fusion.matches(sdfg)
        assert len(matches) == 1 and "via T" in matches[0].subject
        assert fusion.apply(sdfg)
        assert fusion.matches(sdfg) == []


class TestParameterizedTransforms:
    def test_map_tiling_builds_a_tile_nest(self):
        import numpy as np

        sdfg = _concrete_scale_sdfg(10)
        a = np.arange(10, dtype=np.float64)
        expected, _ = _run_sdfg(_concrete_scale_sdfg(10), A=a, B=np.zeros(10))
        tiling = MapTiling(tile_size=4)
        matches = tiling.matches(sdfg)
        assert len(matches) == 1 and "by 4" in matches[0].subject
        assert tiling.apply(sdfg)
        sdfg.validate()
        state = sdfg.states()[0]
        entries = state.map_entries()
        assert len(entries) == 2
        outer, inner = entries
        assert outer.map.params == ["i_tile"] and outer.map.tiling == 4
        assert str(outer.map.ranges[0]) == "0:10:4"
        assert inner.map.params == ["i"]
        # Tiling is idempotent: neither the tile loop nor the intra-tile
        # map re-matches.
        assert tiling.matches(sdfg) == []
        outputs, _ = _run_sdfg(sdfg, A=a, B=np.zeros(10))
        assert np.allclose(outputs["B"], expected["B"])

    def test_vectorization_full_range_annotates_the_map(self):
        import numpy as np

        sdfg = _concrete_scale_sdfg(8)
        vectorization = Vectorization()
        assert len(vectorization.matches(sdfg)) == 1
        assert vectorization.apply(sdfg)
        entry = sdfg.states()[0].map_entries()[0]
        assert entry.map.vectorized
        assert vectorization.matches(sdfg) == []  # annotated maps do not re-match
        code = sdfg.compile().code
        assert "np.arange" in code
        a = np.arange(8, dtype=np.float64)
        outputs, _ = _run_sdfg(sdfg, A=a, B=np.zeros(8))
        assert np.allclose(outputs["B"], a * 2.0)

    def test_vectorization_with_width_tiles_then_annotates(self):
        import numpy as np

        sdfg = _concrete_scale_sdfg(10)
        assert Vectorization(width=4).apply(sdfg)
        sdfg.validate()
        entries = sdfg.states()[0].map_entries()
        assert len(entries) == 2
        outer, inner = entries
        assert outer.map.tiling == 4 and not outer.map.vectorized
        assert inner.map.vectorized
        code = sdfg.compile().code
        assert "np.arange" in code and "min(" in code  # clamped remainder
        a = np.arange(10, dtype=np.float64)
        outputs, _ = _run_sdfg(sdfg, A=a, B=np.zeros(10))
        assert np.allclose(outputs["B"], a * 2.0)

    def test_vectorization_rejects_width_one(self):
        with pytest.raises(ValueError, match="width"):
            Vectorization(width=1)
        with pytest.raises(ValueError, match="tile_size"):
            MapTiling(tile_size=0)

    def test_map_interchange_moves_stride1_param_innermost(self):
        import numpy as np

        sdfg = SDFG("interchange")
        sdfg.add_array("A", [4, 6], "float64")
        sdfg.add_array("B", [4, 6], "float64")
        state = sdfg.add_state("s", is_start_state=True)
        # Params deliberately ordered so the last-dimension index (j)
        # iterates outermost — the wrong order for locality.
        state.add_mapped_tasklet(
            "copy", {"j": Range(0, 6), "i": Range(0, 4)},
            {"_a": Memlet.simple("A", "i, j")}, "_b = _a + 1.0",
            {"_b": Memlet.simple("B", "i, j")},
        )
        interchange = MapInterchange()
        matches = interchange.matches(sdfg)
        assert len(matches) == 1
        assert "(j, i) -> (i, j)" in matches[0].subject
        assert interchange.apply(sdfg)
        entry = state.map_entries()[0]
        assert entry.map.params == ["i", "j"]
        assert [str(r) for r in entry.map.ranges] == ["0:4", "0:6"]
        assert interchange.matches(sdfg) == []  # directional: now idempotent
        a = np.arange(24, dtype=np.float64).reshape(4, 6)
        outputs, _ = _run_sdfg(sdfg, A=a, B=np.zeros((4, 6)))
        assert np.allclose(outputs["B"], a + 1.0)

    def test_map_collapse_merges_perfect_nests(self):
        import numpy as np

        sdfg = SDFG("collapse")
        sdfg.add_array("A", [4, 6], "float64")
        sdfg.add_array("B", [4, 6], "float64")
        state = sdfg.add_state("s", is_start_state=True)
        outer_entry, outer_exit = state.add_map("outer", ["i"], [Range(0, 4)])
        inner_entry, inner_exit = state.add_map("inner", ["j"], [Range(0, 6)])
        tasklet = state.add_tasklet("t", ["_a"], ["_b"], "_b = _a + 1.0")
        read, write = state.add_access("A"), state.add_access("B")
        state.add_edge(read, None, outer_entry, "IN_A", Memlet.full("A", [4, 6]))
        outer_entry.add_out_connector("OUT_A")
        state.add_edge(outer_entry, "OUT_A", inner_entry, "IN_A", Memlet.full("A", [4, 6]))
        state.add_edge(inner_entry, "OUT_A", tasklet, "_a", Memlet.simple("A", "i, j"))
        state.add_edge(tasklet, "_b", inner_exit, "IN_B", Memlet.simple("B", "i, j"))
        state.add_edge(inner_exit, "OUT_B", outer_exit, "IN_B", Memlet.full("B", [4, 6]))
        state.add_edge(outer_exit, "OUT_B", write, None, Memlet.full("B", [4, 6]))
        collapse = MapCollapse()
        matches = collapse.matches(sdfg)
        assert [m.subject for m in matches] == ["outer + inner"]
        assert collapse.apply(sdfg)
        sdfg.validate()
        entries = state.map_entries()
        assert len(entries) == 1
        assert entries[0].map.params == ["i", "j"]
        assert collapse.matches(sdfg) == []
        a = np.arange(24, dtype=np.float64).reshape(4, 6)
        outputs, _ = _run_sdfg(sdfg, A=a, B=np.zeros((4, 6)))
        assert np.allclose(outputs["B"], a + 1.0)

    def test_collapse_skips_tiled_nests(self):
        """Tiled (scope-dependent) nests are not collapsible."""
        sdfg = _concrete_scale_sdfg(10)
        assert MapTiling(tile_size=4).apply(sdfg)
        assert MapCollapse().matches(sdfg) == []

    def test_tiling_then_pipeline_stays_executable(self):
        """MapTiling composes with the standard suite through compile_c."""
        import numpy as np

        from repro import compile_c, get_pipeline, run_compiled
        from repro.pipeline.spec import PassSpec
        from repro.workloads import get_kernel

        source = get_kernel("atax", {"M": 6, "N": 7})
        reference = run_compiled(compile_c(source, "dcir"))
        spec = get_pipeline("dcir").derive()
        spec.data_passes.append(PassSpec("map-tiling", {"tile_size": 4}))
        tiled = run_compiled(compile_c(source, spec))
        assert np.isclose(float(tiled.return_value), float(reference.return_value))


class TestTransformsCLI:
    def test_transforms_list_shows_pattern_metadata(self, capsys):
        from repro.__main__ import main as cli_main

        assert cli_main(["transforms", "list", "-v"]) == 0
        printed = capsys.readouterr().out
        assert "map-tiling" in printed and "addable" in printed
        assert "tile_size=32" in printed  # defaults with presets under -v
        assert "drain=restart" in printed

    def test_transforms_match_enumerates_sites(self, capsys):
        from repro.__main__ import main as cli_main

        assert cli_main(["transforms", "match", "--kernel", "atax", "loop-to-map"]) == 0
        printed = capsys.readouterr().out
        # loop-to-map already ran in the prefix of dcir, so the interesting
        # enumeration is vectorization on the final graph.
        assert cli_main(["transforms", "match", "--kernel", "atax", "vectorization"]) == 0
        printed = capsys.readouterr().out
        assert "1 match(es)" in printed and "vectorization [map]" in printed

    def test_transforms_match_json_with_params(self, capsys):
        import json as json_module

        from repro.__main__ import main as cli_main

        assert cli_main([
            "transforms", "match", "--kernel", "atax", "map-tiling",
            "--param", "tile_size=8", "--json",
        ]) == 0
        matches = json_module.loads(capsys.readouterr().out)
        assert matches and matches[0]["transformation"] == "map-tiling"
        assert "by 8" in matches[0]["subject"]

    def test_transforms_match_rejects_non_bridge_pipelines(self, capsys):
        from repro.__main__ import main as cli_main

        assert cli_main([
            "transforms", "match", "--kernel", "atax", "--pipeline", "gcc",
            "vectorization",
        ]) == 2
        assert "bridge" in capsys.readouterr().err

    def test_compile_verbose_prints_match_accounting(self, capsys):
        from repro.__main__ import main as cli_main

        assert cli_main(["compile", "--kernel", "atax", "--verbose"]) == 0
        printed = capsys.readouterr().out
        assert "data passes:" in printed
        assert "matches=" in printed and "applied=" in printed
