"""Data-centric transformations (§6 of the paper) on a pattern-based
subgraph-rewrite engine.

Every transformation is a :class:`Transformation`: it **matches** the
sites of the SDFG where its pattern occurs (:meth:`Transformation.match`
returns deterministic, ordered :class:`Match` values) and **applies** one
site at a time (:meth:`Transformation.apply_match`, revalidating against
the mutated graph).  The pipeline entry point ``apply(sdfg)`` drains the
match set under the class's ``DRAIN`` policy and records how many sites
matched and were rewritten — surfaced on every
:class:`~repro.passbase.PassRecord` and in ``python -m repro compile
--verbose``.

Transformation parameters are constructor keyword arguments, declared for
the auto-tuner via ``PARAMS`` (e.g. ``MapTiling(tile_size=16)``,
``Vectorization(width=8)``, ``StackPromotion(max_elements=1024)``); they
serialize through :class:`~repro.pipeline.spec.PassSpec` params into the
spec's content address.  Two parameters exist on every transformation:
``only_matches`` (apply only the given match indices — per-match enable
subsets) and ``max_applications`` (cap the number of rewrites per run).

The standard §6 suite (simplification + memory scheduling) is registered
in :data:`DATA_PASSES`; the parameterized scheduling transforms
(``MapTiling``, ``MapInterchange``, ``MapCollapse``, ``Vectorization``)
are additive choices the tuner's search space proposes on top.
"""

from .array_elimination import ArrayElimination
from .dead_code import (
    DeadDataflowElimination,
    DeadStateElimination,
    RedundantIterationElimination,
)
from .loop_analysis import LoopInfo, find_loops, symbols_used_in_state
from .map_parameterized import (
    MapCollapse,
    MapInterchange,
    MapTiling,
    Vectorization,
    tile_map,
)
from .map_transforms import LoopToMap, MapFusion
from .memlet_consolidation import MemletConsolidation
from .parallelize import Parallelize
from .memory_allocation import MemoryPreAllocation, StackPromotion
from .registry import DATA_PASSES, list_data_passes, register_data_pass
from .rewrite import Match, Transformation, transformation_parameters
from .state_fusion import StateFusion
from .symbol_passes import ScalarToSymbolPromotion, SymbolPropagation
from .wcr_detection import AugAssignToWCR

__all__ = [
    "ArrayElimination",
    "AugAssignToWCR",
    "DATA_PASSES",
    "DeadDataflowElimination",
    "DeadStateElimination",
    "LoopInfo",
    "LoopToMap",
    "MapCollapse",
    "MapFusion",
    "MapInterchange",
    "MapTiling",
    "Match",
    "MemletConsolidation",
    "MemoryPreAllocation",
    "Parallelize",
    "RedundantIterationElimination",
    "ScalarToSymbolPromotion",
    "StackPromotion",
    "StateFusion",
    "SymbolPropagation",
    "Transformation",
    "Vectorization",
    "find_loops",
    "list_data_passes",
    "register_data_pass",
    "symbols_used_in_state",
    "tile_map",
    "transformation_parameters",
]
