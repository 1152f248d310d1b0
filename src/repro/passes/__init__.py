"""Control-centric passes and the pass registry.

The standard pipelines (``gcc``, ``clang``, ``mlir`` and the MLIR half of
``dcir``) are assembled from these passes; see
:func:`control_centric_pipeline` for the canonical ordering used by the
paper's §4 conversion pipeline.  Passes are also registered by name in
:data:`CONTROL_PASSES` so declarative pipeline specs
(:class:`repro.pipeline.PipelineSpec`) can reference them.
"""

from ..passbase import PassRunner
from .canonicalize import Canonicalize, constant_value
from .cse import CommonSubexpressionElimination
from .dce import DeadCodeElimination
from .inlining import Inlining
from .licm import LoopInvariantCodeMotion
from .memref_dce import DeadMemoryElimination
from .registry import CONTROL_PASSES, list_control_passes, register_control_pass
from .scalar_replacement import ScalarReplacement


def control_centric_pipeline() -> PassRunner:
    """The control-centric pass suite of §4 (``CONTROL_SUITE``: inlining,
    canonicalization, scalar replacement, CSE, LICM, DCE and memref-DCE),
    iterated to a fixed point for at most three rounds."""
    from ..pipeline.registry import CONTROL_SUITE

    return CONTROL_PASSES.runner(CONTROL_SUITE, max_iterations=3, stage="control")


__all__ = [
    "CONTROL_PASSES",
    "Canonicalize",
    "CommonSubexpressionElimination",
    "DeadCodeElimination",
    "DeadMemoryElimination",
    "Inlining",
    "LoopInvariantCodeMotion",
    "ScalarReplacement",
    "constant_value",
    "control_centric_pipeline",
    "list_control_passes",
    "register_control_pass",
]
