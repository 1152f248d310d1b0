"""The pipeline registry and the six pre-registered paper pipelines.

Pipelines are first-class :class:`~repro.pipeline.spec.PipelineSpec` values
registered by name.  The six compositions compared in the paper's
evaluation (§7) ship pre-registered — ``gcc``, ``clang``, ``dace``,
``mlir``, ``dcir``, ``dcir+vec`` — and user code can add its own with
:func:`register_pipeline` (ablations, new pass orderings,
workload-specific pipelines) without touching library internals.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional

from ..errors import PipelineError
from ..passbase import suggest
from .spec import CodegenOptions, PassSpec, PipelineLike, PipelineSpec

_REGISTRY: "OrderedDict[str, PipelineSpec]" = OrderedDict()


def register_pipeline(spec: PipelineSpec, overwrite: bool = False) -> PipelineSpec:
    """Register a named pipeline spec, making it addressable by string.

    The spec must carry a ``name``.  Re-registering an existing name raises
    unless ``overwrite=True``; the six paper pipelines can be overwritten
    like any other entry (but the determinism guarantees then no longer
    apply to the replaced name).

    The registry stores a deep copy, so later mutation of the passed spec
    cannot silently rewrite what the name means (or its cache identity).
    """
    if not spec.name:
        raise PipelineError("Cannot register an anonymous pipeline spec (set spec.name)")
    if spec.name in _REGISTRY and not overwrite:
        raise PipelineError(
            f"Pipeline {spec.name!r} is already registered; pass overwrite=True to replace it"
        )
    spec = spec.copy().validate()
    _REGISTRY[spec.name] = spec
    return spec


def unregister_pipeline(name: str) -> Optional[PipelineSpec]:
    """Remove a registered pipeline; returns the removed spec (or None)."""
    return _REGISTRY.pop(name, None)


def get_pipeline(name: str) -> PipelineSpec:
    """Fetch a registered pipeline spec by name.

    Unknown names raise :class:`PipelineError` listing every *currently*
    registered pipeline (including user-registered ones) and suggesting the
    closest match.  The returned spec is a deep copy: mutate it freely (the
    usual way to build ablations) without affecting the registered entry.
    """
    try:
        return _REGISTRY[name].copy()
    except KeyError:
        raise PipelineError(
            f"Unknown pipeline {name!r}; "
            + suggest(name, list(_REGISTRY), "registered pipelines")
        ) from None


def list_pipelines() -> List[str]:
    """Names of all registered pipelines, in registration order."""
    return list(_REGISTRY)


def resolve_pipeline(pipeline: PipelineLike) -> PipelineSpec:
    """Coerce a pipeline designator (registered name or spec) into a spec."""
    if isinstance(pipeline, PipelineSpec):
        return pipeline
    if isinstance(pipeline, str):
        return get_pipeline(pipeline)
    raise PipelineError(
        f"Expected a pipeline name or PipelineSpec, got {type(pipeline).__name__}"
    )


#: The six pipeline compositions of the paper's evaluation — a fixed
#: snapshot, unaffected by later registrations (the default sweep set).
PAPER_PIPELINES = ("gcc", "clang", "dace", "mlir", "dcir", "dcir+vec")


# -- the paper's six pipelines ---------------------------------------------------------

#: Canonical control-centric pass suite of §4, in pipeline order (the
#: registered names of :data:`repro.passes.CONTROL_PASSES`).
CONTROL_SUITE = (
    "inline",
    "canonicalize",
    "scalar-replacement",
    "cse",
    "licm",
    "dce",
    "memref-dce",
)

#: Canonical data-centric pass suite of §6 (simplify then schedule), in
#: pipeline order (the registered names of :data:`repro.transforms.DATA_PASSES`).
DATA_SUITE = (
    "scalar-to-symbol",
    "symbol-propagation",
    "state-fusion",
    "augassign-to-wcr",
    "dead-state-elimination",
    "dead-dataflow-elimination",
    "redundant-iteration-elimination",
    "array-elimination",
    "memlet-consolidation",
    "stack-promotion",
    "memory-preallocation",
    "loop-to-map",
    "map-fusion",
)

#: The §6.1/§6.2 simplification prefix of :data:`DATA_SUITE` (inference,
#: state fusion, dead state/dataflow and array elimination, memlet
#: consolidation) that ``SDFG.simplify()`` runs.
SIMPLIFY_SUITE = DATA_SUITE[: DATA_SUITE.index("memlet-consolidation") + 1]


def paper_control_passes(include_memref_dce: bool = True) -> List[PassSpec]:
    """The §4 control-centric suite as pass specs (a fresh, editable list)."""
    names = CONTROL_SUITE if include_memref_dce else CONTROL_SUITE[:-1]
    return [PassSpec(name) for name in names]


def paper_data_passes() -> List[PassSpec]:
    """The §6 data-centric suite as pass specs (a fresh, editable list)."""
    return [PassSpec(name) for name in DATA_SUITE]


def _register_paper_pipelines() -> None:
    native = CodegenOptions(native_scalars=True, preallocate=True)
    polygeist = CodegenOptions(native_scalars=False, preallocate=False)
    register_pipeline(PipelineSpec(
        name="gcc",
        description="Full control-centric suite, native-style MLIR codegen",
        control_passes=paper_control_passes(),
        codegen=native,
    ))
    register_pipeline(PipelineSpec(
        name="clang",
        description="Control-centric suite minus memref-DCE, native-style MLIR codegen",
        control_passes=paper_control_passes(include_memref_dce=False),
        codegen=native,
    ))
    register_pipeline(PipelineSpec(
        name="dace",
        description="No control-centric passes (coarse view), full §6 set, SDFG codegen",
        bridge=True,
        data_passes=paper_data_passes(),
    ))
    register_pipeline(PipelineSpec(
        name="mlir",
        description="Full control-centric suite, Polygeist-style MLIR codegen",
        control_passes=paper_control_passes(),
        codegen=polygeist,
    ))
    register_pipeline(PipelineSpec(
        name="dcir",
        description="Full control-centric suite, bridge, full §6 set, SDFG codegen",
        control_passes=paper_control_passes(),
        bridge=True,
        data_passes=paper_data_passes(),
    ))
    register_pipeline(PipelineSpec(
        name="dcir+vec",
        description="As dcir, with vectorized maps",
        control_passes=paper_control_passes(),
        bridge=True,
        data_passes=paper_data_passes(),
        codegen=CodegenOptions(vectorize=True),
    ))


_register_paper_pipelines()
