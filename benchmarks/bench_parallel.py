"""Parallel-schedule vs sequential wall-clock on the native backend.

The claim under test is that annotating provably-safe outer maps with a
``parallel`` schedule speeds execution up on multi-core machines without
changing results.  Only the native (OpenMP) backend executes schedules in
parallel — the interpreted backend ignores them and stays the sequential
oracle — so every measurement here is native, per kernel with at least
one parallelizable map:

* the two PolyBench kernels whose loops survive ``loop-to-map`` with a
  parallelizable outer map (``atax``, ``bicg``) at scaled-up sizes;
* the whole NumPy-frontend suite.

Every measurement pairs a sequential and a parallel compilation of the
same program and records a differential equality check — a parallel
speedup that computes a different answer is a bug, not a win.

The committed document is **honest about its machine**: the speedup gate
(≥2x on ≥5 kernels) only *applies* when ``machine.available_cpus`` ≥ 2,
a C compiler is available and at least ``GATE_MIN_KERNELS`` kernels are
selected.  Otherwise the document records ``gate.applicable: false`` with
the reason (a ``--quick`` run measures too few kernels to meet the gate
by construction); the differential check is enforced either way.

Run directly::

    PYTHONPATH=src python benchmarks/bench_parallel.py [--threads N]
        [--repetitions N] [-o PATH]

or through pytest (asserts the document shape and differential equality)::

    PYTHONPATH=src python -m pytest benchmarks/bench_parallel.py -v
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

try:
    import repro  # noqa: F401
except ImportError:  # running from a checkout without an installed package
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import __version__, compile_c, get_pipeline, run_compiled
from repro.codegen import have_compiler
from repro.perf.bench import machine_metadata
from repro.sdfg.nodes import SCHEDULE_PARALLEL
from repro.workloads import get_kernel
from repro.workloads.polybench import KERNELS
from repro.workloads.python_suite import python_suite

#: JSON schema tag of the emitted document.
SCHEMA = "repro-bench-parallel/v1"

#: PolyBench kernels whose outer map the safety proof accepts (the rest
#: never gain a map from ``loop-to-map``; see tests/test_parallelism.py).
C_KERNELS = ("atax", "bicg")

#: Size multiplier for the C kernels: at the baked-in defaults a native
#: run finishes in ~10µs and fork/join overhead drowns any parallel win.
C_SCALE = 8

#: Kernels used by ``--quick`` (CI) runs.
QUICK_KERNELS = ("atax", "heat1d")

#: Acceptance-criteria gate, recorded alongside the measurements.
GATE_SPEEDUP = 2.0
GATE_MIN_KERNELS = 5


def _parallel_spec(base, threads: Optional[int]):
    """``base`` plus the ``parallelize`` pass (the tuner's schedule axis)."""
    params = {"n_threads": threads} if threads else {}
    passes = [(p.name, dict(p.params)) for p in base.data_passes]
    passes.append(("parallelize", params))
    return base.with_passes("data", passes)


def _returns_agree(reference, value) -> Optional[bool]:
    if reference is None or value is None:
        return None
    return abs(float(value) - float(reference)) <= 1e-12 * max(1.0, abs(float(reference)))


def _parallel_map_count(result) -> int:
    sdfg = getattr(result, "sdfg", None)
    if sdfg is None:
        return 0
    return sum(
        1 for _, entry in sdfg.map_entries()
        if entry.map.schedule == SCHEDULE_PARALLEL
    )


def _measure(source, spec, repetitions: int):
    result = compile_c(source, spec.with_codegen(backend="native"))
    run = run_compiled(result, repetitions=repetitions, warmup=1, disable_gc=True)
    return result, run


def _bench_pair(source, threads: Optional[int], repetitions: int) -> Dict:
    base = get_pipeline("dcir")
    seq_result, seq_run = _measure(source, base, repetitions)
    par_result, par_run = _measure(source, _parallel_spec(base, threads), repetitions)
    cell: Dict = {
        "backend": par_result.backend,
        "maps_parallelized": _parallel_map_count(par_result),
        "sequential_seconds": seq_run.seconds,
        "parallel_seconds": par_run.seconds,
        "speedup": (
            seq_run.seconds / par_run.seconds if par_run.seconds > 0 else None
        ),
        "outputs_equal": _returns_agree(seq_run.return_value, par_run.return_value),
    }
    return cell


def run_bench_parallel(
    kernels: Optional[List[str]] = None,
    threads: Optional[int] = None,
    repetitions: int = 3,
) -> Dict:
    """Compute the sequential-vs-parallel timing document (JSON-safe)."""
    machine = machine_metadata(probe_openmp=True)
    native_available = have_compiler()
    suite = python_suite()
    selected_c = [k for k in C_KERNELS if kernels is None or k in kernels]
    selected_py = [k for k in sorted(suite) if kernels is None or k in kernels]

    sources = [
        (kernel, "c", get_kernel(
            kernel, {key: value * C_SCALE for key, value in KERNELS[kernel][1].items()}
        ))
        for kernel in selected_c
    ] + [(kernel, "python", suite[kernel]) for kernel in selected_py]
    entries = []
    for kernel, frontend, source in sources:
        row: Dict = {"kernel": kernel, "frontend": frontend, "backends": {}}
        if native_available:
            row["backends"]["native"] = _bench_pair(source, threads, repetitions)
        entries.append(row)

    measured = [
        cell for entry in entries for cell in entry["backends"].values()
        if cell["maps_parallelized"] > 0 and cell["speedup"] is not None
    ]
    fast_kernels = {
        entry["kernel"]
        for entry in entries
        for cell in entry["backends"].values()
        if cell["maps_parallelized"] > 0
        and cell["speedup"] is not None
        and cell["speedup"] >= GATE_SPEEDUP
    }
    # A parallel region can only beat sequential with cores to fan out to,
    # and only native code runs one; a run over fewer kernels than the
    # gate counts cannot meet it.  Saying so in the document beats faking
    # a speedup or failing a run that never had a chance.
    if machine["available_cpus"] < 2:
        reason = "fewer than 2 available CPUs"
    elif not native_available:
        reason = "no C compiler: only the native backend runs schedules in parallel"
    elif len(entries) < GATE_MIN_KERNELS:
        reason = f"{len(entries)} kernel(s) selected; the gate counts {GATE_MIN_KERNELS}"
    else:
        reason = None
    applicable = reason is None
    gate: Dict = {
        "required_speedup": GATE_SPEEDUP,
        "required_kernels": GATE_MIN_KERNELS,
        "applicable": applicable,
        "reason": reason,
        "kernels_at_speedup": sorted(fast_kernels),
        "passed": (len(fast_kernels) >= GATE_MIN_KERNELS) if applicable else None,
    }
    mismatches = [
        entry["kernel"] for entry in entries
        for cell in entry["backends"].values() if cell["outputs_equal"] is False
    ]
    return {
        "schema": SCHEMA,
        "version": __version__,
        "machine": machine,
        "threads": threads,
        "repetitions": repetitions,
        "native_available": native_available,
        "entries": entries,
        "measured_pairs": len(measured),
        "differential_mismatches": mismatches,
        "gate": gate,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help=f"restrict to {', '.join(QUICK_KERNELS)}")
    parser.add_argument("--kernels", nargs="*", help="explicit kernel subset")
    parser.add_argument("--threads", type=int, default=None,
                        help="pin the worker count (default: runtime resolution "
                        "via REPRO_NUM_THREADS or the machine)")
    parser.add_argument("--repetitions", type=int, default=3,
                        help="measured repetitions per schedule (default 3)")
    parser.add_argument("-o", "--output", default="BENCH_parallel.json",
                        help="output JSON path (default BENCH_parallel.json)")
    args = parser.parse_args(argv)
    kernels = args.kernels if args.kernels else (
        list(QUICK_KERNELS) if args.quick else None
    )
    document = run_bench_parallel(
        kernels, threads=args.threads, repetitions=args.repetitions
    )
    path = Path(args.output)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    gate = document["gate"]
    print(f"wrote {path} ({document['measured_pairs']} parallel measurements on "
          f"{document['machine']['available_cpus']} CPU(s); gate "
          + (f"n/a: {gate['reason']}" if not gate["applicable"]
             else ("passed" if gate["passed"] else "FAILED")) + ")")
    if document["differential_mismatches"]:
        print("ERROR: parallel runs disagree with sequential on: "
              f"{document['differential_mismatches']}", file=sys.stderr)
        return 1
    if gate["applicable"] and not gate["passed"]:
        print(f"ERROR: fewer than {GATE_MIN_KERNELS} kernels reached "
              f"{GATE_SPEEDUP}x ({gate['kernels_at_speedup']})", file=sys.stderr)
        return 1
    return 0


# -- pytest entry points -----------------------------------------------------------------


def test_document_shape_and_differential_equality():
    import pytest

    if not have_compiler():
        pytest.skip("no C compiler: nothing runs in parallel")
    document = run_bench_parallel(list(QUICK_KERNELS), threads=2, repetitions=1)
    assert document["schema"] == SCHEMA
    assert document["version"] == __version__
    assert document["differential_mismatches"] == []
    assert document["machine"]["cpu_count"] >= 1
    parallelized = [
        cell for entry in document["entries"]
        for cell in entry["backends"].values() if cell["maps_parallelized"] > 0
    ]
    assert parallelized, "no map was parallelized on the quick kernels"
    assert document["gate"]["applicable"] is False  # two kernels never meet the gate
    for cell in parallelized:
        assert cell["sequential_seconds"] > 0
        assert cell["parallel_seconds"] > 0


if __name__ == "__main__":
    raise SystemExit(main())
