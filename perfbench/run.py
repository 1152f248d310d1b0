"""End-to-end benchmark of the DCIR reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload compile-cold --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py`` for why each was chosen): ``compile-cold``,
``native-large`` and ``py-cached``.  Every gated number is a ratio of a
request's wall time to an independent baseline doing the same job on the
same thread in the same round.  The run prints one ``metric`` line per
metric (name, value, unit, direction, sample count and base), then, as its
last line, a JSON object ``{"correct", "attempted", "failed", "metrics"}``
holding the end-to-end metrics of ``BENCHMARK.json`` (``--trace 0``) or its
per-layer metrics (``--trace 1``: the traced run, which also writes a
Chrome trace-event file under ``.perfbench/traces/``).

Every end-to-end metric is reported on every workload, so the ratio
metrics carry workload-neutral names; each workload divides by its own
baseline:

================ ============================ ============================== ===========================
metric           compile-cold                 native-large                   py-cached
================ ============================ ============================== ===========================
vs_base.p50/p90  compile / cc build, over the time to result / raw-cc time   request / NumPy run
                 dace, dcir, dcir+vec compiles to result
vs_base.geomean  compile / cc build, all six  dcir kernel / raw-cc kernel    request / NumPy run
                 pipelines                    (best-of-R per round, median
                                              over rounds, geomean over 23)
================ ============================ ============================== ===========================

``--quick`` shrinks every workload to a few kernels and one round; the
benchmark's own checks (``selftest.py``) use it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Fresh start-ups timed per run for ``setup_s`` (median reported).
SETUP_PROBES = 3
#: A run stops starting rounds after this many measured seconds, even
#: short of its minimum, so that it always ends well within 180 s.
HARD_CAP_S = 110.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="a few kernels, one round (the benchmark's own checks)")
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print READY <monotonic seconds> and exit")
    return parser.parse_args(argv)


def isolate(work: Path) -> None:
    """Point every cache and scratch path of the library into ``work``.

    The default native cache (``/tmp/repro-native-<uid>``) persists across
    processes, so a later run could be served an earlier run's ``.so`` or
    payload; fault injection must be off.
    """
    for name in ("native", "cache", "tmp"):
        (work / name).mkdir(parents=True)
    os.environ["REPRO_NATIVE_CACHE_DIR"] = str(work / "native")
    os.environ["REPRO_CACHE_DIR"] = str(work / "cache")
    os.environ["TMPDIR"] = str(work / "tmp")
    tempfile.tempdir = str(work / "tmp")
    for name in [key for key in os.environ if key.startswith("REPRO_FAULTS")]:
        del os.environ[name]


def probe_setup(args) -> float:
    """Seconds from spawning a fresh process to the end of its warm-up."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "1", "--setup-probe"]
    if args.quick:
        command.append("--quick")
    start = time.monotonic()
    proc = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=120, cwd=ROOT)
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or lines[0] != "READY":
        raise RuntimeError(f"setup probe failed ({proc.returncode}):\n{proc.stderr}")
    return float(lines[1]) - start


def drive(workload, args):
    """Warm up, then measure whole rounds for ``--seconds`` (at least the
    workload's minimum), timing fresh start-ups between rounds."""
    from harness import median

    workload.warm_up()
    # The collector stays on for every timed compile, but the heap that
    # start-up built (modules, interned symbols) is frozen out of it:
    # otherwise a full collection scanning that heap lands, 20-50 ms at a
    # time, on random requests and the tail percentiles follow it.
    gc.collect()
    gc.freeze()
    probes = 0 if args.trace else (2 if args.quick else SETUP_PROBES)
    setups = [probe_setup(args)] if probes else []
    min_rounds = 1 if (args.trace or args.quick) else workload.min_rounds
    measured, rounds = 0.0, 0
    # Start another round while it is predicted to end within --seconds.
    while measured <= HARD_CAP_S and (
        rounds < min_rounds or measured + measured / rounds <= args.seconds
    ):
        workload.tracer.round = rounds
        start, checks = time.perf_counter(), workload.check_seconds
        workload.run_round(rounds)
        measured += time.perf_counter() - start - (workload.check_seconds - checks)
        rounds += 1
        if len(setups) < probes:
            setups.append(probe_setup(args))
    while len(setups) < probes:
        setups.append(probe_setup(args))
    return rounds, (median(setups), len(setups)) if setups else None


def per_layer(workload, tracer) -> dict:
    """``name -> (value, samples)`` of every per-layer metric the traced
    run can produce; a layer a workload never enters reads 0."""
    from harness import median
    from repro.pipeline import CONTROL_SUITE, DATA_SUITE

    spans = ["frontend", "frontend_py", "control", "bridge", "data", "codegen",
             "cc", "load", "first_run", "run", "cache.lookup", "cache.store",
             "cache.rehydrate", "interp_run", "baseline.cc_build", "baseline.ref_ttr",
             "baseline.ref_run", "baseline.numpy"]
    spans += [f"control.{p}" for p in CONTROL_SUITE] + [f"data.{p}" for p in DATA_SUITE]
    counts = ["frontend.ops", "control.ops", "bridge.nodes", "data.nodes", "data.maps",
              "codegen.py_bytes", "codegen.c_bytes", "kernel.bytes_moved", "cache.hit_ratio"]
    counts += [f"data.{p}.applied" for p in DATA_SUITE]
    self_times = tracer.self_seconds_per_request()
    round_counts = tracer.first_round_counts()
    values = {f"{name}.s": self_times.get(name, (0.0, 0)) for name in spans}
    values.update({name: round_counts.get(name, (0.0, 0)) for name in counts})
    traced = workload.traced
    raw = workload.raw_seconds()
    values.update({
        "kernels_with_maps": (float(len(workload.kernels_with_maps)),
                              len(workload.kernels_with_maps)),
        "trace_overhead": (median(traced.overheads), len(traced.overheads)),
        "compile_s.p50": (median(traced.untraced_seconds), len(traced.untraced_seconds)),
    })
    for name in ("time_to_result_s.p50", "kernel_s.geomean", "request_s.p50"):
        values[name] = raw.get(name, (0.0, 0))
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = Path(tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=_scratch_root()))
    try:
        isolate(work)
        sys.path.insert(0, str(ROOT / "src"))
        from harness import Tracer, run_on_worker
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            print(f"perfbench: unknown workload {args.workload!r}; "
                  f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
            return 2
        tracer = Tracer(enabled=bool(args.trace))
        workload = WORKLOADS[args.workload](args.seed, args.quick, work, tracer)
        if args.setup_probe:
            run_on_worker(workload.warm_up)
            print("READY", time.monotonic(), flush=True)
            return 0
        rounds, setup = run_on_worker(lambda: drive(workload, args))
        return report(args, spec, workload, tracer, rounds, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _scratch_root() -> Path:
    path = ROOT / ".perfbench"
    path.mkdir(exist_ok=True)
    return path


def report(args, spec, workload, tracer, rounds, setup) -> int:
    mismatches = workload.traced.mismatches if workload.traced is not None else 0
    failed = workload.failed + mismatches
    attempted = max(workload.attempted, 1)
    print(f"# workload {workload.name} seed {args.seed} rounds {rounds} "
          f"trace {args.trace} inputs-sha256 {workload.inputs_digest()}")
    for name, (value, samples) in sorted(workload.raw_seconds().items()):
        print(f"# raw {name} {value!r} s n={samples}")
    if args.trace:
        values = per_layer(workload, tracer)
        declared = spec["per_layer"]
        trace_path = ROOT / ".perfbench" / "traces" / f"{workload.name}-seed{args.seed}.json"
        tracer.write_chrome_trace(trace_path, {
            "workload": workload.name, "seed": args.seed,
            "inputs_sha256": workload.inputs_digest(), "code_mismatches": mismatches,
        })
        print(f"# trace {trace_path.relative_to(ROOT)} code-mismatches {mismatches}")
    else:
        values = dict(workload.end_to_end())
        values["ok_ratio"] = ((attempted - failed) / attempted, attempted)
        values["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)
        values["setup_s"] = setup
        declared = spec["end_to_end"]
    metrics = {}
    for entry in declared:
        value, samples = values[entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        base = f" base={workload.base}" if entry["name"].startswith("vs_base") else ""
        print(f"metric {entry['name']} {value!r} {entry['unit']} {entry['better']} "
              f"n={samples}{base}")
    print(json.dumps({
        "correct": failed == 0 and workload.attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
