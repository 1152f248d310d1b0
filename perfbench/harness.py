"""Shared machinery of the benchmark: the timing thread, the raw-``cc``
baseline, output checks, statistics and the span recorder.

Nothing here imports :mod:`repro`; ``run.py`` isolates the environment
first and the workload and tracing modules import the library after it.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import math
import re
import shutil
import subprocess
import threading
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional

#: Stack of the timing thread.  The PolyBench sources declare their
#: arrays as locals, so the raw-cc builds keep up to ~15 MB on the stack
#: at the native-large sizes; an 8 MB main-thread stack segfaults there.
WORKER_STACK_BYTES = 256 << 20

#: Flags of the raw-cc baseline: the flags the native backend builds
#: generated C with, so both sides of every ratio get the same compiler
#: and optimisation level (the paper's "same flags for every compiler").
CC_FLAGS = ("-std=c11", "-O2", "-fPIC", "-shared")

#: Relative tolerance of every output check.
REL_TOL = 1e-9


# -- the timing thread --------------------------------------------------------------

def run_on_worker(job: Callable[[], object]) -> object:
    """Run ``job`` on one fresh long-lived thread with a large stack.

    Every timed call of a run, on both sides of every ratio, happens on
    this one thread: a thread per call re-faults its stack on every call,
    and splitting the two sides across threads lets them land on
    different CPUs.  The calling thread only waits.
    """
    outcome: Dict[str, object] = {}

    def target() -> None:
        try:
            outcome["value"] = job()
        except BaseException as exc:  # re-raised on the calling thread
            outcome["error"] = exc

    previous = threading.stack_size(WORKER_STACK_BYTES)
    try:
        thread = threading.Thread(target=target, name="perfbench-worker")
        thread.start()
    finally:
        threading.stack_size(previous)
    thread.join()
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


# -- the raw-cc baseline --------------------------------------------------------------

def find_cc() -> str:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    raise RuntimeError("no C compiler ('cc', 'gcc' or 'clang') on PATH")


def raw_source(kernel_source: str) -> str:
    """The original PolyBench source as the baseline compiles it.

    Several kernels (``cholesky`` among them) call ``sqrt`` without a
    prototype; the include makes the baseline's calls well-typed.
    """
    return "#include <math.h>\n" + kernel_source


def cc_build(source: str, directory: Path, stem: str) -> Path:
    """Build ``source`` into a shared object with the system compiler."""
    c_path = directory / f"{stem}.c"
    so_path = directory / f"{stem}.so"
    c_path.write_text(source, encoding="utf-8")
    proc = subprocess.run(
        [find_cc(), *CC_FLAGS, "-o", str(so_path), str(c_path), "-lm"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"raw cc build of {stem} failed:\n{proc.stderr.strip()}")
    return so_path


def load_kernel(so_path: Path, source: str) -> Callable[[], float]:
    """``dlopen`` a raw-cc build and return its ``double kernel_*()`` entry."""
    match = re.search(r"double\s+(kernel_\w+)\s*\(", source)
    if match is None:
        raise RuntimeError("kernel source defines no 'double kernel_*()' entry")
    function = getattr(ctypes.CDLL(str(so_path)), match.group(1))
    function.restype = ctypes.c_double
    function.argtypes = []
    return function


# -- checks and statistics -----------------------------------------------------------

def agrees(value, reference) -> bool:
    """``value`` equals ``reference`` to :data:`REL_TOL` (NaN never agrees)."""
    try:
        a, b = float(value), float(reference)
    except (TypeError, ValueError):
        return False
    if not (math.isfinite(a) and math.isfinite(b)):
        return False
    return a == b or abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def percentile(values: Iterable[float], q: float) -> float:
    """Linear-interpolated percentile; ``inf`` entries (failures) sort last."""
    data = sorted(values)
    if not data:
        return math.nan
    position = (len(data) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(data) - 1)
    fraction = position - low
    if fraction == 0 or data[low] == data[high]:
        return data[low]
    if math.isinf(data[high]):
        return math.inf
    return data[low] + (data[high] - data[low]) * fraction


def geomean(values: Iterable[float]) -> float:
    data = list(values)
    if not data:
        return math.nan
    if any(not (v > 0) or math.isinf(v) for v in data):
        return math.inf
    return math.exp(sum(math.log(v) for v in data) / len(data))


def median(values: Iterable[float]) -> float:
    return percentile(values, 50)


def digest(items: Iterable[str]) -> str:
    """SHA-256 over a sequence of generated inputs (order-sensitive)."""
    h = hashlib.sha256()
    for item in items:
        h.update(item.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


# -- spans ---------------------------------------------------------------------------

class Tracer:
    """In-memory span recorder (a no-op when disabled).

    A span records its name, start, end, parent span and the request it
    belongs to.  Spans nest strictly (one thread), so a span's self time
    is its duration minus the summed durations of its direct children.
    Counts recorded with :meth:`count` attach to the current request and
    the round it ran in.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[dict] = []
        self.counts: List[tuple] = []  # (round, request, name, value)
        self.request: Optional[str] = None
        self.round = 0
        self._stack: List[int] = []

    def span(self, name: str):
        return self._span(name) if self.enabled else nullcontext()

    @contextmanager
    def _span(self, name: str):
        record = {
            "name": name, "request": self.request, "round": self.round,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(), "end": None, "children": 0.0,
        }
        index = len(self.spans)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()
            if record["parent"] is not None:
                self.spans[record["parent"]]["children"] += record["end"] - record["start"]

    def count(self, name: str, value: float) -> None:
        if self.enabled:
            self.counts.append((self.round, self.request, name, float(value)))

    # -- aggregation ------------------------------------------------------------------
    def self_seconds_per_request(self) -> Dict[str, tuple]:
        """``name -> (mean self seconds per request that entered it, requests)``."""
        totals: Dict[str, float] = {}
        requests: Dict[str, set] = {}
        for span in self.spans:
            own = (span["end"] - span["start"]) - span["children"]
            totals[span["name"]] = totals.get(span["name"], 0.0) + own
            requests.setdefault(span["name"], set()).add(span["request"])
        return {name: (totals[name] / len(requests[name]), len(requests[name]))
                for name in totals}

    def first_round_counts(self) -> Dict[str, tuple]:
        """``name -> (mean per round-0 request that recorded it, requests)``.

        A count recorded several times in one request (a pass run once per
        fixpoint iteration) is summed within the request first.  Round 0's
        inputs depend on the seed alone, so these numbers repeat exactly
        between same-seed runs whatever the run length.
        """
        totals: Dict[str, float] = {}
        requests: Dict[str, set] = {}
        for round_index, request, name, value in self.counts:
            if round_index == 0:
                totals[name] = totals.get(name, 0.0) + value
                requests.setdefault(name, set()).add(request)
        return {name: (totals[name] / len(requests[name]), len(requests[name]))
                for name in totals}

    def write_chrome_trace(self, path: Path, metadata: Dict) -> None:
        """Write the spans as Chrome trace-event JSON (opens in Perfetto)."""
        origin = min((s["start"] for s in self.spans), default=0.0)
        events = [
            {
                "name": s["name"], "ph": "X", "pid": 1, "tid": 1,
                "ts": (s["start"] - origin) * 1e6,
                "dur": (s["end"] - s["start"]) * 1e6,
                "args": {"request": s["request"], "round": s["round"], "parent": s["parent"]},
            }
            for s in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "metadata": metadata}))
