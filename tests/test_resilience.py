"""Chaos tests for the fault-tolerant compilation service.

Every hardening layer is exercised against the failure it guards:
retry policies against flaky/hung/crashing compilers (driven by fake
``REPRO_CC`` scripts and injectable clocks — no real sleeping), the
checksummed disk cache against truncated/tampered/alien entries, the
batch compiler against SIGKILL'd pool workers (deterministically, via
the ``REPRO_FAULTS`` harness), and the degradation modes against a
toolchain that is not there.  The invariant under test is always the
same: a hostile environment produces *typed, recorded* outcomes — never
a crash, never silent corruption.
"""

import json
import os
import signal
import stat

import pytest

from repro import PipelineError, compile_c, get_pipeline, run_compiled
from repro.codegen import have_compiler
from repro.codegen.toolchain import (
    CC_ENV,
    CC_TIMEOUT_ENV,
    DEFAULT_CC_TIMEOUT,
    NATIVE_CACHE_ENV,
    CompiledNative,
    cc_timeout,
    compile_shared,
)
from repro.errors import (
    CacheCorruption,
    CompileTimeout,
    PermanentError,
    ToolchainCrash,
    ToolchainError,
    TransientError,
    WorkerLost,
    failure_kind,
    is_transient,
)
from repro.faults import (
    FAULTS_DIR_ENV,
    FAULTS_ENV,
    FAULTS_SEED_ENV,
    FaultPlan,
    active_plan,
    parse_faults,
    reset_plan,
)
from repro.perf import PERF
from repro.service import (
    CACHE_FORMAT,
    CompileCache,
    CompileRequest,
    Session,
    cache_key,
    compile_many,
    payload_digest,
)
from repro.service.cache import QUARANTINE_DIR
from repro.service.resilience import Deadline, RetryPolicy, validate_degradation

SAXPY = """
double saxpy() {
  double x[16];
  double a = 1.5;
  for (int i = 0; i < 16; i++)
    x[i] = a * i + 2.0;
  double sum = 0.0;
  for (int i = 0; i < 16; i++)
    sum += x[i];
  return sum;
}
"""

#: Distinct trivial kernels (distinct content addresses) for batch tests.
def _kernels(count):
    return [
        f"double k{i}() {{ double s = 0.0; for (int j = 0; j < {8 + i}; j++) s += j; return s; }}"
        for i in range(count)
    ]


MINIMAL_C = "int repro_probe(void) { return 42; }\n"


@pytest.fixture(autouse=True)
def _fresh_fault_plan():
    """Fault-plan cache must not leak between tests that re-arm the env."""
    reset_plan()
    yield
    reset_plan()


def _write_script(path, body):
    path.write_text("#!/bin/sh\n" + body, encoding="utf-8")
    path.chmod(path.stat().st_mode | stat.S_IXUSR | stat.S_IXGRP | stat.S_IXOTH)
    return str(path)


# -- retry policy: deterministic backoff, taxonomy-aware ------------------------------------


class TestRetryPolicy:
    def _policy(self, sleeps, **kwargs):
        kwargs.setdefault("max_attempts", 4)
        kwargs.setdefault("backoff_base", 0.05)
        kwargs.setdefault("backoff_factor", 2.0)
        kwargs.setdefault("backoff_max", 2.0)
        return RetryPolicy(sleep=sleeps.append, **kwargs)

    def test_transient_failures_retry_with_exponential_backoff(self):
        sleeps, calls = [], []

        def flaky():
            calls.append(True)
            if len(calls) < 4:
                raise ToolchainCrash("injected")
            return "ok"

        value, attempts = self._policy(sleeps).run(flaky)
        assert value == "ok" and attempts == 4
        assert sleeps == [0.05, 0.1, 0.2]  # exact, deterministic schedule

    def test_permanent_failures_never_retry(self):
        sleeps, calls = [], []

        def broken():
            calls.append(True)
            raise ToolchainError("diagnosed compile error")

        with pytest.raises(ToolchainError):
            self._policy(sleeps).run(broken)
        assert len(calls) == 1 and sleeps == []

    def test_exhaustion_reraises_with_attempt_count(self):
        sleeps = []

        def hopeless():
            raise CompileTimeout("injected", seconds=1.0)

        with pytest.raises(CompileTimeout) as info:
            self._policy(sleeps, max_attempts=3).run(hopeless)
        assert info.value.attempts == 3
        assert sleeps == [0.05, 0.1]

    def test_backoff_is_capped(self):
        policy = RetryPolicy(backoff_base=0.5, backoff_factor=10.0, backoff_max=2.0)
        assert policy.delay(1) == 0.5
        assert policy.delay(2) == 2.0  # 5.0 capped
        assert policy.delay(10) == 2.0

    def test_single_attempt_policy_and_validation(self):
        assert RetryPolicy.none().max_attempts == 1
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)

    def test_from_env_reads_the_knobs(self):
        policy = RetryPolicy.from_env(
            environ={
                "REPRO_MAX_ATTEMPTS": "5",
                "REPRO_RETRY_BACKOFF": "0.25",
                "REPRO_RETRY_BACKOFF_MAX": "1.5",
            }
        )
        assert policy.max_attempts == 5
        assert policy.backoff_base == 0.25
        assert policy.backoff_max == 1.5
        assert RetryPolicy.from_env(environ={}).max_attempts == 3

    def test_deadline_uses_injected_clock(self):
        now = [100.0]
        deadline = Deadline.after(2.0, clock=lambda: now[0])
        assert not deadline.expired() and deadline.remaining() == 2.0
        now[0] = 101.5
        assert deadline.elapsed() == 1.5 and not deadline.expired()
        now[0] = 103.0
        assert deadline.expired()


# -- the failure taxonomy -------------------------------------------------------------------


class TestTaxonomy:
    def test_kinds_for_instances_and_classes(self):
        assert failure_kind(CompileTimeout("x")) == "timeout"
        assert failure_kind(ToolchainCrash("x")) == "toolchain-crash"
        assert failure_kind(WorkerLost("x")) == "worker-lost"
        assert failure_kind(CacheCorruption("x")) == "cache-corruption"
        assert failure_kind(ToolchainError("x")) == "permanent"
        assert failure_kind(PipelineError("x")) == "permanent"
        assert failure_kind(ValueError("x")) == "unexpected"
        assert failure_kind(CompileTimeout) == "timeout"
        assert failure_kind(None) is None

    def test_kinds_for_type_names_crossing_process_boundaries(self):
        assert failure_kind("CompileTimeout") == "timeout"
        assert failure_kind("BrokenProcessPool") == "worker-lost"
        assert failure_kind("ToolchainError") == "permanent"
        assert failure_kind("FrontendError") == "permanent"
        assert failure_kind("SomethingNovel") == "unexpected"

    def test_transience_axis(self):
        assert is_transient(CompileTimeout("x"))
        assert is_transient("WorkerLost")
        assert not is_transient(ToolchainError("x"))
        assert not is_transient("FrontendError")

    def test_toolchain_error_is_permanent_and_still_reexported(self):
        from repro.codegen.toolchain import ToolchainError as reexported

        assert reexported is ToolchainError
        assert issubclass(ToolchainError, PermanentError)
        assert issubclass(CompileTimeout, TransientError)

    def test_degradation_mode_validation(self):
        assert validate_degradation("strict") == "strict"
        assert validate_degradation("fallback") == "fallback"
        with pytest.raises(ValueError, match="bogus"):
            validate_degradation("bogus")
        with pytest.raises(ValueError):
            Session(degradation="bogus")


# -- fault plan: parsing, determinism, budgets ----------------------------------------------


class TestFaultPlan:
    def test_parse_specs(self):
        specs = parse_faults("cc_hang:0.3,cache_corrupt:0.2,worker_kill:1:1")
        assert specs["cc_hang"].probability == 0.3
        assert specs["worker_kill"].limit == 1
        assert specs["cache_corrupt"].limit is None

    @pytest.mark.parametrize(
        "bad",
        ["cc_hang", "nonsense:0.5", "cc_hang:2.0", "cc_hang:x", "cc_hang:0.5:y"],
    )
    def test_parse_rejects_bad_specs(self, bad):
        with pytest.raises(PipelineError):
            parse_faults(bad)

    def test_same_seed_fires_identically(self):
        specs = parse_faults("cc_hang:0.5")
        a = FaultPlan(specs, seed=7)
        b = FaultPlan(specs, seed=7)
        assert [a.should_fire("cc_hang") for _ in range(64)] == [
            b.should_fire("cc_hang") for _ in range(64)
        ]

    def test_limit_bounds_firings(self):
        plan = FaultPlan(parse_faults("cache_corrupt:1:2"))
        fired = sum(plan.should_fire("cache_corrupt") for _ in range(10))
        assert fired == 2 and plan.fired("cache_corrupt") == 2

    def test_cross_process_budget_uses_slot_files(self, tmp_path):
        specs = parse_faults("worker_kill:1:1")
        first = FaultPlan(specs, budget_dir=str(tmp_path))
        second = FaultPlan(specs, budget_dir=str(tmp_path))  # "another process"
        assert first.should_fire("worker_kill")
        assert not second.should_fire("worker_kill")  # slot already claimed

    def test_cc_fault_raises_typed_errors(self):
        hang = FaultPlan(parse_faults("cc_hang:1"))
        with pytest.raises(CompileTimeout):
            hang.cc_fault(timeout=10.0)
        crash = FaultPlan(parse_faults("cc_crash:1"))
        with pytest.raises(ToolchainCrash) as info:
            crash.cc_fault()
        assert info.value.returncode == -signal.SIGSEGV

    def test_corrupt_cache_text_truncates(self):
        plan = FaultPlan(parse_faults("cache_corrupt:1"))
        text = "x" * 300
        torn = plan.corrupt_cache_text(text)
        assert len(torn) == 100 and not plan.corrupt_cache_text("")

    def test_worker_kill_is_inert_outside_pool_workers(self):
        plan = FaultPlan(parse_faults("worker_kill:1"))
        plan.maybe_kill_worker()  # parent process: must be a no-op
        assert plan.fired("worker_kill") == 0

    def test_active_plan_tracks_the_environment(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        assert active_plan() is None
        monkeypatch.setenv(FAULTS_ENV, "cc_hang:0.5")
        monkeypatch.setenv(FAULTS_SEED_ENV, "3")
        plan = active_plan()
        assert plan is not None and plan.seed == 3
        assert active_plan() is plan  # cached while the env is unchanged
        monkeypatch.delenv(FAULTS_ENV)
        assert active_plan() is None


# -- cache integrity and self-healing -------------------------------------------------------


class TestCacheIntegrity:
    def _fresh(self, directory):
        return CompileCache(directory=directory, use_env_directory=False)

    def _seed_entry(self, tmp_path):
        cache = self._fresh(tmp_path)
        cache.get_or_compile(SAXPY, "gcc")
        key = cache_key(SAXPY, "gcc")
        return key, tmp_path / f"{key}.json"

    def test_entries_are_checksummed_envelopes(self, tmp_path):
        _, path = self._seed_entry(tmp_path)
        document = json.loads(path.read_text())
        assert document["format"] == CACHE_FORMAT
        assert document["sha256"] == payload_digest(document["payload"])
        assert document["payload"]["pipeline"] == "gcc"

    def test_truncated_entry_is_quarantined_not_raised(self, tmp_path):
        _, path = self._seed_entry(tmp_path)
        path.write_text(path.read_text()[:50], encoding="utf-8")  # torn write
        before = PERF.snapshot()
        cache = self._fresh(tmp_path)
        result = cache.get_or_compile(SAXPY, "gcc")
        assert not result.cache_hit
        assert cache.stats.quarantined == 1
        assert PERF.delta_since(before).get("compile_cache.corrupt_evicted") == 1
        quarantined = list((tmp_path / QUARANTINE_DIR).iterdir())
        assert len(quarantined) == 1  # kept as forensic evidence
        # The store healed itself: the key now holds a fresh, valid entry.
        assert self._fresh(tmp_path).get_or_compile(SAXPY, "gcc").cache_hit

    def test_tampered_payload_fails_the_checksum(self, tmp_path):
        _, path = self._seed_entry(tmp_path)
        document = json.loads(path.read_text())
        document["payload"]["code"] = "import os  # tampered"
        path.write_text(json.dumps(document), encoding="utf-8")
        cache = self._fresh(tmp_path)
        assert not cache.get_or_compile(SAXPY, "gcc").cache_hit
        assert cache.stats.quarantined == 1

    def test_alien_envelope_format_is_quarantined(self, tmp_path):
        _, path = self._seed_entry(tmp_path)
        document = json.loads(path.read_text())
        document["format"] = "somebody-elses-cache/v9"
        path.write_text(json.dumps(document), encoding="utf-8")
        cache = self._fresh(tmp_path)
        assert not cache.get_or_compile(SAXPY, "gcc").cache_hit
        assert cache.stats.quarantined == 1

    def test_bare_payload_entries_are_quarantined(self, tmp_path):
        # A payload stored without the checksummed envelope has nothing
        # to verify it against; it is quarantined, never served.
        _, path = self._seed_entry(tmp_path)
        document = json.loads(path.read_text())
        path.write_text(json.dumps(document["payload"]), encoding="utf-8")
        cache = self._fresh(tmp_path)
        assert not cache.get_or_compile(SAXPY, "gcc").cache_hit
        assert cache.stats.quarantined == 1

    def test_contains_rejects_corrupt_entries_too(self, tmp_path):
        key, path = self._seed_entry(tmp_path)
        path.write_text("garbage", encoding="utf-8")
        assert key not in self._fresh(tmp_path)


# -- the toolchain under fire ---------------------------------------------------------------

requires_cc = pytest.mark.skipif(not have_compiler(), reason="no C compiler on PATH")


class TestToolchainBoundedExecution:
    def test_cc_timeout_env_parsing(self, monkeypatch):
        monkeypatch.delenv(CC_TIMEOUT_ENV, raising=False)
        assert cc_timeout() == DEFAULT_CC_TIMEOUT
        monkeypatch.setenv(CC_TIMEOUT_ENV, "7.5")
        assert cc_timeout() == 7.5
        monkeypatch.setenv(CC_TIMEOUT_ENV, "0")
        assert cc_timeout() is None  # explicit opt-out
        monkeypatch.setenv(CC_TIMEOUT_ENV, "soon")
        assert cc_timeout() == DEFAULT_CC_TIMEOUT

    def test_hung_compiler_is_killed_and_typed(self, tmp_path, monkeypatch):
        monkeypatch.setenv(NATIVE_CACHE_ENV, str(tmp_path / "native"))
        monkeypatch.setenv(CC_ENV, _write_script(tmp_path / "hangcc", "sleep 600\n"))
        before = PERF.snapshot()
        with pytest.raises(CompileTimeout) as info:
            compile_shared(MINIMAL_C, timeout=0.4, retry=RetryPolicy.none())
        assert info.value.seconds == 0.4
        assert PERF.delta_since(before).get("toolchain.cc_timeouts") == 1

    def test_signal_killed_compiler_is_a_crash_not_a_diagnosis(self, tmp_path, monkeypatch):
        monkeypatch.setenv(NATIVE_CACHE_ENV, str(tmp_path / "native"))
        monkeypatch.setenv(CC_ENV, _write_script(tmp_path / "crashcc", "kill -SEGV $$\n"))
        with pytest.raises(ToolchainCrash) as info:
            compile_shared(MINIMAL_C, retry=RetryPolicy.none())
        assert info.value.returncode == -signal.SIGSEGV

    def test_nonzero_exit_stays_a_permanent_diagnosis(self, tmp_path, monkeypatch):
        monkeypatch.setenv(NATIVE_CACHE_ENV, str(tmp_path / "native"))
        monkeypatch.setenv(
            CC_ENV,
            _write_script(tmp_path / "failcc", "echo 'probe.c:1: error: no' >&2\nexit 1\n"),
        )
        sleeps = []
        with pytest.raises(ToolchainError, match="error: no"):
            compile_shared(MINIMAL_C, retry=RetryPolicy(sleep=sleeps.append))
        assert sleeps == []  # diagnosed failures are never retried

    @requires_cc
    def test_flaky_compiler_succeeds_on_retry(self, tmp_path, monkeypatch):
        marker = tmp_path / "crashed-once"
        real_cc = "gcc" if os.path.exists("/usr/bin/gcc") else "cc"
        script = _write_script(
            tmp_path / "flakycc",
            f'if [ ! -e "{marker}" ]; then touch "{marker}"; kill -KILL $$; fi\n'
            f'exec {real_cc} "$@"\n',
        )
        monkeypatch.setenv(NATIVE_CACHE_ENV, str(tmp_path / "native"))
        monkeypatch.setenv(CC_ENV, script)
        sleeps = []
        before = PERF.snapshot()
        library = compile_shared(
            MINIMAL_C, retry=RetryPolicy(max_attempts=3, sleep=sleeps.append)
        )
        assert library.exists() and marker.exists()
        assert sleeps == [0.05]  # exactly one retry, deterministic backoff
        assert PERF.delta_since(before).get("toolchain.cc_retries") == 1

    @requires_cc
    def test_corrupt_shared_object_self_heals(self, tmp_path, monkeypatch):
        monkeypatch.setenv(NATIVE_CACHE_ENV, str(tmp_path / "native"))
        spec = get_pipeline("dcir").with_codegen(backend="native")
        result = compile_c(SAXPY, spec)
        assert result.backend == "native" and result.native_code is not None
        # Build the .so WITHOUT loading it (a dlopen'd library is mapped
        # into this process; garbling the backing file would SIGBUS us —
        # the scenario here is corruption found by a *fresh* process).
        # The library name must match what from_code derives from the ABI.
        import re

        from repro.codegen.toolchain import parse_abi

        abi = parse_abi(result.native_code)
        safe = re.sub(r"[^A-Za-z0-9_.-]", "_", str(abi.get("name") or "program"))
        library = compile_shared(result.native_code, name=safe)
        library.write_bytes(b"not an ELF object")  # torn write / bad disk
        before = PERF.snapshot()
        native = CompiledNative.from_code(result.native_code)
        from repro.pipeline.pipelines import load_runner

        reference = load_runner(result.code)()
        assert native.run()["__return"] == reference["__return"]
        assert PERF.delta_since(before).get("toolchain.so_corrupt_evicted") == 1


# -- batch compilation: deadlines, retries, crash isolation ---------------------------------


class TestBatchResilience:
    def test_spent_deadline_is_a_typed_timeout_outcome(self):
        sleeps = []
        outcomes = compile_many(
            [CompileRequest(source=SAXPY, pipeline="gcc", timeout=0.0)],
            executor="serial",
            retry_policy=RetryPolicy(max_attempts=2, sleep=sleeps.append),
        )
        (outcome,) = outcomes
        assert not outcome.ok
        assert outcome.error_type == "CompileTimeout"
        assert outcome.failure_kind == "timeout"
        assert outcome.attempts == 2  # transient: retried up to the policy bound
        assert sleeps == [0.05]

    def test_default_timeout_applies_to_requests_without_their_own(self):
        outcomes = compile_many(
            [CompileRequest(source=SAXPY, pipeline="gcc"),
             CompileRequest(source=SAXPY, pipeline="dcir", timeout=60.0)],
            executor="serial",
            retry_policy=RetryPolicy.none(),
            timeout=0.0,
        )
        assert outcomes[0].failure_kind == "timeout"  # inherited the 0s default
        assert outcomes[1].ok  # per-request deadline wins
        assert outcomes[1].result.timeout == 60.0  # threaded to the result

    def test_permanent_errors_are_not_retried(self):
        sleeps = []
        outcomes = compile_many(
            ["int broken( {"],  # parse error: request's own fault
            executor="serial",
            retry_policy=RetryPolicy(max_attempts=5, sleep=sleeps.append),
        )
        assert not outcomes[0].ok
        assert outcomes[0].attempts == 1 and sleeps == []
        assert outcomes[0].failure_kind == "permanent"

    def test_batch_survives_one_killed_worker(self, tmp_path, monkeypatch):
        budget = tmp_path / "budget"
        budget.mkdir()
        monkeypatch.setenv(FAULTS_ENV, "worker_kill:1:1")
        monkeypatch.setenv(FAULTS_DIR_ENV, str(budget))
        reset_plan()
        before = PERF.snapshot()
        outcomes = compile_many(
            _kernels(4),
            executor="process",
            max_workers=2,
            retry_policy=RetryPolicy(max_attempts=3, sleep=lambda _s: None),
        )
        assert all(outcome.ok for outcome in outcomes)  # zero casualties
        assert any(outcome.attempts >= 2 for outcome in outcomes)  # lost work redone
        delta = PERF.delta_since(before)
        assert delta.get("compile_batch.workers_lost", 0) >= 1
        assert delta.get("compile_batch.pool_respawns", 0) == 1
        assert len(list(budget.iterdir())) == 1  # exactly one kill was claimed

    def test_unrecoverable_pool_reports_worker_lost_not_a_crash(self, monkeypatch):
        # Every worker kills itself on every task: the respawned pool dies
        # too, and the batch must degrade into typed WorkerLost outcomes.
        monkeypatch.setenv(FAULTS_ENV, "worker_kill:1")
        monkeypatch.delenv(FAULTS_DIR_ENV, raising=False)
        reset_plan()
        outcomes = compile_many(
            _kernels(3),
            executor="process",
            max_workers=2,
            retry_policy=RetryPolicy.none(),
        )
        assert len(outcomes) == 3
        lost = [o for o in outcomes if not o.ok]
        assert lost, "expected at least one lost request"
        for outcome in lost:
            assert outcome.error_type == "WorkerLost"
            assert outcome.failure_kind == "worker-lost"
        # Anything that did finish finished correctly (serial degradation).
        for outcome in outcomes:
            if outcome.ok:
                assert outcome.result.run()["__return"] is not None

    def test_injected_cache_corruption_heals_end_to_end(self, tmp_path, monkeypatch):
        cache_dir = tmp_path / "cache"
        monkeypatch.setenv(FAULTS_ENV, "cache_corrupt:1:1")
        monkeypatch.setenv(FAULTS_SEED_ENV, "0")
        reset_plan()
        writer = CompileCache(directory=cache_dir, use_env_directory=False)
        writer.get_or_compile(SAXPY, "gcc")  # store fires the torn write
        monkeypatch.delenv(FAULTS_ENV)
        reset_plan()
        reader = CompileCache(directory=cache_dir, use_env_directory=False)
        result = reader.get_or_compile(SAXPY, "gcc")
        assert not result.cache_hit  # torn entry was a miss...
        assert reader.stats.quarantined == 1  # ...and was quarantined
        assert result.run()["__return"] == pytest.approx(212.0, rel=1e-9)


# -- suite-level reporting ------------------------------------------------------------------


class TestSuiteResilienceReporting:
    def test_entries_carry_taxonomy_and_attempts(self, tmp_path):
        session = Session(cache_dir=tmp_path, executor="serial")
        report = session.run_suite({"bad": "int broken( {"}, pipelines=("gcc",))
        (entry,) = report.entries
        assert not entry.ok
        assert entry.failure_kind == "permanent"
        assert entry.attempts == 1
        assert report.to_dict()["schema"] == "repro-suite/v2"
        assert report.to_dict()["entries"][0]["failure_kind"] == "permanent"

    def test_degraded_backend_is_recorded_per_entry(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CC_ENV, "/nonexistent/compiler")
        spec = get_pipeline("dcir").with_codegen(backend="native")
        session = Session(cache_dir=tmp_path, executor="serial")
        with pytest.warns(RuntimeWarning, match="Native backend unavailable"):
            report = session.run_suite({"saxpy": SAXPY}, pipelines=(spec,))
        (entry,) = report.entries
        assert entry.ok  # fallback mode: degraded, not failed
        assert "No C compiler available" in entry.degraded
        assert report.degraded_entries == [entry]
        assert report.to_dict()["degraded"] == 1
        assert "degraded backends" in report.table()

    def test_strict_sessions_surface_the_typed_error(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CC_ENV, "/nonexistent/compiler")
        spec = get_pipeline("dcir").with_codegen(backend="native")
        session = Session(cache_dir=tmp_path, executor="serial", degradation="strict")
        report = session.run_suite({"saxpy": SAXPY}, pipelines=(spec,))
        (entry,) = report.entries
        assert not entry.ok
        assert entry.error_type == "ToolchainError"
        assert entry.failure_kind == "permanent"
        assert "No C compiler available" in entry.error
