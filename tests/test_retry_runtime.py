"""Fault-tolerant campaign runtime: retries, deadlines, chaos, quarantine.

The executor contract (DESIGN.md §12): any interleaving of worker
crashes, hangs, exceptions, retries, and pool rebuilds yields outcomes
bit-identical to a clean serial run for every non-quarantined spec —
the scenario always rebuilds from its spec's own seed, so recovery
machinery can never change a result, only delay it.
"""

from __future__ import annotations

import pytest

from repro.experiments.retry import RetryPolicy, TaskError
from repro.experiments.runner import (
    CampaignReport,
    ScenarioOutcome,
    ScenarioSpec,
    campaign_spec_key,
    run_campaign,
)
from repro.resilience.chaos import (
    SimulatedWorkerCrash,
    WorkerChaos,
    WorkerChaosError,
)

SPECS = [
    ScenarioSpec("clean", n_days=1, seed=17),
    ScenarioSpec("stuck_at", n_days=1, seed=17),
    ScenarioSpec("calibration", n_days=1, seed=23),
]
KEYS = [campaign_spec_key(spec) for spec in SPECS]

#: No sleeping in tests — retry scheduling never affects results.
FAST = dict(backoff_base=0.0)


@pytest.fixture(scope="module")
def serial_outcomes():
    return run_campaign(SPECS, n_jobs=1).outcomes


def _seed_where(predicate, limit=10_000):
    """First chaos seed whose deterministic draws satisfy ``predicate``."""
    for seed in range(limit):
        if predicate(seed):
            return seed
    raise AssertionError("no chaos seed found; loosen the predicate")


class TestRetryPolicy:
    def test_delay_is_deterministic(self):
        policy = RetryPolicy(backoff_base=0.1)
        assert policy.delay("k", 2) == policy.delay("k", 2)
        assert policy.delay("k", 2) != policy.delay("other", 2)

    def test_delay_grows_and_caps(self):
        policy = RetryPolicy(
            backoff_base=0.1, backoff_cap=0.4, backoff_jitter=0.0
        )
        assert policy.delay("k", 2) == pytest.approx(0.1)
        assert policy.delay("k", 3) == pytest.approx(0.2)
        assert policy.delay("k", 4) == pytest.approx(0.4)
        assert policy.delay("k", 9) == pytest.approx(0.4)  # capped

    def test_jitter_bounded(self):
        policy = RetryPolicy(
            backoff_base=0.1, backoff_cap=10.0, backoff_jitter=0.5
        )
        for attempt in range(2, 8):
            raw = 0.1 * 2 ** (attempt - 2)
            delay = policy.delay("key", attempt)
            assert raw <= delay <= raw * 1.5

    def test_zero_base_never_sleeps(self):
        assert RetryPolicy(backoff_base=0.0).delay("k", 5) == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(max_retries=-1),
            dict(task_timeout=0.0),
            dict(task_timeout=-1.0),
            dict(backoff_base=-0.1),
            dict(backoff_base=1.0, backoff_cap=0.5),
            dict(backoff_jitter=-0.5),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


class TestWorkerChaos:
    def test_draw_is_deterministic_and_per_attempt(self):
        chaos = WorkerChaos(kill_probability=0.5, seed=3)
        draws = [chaos.draw("key", attempt) for attempt in range(1, 20)]
        assert draws == [chaos.draw("key", a) for a in range(1, 20)]
        assert "kill" in draws and None in draws  # both bands hit

    def test_bands_partition(self):
        assert WorkerChaos(kill_probability=1.0).draw("k", 1) == "kill"
        assert WorkerChaos(hang_probability=1.0).draw("k", 1) == "hang"
        assert (
            WorkerChaos(exception_probability=1.0).draw("k", 1) == "exception"
        )
        assert WorkerChaos().draw("k", 1) is None

    def test_seed_changes_draws(self):
        kills = [
            WorkerChaos(kill_probability=0.5, seed=s).draw("key", 1)
            for s in range(40)
        ]
        assert set(kills) == {"kill", None}

    def test_apply_injects_exception(self):
        chaos = WorkerChaos(exception_probability=1.0)
        with pytest.raises(WorkerChaosError):
            chaos.apply("key", 1)

    def test_apply_inline_degrades_kill_and_hang(self):
        with pytest.raises(SimulatedWorkerCrash):
            WorkerChaos(kill_probability=1.0).apply("key", 1, inline=True)
        with pytest.raises(SimulatedWorkerCrash):
            WorkerChaos(hang_probability=1.0).apply("key", 1, inline=True)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(kill_probability=-0.1),
            dict(hang_probability=1.5),
            dict(kill_probability=0.6, hang_probability=0.6),
            dict(hang_seconds=-1.0),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            WorkerChaos(**kwargs)


class TestOutcomeFields:
    def test_defaults_mark_success(self, serial_outcomes):
        outcome = serial_outcomes[0]
        assert outcome.error == ""
        assert outcome.attempts == 1
        assert not outcome.quarantined

    def test_attempts_excluded_from_equality(self, serial_outcomes):
        from dataclasses import replace

        retried = replace(serial_outcomes[0], attempts=4)
        assert retried == serial_outcomes[0]

    def test_json_round_trip(self, serial_outcomes):
        import json

        for outcome in serial_outcomes:
            payload = json.loads(json.dumps(outcome.to_json_dict()))
            assert ScenarioOutcome.from_json_dict(payload) == outcome


class TestInlineRecovery:
    """Serial path: same retry/quarantine semantics, no pool."""

    def test_retry_then_success_is_bit_identical(self, serial_outcomes):
        # A seed whose first attempt on spec 0 fails but second succeeds.
        key = KEYS[0]
        seed = _seed_where(
            lambda s: (
                WorkerChaos(exception_probability=0.5, seed=s).draw(key, 1)
                == "exception"
                and WorkerChaos(exception_probability=0.5, seed=s).draw(
                    key, 2
                )
                is None
            )
        )
        chaos = WorkerChaos(exception_probability=0.5, seed=seed)
        report = run_campaign(
            SPECS[:1],
            n_jobs=1,
            chaos=chaos,
            policy=RetryPolicy(max_retries=2, **FAST),
        )
        assert report.outcomes == serial_outcomes[:1]
        assert report.outcomes[0].digest == serial_outcomes[0].digest
        assert report.outcomes[0].attempts == 2
        assert report.n_retries == 1
        assert report.ok

    def test_poison_spec_is_quarantined_not_fatal(self, serial_outcomes):
        chaos = WorkerChaos(exception_probability=1.0)
        report = run_campaign(
            SPECS,
            n_jobs=1,
            chaos=chaos,
            policy=RetryPolicy(max_retries=1, **FAST),
        )
        # Every spec fails every attempt; the campaign still returns.
        assert len(report.outcomes) == len(SPECS)
        assert [o.quarantined for o in report.outcomes] == [True] * 3
        assert all(o.attempts == 2 for o in report.outcomes)
        assert all("WorkerChaosError" in o.error for o in report.outcomes)
        assert all(o.digest == "" for o in report.outcomes)
        assert not report.ok
        assert len(report.quarantined) == 3

    def test_partial_poison_salvages_the_rest(self, serial_outcomes):
        # Poison only spec 1; specs 0 and 2 must come through untouched.
        key = KEYS[1]
        seed = _seed_where(
            lambda s: all(
                WorkerChaos(exception_probability=0.35, seed=s).draw(
                    key, a
                )
                == "exception"
                for a in (1, 2)
            )
            and all(
                WorkerChaos(exception_probability=0.35, seed=s).draw(k, a)
                is None
                for k in (KEYS[0], KEYS[2])
                for a in (1,)
            )
        )
        chaos = WorkerChaos(exception_probability=0.35, seed=seed)
        report = run_campaign(
            SPECS,
            n_jobs=1,
            chaos=chaos,
            policy=RetryPolicy(max_retries=1, **FAST),
        )
        assert report.outcomes[1].quarantined
        assert report.outcomes[0] == serial_outcomes[0]
        assert report.outcomes[2] == serial_outcomes[2]
        # Quarantined placeholders carry the spec key (no run label).
        assert report.outcomes[1].name == SPECS[1].name

    def test_simulated_kill_counts_as_worker_crash(self):
        chaos = WorkerChaos(kill_probability=1.0)
        report = run_campaign(
            SPECS[:1],
            n_jobs=1,
            chaos=chaos,
            policy=RetryPolicy(max_retries=1, **FAST),
        )
        assert report.n_worker_crashes == 2
        assert report.outcomes[0].quarantined
        assert "worker-crash" in report.outcomes[0].error


class TestPoolRecovery:
    """Real process pool: SIGKILLed workers, hung workers, rebuilds."""

    def test_worker_kills_recovered_bit_identically(self, serial_outcomes):
        # At least one first-attempt kill, guaranteed by seed search.
        chaos_for = lambda s: WorkerChaos(kill_probability=0.4, seed=s)
        seed = _seed_where(
            lambda s: any(
                chaos_for(s).draw(key, 1) == "kill" for key in KEYS
            )
            and all(
                any(chaos_for(s).draw(key, a) is None for a in (1, 2, 3, 4))
                for key in KEYS
            )
        )
        report = run_campaign(
            SPECS,
            n_jobs=2,
            chaos=chaos_for(seed),
            policy=RetryPolicy(max_retries=5, **FAST),
        )
        assert report.outcomes == serial_outcomes
        assert [o.digest for o in report.outcomes] == [
            o.digest for o in serial_outcomes
        ]
        assert report.n_worker_crashes >= 1
        assert report.n_pool_rebuilds >= 1
        assert report.ok

    def test_hung_worker_times_out_and_recovers(self, serial_outcomes):
        # Exactly one spec hangs on its first attempt, then runs clean.
        chaos_for = lambda s: WorkerChaos(
            hang_probability=0.3, hang_seconds=600.0, seed=s
        )
        seed = _seed_where(
            lambda s: sum(
                chaos_for(s).draw(key, 1) == "hang" for key in KEYS
            )
            == 1
            and all(
                chaos_for(s).draw(key, a) is None
                for key in KEYS
                for a in (2, 3)
            )
        )
        report = run_campaign(
            SPECS,
            n_jobs=2,
            chaos=chaos_for(seed),
            policy=RetryPolicy(max_retries=3, task_timeout=3.0, **FAST),
        )
        assert report.outcomes == serial_outcomes
        assert report.n_timeouts >= 1
        assert report.n_pool_rebuilds >= 1
        assert report.ok

    def test_no_orphaned_workers_after_recovery(self):
        import multiprocessing
        import time

        chaos = WorkerChaos(kill_probability=0.5, seed=5)
        run_campaign(
            SPECS,
            n_jobs=2,
            chaos=chaos,
            policy=RetryPolicy(max_retries=6, **FAST),
        )
        # The final pool context-exits; rebuilt pools' workers must all
        # have been reclaimed too (SIGTERM + join in _shutdown_pool).
        deadline = time.monotonic() + 10.0
        while multiprocessing.active_children():
            assert time.monotonic() < deadline, (
                f"orphaned workers: {multiprocessing.active_children()}"
            )
            time.sleep(0.1)


class TestBackwardCompatibility:
    def test_report_stats_line(self):
        report = CampaignReport(outcomes=[], n_retries=3, n_timeouts=1)
        line = report.stats_line()
        assert "retries=3" in line and "timeouts=1" in line
        assert report.ok

    def test_task_error_describe(self):
        error = TaskError(kind="timeout", message="too slow")
        assert error.describe() == "timeout: too slow"
        error = TaskError("exception", "boom", "Traceback ...\n")
        assert error.describe() == "exception: boom\nTraceback ..."

    def test_task_error_from_exception(self):
        try:
            raise ValueError("bad window")
        except ValueError as exc:
            error = TaskError.from_exception(exc)
        assert error.kind == "exception"
        assert error.message == "ValueError: bad window"
        assert error.traceback_text.startswith("Traceback")
        assert "ValueError: bad window" in error.traceback_text


class TestSubmitRace:
    """A worker dying between the wait and the next submit."""

    def test_broken_submit_requeues_and_rebuilds(
        self, monkeypatch, serial_outcomes
    ):
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        from repro.experiments import runner

        submits = []

        class BreaksOnSecondSubmit(ProcessPoolExecutor):
            def submit(self, fn, *args, **kwargs):
                submits.append(fn)
                if len(submits) == 2:
                    raise BrokenProcessPool("worker died before submit")
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(runner, "ProcessPoolExecutor", BreaksOnSecondSubmit)
        report = run_campaign(
            SPECS, n_jobs=2, policy=RetryPolicy(max_retries=2, **FAST)
        )
        assert report.outcomes == serial_outcomes
        assert report.n_pool_rebuilds >= 1
        assert report.ok


class TestInvalidSpec:
    """A spec that cannot run is quarantined before any attempt."""

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_quarantined_without_retry_or_backoff(
        self, n_jobs, serial_outcomes, tmp_path
    ):
        from repro.experiments.journal import CampaignJournal

        specs = [
            ScenarioSpec("no_such_scenario", n_days=1, seed=17),
            SPECS[0],
            ScenarioSpec("clean", n_days=0, seed=17),
        ]
        report = run_campaign(
            specs,
            n_jobs=n_jobs,
            # A long backoff: any retry would be visible as a stall.
            policy=RetryPolicy(max_retries=3, backoff_base=5.0, backoff_cap=5.0),
            journal_dir=tmp_path,
        )
        assert report.n_retries == 0
        assert [o.quarantined for o in report.outcomes] == [True, False, True]
        assert report.outcomes[1] == serial_outcomes[0]
        bad, _, no_days = report.outcomes
        assert bad.error.startswith(
            "invalid-spec: unknown scenario 'no_such_scenario'"
        )
        assert no_days.error == (
            "invalid-spec: n_days must be a positive integer, got 0"
        )
        assert bad.attempts == no_days.attempts == 1
        with CampaignJournal(tmp_path) as journal:
            poisoned = [r["key"] for r in journal.poisoned()]
        keys = [campaign_spec_key(spec) for spec in specs]
        assert poisoned == [keys[0], keys[2]]

    def test_negative_seed_is_invalid(self):
        report = run_campaign(
            [ScenarioSpec("clean", n_days=1, seed=-1)],
            n_jobs=1,
            policy=RetryPolicy(max_retries=3, **FAST),
        )
        assert report.n_retries == 0
        assert report.outcomes[0].error == (
            "invalid-spec: seed must be a non-negative integer, got -1"
        )
