"""A local, in-process MapReduce engine.

The paper scales knowledge fusion "by using a MapReduce based
framework" (after Dong et al. [13]) and plans a distributed inference
architecture "inherent in the MapReduce architectures" (Sec. 3.1).
This engine reproduces the programming model on one machine, in one
process: mappers emit key/value pairs, an optional combiner
pre-aggregates per partition, the shuffle groups values by key, and
reducers fold each key's values.  Jobs can be chained, which is how
the iterative fusion algorithms run (one job per EM round).  Exactness
at scale comes from partitioning the claim graph into connected
components (:mod:`repro.fusion.sharding`), not from worker processes.

The engine is deterministic: partition results are merged in partition
order, reducer input preserves emission order and reducers run in
sorted key order, so the output is a function of the records and the
partition count alone.

Fault tolerance: every map partition and reduce chunk runs as an
individually retried task under the job's :class:`RetryPolicy` (one
attempt when none is given) — deterministic exponential backoff
(injectable ``sleep`` and ``clock``, so tests never wait), per-task
deadlines checked against measured duration, and optional re-splitting
of a poison partition down to single records to isolate (and
drop-count) the offending one.  A :class:`repro.faults.FaultPlan`
hooks into the same task wrappers.  Reduce key-groups are batched into
at most :data:`REDUCE_CHUNKS` chunks, a function of the key count
alone, so a fault plan's ``"reduce"`` task index names the same keys
on every machine.  A task that fails every allowed attempt raises
:class:`~repro.errors.RetryExhaustedError`; retries of a deterministic
task cannot change its result, so output stays byte-identical to an
unfaulted run whenever the job completes.
"""

from __future__ import annotations

import functools
import random
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from typing import Any, Generic, Hashable, TypeVar

from repro.errors import ReproError, RetryExhaustedError, StageTimeoutError
from repro.faults import FaultPlan

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")

Mapper = Callable[[Any], Iterable[tuple[K, V]]]
Reducer = Callable[[K, list[V]], Iterable[Any]]
Combiner = Callable[[K, list[V]], Iterable[V]]

# Upper bound on a job's reduce tasks.  Fixed, so chunk boundaries
# (and the fault-plan indexes that address them) do not depend on the
# machine.
REDUCE_CHUNKS = 8


@dataclass(slots=True)
class JobStats:
    """Counters of one job execution.

    ``attempts`` counts every task run: map partitions plus reduce
    chunks on an unfaulted job, more when tasks are retried.
    """

    input_records: int = 0
    map_output_records: int = 0
    combine_output_records: int = 0
    reduce_groups: int = 0
    output_records: int = 0
    # Task-dispatch counters:
    attempts: int = 0
    retries: int = 0
    timed_out_tasks: int = 0
    poisoned_records: int = 0


@dataclass(slots=True)
class RetryPolicy:
    """How a job retries failed map/reduce tasks.

    ``backoff(n)`` is a deterministic exponential:
    ``backoff_base * 2**n`` seconds before the (n+2)-th attempt.  Both
    ``sleep`` and ``clock`` are injectable so chaos tests measure and
    wait in fake time.  ``timeout`` bounds one task's measured duration
    (real wall time plus any injected slow-call seconds); a breach
    counts in ``JobStats.timed_out_tasks`` and is retried like a crash.
    With ``resplit_poison`` a partition that fails every attempt is
    re-split into single-record tasks: records that still fail are
    dropped and counted in ``JobStats.poisoned_records`` instead of
    sinking the job (reduce chunks re-split into single key-groups the
    same way).

    ``jitter`` (default 0: off, byte-identical to the plain
    exponential) spreads each delay uniformly over
    ``[delay*(1-jitter), delay*(1+jitter)]`` so concurrent consumers
    sharing a policy shape do not retry in lockstep.  The spread is a
    *pure function* of ``(jitter_seed, retry_number)`` — not of call
    order — so a schedule is exactly reproducible per seed; pass
    ``jitter_rng`` (``retry_number -> [0, 1)``) to inject a different
    deterministic source.
    """

    max_attempts: int = 3
    backoff_base: float = 0.05
    timeout: float | None = None
    resplit_poison: bool = False
    sleep: Callable[[float], None] = time.sleep
    clock: Callable[[], float] = time.perf_counter
    jitter: float = 0.0
    jitter_seed: int = 0
    jitter_rng: Callable[[int], float] | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ReproError("max_attempts must be >= 1")
        if self.backoff_base < 0:
            raise ReproError("backoff_base must be >= 0")
        if self.timeout is not None and self.timeout <= 0:
            raise ReproError("timeout must be positive")
        if not 0.0 <= self.jitter < 1.0:
            raise ReproError("jitter must lie in [0, 1)")

    def backoff(self, retry_number: int) -> float:
        """Seconds to wait before retry ``retry_number`` (0-based)."""
        delay = self.backoff_base * (2.0 ** retry_number)
        if self.jitter > 0.0:
            if self.jitter_rng is not None:
                unit = self.jitter_rng(retry_number)
            else:
                # Distinct int per (seed, retry): pure function of both,
                # so call order never shifts the schedule.
                unit = random.Random(
                    self.jitter_seed * 2_654_435_761 + retry_number
                ).random()
            delay *= 1.0 + self.jitter * (2.0 * unit - 1.0)
        return delay


def _map_partition(
    mapper: Mapper,
    combiner: Combiner | None,
    partition: list[Any],
) -> tuple[list[tuple[Any, list[Any]]], int, int, int]:
    """Map (+ optionally combine) one partition.

    Returns the emitted groups in first-emission order plus the
    partition's counter deltas.
    """
    emitted: dict[Any, list[Any]] = {}
    input_records = 0
    map_output = 0
    for record in partition:
        input_records += 1
        for key, value in mapper(record):
            emitted.setdefault(key, []).append(value)
            map_output += 1
    combine_output = 0
    if combiner is not None:
        combined: dict[Any, list[Any]] = {}
        for key, values in emitted.items():
            combined[key] = list(combiner(key, values))
            combine_output += len(combined[key])
        emitted = combined
    return list(emitted.items()), input_records, map_output, combine_output


def _reduce_chunk(
    reducer: Reducer, groups: list[tuple[Any, list[Any]]]
) -> list[list[Any]]:
    """Reduce a chunk of key-groups; one output list per group."""
    return [list(reducer(key, values)) for key, values in groups]


class MapReduceJob(Generic[K, V]):
    """One map → (combine) → shuffle → reduce job.

    Parameters
    ----------
    mapper:
        ``record -> iterable of (key, value)``.
    reducer:
        ``(key, [values]) -> iterable of output records``.
    combiner:
        Optional ``(key, [values]) -> iterable of values`` run per
        partition before the shuffle (classic associative
        pre-aggregation).
    partitions:
        Number of map partitions; affects only grouping of combiner
        input and the granularity of map tasks, never results.
    retry:
        Optional :class:`RetryPolicy`: per-task retries with
        deterministic backoff, deadline checks and poison isolation.
        ``None`` means a budget of one attempt ("retries disabled").
        A task failure surfaces as
        :class:`~repro.errors.RetryExhaustedError`, chained to the
        task's last exception, once the attempt budget is spent.
    fault_plan:
        Optional :class:`repro.faults.FaultPlan` hooked into the map
        and reduce task wrappers (scopes ``"map"``/``"reduce"``,
        indexed by partition/chunk) for deterministic chaos testing.
    metrics:
        Optional :class:`repro.obs.MetricsRegistry`.  When set,
        ``run()`` publishes every :class:`JobStats` counter as a
        ``mapreduce_*`` metric (even when the job raises) and counts
        dispatch waves per scope (``mapreduce_waves_total``) and times
        them (``mapreduce_wave_seconds``).
    """

    def __init__(
        self,
        mapper: Mapper,
        reducer: Reducer,
        *,
        combiner: Combiner | None = None,
        partitions: int = 4,
        retry: RetryPolicy | None = None,
        fault_plan: FaultPlan | None = None,
        metrics=None,
    ) -> None:
        if partitions < 1:
            raise ReproError("partitions must be >= 1")
        self.mapper = mapper
        self.reducer = reducer
        self.combiner = combiner
        self.partitions = partitions
        self.retry = retry
        self.fault_plan = fault_plan
        self.metrics = metrics
        self.stats = JobStats()

    # ------------------------------------------------------------------
    def run(self, records: Iterable[Any]) -> list[Any]:
        """Execute the job and return the collected reducer output."""
        self.stats = JobStats()
        partitions = self._split(records)
        try:
            return self._execute(partitions)
        finally:
            self._publish_stats()

    def _publish_stats(self) -> None:
        """Fold this run's ``JobStats`` into the metrics registry.

        Runs even when the job raised, so a failed run's attempt and
        poison counters are still visible.
        """
        if self.metrics is None:
            return
        stats = self.stats
        metrics = self.metrics
        metrics.counter("mapreduce_jobs_total").inc()
        metrics.counter(
            "mapreduce_input_records_total"
        ).inc(stats.input_records)
        metrics.counter(
            "mapreduce_map_output_records_total"
        ).inc(stats.map_output_records)
        metrics.counter(
            "mapreduce_combine_output_records_total"
        ).inc(stats.combine_output_records)
        metrics.counter(
            "mapreduce_reduce_groups_total"
        ).inc(stats.reduce_groups)
        metrics.counter(
            "mapreduce_output_records_total"
        ).inc(stats.output_records)
        metrics.counter("mapreduce_attempts_total").inc(stats.attempts)
        metrics.counter("mapreduce_retries_total").inc(stats.retries)
        metrics.counter(
            "mapreduce_timed_out_tasks_total"
        ).inc(stats.timed_out_tasks)
        metrics.counter(
            "mapreduce_poisoned_records_total"
        ).inc(stats.poisoned_records)

    def _execute(self, partitions: list[list[Any]]) -> list[Any]:
        # Map (+ optional combine) per partition; partition results are
        # merged in partition order.
        partition_results = self._run_guarded(
            _GuardedTask(
                functools.partial(_map_partition, self.mapper, self.combiner),
                "map",
                self.fault_plan,
            ),
            partitions,
            scope="map",
            resplit=_merge_partition_results,
        )

        shuffled: dict[K, list[V]] = {}
        for result in partition_results:
            if result is None:
                continue  # fully-poisoned partition dropped by resplit
            groups, input_records, map_output, combine_output = result
            self.stats.input_records += input_records
            self.stats.map_output_records += map_output
            self.stats.combine_output_records += combine_output
            for key, values in groups:
                shuffled.setdefault(key, []).extend(values)

        # Reduce in deterministic key order.
        keys = sorted(shuffled, key=repr)
        self.stats.reduce_groups = len(keys)
        output: list[Any] = []
        if keys:
            chunk_outputs = self._run_guarded(
                _GuardedTask(
                    functools.partial(_reduce_chunk, self.reducer),
                    "reduce",
                    self.fault_plan,
                ),
                _chunk_groups(keys, shuffled),
                scope="reduce",
                resplit=_merge_chunk_outputs,
            )
            for chunk_output in chunk_outputs:
                if chunk_output is None:
                    continue
                for group_output in chunk_output:
                    output.extend(group_output)
        self.stats.output_records = len(output)
        return output

    # ------------------------------------------------------------------
    # Task dispatch: retries, deadlines and poison isolation.

    def _run_guarded(
        self,
        task: "_GuardedTask",
        payloads: list[list[Any]],
        *,
        scope: str,
        resplit: Callable[[list[Any]], Any] | None,
        allow_resplit: bool = True,
    ) -> list[Any]:
        """Run one payload per task with the effective retry policy.

        Returns results aligned with ``payloads``; a payload whose
        every record/group is poison yields ``None`` (dropped).  All
        tasks start together, so pending tasks share one attempt
        counter and one deterministic backoff schedule.
        """
        policy = self.retry or _SINGLE_ATTEMPT
        results: list[Any] = [None] * len(payloads)
        pending = list(range(len(payloads)))
        attempt = 0
        while pending:
            wave_started = time.perf_counter()
            if self.metrics is not None:
                self.metrics.counter(
                    "mapreduce_waves_total", scope=scope
                ).inc()
            failed: list[tuple[int, Exception]] = []
            for index in pending:
                self.stats.attempts += 1
                try:
                    result, seconds = task(
                        (index, attempt, payloads[index])
                    )
                    if (
                        policy.timeout is not None
                        and seconds > policy.timeout
                    ):
                        self.stats.timed_out_tasks += 1
                        raise StageTimeoutError(
                            f"{scope} task {index} ran {seconds:.3f}s, "
                            f"deadline {policy.timeout}s"
                        )
                    results[index] = result
                except Exception as exc:
                    failed.append((index, exc))
            if self.metrics is not None:
                self.metrics.histogram(
                    "mapreduce_wave_seconds", scope=scope
                ).observe(time.perf_counter() - wave_started)
            if not failed:
                break
            attempt += 1
            if attempt >= policy.max_attempts:
                for index, exc in failed:
                    if (
                        allow_resplit
                        and resplit is not None
                        and policy.resplit_poison
                        and len(payloads[index]) > 1
                    ):
                        results[index] = self._isolate_poison(
                            task, payloads[index], scope, resplit
                        )
                    else:
                        raise RetryExhaustedError(
                            f"{scope} task {index} failed after "
                            f"{attempt} attempt(s): {exc!r}"
                        ) from exc
                break
            self.stats.retries += len(failed)
            policy.sleep(policy.backoff(attempt - 1))
            pending = [index for index, _exc in failed]
        return results

    def _isolate_poison(
        self,
        task: "_GuardedTask",
        payload: list[Any],
        scope: str,
        resplit: Callable[[list[Any]], Any],
    ):
        """Re-split an exhausted payload into single-element tasks.

        Elements that still fail every attempt are dropped and counted
        in ``JobStats.poisoned_records``; survivors are merged back in
        their original order, so output order matches an unfaulted run
        minus the poison.  Returns None when nothing survived.
        """
        survivors: list[Any] = []
        for element in payload:
            try:
                sub_results = self._run_guarded(
                    task,
                    [[element]],
                    scope=f"{scope}.resplit",
                    resplit=None,
                    allow_resplit=False,
                )
                survivors.append(sub_results[0])
            except RetryExhaustedError:
                self.stats.poisoned_records += 1
        if not survivors:
            return None
        return resplit(survivors)

    def _split(self, records: Iterable[Any]) -> list[list[Any]]:
        partitions: list[list[Any]] = [[] for _ in range(self.partitions)]
        for index, record in enumerate(records):
            partitions[index % self.partitions].append(record)
        return partitions


class _GuardedTask:
    """Task wrapper: fault hooks plus duration measurement.

    Called with ``(index, attempt, payload)`` so the fault plan can
    address tasks deterministically; returns ``(result, seconds)``
    where seconds include any injected slow-call time.
    """

    __slots__ = ("task", "scope", "plan")

    def __init__(
        self, task, scope: str, plan: FaultPlan | None
    ) -> None:
        self.task = task
        self.scope = scope
        self.plan = plan

    def __call__(self, spec: tuple[int, int, Any]):
        index, attempt, payload = spec
        extra = 0.0
        if self.plan is not None:
            extra = self.plan.task_delay(self.scope, index, attempt)
        started = time.perf_counter()
        result = self.task(payload)
        return result, time.perf_counter() - started + extra


# "Retries disabled": the one-attempt budget of a job without a retry
# policy.
_SINGLE_ATTEMPT = RetryPolicy(max_attempts=1, backoff_base=0.0)


def _chunk_groups(
    keys: list[Any], shuffled: dict[Any, list[Any]]
) -> list[list[tuple[Any, list[Any]]]]:
    """Key-groups batched into at most :data:`REDUCE_CHUNKS` tasks."""
    chunk_size = max(1, -(-len(keys) // REDUCE_CHUNKS))
    return [
        [(key, shuffled[key]) for key in keys[start : start + chunk_size]]
        for start in range(0, len(keys), chunk_size)
    ]


def _merge_partition_results(survivors: list[Any]):
    """Merge single-record map results back into one partition result.

    Groups are concatenated per key in first-emission order (the same
    order ``_map_partition`` would have produced for the surviving
    records) and counters are summed.
    """
    merged: dict[Any, list[Any]] = {}
    input_records = map_output = combine_output = 0
    for groups, sub_inputs, sub_map, sub_combine in survivors:
        input_records += sub_inputs
        map_output += sub_map
        combine_output += sub_combine
        for key, values in groups:
            merged.setdefault(key, []).extend(values)
    return list(merged.items()), input_records, map_output, combine_output


def _merge_chunk_outputs(survivors: list[Any]):
    """Merge single-group reduce results back into one chunk output."""
    return [
        group_output
        for chunk_output in survivors
        for group_output in chunk_output
    ]


@dataclass(slots=True)
class Pipeline:
    """A chain of jobs: each job's output feeds the next job's mapper."""

    jobs: list[MapReduceJob] = field(default_factory=list)

    def add(self, job: MapReduceJob) -> "Pipeline":
        self.jobs.append(job)
        return self

    def run(self, records: Iterable[Any]) -> list[Any]:
        current: Iterable[Any] = records
        output: list[Any] = list(current)
        for job in self.jobs:
            output = job.run(output)
        return output


def _wc_mapper(doc: str) -> list[tuple[str, int]]:
    return [(word.lower(), 1) for word in doc.split()]


def _wc_reducer(word: str, counts: list[int]) -> list[tuple[str, int]]:
    return [(word, sum(counts))]


def _wc_combiner(_word: str, counts: list[int]) -> list[int]:
    return [sum(counts)]


def word_count(documents: Iterable[str]) -> dict[str, int]:
    """The canonical demo job; doubles as an engine self-test."""
    job: MapReduceJob[str, int] = MapReduceJob(
        mapper=_wc_mapper,
        reducer=_wc_reducer,
        combiner=_wc_combiner,
    )
    return dict(job.run(documents))
