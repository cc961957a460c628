"""In-process workloads (``scan``, ``adhoc``, ``worlds``): one client thread,
closed loop, through the program's public entry points.

Untraced runs call ``engine.answer``.  The traced run splits each request
into the identical ``engine.compile`` -> ``engine.plan`` -> ``plan.answer``
calls and records one span per call.
"""

from __future__ import annotations

import gc
import os
import resource
import time
import tracemalloc
from collections import Counter
from pathlib import Path
from typing import NamedTuple

import checks
import oracle

from repro import AggregationEngine
from repro.exceptions import ReproError
from repro.schema.serialize import load_pmapping
from repro.storage.csv_io import load_table_csv

#: Set-ups per run, one before each slice of the loop; ``setup_s`` is
#: their median.  ``adhoc``'s take milliseconds, so it repeats them more.
SETUPS = {"scan": 9, "adhoc": 101, "worlds": 9}
#: Share of a traced run spent untraced, for ``trace.overhead_ratio``; the
#: rest is traced, so rarer lanes still collect 20 spans for a median.
UNTRACED_SHARE = 1.0 / 3.0

clock = time.perf_counter


#: The CPUs this process may use, read before it pins itself to one.
CPUS = sorted(os.sched_getaffinity(0))


def pin(pid: int, slot: int) -> None:
    """Restrict ``pid`` (0: this process) to the ``slot``-th of
    :data:`CPUS`, counting round them; a no-op on one CPU."""
    if len(CPUS) > 1:
        os.sched_setaffinity(pid, {CPUS[slot % len(CPUS)]})


class Request(NamedTuple):
    """One query-stream line.  A tuple of strings, which the cyclic garbage
    collector stops tracking, so the stream adds no work to its passes."""

    q: str  # query text
    m: str  # mapping semantics
    a: str  # aggregate semantics
    check: dict | None = None  # the worlds oracle to check against

    @classmethod
    def from_json(cls, data: dict) -> "Request":
        return cls(data["q"], data["m"], data["a"], data.get("check"))


def load_inputs(directory: Path, manifest: dict) -> tuple[list, list]:
    """The workload's tables and p-mappings, read from the generated files."""
    tables, pmappings = [], []
    for dataset in manifest["datasets"]:
        pmapping = load_pmapping(directory / dataset["mapping"])
        tables.append(load_table_csv(pmapping.source, directory / dataset["csv"]))
        pmappings.append(pmapping)
    return tables, pmappings


def warmup_requests(manifest: dict, stream: list[Request]) -> list[Request]:
    """One request per distinct query text (``adhoc``: its own warm-up list)."""
    if "warmup" in manifest:
        return [Request.from_json(r) for r in manifest["warmup"]]
    first: dict[str, Request] = {}
    for request in stream:
        first.setdefault(request.q, request)
    return list(first.values())


def setup(directory: Path, manifest: dict, warmup: list[Request],
          plans: list[Request]) -> tuple[AggregationEngine, dict]:
    """From files on disk to ready to answer: load, construct, answer each
    warm-up request, and plan every request of a repeating stream, so the
    timed loop meets warm compile and plan caches.  Returns the engine and
    the phase times."""
    t0 = clock()
    tables, pmappings = load_inputs(directory, manifest)
    t1 = clock()
    engine = AggregationEngine(tables, pmappings, **manifest["engine"])
    t2 = clock()
    for request in warmup:
        engine.answer(request.q, request.m, request.a)
    for request in plans:
        engine.plan(request.q, request.m, request.a)
    t3 = clock()
    return engine, {"setup_s": t3 - t0, "load_s": t1 - t0, "init_s": t2 - t1, "warm_s": t3 - t2}


class Loop:
    """The closed loop's bookkeeping: one sample per attempted request.
    The stream repeats when drained, so every request is answered several
    times a run; an ``adhoc`` text then recurs only after thousands of
    others, long evicted from every cache."""

    def __init__(self, stream: list[Request], start: int) -> None:
        self.stream = stream
        self.index = start
        # (stream index, seconds or -1 when failed)
        self.samples: list[tuple[int, float]] = []
        self.errors: Counter = Counter()
        self.elapsed = 0.0

    def next(self) -> tuple[int, Request]:
        index = self.index % len(self.stream)
        self.index += 1
        return index, self.stream[index]


def run_loop(engine, loop: Loop, seconds: float, expected: dict[int, tuple], tracer=None) -> None:
    """Answer requests until ``seconds`` pass, adding to the loop's samples
    and elapsed time.  Every answer must repeat the first answer to the
    same request exactly; that first answer is checked against its
    reference after the loop."""
    begin = clock()
    deadline = begin + seconds
    end = begin
    while end < deadline:
        index, request = loop.next()
        t0 = clock()
        try:
            if tracer is None:
                answer = engine.answer(request.q, request.m, request.a)
            else:
                answer = tracer.request(engine, index, request)
        except ReproError as error:
            end = clock()
            loop.errors[type(error).__name__] += 1
            loop.samples.append((index, -1.0))
            continue
        end = clock()
        answer_canon = checks.canon(answer)
        ok = expected.setdefault(index, answer_canon) == answer_canon
        loop.samples.append((index, end - t0 if ok else -1.0))
    loop.elapsed += end - begin


class Tracer:
    """Spans around the benchmark's own calls into each layer, kept in
    memory.  A span is ``{"id", "parent", "rid", "name", "start", "end"}``
    plus attributes."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.records: list[dict] = []  # per request: plan, record, answer facts

    def _span(self, name, rid, parent, start, end, **attrs) -> int:
        span_id = len(self.spans)
        self.spans.append({"id": span_id, "parent": parent, "rid": rid, "name": name,
                           "start": start, "end": end, **attrs})
        return span_id

    def request(self, engine: AggregationEngine, rid: int, request: Request):
        log = engine.context.query_log
        last = log.recent(1)
        t0 = clock()
        engine.compile(request.q)
        t1 = clock()
        plan = engine.plan(request.q, request.m, request.a)
        t2 = clock()
        try:
            answer = plan.answer()
        finally:
            t3 = clock()
            new = _new_records(last, log.recent(4))
            stats_ = engine.context.last_stats
            lane = stats_["executed_lane"] if stats_ else plan.lane
            root = self._span("request", rid, None, t0, t3)
            self._span("compile", rid, root, t0, t1)
            self._span("plan", rid, root, t1, t2, lane=plan.lane)
            self._span("execute", rid, root, t2, t3, lane=lane)
            record = new[-1] if new else None
            self.records.append({
                "plan_lane": plan.lane,
                "lane": lane,
                "est_rows": getattr(plan.estimate, "rows", None),
                "preempted": getattr(plan.estimate, "preempted", None) is not None,
                "records": len(new),
                "rows": record.rows if record else None,
                "worlds": record.worlds if record else None,
                "epsilon": record.epsilon if record else None,
                "status": record.status if record else None,
                "seconds": t3 - t2,
            })
        distribution = getattr(answer, "distribution", None)
        if distribution is not None:
            self.records[-1]["support"] = len(distribution)
        return answer


def _new_records(last: list, recent: list) -> list:
    """The records in ``recent`` appended after ``last`` (identity match)."""
    for position in range(len(recent) - 1, -1, -1):
        if last and recent[position] is last[0]:
            return recent[position + 1:]
    return recent


# -- correctness references (computed after the timed loop) ---------------


def sqlite_references(directory: Path, manifest: dict, requests: list[Request]) -> dict:
    """By-table answers from the SQLite backend, keyed by (text, aggregate
    semantics): the reference for every by-table cell, and through range
    containment and Theorem 4 for the by-tuple cells."""
    tables, pmappings = load_inputs(directory, manifest)
    references: dict[tuple[str, str], tuple | str] = {}
    with AggregationEngine(tables, pmappings, backend="sqlite") as engine:
        for request in requests:
            key = (request.q, request.a)
            if key not in references:
                try:
                    references[key] = checks.canon(engine.answer(request.q, "by-table", request.a))
                except ReproError as error:
                    references[key] = type(error).__name__
    return references


def valid_by_sqlite(request: Request, answer: tuple, references: dict) -> bool:
    reference = references[(request.q, request.a)]
    return not isinstance(reference, str) and checks.check_against_bytable(
        (request.m, request.a), answer, reference
    )


def worlds_validator(directory: Path, manifest: dict):
    """A function checking one ``worlds`` answer against :mod:`oracle`."""
    datasets = {d["name"]: d for d in manifest["datasets"]}
    sources: dict[str, oracle.Source] = {}
    cache: dict[tuple, object] = {}

    def source(name: str) -> oracle.Source:
        if name not in sources:
            sources[name] = oracle.Source(directory, datasets[name], "value")
        return sources[name]

    def reference(check: dict):
        key = (check["kind"], check["dataset"], check["below"])
        if key not in cache:
            kind, below = check["kind"], check["below"]
            if kind == "count":
                cache[key] = oracle.count_distribution(source(check["dataset"]), below)
            elif kind in ("min", "max"):
                cache[key] = oracle.extreme_distribution(source(check["dataset"]), below, kind.upper())
            elif kind in ("sum", "avg"):
                cache[key] = oracle.enumerate_worlds(source(check["dataset"]), below, kind.upper())
            elif kind == "sum-sampled":
                cache[key] = oracle.sum_bounds(source(check["dataset"]), below)
            elif kind == "avg-sampled":
                cache[key] = oracle.value_bounds(source(check["dataset"]), below)
            else:
                cache[key] = oracle.q2_references(directory, datasets[check["dataset"]])
        return cache[key]

    def within(value: float, bounds: tuple[float, float]) -> bool:
        slack = checks.REL_TOL * max(1.0, abs(bounds[0]), abs(bounds[1]))
        return bounds[0] - slack <= value <= bounds[1] + slack

    def validate(request: Request, answer: tuple) -> bool:
        check, aggregate = request.check, request.a
        ref = reference(check)
        kind = check["kind"]
        if kind in ("count", "min", "max"):
            return checks.same(answer, ref)
        if kind in ("sum", "avg"):
            return checks.same(answer, ref[0] if aggregate == "distribution" else ref[1])
        if kind in ("sum-sampled", "avg-sampled"):
            if answer[0] == "expected-value":
                return within(answer[1], ref)
            pairs = answer[2] or ()
            return abs(sum(p for _, p in pairs) - 1.0) <= 1e-6 and all(within(v, ref) for v, _ in pairs)
        # Q2: range and expected value exactly; a distribution (the probe,
        # once the program answers it) through its support and mean.
        q2_range, q2_expected = ref
        if answer[0] == "range":
            return checks.same(answer, q2_range)
        if answer[0] == "expected-value":
            return checks.same(answer, q2_expected)
        pairs = answer[2] or ()
        mean = sum(v * p for v, p in pairs)
        return checks.close(mean, q2_expected[1], 1e-6) and all(within(v, q2_range[1:]) for v, _ in pairs)

    return validate


# -- the run ---------------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(directory: Path, manifest: dict, stream: list[Request], seconds: float, traced: bool) -> dict:
    """Set up, and run the untraced loop in one slice per set-up, replacing
    the engine by a freshly set-up one before each slice.  The ``setup_s``
    median then samples the host's speed over the whole run, not over a
    few seconds of it.  A traced run traces after the untraced slices, on
    the last engine.  Every answer is checked at the end."""
    workload = manifest["workload"]
    warmup = warmup_requests(manifest, stream)
    # ``adhoc`` meets cold caches by design; the others are planned ahead.
    plans = [] if workload == "adhoc" else stream
    setups = SETUPS[workload]
    untraced_seconds = seconds * UNTRACED_SHARE if traced else seconds

    expected: dict[int, tuple] = {}
    phases: list[dict] = []
    untraced = Loop(stream, 0)
    engine = None
    for slot in range(setups):
        # Slices alternate between the CPUs.  A CPU whose twin on the host
        # is busy runs 15-40% slower for tens of seconds, so a run kept on
        # one CPU may never see the box's best speed.
        pin(0, slot)
        if engine is not None:
            engine.close()
            engine = None
            gc.collect()
        engine, times = setup(directory, manifest, warmup, plans)
        phases.append(times)
        run_loop(engine, untraced, untraced_seconds / setups, expected)
    result: dict = {"setup": phases, "untraced": untraced, "traced": None, "peak_rss_mb": peak_rss_mb()}
    if traced:
        tracer = Tracer()
        loop = Loop(stream, untraced.index)
        before = engine.metrics_snapshot()
        run_loop(engine, loop, seconds * (1.0 - UNTRACED_SHARE), expected, tracer)
        result.update(traced=loop, tracer=tracer, counters=(before, engine.metrics_snapshot()),
                      ingest=measure_ingest(directory, manifest))

    loops = [untraced] + ([result["traced"]] if traced else [])
    check_answers(directory, manifest, stream, loops, expected)
    if "probe" in manifest:
        result["probe"] = run_probe(directory, manifest, engine)
    engine.close()
    return result


def check_answers(directory, manifest, stream, loops: list[Loop], expected: dict) -> None:
    """Mark every sample whose answer fails its reference as failed
    (seconds -1); runs after the timed loop."""
    indices = sorted(expected)
    if manifest["workload"] == "worlds":
        validate = worlds_validator(directory, manifest)
        valid = {i: validate(stream[i], expected[i]) for i in indices}
    else:
        references = sqlite_references(directory, manifest, [stream[i] for i in indices])
        valid = {i: valid_by_sqlite(stream[i], expected[i], references) for i in indices}
    for loop in loops:
        loop.samples = [(i, seconds if valid.get(i, False) else -1.0) for i, seconds in loop.samples]


def run_probe(directory: Path, manifest: dict, engine: AggregationEngine) -> str:
    """Ask the known-failing request once, after the timed loop and outside
    the operation counts.  Returns ``ok``, ``wrong`` or the error class."""
    probe = Request.from_json(manifest["probe"])
    try:
        answer = engine.answer(probe.q, probe.m, probe.a)
    except ReproError as error:
        return type(error).__name__
    return "ok" if worlds_validator(directory, manifest)(probe, checks.canon(answer)) else "wrong"


def measure_ingest(directory: Path, manifest: dict) -> dict:
    """Peak allocation of one extra load under tracemalloc (``storage.csv_io``,
    ``schema.serialize``); its time is inflated by tracing, so the load time
    comes from the set-ups instead."""
    gc.collect()
    tracemalloc.start()
    try:
        tables, _ = load_inputs(directory, manifest)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"rows": sum(len(t) for t in tables), "peak_alloc_mb": peak / 1e6}
