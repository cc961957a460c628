"""The measuring process: a fresh interpreter per run, holding the data.

Usage (``run.py`` starts it with the checkout's ``src`` on ``PYTHONPATH``)::

    python3 perfbench/child.py MANIFEST SECONDS TRACE OUT.json

It runs one workload on the inputs ``gen.py`` wrote, checks every answer,
and writes the metrics, operation counts, sample counts and environment
to ``OUT.json``.  A traced run also writes its spans beside it.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from collections import Counter
from pathlib import Path

import httpload
import inproc
import stats

#: Lanes whose per-layer metrics are reported (the ones the workloads run).
LANES = ("by-table", "scalar", "vectorized", "extension", "nested-range",
         "nested-compose", "naive", "sampling")


class Metrics:
    """Named values with units and the sample count each rests on."""

    def __init__(self) -> None:
        self.values: dict[str, dict] = {}

    def put(self, name: str, value: float | None, unit: str, samples: int) -> None:
        """Record a metric; ``None`` (no work, or a refused percentile)
        reports 0 and says so through its sample count."""
        self.values[name] = {"value": 0.0 if value is None else value, "unit": unit,
                             "samples": samples, "refused": value is None}

    def percentile_ms(self, name: str, seconds: list[float], q: float) -> None:
        value = stats.percentile(seconds, q)
        self.put(name, None if value is None else value * 1e3, "ms", len(seconds))


def environment() -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "platform": platform.platform()}


def end_to_end(setup: list[dict], samples: list[tuple[int, float]], peak_rss_mb: float) -> Metrics:
    """The gated metrics.  A request's latency is its fastest correct
    answer in the run: every request is answered several times, and the
    shared host's speed drifts by tens of percent within seconds, which
    moves every mean and percentile taken over all answers but not the
    fastest of a request's repeats.  ``latency_p50_ms`` and
    ``latency_mean_ms`` summarise those best latencies over the stream's
    distinct requests, so their sample count is the stream length."""
    m = Metrics()
    m.put("setup_s", stats.median([p["setup_s"] for p in setup]), "s", len(setup))
    best = list(stats.best_per_request(samples).values())
    m.percentile_ms("latency_p50_ms", best, 0.5)
    m.put("latency_mean_ms", sum(best) / len(best) * 1e3 if best else None, "ms", len(best))
    m.put("peak_rss_mb", peak_rss_mb, "MB", 1)
    return m


def info(samples: list[tuple[int, float]], elapsed: float, requests: int) -> dict:
    """Ungated figures over every answer of the untraced loop."""
    seconds = [s for _, s in samples if s >= 0]
    out = {"throughput_qps": len(seconds) / elapsed, "answers": len(seconds),
           "requests": requests, "repeats_min": stats.min_repeats(samples, requests)}
    for name, q in (("all_p50_ms", 0.5), ("all_p95_ms", 0.95), ("all_p99_ms", 0.99)):
        value = stats.percentile(seconds, q)
        if value is not None:
            out[name] = value * 1e3
    return out


def _ratio(numerator: float, denominator: float) -> float | None:
    return numerator / denominator if denominator else None


def _counter(snapshot: dict, name: str) -> float:
    value = snapshot.get(name, 0)
    return value if isinstance(value, (int, float)) else 0


def empty_layers(m: Metrics) -> None:
    """Every per-layer metric at 0, for layers a workload does not reach."""
    for name, unit in PER_LAYER:
        m.put(name, None, unit, 0)


def inproc_layers(result: dict, m: Metrics) -> None:
    setup = result["setup"]
    ingest = result["ingest"]
    load_s = stats.median([p["load_s"] for p in setup])
    m.put("ingest.load_s", load_s, "s", len(setup))
    m.put("ingest.rows_per_s", ingest["rows"] / load_s, "1/s", len(setup))
    m.put("ingest.peak_alloc_mb", ingest["peak_alloc_mb"], "MB", 1)
    m.put("engine.init_s", stats.median([p["init_s"] for p in setup]), "s", len(setup))
    m.put("engine.warm_s", stats.median([p["warm_s"] for p in setup]), "s", len(setup))

    tracer = result["tracer"]
    spans = tracer.spans
    self_time = stats.self_times(spans)
    by_name: dict[str, list[dict]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)
    durations = {n: [s["end"] - s["start"] for s in v] for n, v in by_name.items()}
    root_total = sum(durations.get("request", []))

    before, after = result["counters"]
    delta = {k: _counter(after, k) - _counter(before, k) for k in after}
    compile_hits, compile_misses = delta.get("compile.cache.hit", 0), delta.get("compile.cache.miss", 0)
    plan_hits, plan_misses = delta.get("plan.cache.hit", 0), delta.get("plan.cache.miss", 0)
    m.percentile_ms("compile.ms_p50", durations.get("compile", []), 0.5)
    m.put("compile.calls", compile_misses, "count", int(compile_hits + compile_misses))
    m.put("compile.cache_hit_ratio", _ratio(compile_hits, compile_hits + compile_misses), "ratio",
          int(compile_hits + compile_misses))
    m.percentile_ms("plan.ms_p50", durations.get("plan", []), 0.5)
    m.put("plan.cache_hit_ratio", _ratio(plan_hits, plan_hits + plan_misses), "ratio",
          int(plan_hits + plan_misses))

    records = tracer.records
    planned = Counter(r["plan_lane"] for r in records)
    executed: dict[str, list[float]] = {}
    execute_self: dict[str, float] = {}
    for span in by_name.get("execute", []):
        executed.setdefault(span["lane"], []).append(span["end"] - span["start"])
        execute_self[span["lane"]] = execute_self.get(span["lane"], 0.0) + self_time[span["id"]]
    for lane in LANES:
        m.put(f"plan.lane.{lane}", planned.get(lane, 0), "count", len(records))
        m.percentile_ms(f"execute.{lane}.ms_p50", executed.get(lane, []), 0.5)
        share = _ratio(execute_self.get(lane, 0.0), root_total) if lane in executed else None
        m.put(f"execute.{lane}.self_share", share, "ratio", len(executed.get(lane, [])))

    misestimates = [r["rows"] / r["est_rows"] for r in records if r["rows"] and r["est_rows"]]
    m.put("cost.rows_misestimate_p50", stats.percentile(misestimates, 0.5), "ratio", len(misestimates))
    m.put("cost.preempted", sum(r["preempted"] for r in records), "count", len(records))
    rows = [r for r in records if r["rows"] is not None]
    m.put("execute.rows_per_s", _ratio(sum(r["rows"] for r in rows), sum(r["seconds"] for r in rows)),
          "1/s", len(rows))
    for lane, name in (("naive", "naive.worlds_per_s"), ("sampling", "sampling.samples_per_s")):
        chosen = [r for r in records if r["lane"] == lane and r["worlds"]]
        m.put(name, _ratio(sum(r["worlds"] for r in chosen), sum(r["seconds"] for r in chosen)),
              "1/s", len(chosen))
    epsilons = [r["epsilon"] for r in records if r["epsilon"] is not None]
    m.put("sampling.epsilon_p50", stats.percentile(epsilons, 0.5), "ratio", len(epsilons))
    supports = [r["support"] for r in records if "support" in r]
    m.put("distribution.support_p50", stats.percentile(supports, 0.5), "count", len(supports))
    m.put("querylog.records_per_request", _ratio(sum(r["records"] for r in records), len(records)),
          "ratio", len(records))
    m.put("querylog.degraded", sum(r["status"] == "degraded" for r in records), "count", len(records))
    m.put("querylog.errors", sum(r["status"] == "error" for r in records), "count", len(records))


def serve_spans(traced: dict) -> list[dict]:
    """Client spans per request: a root with encode, round-trip and decode children."""
    spans = []
    for rid, (index, t0, t1, t2, t3, _, _) in enumerate(traced["spans"]):
        root = len(spans)
        spans.append({"id": root, "parent": None, "rid": rid, "name": "request", "start": t0, "end": t3,
                      "index": index})
        for name, start, end in (("encode", t0, t1), ("round_trip", t1, t2), ("decode", t2, t3)):
            spans.append({"id": len(spans), "parent": root, "rid": rid, "name": name,
                          "start": start, "end": end})
    return spans


def serve_layers(result: dict, m: Metrics) -> None:
    traced = result["traced"]
    answered = [s for s in traced["spans"] if s[6] == 200]
    rtt = [t2 - t1 for _, _, t1, t2, _, _, _ in traced["spans"]]
    codec = [(t1 - t0) + (t3 - t2) for _, t0, t1, t2, t3, _, _ in traced["spans"]]
    m.percentile_ms("serve.rtt_ms_p50", rtt, 0.5)
    m.percentile_ms("serve.rtt_ms_p99", rtt, 0.99)
    m.percentile_ms("serve.engine_ms_p50", [s[5] for s in answered], 0.5)
    m.percentile_ms("serve.overhead_ms_p50", [(t2 - t1) - e for _, _, t1, t2, _, e, _ in answered], 0.5)
    value = stats.percentile(codec, 0.5)
    m.put("serve.client_codec_us_p50", None if value is None else value * 1e6, "us", len(codec))
    delta = traced["metrics"]
    waits = delta.get("repro_serve_queue_wait_seconds_count", 0.0)
    wait_sum = delta.get("repro_serve_queue_wait_seconds_sum", 0.0)
    m.put("serve.queue_wait_ms_mean", _ratio(wait_sum * 1e3, waits), "ms", int(waits))
    requests = len(traced["samples"])
    m.put("serve.admitted", delta.get("repro_serve_admitted_total", 0.0), "count", requests)
    shed = sum(v for k, v in delta.items() if k.startswith("repro_serve_shed"))
    m.put("serve.shed", shed, "count", requests)
    m.put("serve.errors", delta.get("repro_serve_errors_total", 0.0), "count", requests)


#: Every per-layer metric (name, unit), in the order BENCHMARK.json lists them.
PER_LAYER = (
    [("ingest.load_s", "s"), ("ingest.rows_per_s", "1/s"), ("ingest.peak_alloc_mb", "MB"),
     ("engine.init_s", "s"), ("engine.warm_s", "s"),
     ("compile.ms_p50", "ms"), ("compile.calls", "count"), ("compile.cache_hit_ratio", "ratio"),
     ("plan.ms_p50", "ms"), ("plan.cache_hit_ratio", "ratio")]
    + [(f"plan.lane.{lane}", "count") for lane in LANES]
    + [("cost.rows_misestimate_p50", "ratio"), ("cost.preempted", "count")]
    + [(f"execute.{lane}.{kind}", unit) for lane in LANES
       for kind, unit in (("ms_p50", "ms"), ("self_share", "ratio"))]
    + [("execute.rows_per_s", "1/s"), ("naive.worlds_per_s", "1/s"),
       ("sampling.samples_per_s", "1/s"), ("sampling.epsilon_p50", "ratio"),
       ("distribution.support_p50", "count"),
       ("querylog.records_per_request", "ratio"), ("querylog.degraded", "count"),
       ("querylog.errors", "count"),
       ("serve.rtt_ms_p50", "ms"), ("serve.rtt_ms_p99", "ms"), ("serve.engine_ms_p50", "ms"),
       ("serve.overhead_ms_p50", "ms"), ("serve.queue_wait_ms_mean", "ms"),
       ("serve.admitted", "count"), ("serve.shed", "count"), ("serve.errors", "count"),
       ("serve.client_codec_us_p50", "us"),
       ("trace.spans", "count"), ("trace.overhead_ratio", "ratio")]
)


def main(argv: list[str]) -> int:
    manifest_path, seconds, trace, out_path = Path(argv[0]), float(argv[1]), argv[2] == "1", Path(argv[3])
    directory = manifest_path.parent
    manifest = json.loads(manifest_path.read_text())
    stream = [inproc.Request.from_json(json.loads(line))
              for line in (directory / manifest["queries"]).read_text().splitlines()]
    workload = manifest["workload"]
    m = Metrics()
    extra: dict = {}
    if workload == "serve":
        result = httpload.run(directory, manifest, stream, seconds, trace, out_path.with_suffix(".server.log"))
        phases = [result["untraced"]] + ([result["traced"]] if trace else [])
        samples = [[(i, s) for i, s, _, _ in p["samples"]] for p in phases]
        elapsed = [p["elapsed"] for p in phases]
        errors = Counter(f"http {status}" for p in phases for _, _, _, status in p["samples"] if status != 200)
    else:
        result = inproc.run(directory, manifest, stream, seconds, trace)
        phases = [result["untraced"]] + ([result["traced"]] if trace else [])
        samples = [p.samples for p in phases]
        elapsed = [p.elapsed for p in phases]
        errors = sum((p.errors for p in phases), Counter())
    attempted = sum(len(phase) for phase in samples)
    failed = sum(1 for phase in samples for _, s in phase if s < 0)
    wrong = failed - sum(errors.values())
    if result.get("probe") == "wrong":
        wrong += 1
    rates = [sum(1 for _, s in phase if s >= 0) / t for phase, t in zip(samples, elapsed)]
    if trace:
        empty_layers(m)
        if workload == "serve":
            serve_layers(result, m)
            spans = serve_spans(result["traced"])
        else:
            inproc_layers(result, m)
            spans = result["tracer"].spans
        m.put("trace.spans", len(spans), "count", len(spans))
        m.put("trace.overhead_ratio", _ratio(rates[0], rates[1]), "ratio", len(samples[1]))
        spans_path = out_path.with_suffix(".spans.jsonl")
        spans_path.write_text("".join(json.dumps(s) + "\n" for s in spans))
        extra["spans"] = str(spans_path)
    else:
        m = end_to_end(result["setup"], samples[0], result["peak_rss_mb"])
        extra["info"] = info(samples[0], elapsed[0], len(stream))
        extra["samples"] = samples[0]
        if stats.min_repeats(samples[0], len(stream)) < stats.MIN_REPEATS:
            extra["too_few_repeats"] = True
    if "probe" in result:
        extra["probe"] = result["probe"]
    out = {
        "workload": workload, "seed": manifest["seed"], "trace": trace,
        "attempted": attempted, "failed": failed, "wrong": wrong,
        "errors": dict(errors), "metrics": m.values, "environment": environment(),
        "setup_runs": result["setup"], **extra,
    }
    out_path.write_text(json.dumps(out, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    from run import exit_on_sigterm

    exit_on_sigterm()
    sys.exit(main(sys.argv[1:]))
