"""Sharded parallel lane versus the sequential lanes at 200k tuples.

The parallel lane splits the row stream into contiguous shards, folds
each through a mergeable accumulator in a worker pool, and merges — with
answers bit-for-bit equal to the sequential lanes (asserted below, every
run).  The speedup target (>= 2x over sequential streaming with 4
workers) holds on >= 4 hardware cores; on fewer cores the pool only adds
dispatch overhead, so the assertion here checks *equality*, not time.

``pytest --benchmark-only benchmarks/bench_parallel.py`` times the cases;
``python benchmarks/bench_parallel.py --harness`` runs the registered
``parallel`` harness suite (median/p95, baseline
``BENCH_parallel.json``).
"""

from __future__ import annotations

import pytest

from repro.bench.contexts import make_synthetic_context
from repro.core.engine import AggregationEngine
from repro.core.streaming import RangeSumAccumulator, answer_stream
from repro.sql.ast import AggregateOp

TUPLES = 200_000


@pytest.fixture(scope="module")
def context():
    ctx = make_synthetic_context(TUPLES, 6, 4)
    yield ctx
    ctx.close()


@pytest.fixture(scope="module")
def pool_engine(context):
    # Rows pin the scalar fallback: against the vectorized lane the
    # planner never picks the pool.
    engine = AggregationEngine(
        context.table, context.pmapping, max_workers=4, vectorize=False
    )
    yield engine
    engine.close()


@pytest.fixture(scope="module")
def sequential_engine(context):
    engine = AggregationEngine(context.table, context.pmapping)
    yield engine
    engine.close()


def bench_streaming_sum_range(benchmark, context):
    query = context.query(AggregateOp.SUM)

    def run():
        return answer_stream(
            iter(context.table.rows),
            context.table.relation,
            context.pmapping,
            query,
            RangeSumAccumulator,
        )

    assert benchmark(run).is_defined


def bench_parallel_sum_range(benchmark, context, pool_engine):
    query = context.query(AggregateOp.SUM)
    answer = benchmark(pool_engine.answer, query, "by-tuple", "range")
    assert answer.is_defined


def bench_parallel_expected_count(benchmark, context, pool_engine):
    query = context.query(AggregateOp.COUNT)
    answer = benchmark(
        pool_engine.answer, query, "by-tuple", "expected-value"
    )
    assert answer.is_defined


def test_parallel_equals_sequential(context, pool_engine, sequential_engine):
    for op, asem in [
        (AggregateOp.SUM, "range"),
        (AggregateOp.COUNT, "expected-value"),
        (AggregateOp.AVG, "range"),
    ]:
        query = context.query(op)
        assert pool_engine.answer(
            query, "by-tuple", asem
        ) == sequential_engine.answer(query, "by-tuple", asem)
    assert pool_engine.metrics_snapshot().get("parallel.hit", 0) >= 3


#: Harness suite carrying this script's cases (``--harness`` runs it).
HARNESS_SUITE = "parallel"

if __name__ == "__main__":
    import sys

    from repro.bench.harness import main as harness_main

    raise SystemExit(harness_main(
        ["--suite", HARNESS_SUITE]
        + [a for a in sys.argv[1:] if a != "--harness"]
    ))
