"""The columnar by-table executor and the size-gated columnar default.

:func:`repro.core.bytable.columnar_executor` answers each reformulated
certain query with one Kleene mask and one array fold over the cached
:class:`~repro.storage.columnar.ColumnarTable`.  It must be ``==`` to the
row executor (:func:`~repro.core.bytable.memory_executor`) — value *and*
type — on every query it accepts, agree with the SQLite executor, and
decline (counted as ``bytable.columnar.fallback``) every query whose row
answer it cannot reproduce exactly.
"""

from __future__ import annotations

import datetime

import pytest

from repro.core import cost
from repro.core.answers import ExpectedValueAnswer, RangeAnswer
from repro.core.bytable import columnar_executor, memory_executor
from repro.core.engine import AggregationEngine
from repro.core.guard import Budget
from repro.core.semantics import AggregateSemantics, MappingSemantics
from repro.core.vectorized import VectorizationError
from repro.data import synthetic
from repro.exceptions import BudgetExceededError, QueryTimeoutError
from repro.obs import trace
from repro.schema.correspondence import AttributeCorrespondence
from repro.schema.mapping import PMapping, RelationMapping
from repro.schema.model import Attribute, AttributeType, Relation
from repro.sql.parser import parse_query
from repro.sql.reformulate import reformulations
from repro.storage.columnar import HAVE_NUMPY, ColumnarTable
from repro.storage.table import Table

pytestmark = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")

BY_TABLE = MappingSemantics.BY_TABLE
ALL_SEMANTICS = list(AggregateSemantics)

SOURCE = Relation(
    "SRC",
    [
        Attribute("id", AttributeType.INT),
        Attribute("label", AttributeType.TEXT),
        Attribute("posted", AttributeType.DATE),
        Attribute("v1", AttributeType.REAL),
        Attribute("v2", AttributeType.REAL),
        Attribute("v3", AttributeType.REAL),
        Attribute("qty", AttributeType.INT),
    ],
)

TARGET = Relation(
    "MED",
    [
        Attribute("id", AttributeType.INT),
        Attribute("label", AttributeType.TEXT),
        Attribute("posted", AttributeType.DATE),
        Attribute("value", AttributeType.REAL),
        Attribute("extra", AttributeType.REAL),
        Attribute("qty", AttributeType.INT),
    ],
)


def _pmapping() -> PMapping:
    """Three mappings; the third leaves ``extra`` unmapped, so conditions
    on it reformulate to NULL there (``unmapped="null"``)."""
    certain = [
        AttributeCorrespondence(name, name)
        for name in ("id", "label", "posted", "qty")
    ]
    layouts = [
        {"value": "v1", "extra": "v3"},
        {"value": "v2", "extra": "v1"},
        {"value": "v3"},
    ]
    alternatives = []
    for k, (layout, weight) in enumerate(zip(layouts, (0.5, 0.3, 0.2))):
        correspondences = certain + [
            AttributeCorrespondence(source, target)
            for target, source in layout.items()
        ]
        alternatives.append(
            (
                RelationMapping(SOURCE, TARGET, correspondences, name=f"m{k}"),
                weight,
            )
        )
    return PMapping(SOURCE, TARGET, alternatives)


def _table(rows: int = 300) -> Table:
    """NULL-bearing REAL, TEXT and DATE columns over a fixed pattern."""
    base = datetime.date(2008, 1, 1)
    data = []
    for i in range(rows):
        data.append(
            (
                i,
                None if i % 11 == 0 else f"item{i % 7}",
                None if i % 13 == 0 else base + datetime.timedelta(days=i % 50),
                (i * 37 % 1000) / 4.0,
                None if i % 5 == 0 else (i * 53 % 1000) / 8.0 - 20.0,
                None if i % 3 == 0 else (i * 71 % 1000) * 0.1,
                i * 7 % 23,
            )
        )
    return Table(SOURCE, data)


AGGREGATES = [
    "COUNT(*)",
    "COUNT(value)",
    "SUM(value)",
    "AVG(value)",
    "MIN(value)",
    "MAX(value)",
    "MAX(DISTINCT value)",
]

CONDITIONS = [
    None,
    "value < 120",
    "value > 1e9",  # empty selection: undefined SUM/AVG/MIN/MAX
    "extra > 40",  # NULL under the mapping that leaves extra unmapped
    "value < 100 AND extra >= 10",
    "value < 50 OR extra IS NULL",
    "NOT (value BETWEEN 20 AND 200)",
    "qty IN (1, 2, 3, 5, 8)",
    "label LIKE 'item1%' OR label IS NULL",
    "posted < '2008-01-20' AND NOT label = 'item3'",
    "value IS NOT NULL AND extra IS NULL",
]


def _query(aggregate: str, condition: str | None) -> str:
    where = f" WHERE {condition}" if condition else ""
    return f"SELECT {aggregate} FROM MED{where}"


class TestExecutorEquality:
    """Per-mapping certain answers: columnar ``==`` rows, types included."""

    def test_every_reformulation_matches_the_row_executor(self):
        table = _table()
        pmapping = _pmapping()
        rows = memory_executor({"SRC": table})
        columns = columnar_executor(ColumnarTable(table))
        for aggregate in AGGREGATES:
            for condition in CONDITIONS:
                query = parse_query(_query(aggregate, condition))
                for reformulated, _ in reformulations(
                    query, pmapping, unmapped="null"
                ):
                    expected = rows(reformulated)
                    answer = columns(reformulated)
                    label = reformulated.to_sql()
                    assert answer == expected, label
                    assert type(answer) is type(expected), label

    def test_empty_selection_is_undefined_not_zero(self):
        columns = columnar_executor(ColumnarTable(_table()))
        query = parse_query("SELECT SUM(v1) FROM SRC WHERE v1 > 1e9")
        assert columns(query) is None
        count = parse_query("SELECT COUNT(*) FROM SRC WHERE v1 > 1e9")
        assert columns(count) == 0 and isinstance(columns(count), int)

    def test_nan_under_min_max_declines(self):
        table = Table(SOURCE, [(1, "a", None, float("nan"), 1.0, 2.0, 3)])
        columns = columnar_executor(ColumnarTable(table))
        with pytest.raises(VectorizationError):
            columns(parse_query("SELECT MIN(v1) FROM SRC"))

    def test_python_backend_declines(self):
        columns = columnar_executor(ColumnarTable(_table(), backend="python"))
        with pytest.raises(VectorizationError):
            columns(parse_query("SELECT COUNT(*) FROM SRC"))


def _engines(table, pmapping):
    return (
        AggregationEngine(table, pmapping, vectorize=False),
        AggregationEngine(table, pmapping, vectorize=True),
        AggregationEngine(table, pmapping, backend="sqlite"),
    )


def _close(a, b, tolerance=1e-9):
    if a is None or b is None:
        return a is None and b is None
    return a == pytest.approx(b, rel=tolerance, abs=tolerance)


def _agrees(answer, reference) -> bool:
    """Equal up to float rounding (SQLite sums in another order)."""
    if isinstance(answer, RangeAnswer):
        return _close(answer.low, reference.low) and _close(
            answer.high, reference.high
        )
    if isinstance(answer, ExpectedValueAnswer):
        return _close(answer.value, reference.value)
    if not _close(
        answer.undefined_probability, reference.undefined_probability
    ):
        return False
    if answer.distribution is None or reference.distribution is None:
        return answer.distribution is reference.distribution
    pairs = sorted(answer.distribution.items())
    other = sorted(reference.distribution.items())
    return len(pairs) == len(other) and all(
        _close(v, w) and _close(p, q) for (v, p), (w, q) in zip(pairs, other)
    )


class TestEngineEquality:
    """Full by-table answers on every semantics: columnar ``==`` rows and
    in agreement with SQLite (whose SUM rounds differently)."""

    def test_all_cells_match_rows_and_sqlite(self):
        table = _table()
        rows, columns, sqlite = _engines(table, _pmapping())
        with rows, columns, sqlite:
            for aggregate in AGGREGATES:
                for condition in CONDITIONS:
                    query = _query(aggregate, condition)
                    for semantics in ALL_SEMANTICS:
                        label = f"{query} / {semantics.value}"
                        expected = rows.answer(query, BY_TABLE, semantics)
                        answer = columns.answer(query, BY_TABLE, semantics)
                        assert answer == expected, label
                        reference = sqlite.answer(query, BY_TABLE, semantics)
                        assert _agrees(answer, reference), label
            counters = columns.metrics_snapshot()
        expected_hits = len(AGGREGATES) * len(CONDITIONS) * len(ALL_SEMANTICS)
        assert counters.get("bytable.columnar.hit", 0) == expected_hits
        assert counters.get("bytable.columnar.fallback", 0) == 0


class TestDeclines:
    """Queries outside the fragment rerun on rows, counted, same answer."""

    DECLINED = [
        # INT SUM: the row path returns an int, which the array fold
        # cannot reproduce.
        ("SELECT SUM(qty) FROM MED WHERE value < 120", ALL_SEMANTICS),
        # DATE and TEXT results (ranges only: they have no expectation).
        ("SELECT MIN(posted) FROM MED", [AggregateSemantics.RANGE]),
        (
            "SELECT MAX(label) FROM MED WHERE value < 120",
            [AggregateSemantics.RANGE],
        ),
        ("SELECT COUNT(DISTINCT value) FROM MED", ALL_SEMANTICS),
        (
            "SELECT SUM(value) FROM MED WHERE value < 120 GROUP BY qty",
            ALL_SEMANTICS,
        ),
        (
            "SELECT AVG(R1.value) FROM "
            "(SELECT MAX(R2.value) FROM MED AS R2 GROUP BY R2.qty) AS R1",
            ALL_SEMANTICS,
        ),
    ]

    @pytest.mark.parametrize("query, semantics_list", DECLINED)
    def test_decline_is_counted_and_answer_unchanged(
        self, query, semantics_list
    ):
        table = _table()
        with AggregationEngine(table, _pmapping(), vectorize=False) as rows, \
                AggregationEngine(table, _pmapping(), vectorize=True) as columns:
            for semantics in semantics_list:
                expected = rows.answer(query, BY_TABLE, semantics)
                answer = columns.answer(query, BY_TABLE, semantics)
                assert answer == expected, semantics
                report = columns.explain_analyze(query, BY_TABLE, semantics)
                assert report["plan"]["substrate"] == "columnar"
                assert report["executed_substrate"] == "rows"
            counters = columns.metrics_snapshot()
        # One decline per answer: the answer() and the explain_analyze().
        assert counters.get("bytable.columnar.fallback", 0) == 2 * len(
            semantics_list
        )
        assert counters.get("bytable.columnar.hit", 0) == 0

    def test_int_sum_keeps_the_int_type(self):
        with AggregationEngine(_table(), _pmapping(), vectorize=True) as engine:
            answer = engine.answer(
                "SELECT SUM(qty) FROM MED", BY_TABLE, AggregateSemantics.RANGE
            )
        assert isinstance(answer.low, int) and isinstance(answer.high, int)

    def test_group_by_keeps_first_appearance_key_order(self):
        query = "SELECT SUM(value) FROM MED WHERE value < 200 GROUP BY label"
        table = _table()
        with AggregationEngine(table, _pmapping(), vectorize=False) as rows, \
                AggregationEngine(table, _pmapping(), vectorize=True) as columns:
            expected = rows.answer(query, BY_TABLE, AggregateSemantics.RANGE)
            answer = columns.answer(query, BY_TABLE, AggregateSemantics.RANGE)
        assert list(answer.groups) == list(expected.groups)
        assert answer == expected

    def test_deadline_checked_before_each_mapping(self):
        with AggregationEngine(
            _table(), _pmapping(), vectorize=True, timeout_ms=1e-6
        ) as engine:
            with pytest.raises(QueryTimeoutError):
                engine.answer(
                    "SELECT COUNT(*) FROM MED", BY_TABLE,
                    AggregateSemantics.RANGE,
                )


class TestCutover:
    """One row-count constant decides both columnar choices."""

    @staticmethod
    def _workload(rows: int):
        relation = synthetic.source_relation(3)
        table = synthetic.generate_source_table(
            rows, 3, seed=4, relation=relation
        )
        return table, synthetic.generate_pmapping(relation, 3, seed=4)

    QUERY = "SELECT SUM(value) FROM MED WHERE value < 500"

    @pytest.mark.parametrize(
        "rows, lane, substrate",
        [
            (cost.COLUMNAR_CUTOVER_ROWS - 1, "scalar", "rows"),
            (cost.COLUMNAR_CUTOVER_ROWS, "vectorized", "columnar"),
        ],
    )
    def test_default_engine_straddles_the_cutover(self, rows, lane, substrate):
        table, pmapping = self._workload(rows)
        with AggregationEngine(table, pmapping) as engine:
            by_tuple = engine.plan(self.QUERY, "by-tuple", "range")
            by_table = engine.plan(self.QUERY, "by-table", "range")
            assert by_tuple.lane == lane
            assert by_table.substrate == substrate
            assert by_table.to_dict()["substrate"] == substrate
            engine.answer(self.QUERY, "by-table", "range")
            counters = engine.metrics_snapshot()
        hits = 1 if substrate == "columnar" else 0
        assert counters.get("bytable.columnar.hit", 0) == hits

    def test_explicit_flags_pin_either_side(self):
        table, pmapping = self._workload(cost.COLUMNAR_CUTOVER_ROWS * 2)
        with AggregationEngine(table, pmapping, vectorize=False) as engine:
            assert engine.plan(self.QUERY, "by-tuple", "range").lane == "scalar"
            assert engine.plan(self.QUERY, "by-table", "range").substrate == "rows"
        small, pmapping = self._workload(8)
        with AggregationEngine(small, pmapping, vectorize=True) as engine:
            assert (
                engine.plan(self.QUERY, "by-tuple", "range").lane
                == "vectorized"
            )
            assert (
                engine.plan(self.QUERY, "by-table", "range").substrate
                == "columnar"
            )

    def test_sqlite_backend_plans_sqlite(self):
        table, pmapping = self._workload(cost.COLUMNAR_CUTOVER_ROWS)
        with AggregationEngine(table, pmapping, backend="sqlite") as engine:
            plan = engine.plan(self.QUERY, "by-table", "range")
        assert plan.substrate == "sqlite"


class TestRowBudget:
    """The vectorized lane counts the table against ``max_rows`` once, and
    only when it answers; a declined query is counted by its fallback."""

    @pytest.mark.parametrize(
        "query",
        ["SELECT SUM(qty) FROM MED", "SELECT MAX(qty) FROM MED WHERE value < 200"],
    )
    def test_declined_query_meets_a_table_sized_budget(self, query):
        # INT values beyond 2**53 are inexact in float64, so the array
        # kernels decline and the scalar fallback answers.
        table = Table(
            SOURCE,
            [row[:-1] + (2**60 + row[0],) for row in _table().rows],
        )
        assert len(table) >= cost.COLUMNAR_CUTOVER_ROWS
        budget = Budget(max_rows=len(table))
        args = (query, "by-tuple", "range")
        with AggregationEngine(table, _pmapping(), vectorize=False) as rows:
            expected = rows.answer(*args, budget=budget)
        with AggregationEngine(table, _pmapping()) as engine:
            assert engine.plan(*args).lane == "vectorized"
            assert engine.answer(*args, budget=budget) == expected
            counters = engine.metrics_snapshot()
        assert counters.get("vectorized.fallback", 0) == 1
        assert counters.get("vectorized.hit", 0) == 0

    def test_answered_query_counts_the_whole_table(self):
        table = _table()
        args = ("SELECT MAX(value) FROM MED", "by-tuple", "range")
        with AggregationEngine(table, _pmapping()) as engine:
            engine.answer(*args, budget=Budget(max_rows=len(table)))
            with pytest.raises(BudgetExceededError):
                engine.answer(*args, budget=Budget(max_rows=len(table) - 1))
            counters = engine.metrics_snapshot()
        assert counters.get("vectorized.hit", 0) == 1
        assert counters.get("guard.breach.vectorized", 0) == 1


class TestObservability:
    QUERY = "SELECT AVG(value) FROM MED WHERE value < 120"

    def test_estimate_and_actuals_use_the_columnar_unit(self):
        table = _table()
        with AggregationEngine(table, _pmapping(), vectorize=True) as engine:
            report = engine.explain_analyze(
                self.QUERY, BY_TABLE, AggregateSemantics.EXPECTED_VALUE
            )
        unit = cost.UNIT_COST[cost.BY_TABLE_COLUMNAR]
        expected_cost = unit * len(table) * 3
        assert report["plan"]["estimate"]["substrate"] == "columnar"
        assert report["plan"]["estimate"]["cost"] == pytest.approx(expected_cost)
        assert report["executed_substrate"] == "columnar"
        assert report["actuals"]["cost"] == pytest.approx(expected_cost)
        assert report["metrics"]["bytable.columnar.hit"] == 1

    def test_span_keeps_its_name_and_records_the_substrate(self):
        sink = trace.InMemorySink()
        with AggregationEngine(_table(), _pmapping(), vectorize=True) as engine:
            with trace.use_sink(sink):
                engine.answer(self.QUERY, BY_TABLE, AggregateSemantics.RANGE)
        (span,) = sink.find("execute.by-table")
        assert span.attributes["substrate"] == "columnar"
        assert span.attributes["lane"] == "by-table"
