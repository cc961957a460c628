"""The exact distribution engine behind the ``extension`` lane.

:mod:`repro.core.extensions` answers the open by-tuple cells — SUM/AVG
distribution, AVG expected value, MIN/MAX distribution and expected value,
and the nested Q2 shape — by convolution and sweep order statistics over
independent per-tuple variables.  These tests pit it against the
possible-worlds oracle (:mod:`tests.oracle`), which shares no code with
the engine, and check how the planner routes around its fragment and its
support cap.
"""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AggregationEngine, Budget, BudgetExceededError
from repro.core.answers import (
    DistributionAnswer,
    ExpectedValueAnswer,
    GroupedAnswer,
    RangeAnswer,
)
from repro.core.planner import Lane
from repro.core.semantics import AggregateSemantics, MappingSemantics
from repro.core.streaming import RangeMinMaxAccumulator, TupleStream
from repro.data import ebay, realestate, synthetic
from repro.exceptions import UnsupportedQueryError
from repro.prob.distribution import DiscreteDistribution
from repro.schema.correspondence import AttributeCorrespondence
from repro.schema.mapping import PMapping, RelationMapping
from repro.schema.model import Attribute, AttributeType, Relation
from repro.sql.ast import AggregateOp
from repro.sql.parser import parse_query
from repro.storage.table import Table
from tests.oracle import (
    apply_aggregate_oracle,
    evaluate_world,
    iter_by_tuple_worlds,
    oracle_answer,
)

DIST = AggregateSemantics.DISTRIBUTION
EV = AggregateSemantics.EXPECTED_VALUE
RANGE = AggregateSemantics.RANGE
BY_TUPLE = MappingSemantics.BY_TUPLE

#: The open cells the engine answers, as (aggregate, semantics).
OPEN_CELLS = [
    ("SUM", DIST),
    ("AVG", DIST),
    ("AVG", EV),
    ("MIN", DIST),
    ("MIN", EV),
    ("MAX", DIST),
    ("MAX", EV),
]

SOURCE = Relation(
    "SRC",
    [
        Attribute("g", AttributeType.INT),
        Attribute("a1", AttributeType.REAL),
        Attribute("a2", AttributeType.REAL),
        Attribute("a3", AttributeType.REAL),
    ],
)
TARGET = Relation(
    "MED",
    [Attribute("g", AttributeType.INT), Attribute("value", AttributeType.REAL)],
)

#: Values with NULLs and non-dyadic fractions: the engine's exact sums
#: must land on the same floats as the oracle's per-world ``math.fsum``.
_VALUES = st.one_of(
    st.none(),
    st.integers(min_value=-5, max_value=9).map(float),
    st.sampled_from([0.1, 0.2, 0.3, 1.7, -2.45, 1e-3]),
)


@st.composite
def problems(draw, max_rows: int = 6):
    """A small grouped problem: ``g`` is certain, ``value`` uncertain."""
    num_mappings = draw(st.integers(min_value=1, max_value=3))
    num_rows = draw(st.integers(min_value=0, max_value=max_rows))
    rows = [
        (draw(st.integers(min_value=0, max_value=2)),)
        + tuple(draw(_VALUES) for _ in range(3))
        for _ in range(num_rows)
    ]
    columns = draw(st.permutations(["a1", "a2", "a3"]))[:num_mappings]
    weights = [draw(st.integers(min_value=1, max_value=8)) for _ in columns]
    alternatives = [
        (
            RelationMapping(
                SOURCE,
                TARGET,
                [
                    AttributeCorrespondence("g", "g"),
                    AttributeCorrespondence(column, "value"),
                ],
                name=f"m{index}",
            ),
            weight / sum(weights),
        )
        for index, (column, weight) in enumerate(zip(columns, weights))
    ]
    threshold = float(draw(st.integers(min_value=-4, max_value=9)))
    return Table(SOURCE, rows), PMapping(SOURCE, TARGET, alternatives), threshold


def engines(table, pmapping):
    """Extension engines on rows and (forced) columns."""
    return [
        AggregationEngine(
            table, pmapping, use_extensions=True, allow_exponential=True,
            vectorize=vectorize,
        )
        for vectorize in (False, True)
    ]


def assert_matches(answer, oracle, label: str) -> None:
    if isinstance(oracle, GroupedAnswer):
        assert isinstance(answer, GroupedAnswer), label
        groups = dict(answer)
        expected = dict(oracle)
        for key, value in expected.items():
            assert key in groups, f"{label}: group {key!r} missing"
            assert_matches(groups[key], value, f"{label}/{key!r}")
        # The engine also lists groups no world defines; they must be
        # undefined throughout.
        for key in set(groups) - set(expected):
            assert not groups[key].is_defined, f"{label}/{key!r}"
        return
    if isinstance(oracle, DistributionAnswer):
        assert isinstance(answer, DistributionAnswer), label
        assert oracle.approx_equal(answer), f"{label}: {answer!r} != {oracle!r}"
    elif isinstance(oracle, ExpectedValueAnswer):
        assert isinstance(answer, ExpectedValueAnswer), label
        assert oracle.approx_equal(answer), f"{label}: {answer!r} != {oracle!r}"
    else:
        assert answer == oracle, f"{label}: {answer!r} != {oracle!r}"


class TestOracle:
    @settings(max_examples=25, deadline=None)
    @given(problems())
    def test_flat_and_grouped_open_cells(self, problem):
        table, pmapping, threshold = problem
        for engine in engines(table, pmapping):
            with engine:
                for aggregate, semantics in OPEN_CELLS:
                    for suffix in ("", " GROUP BY g"):
                        text = (
                            f"SELECT {aggregate}(value) FROM MED "
                            f"WHERE value < {threshold}{suffix}"
                        )
                        plan = engine.plan(text, BY_TUPLE, semantics)
                        assert plan.lane == Lane.EXTENSION, text
                        answer = engine.answer(text, BY_TUPLE, semantics)
                        oracle = oracle_answer(
                            table, pmapping, parse_query(text), BY_TUPLE,
                            semantics,
                        )
                        assert_matches(answer, oracle, text)
                snapshot = engine.metrics_snapshot()
                assert snapshot.get("execute.fallback.extension", 0) == 0

    @pytest.mark.parametrize("aggregate,semantics", OPEN_CELLS)
    def test_empty_selection(self, aggregate, semantics):
        table = Table(SOURCE, [(0, 1.0, 2.0, 3.0), (1, 4.0, None, 6.0)])
        pmapping = _pmapping(["a1", "a2"], [0.25, 0.75])
        text = f"SELECT {aggregate}(value) FROM MED WHERE value > 100"
        engine = AggregationEngine(
            table, pmapping, use_extensions=True, allow_exponential=True
        )
        answer = engine.answer(text, BY_TUPLE, semantics)
        assert engine.plan(text, BY_TUPLE, semantics).lane == Lane.EXTENSION
        assert not answer.is_defined
        oracle = oracle_answer(
            table, pmapping, parse_query(text), BY_TUPLE, semantics
        )
        assert_matches(answer, oracle, text)

    def test_nulls_carry_undefined_mass(self):
        table = Table(SOURCE, [(0, None, 2.0, 0.0), (0, 0.1, None, 0.0)])
        pmapping = _pmapping(["a1", "a2"], [0.25, 0.75])
        engine = AggregationEngine(
            table, pmapping, use_extensions=True, allow_exponential=True
        )
        answer = engine.answer("SELECT SUM(value) FROM MED", BY_TUPLE, DIST)
        # Both NULL: mapping a1 on row 0, a2 on row 1 -> 0.25 * 0.75.
        assert answer.undefined_probability == pytest.approx(0.1875)
        assert answer.distribution.support == (0.1, 2.0, 2.1)
        oracle = oracle_answer(
            table, pmapping, parse_query("SELECT SUM(value) FROM MED"),
            BY_TUPLE, DIST,
        )
        assert_matches(answer, oracle, "sum with nulls")


def _pmapping(columns, probabilities) -> PMapping:
    return PMapping(
        SOURCE,
        TARGET,
        [
            (
                RelationMapping(
                    SOURCE,
                    TARGET,
                    [
                        AttributeCorrespondence("g", "g"),
                        AttributeCorrespondence(column, "value"),
                    ],
                    name=f"m{index}",
                ),
                probability,
            )
            for index, (column, probability) in enumerate(
                zip(columns, probabilities)
            )
        ],
    )


def nested_oracle(table, pmapping, query, semantics):
    """The nested shape by explicit by-tuple worlds: evaluate the inner
    grouped query in each world, then the outer aggregate over its groups."""
    inner = query.source.query
    outer_op = query.aggregate.op
    outcomes: dict = {}
    undefined = 0.0
    for world, probability in iter_by_tuple_worlds(table, pmapping):
        groups = evaluate_world(inner, world, pmapping.target)
        value = apply_aggregate_oracle(outer_op, list(groups.values()))
        if value is None:
            undefined += probability
        else:
            outcomes[value] = outcomes.get(value, 0.0) + probability
    answer = DistributionAnswer(
        DiscreteDistribution(outcomes, normalize=True),
        undefined_probability=undefined,
    )
    return answer if semantics is DIST else answer.to_expected_value()


class TestNested:
    @pytest.mark.parametrize("semantics", [DIST, EV])
    @pytest.mark.parametrize("outer", ["SUM", "AVG", "MIN", "MAX", "COUNT"])
    @pytest.mark.parametrize("inner", ["MAX", "MIN", "COUNT"])
    def test_q2_shape_matches_oracle(self, ds2, pm2, outer, inner, semantics):
        inner_arg = "*" if inner == "COUNT" else "R2.price"
        text = (
            f"SELECT {outer}(R1.price) FROM (SELECT {inner}({inner_arg}) "
            "FROM T2 AS R2 GROUP BY R2.auctionID) AS R1"
        )
        engine = AggregationEngine([ds2], pm2, use_extensions=True)
        assert engine.plan(text, BY_TUPLE, semantics).lane == Lane.EXTENSION
        answer = engine.answer(text, BY_TUPLE, semantics)
        oracle = nested_oracle(ds2, pm2, parse_query(text), semantics)
        assert_matches(answer, oracle, text)

    def test_paper_q2(self, ds2, pm2):
        engine = AggregationEngine([ds2], pm2, use_extensions=True)
        for semantics in (DIST, EV):
            answer = engine.answer(ebay.Q2, BY_TUPLE, semantics)
            oracle = nested_oracle(ds2, pm2, parse_query(ebay.Q2), semantics)
            assert_matches(answer, oracle, f"Q2/{semantics.value}")


def _synthetic(rows: int, mappings: int = 3, seed: int = 7):
    table = synthetic.generate_source_table(rows, mappings, seed=seed)
    return table, synthetic.generate_pmapping(table.relation, mappings, seed=seed)


class TestPlanning:
    def test_distinct_sum_declines_to_naive(self):
        table, pmapping = _synthetic(5)
        engine = AggregationEngine(
            table, pmapping, use_extensions=True, allow_exponential=True
        )
        text = "SELECT SUM(DISTINCT value) FROM MED WHERE value < 600"
        plan = engine.plan(text, BY_TUPLE, DIST)
        assert plan.fallback_chain == [Lane.EXTENSION, Lane.NAIVE]
        answer = engine.answer(text, BY_TUPLE, DIST)
        assert engine.context.last_stats["executed_lane"] == Lane.NAIVE
        assert engine.metrics_snapshot()["execute.fallback.extension"] == 1
        oracle = oracle_answer(
            table, pmapping, parse_query(text), BY_TUPLE, DIST
        )
        assert_matches(answer, oracle, text)

    def test_no_extension_without_a_naive_plan(self):
        # The engine takes over naive plans only: without
        # allow_exponential an open SUM cell stays intractable or sampled.
        table, pmapping = _synthetic(5)
        engine = AggregationEngine(
            table, pmapping, use_extensions=True, allow_sampling=True
        )
        plan = engine.plan("SELECT SUM(value) FROM MED", BY_TUPLE, DIST)
        assert plan.lane == Lane.SAMPLING

    def test_over_the_cap_keeps_the_sampled_plan(self):
        # 3^200 worlds exceed the support cap, so the cell keeps today's
        # plan: naive preempted to sampling by the worlds budget, with the
        # same seeded answer as an engine without extensions.
        table, pmapping = _synthetic(200)
        options = dict(
            allow_exponential=True, allow_sampling=True, samples=500, seed=7,
            max_worlds=20000,
        )
        text = "SELECT SUM(value) FROM MED WHERE value < 500"
        with_engine = AggregationEngine(
            table, pmapping, use_extensions=True, **options
        )
        without = AggregationEngine(table, pmapping, **options)
        plan = with_engine.plan(text, BY_TUPLE, DIST)
        assert plan.lane == Lane.SAMPLING
        assert plan.estimate.preempted["from"] == Lane.NAIVE
        assert with_engine.answer(text, BY_TUPLE, DIST) == without.answer(
            text, BY_TUPLE, DIST
        )

    def test_engine_max_support_gates_the_plan(self):
        table, pmapping = _synthetic(7)
        text = "SELECT SUM(value) FROM MED"
        roomy = AggregationEngine(
            table, pmapping, use_extensions=True, allow_exponential=True,
            max_support=3**7,
        )
        tight = AggregationEngine(
            table, pmapping, use_extensions=True, allow_exponential=True,
            max_support=3**7 - 1,
        )
        assert roomy.plan(text, BY_TUPLE, DIST).lane == Lane.EXTENSION
        assert tight.plan(text, BY_TUPLE, DIST).lane == Lane.NAIVE


class TestSupportBreach:
    TEXT = "SELECT SUM(value) FROM MED"

    def test_breach_raises_typed_guard_error(self):
        table, pmapping = _synthetic(7)
        engine = AggregationEngine(
            table, pmapping, use_extensions=True, allow_exponential=True
        )
        assert engine.plan(self.TEXT, BY_TUPLE, DIST).lane == Lane.EXTENSION
        with pytest.raises(BudgetExceededError) as caught:
            engine.answer(self.TEXT, BY_TUPLE, DIST, budget=Budget(max_support=5))
        assert caught.value.resource == "support"
        assert engine.metrics_snapshot()["guard.breach.extension"] == 1

    def test_breach_degrades_to_sampling(self):
        table, pmapping = _synthetic(7)
        engine = AggregationEngine(
            table, pmapping, use_extensions=True, allow_exponential=True,
            degrade=True, samples=200, seed=3,
        )
        answer = engine.answer(
            self.TEXT, BY_TUPLE, DIST, budget=Budget(max_support=5)
        )
        assert isinstance(answer, DistributionAnswer)
        record = engine.context.last_degradation
        assert record["from"] == Lane.EXTENSION
        assert record["to"] == Lane.SAMPLING
        assert record["samples"] == 200

    def test_default_cap_declines_nested_composition(self):
        # A composed support past the default cap falls back, as before.
        trace = ebay.generate_auctions(40, mean_bids=5, seed=3)
        engine = AggregationEngine(
            [trace], ebay.paper_pmapping(), use_extensions=True
        )
        with pytest.raises(Exception) as caught:
            engine.answer(ebay.Q2, BY_TUPLE, DIST)
        assert "allow_exponential" in str(caught.value)


class TestNonNumericMinMax:
    """MIN/MAX over the paper instance's DATE and TEXT columns."""

    QUERIES = [
        "SELECT MAX(date) FROM T1",
        "SELECT MIN(date) FROM T1",
        "SELECT MAX(phone) FROM T1",
        "SELECT MIN(phone) FROM T1",
    ]

    def oracle(self, text, semantics):
        return oracle_answer(
            realestate.paper_instance(), realestate.paper_pmapping(),
            parse_query(text), BY_TUPLE, semantics,
        )

    @pytest.mark.parametrize("text", QUERIES)
    @pytest.mark.parametrize(
        "options",
        [
            {"vectorize": False},
            {"vectorize": True},
            {
                "vectorize": False, "max_workers": 2, "min_rows_per_shard": 1,
                "parallel_executor": "thread",
            },
        ],
        ids=["scalar", "vectorized", "parallel"],
    )
    def test_range_on_every_lane(self, text, options):
        engine = AggregationEngine(
            [realestate.paper_instance()], realestate.paper_pmapping(),
            **options,
        )
        with engine:
            answer = engine.answer(text, BY_TUPLE, RANGE)
        assert isinstance(answer, RangeAnswer) and answer.is_defined
        assert answer == self.oracle(text, RANGE)

    @pytest.mark.parametrize("text", QUERIES)
    def test_streaming_range(self, text):
        query = parse_query(text)
        maximize = query.aggregate.op is AggregateOp.MAX
        stream = TupleStream(
            realestate.S1_RELATION, realestate.paper_pmapping(), query
        )
        rows = list(realestate.paper_instance().rows)
        whole = RangeMinMaxAccumulator(stream, maximize=maximize)
        for values in rows:
            whole.add_row(values)
        assert whole.result() == self.oracle(text, RANGE)
        # Split into two accumulators and merged: the same answer.
        left = RangeMinMaxAccumulator(stream, maximize=maximize)
        right = RangeMinMaxAccumulator(stream, maximize=maximize)
        for index, values in enumerate(rows):
            (left if index % 2 else right).add_row(values)
        left.merge(right)
        assert left.result() == whole.result()

    @pytest.mark.parametrize("text", QUERIES)
    def test_extension_sweep(self, text):
        engine = AggregationEngine(
            [realestate.paper_instance()], realestate.paper_pmapping(),
            use_extensions=True,
        )
        assert engine.plan(text, BY_TUPLE, DIST).lane == Lane.EXTENSION
        answer = engine.answer(text, BY_TUPLE, DIST)
        assert answer.approx_equal(self.oracle(text, DIST))
        with pytest.raises(UnsupportedQueryError, match="numeric"):
            engine.answer(text, BY_TUPLE, EV)

    def test_distribution_repr(self):
        engine = AggregationEngine(
            [realestate.paper_instance()], realestate.paper_pmapping(),
            use_extensions=True,
        )
        text = repr(engine.answer("SELECT MAX(phone) FROM T1", BY_TUPLE, DIST))
        assert text == "DistributionAnswer('342': 1)"
        dates = repr(engine.answer("SELECT MAX(date) FROM T1", BY_TUPLE, DIST))
        assert "datetime.date(2008, 2, 15): 0.4" in dates
        floats = DistributionAnswer(DiscreteDistribution({0.5: 0.25, 2.0: 0.75}))
        assert repr(floats) == "DistributionAnswer(0.5: 0.25, 2: 0.75)"


class TestKernels:
    def test_sweep_matches_brute_force_on_many_tuples(self):
        # 9 tuples x 3 choices: the product tree spans several levels.
        variables = [
            ([(float(v), 0.2), (float(v + 3), 0.5)], 0.3) for v in range(9)
        ]
        from repro.core.extensions import extreme

        for maximize in (True, False):
            outcomes: dict = {}
            for world in itertools.product(
                *[[(None, e)] + choices for choices, e in variables]
            ):
                values = [v for v, _ in world if v is not None]
                if values:
                    value = max(values) if maximize else min(values)
                    outcomes[value] = outcomes.get(value, 0.0) + math.prod(
                        p for _, p in world
                    )
            answer = extreme(variables, maximize=maximize)
            assert answer.undefined_probability == pytest.approx(0.3**9)
            expected = DiscreteDistribution(outcomes, normalize=True)
            assert answer.distribution.approx_equal(expected, 1e-12)

    def test_support_values_are_per_world_fsums(self):
        # Left-to-right float addition would split equal sums (and differ
        # from a certain query's math.fsum); the exact state does not.
        from repro.core.extensions import convolve

        choices = [[(0.1, 0.5), (0.7, 0.5)], [(0.2, 0.5), (0.6, 0.5)],
                   [(0.3, 0.5), (1e-3, 0.5)], [(0.7, 0.5), (0.1, 0.5)]]
        variables = [(c, 0.0) for c in choices]
        for average in (False, True):
            expected: dict = {}
            for world in itertools.product(*choices):
                total = math.fsum(v for v, _ in world)
                value = total / len(world) if average else total
                expected[value] = expected.get(value, 0.0) + 0.5**4
            answer = convolve(variables, average=average)
            assert set(answer.distribution.support) == set(expected)
            assert answer.distribution.approx_equal(
                DiscreteDistribution(expected), 1e-12
            )
