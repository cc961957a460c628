"""Tests for nested by-tuple composition (:mod:`repro.core.extensions`)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.answers import DistributionAnswer
from repro.core.engine import AggregationEngine
from repro.core.naive import naive_by_tuple_answer
from repro.core.extensions import compose_independent
from repro.core.semantics import AggregateSemantics
from repro.data import ebay
from repro.exceptions import EvaluationError
from repro.prob.distribution import DiscreteDistribution
from repro.sql.ast import AggregateOp
from repro.sql.parser import parse_query


@st.composite
def independent_distributions(draw):
    count = draw(st.integers(min_value=1, max_value=3))
    out = []
    for _ in range(count):
        values = draw(
            st.lists(
                st.integers(min_value=-5, max_value=9),
                min_size=1, max_size=3, unique=True,
            )
        )
        weights = [draw(st.integers(min_value=1, max_value=5)) for _ in values]
        total = sum(weights)
        out.append(
            DiscreteDistribution(
                {float(v): w / total for v, w in zip(values, weights)}
            )
        )
    return out


def _brute_force(op: AggregateOp, distributions) -> DiscreteDistribution:
    import itertools

    from repro.core.eval import apply_aggregate

    outcomes: dict[float, float] = {}
    for combo in itertools.product(*(list(d.items()) for d in distributions)):
        values = [v for v, _ in combo]
        probability = 1.0
        for _, p in combo:
            probability *= p
        if op is AggregateOp.COUNT:
            result = len(values)
        else:
            result = apply_aggregate(op, values)
        outcomes[result] = outcomes.get(result, 0.0) + probability
    return DiscreteDistribution(outcomes, check=False)


class TestComposeIndependent:
    def test_documented_sum_example(self):
        d = DiscreteDistribution({0: 0.5, 1: 0.5})
        total = compose_independent(AggregateOp.SUM, [d, d])
        assert total.probability_of(1) == pytest.approx(0.5)

    def test_count_is_point_mass(self):
        d = DiscreteDistribution.point(3)
        assert compose_independent(AggregateOp.COUNT, [d, d]).support == (2,)

    def test_empty_rejected(self):
        with pytest.raises(EvaluationError):
            compose_independent(AggregateOp.SUM, [])

    def test_support_budget(self):
        # The cap bounds the deduplicated support: digits in base 100 keep
        # every sum distinct (10^6 outcomes), where three copies of one
        # distribution would merge down to 298.
        wide = [
            DiscreteDistribution(
                {float(v * 100**k): 1 / 100 for v in range(100)}
            )
            for k in range(3)
        ]
        with pytest.raises(EvaluationError, match="support"):
            compose_independent(AggregateOp.SUM, wide, max_support=500)

    def test_support_budget_counts_merged_outcomes(self):
        wide = DiscreteDistribution(
            {float(v): 1 / 100 for v in range(100)}
        )
        total = compose_independent(
            AggregateOp.SUM, [wide, wide, wide], max_support=500
        )
        assert len(total) == 298

    @settings(max_examples=60, deadline=None)
    @given(independent_distributions())
    def test_matches_brute_force_all_ops(self, distributions):
        for op in AggregateOp:
            composed = compose_independent(op, distributions)
            brute = _brute_force(op, distributions)
            assert composed.approx_equal(brute, 1e-9), op


class TestEngineNestedComposition:
    @pytest.fixture
    def engine(self, ds2, pm2):
        return AggregationEngine([ds2], pm2, use_extensions=True)

    def test_q2_distribution_matches_naive(self, engine, ds2, pm2, q2):
        composed = engine.answer(ebay.Q2, "by-tuple", "distribution")
        naive = naive_by_tuple_answer(
            ds2, pm2, q2, AggregateSemantics.DISTRIBUTION
        )
        assert isinstance(composed, DistributionAnswer)
        assert composed.approx_equal(naive, 1e-9)

    def test_q2_expected_matches_naive(self, engine, ds2, pm2, q2):
        composed = engine.answer(ebay.Q2, "by-tuple", "expected-value")
        naive = naive_by_tuple_answer(
            ds2, pm2, q2, AggregateSemantics.EXPECTED_VALUE
        )
        assert composed.value == pytest.approx(naive.value)

    @pytest.mark.parametrize("outer", ["SUM", "AVG", "MIN", "MAX", "COUNT"])
    @pytest.mark.parametrize("inner", ["MAX", "MIN", "COUNT"])
    def test_all_supported_shapes_match_naive(self, ds2, pm2, outer, inner):
        inner_arg = "*" if inner == "COUNT" else "R2.price"
        query = parse_query(
            f"SELECT {outer}(R1.price) FROM (SELECT {inner}({inner_arg}) "
            "FROM T2 AS R2 GROUP BY R2.auctionID) AS R1"
        )
        engine = AggregationEngine([ds2], pm2, use_extensions=True)
        composed = engine.answer(query, "by-tuple", "distribution")
        naive = naive_by_tuple_answer(
            ds2, pm2, query, AggregateSemantics.DISTRIBUTION
        )
        assert composed.approx_equal(naive, 1e-9)

    def test_inner_sum_falls_back(self, ds2, pm2):
        # Inner SUM has no exact polynomial distribution; without a policy
        # the engine must refuse rather than guess.
        from repro.exceptions import IntractableError

        query = (
            "SELECT AVG(R1.price) FROM (SELECT SUM(R2.price) FROM T2 AS R2 "
            "GROUP BY R2.auctionID) AS R1"
        )
        engine = AggregationEngine([ds2], pm2, use_extensions=True)
        with pytest.raises(IntractableError):
            engine.answer(query, "by-tuple", "distribution")

    def test_undefinable_group_falls_back_to_naive(self, ds2, pm2):
        # WHERE can empty a group in some worlds -> composition declines,
        # enumeration answers.
        query = (
            "SELECT MAX(R1.price) FROM (SELECT MAX(R2.price) FROM T2 AS R2 "
            "WHERE R2.price > 400 GROUP BY R2.auctionID) AS R1"
        )
        engine = AggregationEngine(
            [ds2], pm2, use_extensions=True, allow_exponential=True
        )
        answer = engine.answer(query, "by-tuple", "distribution")
        naive = naive_by_tuple_answer(
            ds2, pm2, parse_query(query), AggregateSemantics.DISTRIBUTION
        )
        assert answer.approx_equal(naive, 1e-9)

    def test_scales_beyond_enumeration(self, pm2):
        # 60 auctions x ~6 bids each: far beyond 2^360 naive sequences, yet
        # the composition answers exactly.
        trace = ebay.generate_auctions(60, mean_bids=5, seed=3)
        engine = AggregationEngine([trace], pm2, use_extensions=True)
        answer = engine.answer(ebay.Q2, "by-tuple", "expected-value")
        assert answer.is_defined