"""Naive by-tuple evaluation by enumerating all mapping sequences.

This is the paper's baseline (and the only *exact* route for the semantics
cells without a PTIME algorithm): with ``n`` tuples and ``m`` mappings,
enumerate all ``m^n`` sequences, materialize the possible world each
sequence induces on the target schema, evaluate the query in that world,
and fold the results into a probability distribution (Example 3/4 of the
paper, and the Section IV-B opening argument for why this blows up).

Because each world is an ordinary (certain) database instance, this module
handles *every* supported query shape — nested aggregates, GROUP BY,
DISTINCT — which makes it the reference implementation the PTIME
algorithms are tested against.

The cost is Theta(m^n) query evaluations; :data:`DEFAULT_MAX_SEQUENCES`
guards against accidental explosions.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator

from repro.core import guard as guardmod
from repro.core.answers import (
    AggregateAnswer,
    DistributionAnswer,
    GroupedAnswer,
)
from repro.core.eval import evaluate_certain
from repro.core.semantics import AggregateSemantics
from repro.exceptions import EvaluationError, UnsupportedQueryError
from repro.prob.distribution import DiscreteDistribution
from repro.schema.mapping import PMapping
from repro.sql.ast import AggregateQuery, SubquerySource
from repro.storage.table import Table

#: Refuse to enumerate more sequences than this unless overridden.
DEFAULT_MAX_SEQUENCES = 1 << 22


def _target_relation_name(query: AggregateQuery) -> str:
    source = query.source
    while isinstance(source, SubquerySource):
        source = source.query.source
    return source.name


def _projected_rows(table: Table, pmapping: PMapping) -> list[list[tuple]]:
    """``rows[i][j]``: tuple ``i`` projected onto the target schema by mapping ``j``.

    Target attributes without a correspondence under a mapping become NULL.
    """
    target = pmapping.target
    projections: list[list[tuple]] = []
    per_mapping_indexes: list[list[int | None]] = []
    for mapping, _ in pmapping:
        indexes: list[int | None] = []
        for attribute in target:
            if mapping.maps_target(attribute.name):
                indexes.append(
                    table.relation.index_of(mapping.source_for(attribute.name))
                )
            else:
                indexes.append(None)
        per_mapping_indexes.append(indexes)
    for values in table.rows:
        projections.append(
            [
                tuple(
                    values[index] if index is not None else None
                    for index in indexes
                )
                for indexes in per_mapping_indexes
            ]
        )
    return projections


def sequence_count(table: Table, pmapping: PMapping) -> int:
    """``m ** n``: the number of mapping sequences for this instance."""
    return len(pmapping) ** len(table)


def iter_sequence_results(
    table: Table,
    pmapping: PMapping,
    query: AggregateQuery,
    *,
    max_sequences: int = DEFAULT_MAX_SEQUENCES,
) -> Iterator[tuple[tuple[int, ...], object, float]]:
    """Yield ``(sequence, query_result, probability)`` for every sequence.

    ``sequence`` assigns a mapping index to each tuple; ``query_result`` is
    whatever :func:`~repro.core.eval.evaluate_certain` returns for the
    possible world the sequence induces (a scalar, ``None`` for an
    undefined aggregate, or a per-group dict).

    This generator backs both the distribution computation below and the
    paper's Table VII, which lists the 16 sequences of query Q2'.
    """
    total = sequence_count(table, pmapping)
    if total > max_sequences:
        raise EvaluationError(
            f"naive enumeration would visit {total} mapping sequences "
            f"(> {max_sequences}); use the PTIME algorithms where available, "
            "repro.core.sampling for an estimate, or raise max_sequences"
        )
    projections = _projected_rows(table, pmapping)
    probabilities = list(pmapping.probabilities)
    target = pmapping.target
    target_name = _target_relation_name(query)
    if target_name != target.name:
        raise UnsupportedQueryError(
            f"query reads from {target_name!r} but the p-mapping targets "
            f"{target.name!r}"
        )
    guard = guardmod.current_guard()
    n = len(projections)
    for sequence in itertools.product(range(len(pmapping)), repeat=n):
        if guard is not None:
            # Each sequence is one possible world: an O(n) materialization
            # plus a full query evaluation, so check every iteration.
            guard.add_worlds(1)
        world_rows = [
            projections[i][mapping_index]
            for i, mapping_index in enumerate(sequence)
        ]
        world = Table.from_prepared_rows(target, world_rows)
        probability = math.prod(probabilities[j] for j in sequence)
        result = evaluate_certain(query, {target.name: world})
        yield sequence, result, probability


def _combine_scalar(
    outcomes: dict[float, float], undefined_mass: float
) -> DistributionAnswer:
    if not outcomes:
        return DistributionAnswer(None, undefined_probability=1.0)
    distribution = DiscreteDistribution(outcomes, normalize=True)
    return DistributionAnswer(distribution, undefined_probability=undefined_mass)


def naive_by_tuple_distribution(
    table: Table,
    pmapping: PMapping,
    query: AggregateQuery,
    *,
    max_sequences: int = DEFAULT_MAX_SEQUENCES,
) -> AggregateAnswer:
    """The exact by-tuple distribution by full sequence enumeration.

    For grouped queries, a group missing from a world (no qualifying tuple
    carried its key) counts toward that group's undefined mass.
    """
    scalar_outcomes: dict[float, float] = {}
    scalar_undefined = 0.0
    grouped_outcomes: dict[object, dict[float, float]] = {}
    grouped_mass: dict[object, float] = {}
    total_mass = 0.0
    saw_grouped = False
    for _, result, probability in iter_sequence_results(
        table, pmapping, query, max_sequences=max_sequences
    ):
        total_mass += probability
        if isinstance(result, dict):
            saw_grouped = True
            for key, value in result.items():
                grouped_mass[key] = grouped_mass.get(key, 0.0) + probability
                if value is not None:
                    bucket = grouped_outcomes.setdefault(key, {})
                    bucket[value] = bucket.get(value, 0.0) + probability
        elif result is None:
            scalar_undefined += probability
        else:
            scalar_outcomes[result] = scalar_outcomes.get(result, 0.0) + probability
    if saw_grouped or query.group_by is not None:
        keys = set(grouped_mass) | set(grouped_outcomes)
        return GroupedAnswer(
            {
                key: _combine_scalar(
                    grouped_outcomes.get(key, {}),
                    # Worlds where the group is absent, plus worlds where it
                    # is present but the aggregate is undefined.
                    total_mass
                    - math.fsum(grouped_outcomes.get(key, {}).values()),
                )
                for key in keys
            }
        )
    return _combine_scalar(scalar_outcomes, scalar_undefined)


def naive_by_tuple_answer(
    table: Table,
    pmapping: PMapping,
    query: AggregateQuery,
    semantics: AggregateSemantics,
    *,
    max_sequences: int = DEFAULT_MAX_SEQUENCES,
) -> AggregateAnswer:
    """Exact by-tuple answer for any aggregate semantics, via enumeration."""
    answer = naive_by_tuple_distribution(
        table, pmapping, query, max_sequences=max_sequences
    )

    if isinstance(answer, GroupedAnswer):
        return GroupedAnswer(
            {key: value.project(semantics) for key, value in answer}
        )
    assert isinstance(answer, DistributionAnswer)
    return answer.project(semantics)
