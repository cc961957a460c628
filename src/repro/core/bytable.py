"""The generic by-table algorithm (paper Figure 1).

Under by-table semantics one mapping applies to the whole relation, so the
algorithm is: reformulate the query once per candidate mapping, answer each
reformulation as an ordinary (certain) aggregate query, and combine the
per-mapping results according to the chosen aggregate semantics
(``CombineResults`` in the paper).

Reformulated queries can be answered by any of three substrates:

* :func:`memory_executor` — the in-memory evaluator
  (:mod:`repro.core.eval`), a walk over ``Row`` objects;
* :func:`columnar_executor` — one Kleene mask plus one array fold per
  query over a cached :class:`~repro.storage.columnar.ColumnarTable`
  snapshot, declining (raising
  :class:`~repro.core.vectorized.VectorizationError`) outside its
  fragment so the caller reruns the whole query on rows;
* :func:`sqlite_executor` — the SQLite backend, which is what gives the
  by-table path the "DBMS optimizations" scalability the paper reports.

All three produce identical answers (a tested invariant; the columnar
executor is ``==`` to the in-memory one, types included).
"""

from __future__ import annotations

import datetime
import math
from collections.abc import Callable, Mapping

from repro.core import vectorized
from repro.core.answers import (
    AggregateAnswer,
    DistributionAnswer,
    ExpectedValueAnswer,
    GroupedAnswer,
    RangeAnswer,
    require_numeric,
)
from repro.core.eval import evaluate_certain
from repro.core.semantics import AggregateSemantics
from repro.core.vectorized import VectorizationError
from repro.exceptions import EvaluationError
from repro.prob.distribution import DiscreteDistribution
from repro.schema.mapping import PMapping
from repro.schema.model import AttributeType, Relation
from repro.sql.ast import AggregateOp, AggregateQuery, SubquerySource
from repro.sql.reformulate import reformulations
from repro.sql.render import executable_sql
from repro.storage.columnar import ColumnarTable
from repro.storage.sqlite_backend import SQLiteBackend
from repro.storage.table import Table

#: A certain-query executor: reformulated query -> scalar or {group: value}.
CertainExecutor = Callable[[AggregateQuery], object]


def memory_executor(tables: Mapping[str, Table]) -> CertainExecutor:
    """An executor answering reformulated queries over in-memory tables."""

    def execute(query: AggregateQuery) -> object:
        return evaluate_certain(query, tables)

    return execute


def columnar_executor(ctable: ColumnarTable) -> CertainExecutor:
    """An executor folding reformulated flat queries over column arrays.

    The WHERE clause compiles to the vectorized lane's Kleene mask
    (:func:`repro.core.vectorized._truth`); the aggregate folds the masked
    column: COUNT is a mask sum, SUM and AVG are ``math.fsum`` over the
    masked values (the multiset :func:`repro.core.eval.apply_aggregate`
    sums, so the float is bit-identical), MIN/MAX an array min/max
    returned as a Python float.

    Outside the fragment the executor raises
    :class:`~repro.core.vectorized.VectorizationError` and the caller
    answers the whole query on rows: nested queries, GROUP BY, DISTINCT
    other than MIN/MAX, SUM/AVG/MIN/MAX over non-REAL columns (where the
    row path returns ``int``/``date``/``str``), NaN under MIN/MAX (whose
    Python result depends on row order), and a missing numpy.
    """

    def execute(query: AggregateQuery) -> object:
        return _fold_columns(query, ctable)

    return execute


def _fold_columns(query: AggregateQuery, ctable: ColumnarTable) -> object:
    np = vectorized.np
    if np is None or ctable.backend != "numpy":
        raise VectorizationError("the numpy columnar backend is unavailable")
    if isinstance(query.source, SubquerySource):
        raise VectorizationError("nested queries are answered on rows")
    if query.group_by is not None:
        raise VectorizationError("GROUP BY is answered on rows")
    if query.source.name != ctable.relation.name:
        raise VectorizationError(
            f"query reads {query.source.name!r}, the snapshot holds "
            f"{ctable.relation.name!r}"
        )
    aggregate = query.aggregate
    op = aggregate.op
    if aggregate.distinct and op not in (AggregateOp.MIN, AggregateOp.MAX):
        raise VectorizationError(f"{op.value}(DISTINCT) is answered on rows")
    binding = query.source.binding_name
    argument = aggregate.argument
    relation = ctable.relation
    if op is not AggregateOp.COUNT and (
        argument.name not in relation
        or relation.attribute(argument.name).type is not AttributeType.REAL
    ):
        raise VectorizationError(
            f"{op.value} over non-REAL column {argument.name!r} is "
            "answered on rows"
        )
    selected, _ = vectorized._truth(query.where, ctable, binding)
    if argument is not None:
        column, nulls = vectorized._resolve_column(argument, ctable, binding)
        if nulls is not None:
            selected = selected & ~nulls
    if op is AggregateOp.COUNT:
        return int(np.count_nonzero(selected))
    values = column[selected]
    if values.size == 0:
        return None
    if op is AggregateOp.SUM:
        return math.fsum(values.tolist())
    if op is AggregateOp.AVG:
        return math.fsum(values.tolist()) / values.size
    if np.isnan(values).any():
        raise VectorizationError("NaN under MIN/MAX is answered on rows")
    return float(values.min() if op is AggregateOp.MIN else values.max())


def sqlite_executor(backend: SQLiteBackend) -> CertainExecutor:
    """An executor shipping reformulated queries to the SQLite backend.

    Dates come back as ISO TEXT from SQLite; group keys and MIN/MAX results
    over DATE columns are converted back to :class:`datetime.date` so both
    executors return identical values.
    """

    def execute(query: AggregateQuery) -> object:
        catalog = {
            name: backend.relation(name) for name in backend.relation_names
        }
        sql = executable_sql(query, catalog)
        rows = backend.query(sql)
        flat = query.source.query if isinstance(query.source, SubquerySource) else query
        relation = catalog[flat.source.name]
        convert_value = _value_converter(flat, relation)
        if isinstance(query.source, SubquerySource) or flat.group_by is None:
            if not rows:
                return None
            return convert_value(rows[0][-1])
        convert_key = _key_converter(flat, relation)
        return {convert_key(row[0]): convert_value(row[1]) for row in rows}

    return execute


def _value_converter(flat: AggregateQuery, relation: Relation):
    argument = flat.aggregate.argument
    needs_date = (
        argument is not None
        and flat.aggregate.op in (AggregateOp.MIN, AggregateOp.MAX)
        and argument.name in relation
        and relation.attribute(argument.name).type is AttributeType.DATE
    )

    def convert(value: object) -> object:
        if value is None:
            return None
        if needs_date:
            return datetime.date.fromisoformat(str(value))
        return value

    return convert


def _key_converter(flat: AggregateQuery, relation: Relation):
    group = flat.group_by
    is_date = (
        group is not None
        and group.name in relation
        and relation.attribute(group.name).type is AttributeType.DATE
    )

    def convert(key: object) -> object:
        if key is None or not is_date:
            return key
        return datetime.date.fromisoformat(str(key))

    return convert


def by_table_results(
    query: AggregateQuery,
    pmapping: PMapping,
    executor: CertainExecutor,
) -> list[tuple[object, float]]:
    """Steps 1-4 of Figure 1: one certain answer per candidate mapping."""
    return [
        (executor(reformulated), probability)
        for reformulated, probability in reformulations(
            query, pmapping, unmapped="null"
        )
    ]


def combine_scalar_results(
    results: list[tuple[float | None, float]],
    semantics: AggregateSemantics,
) -> AggregateAnswer:
    """``CombineResults`` of Figure 1 for one scalar answer per mapping.

    A ``None`` per-mapping value means the aggregate was undefined under
    that mapping (no qualifying tuples); the range/distribution report the
    defined values and record the undefined probability mass, and the
    expected value conditions on the aggregate being defined.
    """
    defined = [(v, p) for v, p in results if v is not None]
    undefined_mass = math.fsum(p for v, p in results if v is None)
    if semantics is AggregateSemantics.RANGE:
        if not defined:
            return RangeAnswer(None, None)
        values = [v for v, _ in defined]
        return RangeAnswer(min(values), max(values))
    if semantics is AggregateSemantics.DISTRIBUTION:
        if not defined:
            return DistributionAnswer(None, undefined_probability=1.0)
        distribution = DiscreteDistribution(defined, normalize=True)
        return DistributionAnswer(
            distribution, undefined_probability=undefined_mass
        )
    if semantics is AggregateSemantics.EXPECTED_VALUE:
        if not defined:
            return ExpectedValueAnswer(None)
        require_numeric(defined[0][0])
        defined_mass = math.fsum(p for _, p in defined)
        value = math.fsum(v * p for v, p in defined) / defined_mass
        return ExpectedValueAnswer(value)
    raise EvaluationError(f"unknown aggregate semantics {semantics!r}")


def combine_results(
    results: list[tuple[object, float]],
    semantics: AggregateSemantics,
) -> AggregateAnswer:
    """``CombineResults`` for scalar or grouped per-mapping answers.

    For grouped answers the combination happens per group over the union of
    group keys; a mapping under which a group has no qualifying tuples (SQL
    omits the group entirely) contributes an undefined value for that group.
    """
    if not results:
        raise EvaluationError("no per-mapping results to combine")
    if not isinstance(results[0][0], dict):
        return combine_scalar_results(results, semantics)
    keys: dict[object, None] = {}
    for result, _ in results:
        if not isinstance(result, dict):
            raise EvaluationError(
                "cannot combine grouped and ungrouped per-mapping results"
            )
        for key in result:
            keys.setdefault(key, None)
    combined: dict[object, AggregateAnswer] = {}
    for key in keys:
        per_mapping = [(result.get(key), probability) for result, probability in results]
        combined[key] = combine_scalar_results(per_mapping, semantics)
    return GroupedAnswer(combined)


def by_table_answer(
    query: AggregateQuery,
    pmapping: PMapping,
    executor: CertainExecutor,
    semantics: AggregateSemantics,
) -> AggregateAnswer:
    """The full by-table algorithm of Figure 1 for any aggregate semantics."""
    return combine_results(by_table_results(query, pmapping, executor), semantics)
