"""The exact distribution engine for the open by-tuple cells — beyond the paper.

Figure 6 leaves by-tuple SUM/AVG distribution, AVG expected value and
MIN/MAX distribution/expected value open; the paper's generic route
enumerates all ``m^n`` mapping sequences (:mod:`repro.core.naive`).  Mapping
choices are independent per tuple, so each cell is a function of ``n``
independent variables — tuple ``i`` contributes ``v`` with probability
``P_i(v)`` or is excluded (fails WHERE, NULL argument) with probability
``e_i`` — the decomposition view of Fink, Han and Olteanu, "Aggregation in
Probabilistic Databases via Knowledge Compilation":

* **SUM/AVG — support-deduplicated convolution** over the exact partial
  sum (SUM) or joint ``(sum, count)`` (AVG, finalized to ``sum / count``),
  merging equal states after every step.  Sums are integers over the
  inputs' common binary denominator, so equal sums merge whatever the
  addition order and each value is the correctly rounded ``math.fsum`` of
  its world.  O(n * m * S) for a largest support ``S <= m^n``, bounded by
  :func:`_support_cap`.
* **MIN/MAX — sweep order statistics**: ``P(MAX <= v) = prod_i F_i(v)``,
  ``F_i(v) = e_i + P_i(value <= v)``, kept current by a product tree that
  takes one O(log n) update per event of the sorted support; MIN sweeps
  descending.  Values compare natively, so DATE and TEXT work.
* **Nested composition** (Q2's shape): groups partition the tuples, so the
  per-group inner distributions are independent variables for the same
  convolution or sweep.

The planner runs it on the ``extension`` lane when extensions are enabled;
naive enumeration stays the reference and the Figure 7/8 baseline.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from operator import itemgetter

from repro.core import guard as guardmod
from repro.core.answers import (
    AggregateAnswer,
    DistributionAnswer,
    ExpectedValueAnswer,
    GroupedAnswer,
)
from repro.core.common import PreparedTupleQuery, run_possibly_grouped, run_prepared
from repro.core.semantics import AggregateSemantics
from repro.exceptions import (
    EvaluationError,
    GuardrailError,
    UnsupportedQueryError,
)
from repro.prob.distribution import DiscreteDistribution
from repro.schema.mapping import PMapping
from repro.sql.ast import AggregateOp, AggregateQuery
from repro.storage.table import Table

#: Support cap of the convolution when no ``Budget.max_support`` is active.
DEFAULT_MAX_SUPPORT = 200_000

#: One independent variable: its ``(value, probability)`` choices and its
#: exclusion mass (the probability it contributes nothing).
Variable = tuple[list[tuple[object, float]], float]


def _tuple_variables(prepared: PreparedTupleQuery) -> list[Variable]:
    """The per-tuple variables of a prepared problem.

    Equal values of one tuple merge; a tuple that never participates
    multiplies every product by 1 and adds nothing, so it is dropped.
    """
    probabilities = prepared.probabilities
    variables: list[Variable] = []
    for vector in prepared.contribution_vectors():
        weighted: dict[object, float] = {}
        exclusion = 0.0
        for probability, contribution in zip(probabilities, vector):
            if contribution is None:
                exclusion += probability
            else:
                weighted[contribution] = (
                    weighted.get(contribution, 0.0) + probability
                )
        if weighted:
            variables.append((list(weighted.items()), exclusion))
    return variables


def _answer(outcomes: dict, undefined: float) -> DistributionAnswer:
    if not outcomes or undefined >= 1.0:
        return DistributionAnswer(None, undefined_probability=1.0)
    return DistributionAnswer(
        DiscreteDistribution(outcomes, normalize=True),
        undefined_probability=undefined,
    )


# -- SUM / AVG: support-deduplicated convolution ----------------------------


def _support_cap(max_support: int | None = None) -> int:
    """The convolution's support cap: ``max_support`` when given, else the
    active guard's ``Budget.max_support``, else :data:`DEFAULT_MAX_SUPPORT`."""
    if max_support is not None:
        return max_support
    guard = guardmod.current_guard()
    limit = guard.budget.max_support if guard is not None else None
    return DEFAULT_MAX_SUPPORT if limit is None else limit


def _common_scale(variables: Sequence[Variable]) -> tuple[int, bool]:
    """The common denominator of every value, and whether all are ints.

    Every finite float is an integer over a power of two, so the largest
    denominator is a multiple of all the others.
    """
    scale = 1
    integral = True
    for choices, _ in variables:
        for value, _ in choices:
            if isinstance(value, float):
                integral = False
                if not math.isfinite(value):
                    raise UnsupportedQueryError(
                        f"exact SUM/AVG needs finite values, got {value!r}"
                    )
                denominator = value.as_integer_ratio()[1]
                if denominator > scale:
                    scale = denominator
            elif isinstance(value, bool) or not isinstance(value, int):
                raise UnsupportedQueryError(
                    f"exact SUM/AVG needs numeric values, got {value!r}"
                )
    return scale, integral


def _scaled(value, scale: int) -> int:
    if isinstance(value, int):
        return value * scale
    numerator, denominator = value.as_integer_ratio()
    return numerator * (scale // denominator)


def convolve(
    variables: Sequence[Variable],
    *,
    average: bool,
    max_support: int | None = None,
) -> DistributionAnswer:
    """The exact SUM (or AVG) distribution of independent variables.

    The state is the exact partial sum (SUM) or ``(sum, count)`` (AVG),
    ``None`` until some variable contributes; states merge after every
    step, and the merged support is checked against :func:`_support_cap`
    (through the active guard too, which also checks the deadline).

    Raises
    ------
    BudgetExceededError
        When the support outgrows the active ``Budget.max_support``.
    EvaluationError
        When it outgrows an explicit ``max_support`` or
        :data:`DEFAULT_MAX_SUPPORT`.
    UnsupportedQueryError
        For a non-numeric or non-finite value.
    """
    scale, integral = _common_scale(variables)
    cap = _support_cap(max_support)
    guard = guardmod.current_guard()
    states: dict = {None: 1.0}
    for choices, exclusion in variables:
        scaled = [(_scaled(value, scale), p) for value, p in choices]
        merged: dict = {}
        get = merged.get
        for key, mass in states.items():
            if exclusion:
                merged[key] = get(key, 0.0) + mass * exclusion
            if key is None:
                for value, p in scaled:
                    state = (value, 1) if average else value
                    merged[state] = get(state, 0.0) + mass * p
            elif average:
                total, count = key
                count += 1
                for value, p in scaled:
                    state = (total + value, count)
                    merged[state] = get(state, 0.0) + mass * p
            else:
                for value, p in scaled:
                    state = key + value
                    merged[state] = get(state, 0.0) + mass * p
        states = merged
        if guard is not None:
            guard.note_support(len(states))
            guard.check_deadline()
        if len(states) > cap:
            raise EvaluationError(
                f"exact distribution support would exceed {cap} outcomes "
                f"({len(states)}); use sampling or raise Budget.max_support"
            )
    undefined = states.pop(None, 0.0)
    outcomes: dict = {}
    for key, mass in states.items():
        if average:
            total, count = key
            value = total / scale / count
        else:
            value = key if integral else key / scale
        outcomes[value] = outcomes.get(value, 0.0) + mass
    return _answer(outcomes, undefined)


# -- MIN / MAX: sweep order statistics --------------------------------------


def extreme(
    variables: Sequence[Variable], *, maximize: bool
) -> DistributionAnswer:
    """The exact MAX (or MIN) distribution of independent variables.

    Sweeps the support ascending for MAX (descending for MIN); leaf ``i``
    of a product tree holds ``e_i`` plus the mass of tuple ``i``'s values
    already swept, so the root is ``P(MAX <= v)`` (``P(MIN >= v)``) and
    each distinct value's probability is the root's increase.
    """
    size = 1
    while size < len(variables):
        size <<= 1
    tree = [1.0] * (2 * size)
    events = []
    for index, (choices, exclusion) in enumerate(variables):
        tree[size + index] = exclusion
        events.extend((value, index, p) for value, p in choices)
    for node in range(size - 1, 0, -1):
        tree[node] = tree[2 * node] * tree[2 * node + 1]
    events.sort(key=itemgetter(0), reverse=not maximize)
    undefined = tree[1]
    swept = [0.0] * len(variables)
    guard = guardmod.current_guard()
    outcomes: dict = {}
    previous = undefined
    last = len(events) - 1
    for position, (value, index, p) in enumerate(events):
        swept[index] += p
        node = size + index
        tree[node] = variables[index][1] + swept[index]
        node >>= 1
        while node:
            tree[node] = tree[2 * node] * tree[2 * node + 1]
            node >>= 1
        if position < last and events[position + 1][0] == value:
            continue
        at_most = tree[1]
        if at_most > previous:
            outcomes[value] = at_most - previous
        previous = at_most
        if guard is not None:
            guard.check_deadline()
    return _answer(outcomes, undefined)


# -- by-tuple cells -------------------------------------------------------------


def distribution_kernel(prepared: PreparedTupleQuery) -> DistributionAnswer:
    """The exact by-tuple distribution of SUM, AVG, MIN or MAX over one
    prepared (ungrouped) problem.

    Raises
    ------
    UnsupportedQueryError
        For COUNT (the Figure 3 DP answers it) and for values outside the
        convolution's numeric fragment.
    """
    op = prepared.op
    if op in (AggregateOp.MAX, AggregateOp.MIN):
        return extreme(_tuple_variables(prepared), maximize=op is AggregateOp.MAX)
    if op in (AggregateOp.SUM, AggregateOp.AVG):
        return convolve(
            _tuple_variables(prepared), average=op is AggregateOp.AVG
        )
    raise UnsupportedQueryError(
        f"the exact distribution engine does not answer {op.value}"
    )


def exact_kernel(
    prepared: PreparedTupleQuery, semantics: AggregateSemantics
) -> AggregateAnswer:
    """The engine's answer over one prepared problem, projected to one
    aggregate semantics."""
    return distribution_kernel(prepared).project(semantics)


def by_tuple_exact_answer(
    table: Table,
    pmapping: PMapping,
    query: AggregateQuery,
    semantics: AggregateSemantics,
) -> AggregateAnswer:
    """By-tuple SUM/AVG/MIN/MAX under any aggregate semantics via the engine."""
    return run_possibly_grouped(
        table, pmapping, query, lambda prepared: exact_kernel(prepared, semantics)
    )


def by_tuple_extreme_answer(
    table: Table,
    pmapping: PMapping,
    query: AggregateQuery,
    semantics: AggregateSemantics,
    *,
    maximize: bool,
) -> AggregateAnswer:
    """By-tuple MIN/MAX under any aggregate semantics via the sweep."""

    def kernel(prepared: PreparedTupleQuery) -> AggregateAnswer:
        answer = extreme(_tuple_variables(prepared), maximize=maximize)
        return answer.project(semantics)

    return run_possibly_grouped(table, pmapping, query, kernel)


def by_tuple_distribution_max(
    table: Table, pmapping: PMapping, query: AggregateQuery
) -> AggregateAnswer:
    """Exact by-tuple distribution of MAX (see module docstring)."""
    return by_tuple_extreme_answer(
        table, pmapping, query, AggregateSemantics.DISTRIBUTION, maximize=True
    )


def by_tuple_distribution_min(
    table: Table, pmapping: PMapping, query: AggregateQuery
) -> AggregateAnswer:
    """Exact by-tuple distribution of MIN (see module docstring)."""
    return by_tuple_extreme_answer(
        table, pmapping, query, AggregateSemantics.DISTRIBUTION, maximize=False
    )


# -- nested composition ---------------------------------------------------------


def compose_independent(
    outer_op: AggregateOp,
    distributions: Sequence[DiscreteDistribution],
    *,
    max_support: int | None = None,
) -> DiscreteDistribution:
    """Distribution of ``outer_op`` over independent random variables.

    ``max_support`` caps a SUM/AVG convolution (default: see
    :func:`_support_cap`).

    Examples
    --------
    >>> from repro.prob.distribution import DiscreteDistribution as D
    >>> compose_independent(AggregateOp.SUM,
    ...                     [D({0: 0.5, 1: 0.5}), D({0: 0.5, 1: 0.5})])
    DiscreteDistribution({0: 0.25, 1: 0.5, 2: 0.25})
    """
    if not distributions:
        raise EvaluationError("need at least one group distribution")
    if outer_op is AggregateOp.COUNT:
        return DiscreteDistribution.point(len(distributions))
    variables = [(list(d.items()), 0.0) for d in distributions]
    if outer_op in (AggregateOp.SUM, AggregateOp.AVG):
        answer = convolve(
            variables,
            average=outer_op is AggregateOp.AVG,
            max_support=max_support,
        )
    elif outer_op in (AggregateOp.MAX, AggregateOp.MIN):
        answer = extreme(variables, maximize=outer_op is AggregateOp.MAX)
    else:
        raise UnsupportedQueryError(f"unknown outer aggregate {outer_op!r}")
    return answer.distribution


def nested_answer(compiled, semantics: AggregateSemantics) -> AggregateAnswer | None:
    """Exact nested distribution/expected value by independent composition.

    ``compiled`` is a nested :class:`~repro.core.compile.CompiledQuery`.
    Returns ``None`` (the caller falls back) when the outer aggregate is
    DISTINCT, the inner operator has no exact polynomial distribution
    (inner SUM/AVG), a group can be undefined in some world (the outer
    aggregate would range over a world-dependent set of groups), or the
    composed support outgrows :data:`DEFAULT_MAX_SUPPORT`.  A breach of
    the active ``Budget`` propagates as its typed guard error.
    """
    from repro.core.bytuple_count import distribution_count_kernel

    query = compiled.query
    if query.aggregate.distinct:
        return None
    inner_op = compiled.inner.query.aggregate.op
    if inner_op is AggregateOp.COUNT:
        inner_kernel = distribution_count_kernel
    elif inner_op in (AggregateOp.MAX, AggregateOp.MIN):
        inner_kernel = distribution_kernel
    else:
        return None
    inner_answer = run_prepared(compiled.inner.prepared(), inner_kernel)
    if isinstance(inner_answer, GroupedAnswer):
        group_answers = [answer for _, answer in inner_answer]
    else:
        group_answers = [inner_answer]
    distributions = []
    for answer in group_answers:
        if not answer.is_defined or answer.undefined_probability > 1e-12:
            return None
        distributions.append(answer.distribution)
    outer_op = query.aggregate.op
    if (
        semantics is AggregateSemantics.EXPECTED_VALUE
        and outer_op in (AggregateOp.SUM, AggregateOp.AVG)
    ):
        # Linearity of expectation avoids the convolution altogether.
        total = math.fsum(d.expected_value() for d in distributions)
        if outer_op is AggregateOp.AVG:
            total /= len(distributions)
        return ExpectedValueAnswer(total)
    try:
        distribution = compose_independent(outer_op, distributions)
    except GuardrailError:
        raise
    except EvaluationError:
        return None
    return DistributionAnswer(distribution).project(semantics)
