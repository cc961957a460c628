"""Plan-time cost estimation and the estimate/actual/feedback loop.

The planner (:meth:`repro.core.planner.Planner.plan`) has always *chosen*
a lane; this module makes it *predict* what the lane will do.  At plan
time :class:`CostModel` estimates, for every lane the plan could run
through (its fallback chain plus its degradation chain), the work the
lane would perform:

* ``rows`` — row visits: source rows scanned per pass times the number
  of passes (one per mapping for by-table, one per enumerated world for
  naive, one per Monte-Carlo draw for sampling);
* ``worlds`` — possible worlds enumerated or sampled (``0`` for the
  closed-form PTIME kernels, ``m`` for by-table, ``m^n`` for naive,
  the draw count for sampling);
* ``support`` — the largest distribution support the lane materializes
  (``n + 1`` for the COUNT DP, ``2`` for range, ``1`` for expected
  value);
* ``cost`` — dimensionless cost units, where one unit is roughly one
  scalar row-fold step.  Unit weights live in :data:`UNIT_COST`.

The chosen-lane estimate is recorded as a :class:`PlanEstimate` on the
:class:`~repro.core.planner.ExecutionPlan` (and in its ``to_dict()``),
so ``EXPLAIN`` shows what the planner expected.  After execution the
outermost frame of :func:`repro.core.execute.execute_plan` calls
:meth:`CostModel.actuals` with what actually ran — the executed lane,
the real draw count, the real answer support — computes misestimation
ratios (``actual / estimate``), and feeds ``planner.misestimate.*``
histograms.

**Feedback calibration** closes the loop: when the engine opts in
(``calibrate=True``), observed ``(rows, cost, seconds)`` triples land in
a :class:`~repro.obs.feedback.PlanFeedback` store and two things become
adaptive:

* :meth:`CostModel.predicted_seconds` converts cost units to wall-clock
  using the observed seconds-per-unit median, so estimates gain a time
  dimension;
* :meth:`CostModel.parallel_cutover` replaces the frozen
  ``min_rows_per_shard`` default with the measured break-even point
  between the parallel lane's linear fit (``seconds = a + b·rows``) and
  the cheapest sequential lane's per-row cost.

The parallel-vs-sequential decision itself goes through
:meth:`CostModel.parallel_beats_sequential` — a cost comparison, not a
threshold: with the default (uncalibrated) shard overhead the comparison
provably reduces to the historical ``rows > min_rows_per_shard`` rule,
and with calibration the break-even moves to where this host actually
is.  Either way the answer never changes — the parallel lane is
bit-for-bit equal to the sequential fold by construction.
"""

from __future__ import annotations

import math

from repro.core.planner import Lane, Substrate, degradation_chain
from repro.core.semantics import AggregateSemantics
from repro.sql.ast import AggregateOp

#: The :data:`UNIT_COST` key of a by-table plan answered by
#: :func:`repro.core.bytable.columnar_executor`.
BY_TABLE_COLUMNAR = f"{Lane.BY_TABLE}.{Substrate.COLUMNAR}"

#: Cost units per elementary work item, by lane.  One unit is roughly one
#: scalar row-fold step (predicate evaluation + accumulator update); the
#: other weights are relative to that.  Absolute scale is irrelevant —
#: only ratios between lanes drive decisions — and the feedback store
#: calibrates units to wall-clock per host.
UNIT_COST: dict[str, float] = {
    Lane.BY_TABLE: 0.8,  # per (row x mapping) through the row/SQLite executor
    BY_TABLE_COLUMNAR: 0.03,  # per (row x mapping): Kleene mask + array fold
    Lane.SCALAR: 1.0,  # per (row x mapping): predicate + fold
    Lane.VECTORIZED: 0.05,  # per (row x mapping) through the array kernels
    Lane.STREAMING: 1.05,  # scalar fold + per-row guard check
    Lane.PARALLEL: 1.0,  # per (row x mapping), divided across shards
    Lane.EXTENSION: 1.5,  # per (row x mapping) x sweep depth / state
    Lane.NESTED_RANGE: 1.2,  # inner fold + per-group composition
    Lane.NAIVE: 1.0,  # per (row x world)
    Lane.SAMPLING: 1.2,  # per (row x draw): RNG + predicate + fold
}

#: Tables with at least this many rows answer their flat PTIME cells from
#: the cached columnar snapshot (the vectorized by-tuple lane and the
#: columnar by-table executor) when the engine leaves ``vectorize`` unset.
#: Below it the per-query fixed cost of the array path (reformulating into
#: masks, numpy call overhead, building the snapshot at all) outweighs its
#: per-row saving.  Measured on a 2-CPU x86 host (numpy 2.4, warm
#: caches, 8 columns x 5 mappings, summed over the cells): the 7 by-tuple
#: cells break even near 32 rows (1.24 ms both ways; 7.4 vs 1.1 ms at
#: 256), the 15 by-table cells already favour columns at 8 rows (1.5 vs
#: 1.4 ms; 11.3 vs 1.6 ms at 256), and the snapshot costs 0.35 ms to
#: build at 256 rows.  The constant keeps an 8x margin over the by-tuple
#: crossover, so the paper's instances and other tiny tables stay on
#: rows.
COLUMNAR_CUTOVER_ROWS = 256

#: Per-support-cell weight of the COUNT distribution DP (the quadratic
#: term the ``max_support`` guard bounds).
DP_UNIT = 0.5

#: Worlds beyond this are reported as ``inf`` — the estimate only needs
#: to say "astronomically more than any budget", not the exact power.
WORLDS_CAP = float(1 << 62)

#: The cutover returned when calibration measured the parallel lane as
#: never paying off on this host (per-row parallel cost >= sequential).
NEVER_PARALLEL = 1 << 62


def cell_key(op: AggregateOp, mapping_semantics, aggregate_semantics) -> str:
    """The dotted cell key used by metrics and the feedback store."""
    return (
        f"{op.value}.{mapping_semantics.value}.{aggregate_semantics.value}"
    )


def naive_worlds(rows: int, mappings: int) -> float:
    """``m^n`` with an overflow guard (``inf`` past :data:`WORLDS_CAP`)."""
    if mappings <= 1 or rows <= 0:
        return 1.0
    if rows * math.log(mappings) > math.log(WORLDS_CAP):
        return math.inf
    return float(mappings**rows)


class LaneEstimate:
    """Predicted work for one lane: row visits, worlds, support, cost."""

    __slots__ = ("lane", "rows", "worlds", "support", "cost", "substrate")

    def __init__(
        self, lane: str, rows: float, worlds: float, support: float,
        cost: float, substrate: str | None = None,
    ) -> None:
        self.lane = lane
        self.rows = rows
        self.worlds = worlds
        self.support = support
        self.cost = cost
        self.substrate = substrate

    def to_dict(self) -> dict:
        return {
            "lane": self.lane,
            "substrate": self.substrate,
            "rows": self.rows,
            "worlds": self.worlds,
            "support": self.support,
            "cost": self.cost,
        }

    def __repr__(self) -> str:
        return (
            f"LaneEstimate({self.lane}, rows={self.rows:g}, "
            f"worlds={self.worlds:g}, cost={self.cost:g})"
        )


class PlanEstimate:
    """What the planner expected of a plan, recorded at plan time.

    ``rows``/``worlds``/``support``/``cost`` describe the chosen lane;
    ``candidates`` maps every lane in the plan's fallback and degradation
    chains to its own :class:`LaneEstimate` (so EXPLAIN can show the
    alternatives the planner weighed); ``cutover_rows`` is the effective
    parallel cutover the decision used (the static default or the
    calibrated break-even); ``predicted_seconds`` is the calibrated
    wall-clock prediction (``None`` until feedback exists); ``preempted``
    records a budget preemption — the planner swapping a lane whose
    estimate already exceeded the active budget (``None`` otherwise).
    """

    __slots__ = (
        "lane", "substrate", "rows", "worlds", "support", "cost",
        "candidates", "cutover_rows", "predicted_seconds", "preempted",
    )

    def __init__(
        self,
        chosen: LaneEstimate,
        candidates: dict[str, LaneEstimate],
        *,
        cutover_rows: int | None = None,
        predicted_seconds: float | None = None,
        preempted: dict | None = None,
    ) -> None:
        self.lane = chosen.lane
        self.substrate = chosen.substrate
        self.rows = chosen.rows
        self.worlds = chosen.worlds
        self.support = chosen.support
        self.cost = chosen.cost
        self.candidates = candidates
        self.cutover_rows = cutover_rows
        self.predicted_seconds = predicted_seconds
        self.preempted = preempted

    def candidate(self, lane: str) -> LaneEstimate | None:
        return self.candidates.get(lane)

    def to_dict(self) -> dict:
        return {
            "lane": self.lane,
            "substrate": self.substrate,
            "rows": self.rows,
            "worlds": self.worlds,
            "support": self.support,
            "cost": self.cost,
            "cutover_rows": self.cutover_rows,
            "predicted_seconds": self.predicted_seconds,
            "preempted": self.preempted,
            "candidates": {
                lane: estimate.to_dict()
                for lane, estimate in sorted(self.candidates.items())
            },
        }


class CostModel:
    """Per-lane work estimation, optionally calibrated by feedback.

    Stateless apart from the optional
    :class:`~repro.obs.feedback.PlanFeedback` reference; one instance
    lives on each :class:`~repro.core.execute.ExecutionContext`.
    """

    def __init__(self, feedback=None) -> None:
        self.feedback = feedback

    # -- per-lane formulas -------------------------------------------------

    def lane_estimate(
        self,
        lane: str,
        *,
        rows: int,
        mappings: int,
        op: AggregateOp,
        aggregate_semantics: AggregateSemantics,
        samples: int,
        shards: int = 2,
        cutover_rows: int | None = None,
        substrate: str | None = None,
    ) -> LaneEstimate:
        """The work one lane would do on ``rows`` source rows.

        ``shards``/``cutover_rows`` only matter for the parallel lane:
        the shard count divides the row work and the cutover derives the
        per-shard overhead (see :meth:`parallel_overhead_units`).
        ``substrate`` only matters for the by-table lane: the columnar
        executor has its own unit weight.
        """
        n, m = max(rows, 0), max(mappings, 1)
        unit = UNIT_COST[lane]
        if lane == Lane.BY_TABLE and substrate == Substrate.COLUMNAR:
            unit = UNIT_COST[BY_TABLE_COLUMNAR]
        support = self._support(lane, n, m, op, aggregate_semantics, samples)
        dp_cost = 0.0
        if (
            aggregate_semantics is AggregateSemantics.DISTRIBUTION
            and op is AggregateOp.COUNT
            and lane not in (Lane.BY_TABLE, Lane.NAIVE, Lane.SAMPLING)
        ):
            dp_cost = DP_UNIT * n * (n + 1)
        if lane == Lane.BY_TABLE:
            return LaneEstimate(lane, float(n * m), float(m), support,
                                unit * n * m, substrate)
        if lane == Lane.NAIVE:
            worlds = naive_worlds(n, m)
            return LaneEstimate(lane, n * worlds, worlds, support,
                                unit * n * worlds)
        if lane == Lane.SAMPLING:
            draws = max(samples, 0)
            return LaneEstimate(lane, float(n * draws), float(draws),
                                support, unit * n * draws)
        if lane == Lane.EXTENSION:
            if op in (AggregateOp.SUM, AggregateOp.AVG):
                # One merge step per row over at most min(m^n, cap) states.
                from repro.core.extensions import DEFAULT_MAX_SUPPORT

                states = min(naive_worlds(n, m), float(DEFAULT_MAX_SUPPORT))
                return LaneEstimate(lane, float(n), 0.0,
                                    naive_worlds(n, m), unit * n * m * states)
            # The product-tree sweep: one O(log n) update per event.
            depth = max(1.0, math.log2(max(n, 1)))
            return LaneEstimate(lane, float(n), 0.0, support,
                                unit * n * m * depth + dp_cost)
        if lane == Lane.PARALLEL:
            shards = max(shards, 1)
            overhead = self.parallel_overhead_units(
                mappings=m,
                cutover_rows=(
                    cutover_rows if cutover_rows is not None else n
                ),
            )
            cost = (unit * n * m + dp_cost) / shards + overhead * shards
            return LaneEstimate(lane, float(n), 0.0, support, cost)
        # Sequential single-pass lanes: scalar, vectorized, streaming,
        # and the nested range composition (whose inner fold is the
        # dominant term).
        return LaneEstimate(lane, float(n), 0.0, support,
                            unit * n * m + dp_cost)

    def _support(
        self,
        lane: str,
        n: int,
        m: int,
        op: AggregateOp,
        aggregate_semantics: AggregateSemantics,
        samples: int,
    ) -> float:
        if aggregate_semantics is AggregateSemantics.RANGE:
            return 2.0
        if aggregate_semantics is AggregateSemantics.EXPECTED_VALUE:
            return 1.0
        # Distribution semantics: the COUNT DP carries n + 1 cells; the
        # MIN/MAX order-statistics sweep at most n distinct values;
        # enumeration/sampling at most one value per world/draw.
        if op is AggregateOp.COUNT:
            return float(n + 1)
        if lane == Lane.NAIVE:
            return naive_worlds(n, m)
        if lane == Lane.SAMPLING:
            return float(max(samples, 0))
        return float(max(n, 1))

    # -- the parallel decision ---------------------------------------------

    def parallel_overhead_units(
        self, *, mappings: int, cutover_rows: int
    ) -> float:
        """Per-shard overhead, in cost units, implied by a cutover.

        Solving ``cost_parallel(n) = cost_sequential(n)`` for two shards
        at the cutover row count ``c`` gives ``overhead = c·m·u / 4`` —
        the overhead for which the cost comparison breaks even exactly
        where the engine's ``min_rows_per_shard`` contract says it
        should.  Calibration moves ``c`` (see :meth:`parallel_cutover`),
        which moves the overhead, which moves the decision.
        """
        unit = UNIT_COST[Lane.PARALLEL]
        return max(cutover_rows, 1) * max(mappings, 1) * unit / 4.0

    def parallel_cutover(self, key: str, default: int) -> int:
        """Rows above which the parallel lane engages for this cell.

        The calibrated break-even between the parallel lane's linear fit
        (``seconds = a + b·rows``) and the cheapest sequential lane's
        per-row seconds, when the feedback store has enough observations
        of both; the engine's static ``min_rows_per_shard`` otherwise.
        Returns :data:`NEVER_PARALLEL` when the measurements say the
        parallel lane never pays off on this host.
        """
        feedback = self.feedback
        if feedback is None:
            return default
        fit = feedback.linear_fit(key, Lane.PARALLEL)
        if fit is None:
            return default
        sequential = None
        for lane in (Lane.VECTORIZED, Lane.STREAMING, Lane.SCALAR):
            sequential = feedback.per_row_seconds(key, lane)
            if sequential is not None:
                break
        if sequential is None or sequential <= 0:
            return default
        intercept, per_row = fit
        if sequential <= per_row:
            return NEVER_PARALLEL
        break_even = intercept / (sequential - per_row)
        # Engage when rows > cutover, i.e. rows >= ceil(break_even).
        return max(1, math.ceil(break_even) - 1)

    def parallel_beats_sequential(
        self,
        *,
        sequential_lane: str = Lane.SCALAR,
        rows: int,
        mappings: int,
        op: AggregateOp,
        aggregate_semantics: AggregateSemantics,
        samples: int,
        max_workers: int,
        cutover_rows: int,
    ) -> bool:
        """Whether the parallel lane's estimate undercuts the sequential one.

        A pure cost comparison over :meth:`lane_estimate`, against
        ``sequential_lane``: the plan the parallel lane would fall back
        to (the vectorized lane on a columnar plan, else the scalar
        kernel).  Against the scalar lane, with the default overhead
        derivation, it reduces exactly to the historical
        ``rows > min_rows_per_shard`` rule (and an input that cannot fill
        two shards never parallelizes).
        """
        from repro.core.parallel import shard_count

        shards = shard_count(rows, max_workers, cutover_rows)
        if shards < 2:
            return False
        parallel = self.lane_estimate(
            Lane.PARALLEL,
            rows=rows,
            mappings=mappings,
            op=op,
            aggregate_semantics=aggregate_semantics,
            samples=samples,
            shards=shards,
            cutover_rows=cutover_rows,
        )
        sequential = self.lane_estimate(
            sequential_lane,
            rows=rows,
            mappings=mappings,
            op=op,
            aggregate_semantics=aggregate_semantics,
            samples=samples,
        )
        return parallel.cost < sequential.cost

    # -- plan-level estimation ---------------------------------------------

    def estimate_plan(self, plan, context) -> PlanEstimate:
        """The :class:`PlanEstimate` for a freshly-built plan.

        Estimates every lane in the plan's fallback chain and degradation
        chain; the chosen lane's numbers become the headline
        rows/worlds/support/cost.
        """
        compiled = plan.compiled
        n = len(compiled.table)
        m = len(compiled.pmapping)
        samples = getattr(context, "samples", 2000) if context else 2000
        op = compiled.query.aggregate.op
        key = cell_key(op, plan.mapping_semantics, plan.aggregate_semantics)
        cutover = None
        if context is not None and getattr(context, "max_workers", None):
            cutover = context.effective_min_rows_per_shard(key)
        lanes = list(
            dict.fromkeys(
                plan.fallback_chain + degradation_chain(plan.lane)
            )
        )
        candidates: dict[str, LaneEstimate] = {}
        for lane in lanes:
            shards = 2
            if lane == Lane.PARALLEL and context is not None:
                from repro.core.parallel import shard_count

                shards = max(
                    shard_count(
                        n,
                        getattr(context, "max_workers", 0) or 0,
                        cutover if cutover is not None else n or 1,
                    ),
                    1,
                )
            candidates[lane] = self.lane_estimate(
                lane,
                rows=n,
                mappings=m,
                op=op,
                aggregate_semantics=plan.aggregate_semantics,
                samples=samples,
                shards=shards,
                cutover_rows=cutover,
                substrate=plan.substrate,
            )
        chosen = candidates[plan.lane]
        predicted = self.predicted_seconds(key, plan.lane, chosen.cost)
        return PlanEstimate(
            chosen,
            candidates,
            cutover_rows=cutover,
            predicted_seconds=predicted,
        )

    def predicted_seconds(
        self, key: str, lane: str, cost: float
    ) -> float | None:
        """Calibrated wall-clock prediction for ``cost`` units, or ``None``."""
        feedback = self.feedback
        if feedback is None or not math.isfinite(cost) or cost <= 0:
            return None
        per_unit = feedback.seconds_per_unit(key, lane)
        if per_unit is None:
            return None
        return cost * per_unit

    # -- actuals -------------------------------------------------------------

    def actuals(
        self,
        plan,
        executed_lane: str,
        *,
        samples: int,
        support: float | None = None,
        progress: dict | None = None,
        substrate: str | None = None,
    ) -> dict:
        """What the executed lane actually did, in the estimate's units.

        For completed runs the counts are analytic and exact — a finished
        scalar fold visited exactly ``n`` rows, a finished sampling run
        drew exactly ``samples`` worlds — with the answer's real support
        substituted when the caller observed one.  For aborted runs
        (``progress`` from the guard) the partial counters are reported
        and the cost is left ``None``: a half-done run has no meaningful
        completed-cost.  ``substrate`` is the by-table substrate that
        actually answered (``None`` for the other lanes), so the actual
        cost follows a columnar query that declined to rows.
        """
        compiled = plan.compiled
        if progress is not None:
            return {
                "lane": executed_lane,
                "substrate": substrate,
                "rows": progress.get("rows"),
                "worlds": progress.get("worlds"),
                "support": progress.get("max_support") or support,
                "cost": None,
            }
        estimate = self.lane_estimate(
            executed_lane,
            rows=len(compiled.table),
            mappings=len(compiled.pmapping),
            op=compiled.query.aggregate.op,
            aggregate_semantics=plan.aggregate_semantics,
            samples=samples,
            substrate=substrate,
        )
        actual = estimate.to_dict()
        if support is not None:
            actual["support"] = support
        return actual


#: The shared default model for contexts that never opt into calibration.
DEFAULT_COST_MODEL = CostModel()


def misestimation(estimates: dict, actuals: dict) -> dict:
    """``actual / estimate`` ratios for the dimensions both sides have.

    Only finite, positive pairs produce a ratio — a lane whose estimate
    was ``inf`` (naive worlds past the cap) or an aborted run with no
    completed cost simply omits that dimension, keeping every reported
    ratio finite.
    """
    ratios: dict[str, float] = {}
    for kind in ("rows", "worlds", "support", "cost"):
        expected = estimates.get(kind)
        observed = actuals.get(kind)
        if (
            isinstance(expected, (int, float))
            and isinstance(observed, (int, float))
            and math.isfinite(expected)
            and math.isfinite(observed)
            and expected > 0
            and observed > 0
        ):
            ratios[kind] = observed / expected
    return ratios
