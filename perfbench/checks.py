"""Answer canonical forms and the comparisons the correctness checks use.

An answer is reduced to plain tuples through its public attributes only
(``low``/``high``, ``value``, ``distribution``/``undefined_probability``,
``groups``), so the checks never rely on the program's own ``__eq__``.
A served answer's JSON reduces to the same form.
"""

from __future__ import annotations

import bisect
import itertools
import math

#: Relative tolerance between two evaluation paths (summation order differs).
REL_TOL = 1e-9
#: Absolute tolerance on probabilities.
PROB_TOL = 1e-9


def _sort_key(item: tuple) -> tuple:
    key = item[0]
    return (key is None, type(key).__name__, key if key is not None else 0)


def canon(answer: object) -> tuple:
    """The canonical tuple of an engine answer object."""
    if hasattr(answer, "groups"):
        return ("grouped", tuple(sorted(
            ((key, canon(value)) for key, value in answer.groups.items()), key=_sort_key
        )))
    if hasattr(answer, "low"):
        return ("range", answer.low, answer.high)
    if hasattr(answer, "undefined_probability"):
        distribution = answer.distribution
        pairs = None if distribution is None else tuple(sorted(distribution.items()))
        return ("distribution", answer.undefined_probability, pairs)
    if hasattr(answer, "value"):
        return ("expected-value", answer.value)
    raise TypeError(f"not an answer: {answer!r}")


def canon_json(data: dict) -> tuple:
    """The canonical tuple of a served answer's JSON (``protocol`` 1)."""
    kind = data["kind"]
    if kind == "range":
        return ("range", data["low"], data["high"])
    if kind == "expected-value":
        return ("expected-value", data["value"])
    if kind == "distribution":
        outcomes = data["outcomes"]
        pairs = None if outcomes is None else tuple(sorted((v, p) for v, p in outcomes))
        return ("distribution", data.get("undefined_probability", 0.0), pairs)
    if kind == "grouped":
        return ("grouped", tuple(sorted(
            ((key, canon_json(value)) for key, value in data["groups"]), key=_sort_key
        )))
    raise ValueError(f"unknown answer kind {kind!r}")


def close(a: float | None, b: float | None, rel: float = REL_TOL) -> bool:
    """Numbers equal up to ``rel`` (``None`` only equals ``None``)."""
    if a is None or b is None:
        return a is None and b is None
    return math.isclose(a, b, rel_tol=rel, abs_tol=rel)


def _cdf(pairs: list[tuple[float, float]]):
    ordered = sorted(pairs)
    values = [v for v, _ in ordered]
    prefix = list(itertools.accumulate(p for _, p in ordered))
    return lambda x: prefix[bisect.bisect_right(values, x) - 1] if values and x >= values[0] else 0.0


def distributions_close(a: list[tuple[float, float]], b: list[tuple[float, float]],
                        rel: float = REL_TOL, tol: float = 1e-8) -> bool:
    """Two finite distributions agree: equal CDFs at every point between
    two support values more than ``rel`` apart, and equal total mass.
    Robust to one side splitting a value the other merged because it
    summed in another order."""
    cdf_a, cdf_b = _cdf(a), _cdf(b)
    values = sorted({v for v, _ in a} | {v for v, _ in b})
    points = [
        (low + high) / 2.0 for low, high in zip(values, values[1:]) if not close(low, high, rel)
    ]
    points.append(math.inf)
    return all(abs(cdf_a(x) - cdf_b(x)) <= tol for x in points)


def same(a: tuple, b: tuple) -> bool:
    """Two canonical answers agree up to the cross-path tolerances."""
    if a[0] != b[0]:
        return False
    kind = a[0]
    if kind == "range":
        return close(a[1], b[1]) and close(a[2], b[2])
    if kind == "expected-value":
        return close(a[1], b[1])
    if kind == "distribution":
        if abs(a[1] - b[1]) > PROB_TOL or (a[2] is None) != (b[2] is None):
            return False
        return a[2] is None or distributions_close(list(a[2]), list(b[2]))
    groups_a, groups_b = dict(a[1]), dict(b[1])
    return groups_a.keys() == groups_b.keys() and all(
        same(groups_a[k], groups_b[k]) for k in groups_a
    )


def contains(outer: tuple, inner: tuple) -> bool:
    """Range ``outer`` contains range ``inner`` (per group when grouped):
    every by-table world is a by-tuple world, so the by-table range lies
    inside the by-tuple one."""
    if outer[0] == "grouped" and inner[0] == "grouped":
        groups = dict(outer[1])
        return all(k in groups and contains(groups[k], v) for k, v in inner[1])
    if outer[0] != "range" or inner[0] != "range":
        return False
    if inner[1] is None:
        return True
    if outer[1] is None:
        return False
    slack = REL_TOL * max(1.0, abs(inner[1]), abs(inner[2]))
    return outer[1] <= inner[1] + slack and inner[2] <= outer[2] + slack


def expected_equal(bytuple: tuple, bytable: tuple) -> bool:
    """Theorem 4: by-tuple and by-table expected values agree.  A grouped
    by-tuple answer also lists the groups with no qualifying row in any
    world (expected COUNT 0, SUM undefined), which by-table omits."""
    if bytuple[0] == "grouped" and bytable[0] == "grouped":
        groups = dict(bytuple[1])
        empty = {("expected-value", None), ("expected-value", 0), ("expected-value", 0.0)}
        return all(k in groups and same(groups[k], v) for k, v in bytable[1]) and all(
            v in empty for k, v in bytuple[1] if k not in dict(bytable[1])
        )
    return same(bytuple, bytable)


def check_against_bytable(cell: tuple[str, str], answer: tuple, reference: tuple) -> bool:
    """Check ``answer`` for ``cell`` against the same text's by-table
    answer for the cell's aggregate semantics, computed on SQLite."""
    mapping, aggregate = cell
    if mapping == "by-table":
        return same(answer, reference)
    if aggregate == "range":
        return contains(answer, reference)
    if aggregate == "expected-value":
        return expected_equal(answer, reference)
    raise ValueError(f"no by-table reference for by-tuple {aggregate}")
