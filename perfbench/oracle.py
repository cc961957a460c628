"""Independent references for the ``worlds`` workload.

Each function reads the generated CSV and p-mapping JSON with the
standard library and computes, by its own arithmetic, what the program's
open-cell lanes must answer on the same input: the COUNT distribution by
a Poisson-binomial recurrence, MIN/MAX distributions by a product of
per-tuple survival probabilities, SUM/AVG by enumerating every
possible world, and the Q2 range and expected value per auction.  Results
are canonical tuples (see :mod:`checks`); distributions are conditioned on
the aggregate being defined, as the program reports them.
"""

from __future__ import annotations

import csv
import itertools
import json
from pathlib import Path


class Source:
    """One generated dataset: per tuple, the uncertain attribute's value
    under each mapping, plus the mapping probabilities."""

    def __init__(self, directory: Path, dataset: dict, target: str) -> None:
        pmapping = json.loads((directory / dataset["mapping"]).read_text())
        columns, self.probabilities = [], []
        for mapping in pmapping["mappings"]:
            self.probabilities.append(mapping["probability"])
            columns.extend(c["source"] for c in mapping["correspondences"] if c["target"] == target)
        with (directory / dataset["csv"]).open(newline="") as handle:
            rows = list(csv.DictReader(handle))
        self.values = [[float(row[column]) for column in columns] for row in rows]

    def choices(self, below: float) -> list[list[tuple[float | None, float]]]:
        """Per tuple: ``(value or None when the tuple fails value < below,
        probability)`` for each mapping."""
        return [
            [(v if v < below else None, p) for v, p in zip(values, self.probabilities)]
            for values in self.values
        ]


def _distribution(mass: dict[float, float]) -> tuple:
    undefined = mass.pop(None, 0.0)
    defined = 1.0 - undefined
    if not mass:
        return ("distribution", 1.0, None)
    return ("distribution", undefined, tuple(sorted((v, p / defined) for v, p in mass.items())))


def count_distribution(source: Source, below: float) -> tuple:
    """P(COUNT = k): each tuple qualifies independently with the total
    probability of the mappings under which it passes the WHERE clause."""
    dp = [1.0]
    for choices in source.choices(below):
        q = sum(p for v, p in choices if v is not None)
        nxt = [0.0] * (len(dp) + 1)
        for k, mass in enumerate(dp):
            nxt[k] += mass * (1.0 - q)
            nxt[k + 1] += mass * q
        dp = nxt
    return _distribution({k: mass for k, mass in enumerate(dp) if mass > 0.0})


def extreme_distribution(source: Source, below: float, op: str) -> tuple:
    """P(MIN = x) / P(MAX = x) from the probability that every tuple
    either fails the WHERE clause or lies on the far side of ``x``."""
    choices = source.choices(below)
    sign = 1.0 if op == "MIN" else -1.0
    support = sorted({sign * v for c in choices for v, _ in c if v is not None})

    def beyond(x: float) -> float:  # P(every qualifying value is >= x), in signed space
        product = 1.0
        for c in choices:
            product *= sum(p for v, p in c if v is None or sign * v >= x)
        return product

    tails = [beyond(x) for x in support] + [beyond(float("inf"))]
    mass = {sign * x: tails[i] - tails[i + 1] for i, x in enumerate(support)}
    mass[None] = tails[-1]
    return _distribution(mass)


def enumerate_worlds(source: Source, below: float, op: str) -> tuple[tuple, tuple]:
    """SUM or AVG by visiting every possible world; returns the
    (distribution, expected value) pair."""
    mass: dict[float | None, float] = {}
    for world in itertools.product(*source.choices(below)):
        probability = 1.0
        chosen = []
        for value, p in world:
            probability *= p
            if value is not None:
                chosen.append(value)
        if not chosen:
            value = None
        else:
            value = sum(chosen) if op == "SUM" else sum(chosen) / len(chosen)
        mass[value] = mass.get(value, 0.0) + probability
    distribution = _distribution(dict(mass))
    pairs = distribution[2] or ()
    expected = sum(v * p for v, p in pairs) if pairs else None
    return distribution, ("expected-value", expected)


def sum_bounds(source: Source, below: float) -> tuple[float, float]:
    """Smallest and largest SUM over all worlds (a tuple that fails adds 0)."""
    choices = source.choices(below)
    low = sum(min(v or 0.0 for v, _ in c) for c in choices)
    high = sum(max(v or 0.0 for v, _ in c) for c in choices)
    return low, high


def value_bounds(source: Source, below: float) -> tuple[float, float]:
    """Smallest and largest qualifying value: bounds on any world's AVG."""
    values = [v for c in source.choices(below) for v, _ in c if v is not None]
    return min(values), max(values)


def q2_references(directory: Path, dataset: dict) -> tuple[tuple, tuple]:
    """Q2 (average over auctions of the closing price) under by-tuple
    semantics: the range composes per-auction MAX ranges; the expected
    value averages each auction's expected MAX, computed from
    P(MAX <= x) = product over its bids of P(bid's price <= x)."""
    pmapping = json.loads((directory / dataset["mapping"]).read_text())
    columns = [
        next(c["source"] for c in m["correspondences"] if c["target"] == "price")
        for m in pmapping["mappings"]
    ]
    probabilities = [m["probability"] for m in pmapping["mappings"]]
    groups: dict[str, list[list[float]]] = {}
    with (directory / dataset["csv"]).open(newline="") as handle:
        for row in csv.DictReader(handle):
            groups.setdefault(row["auction"], []).append([float(row[c]) for c in columns])
    lows, highs, expectations = [], [], []
    for bids in groups.values():
        lows.append(max(min(b) for b in bids))
        highs.append(max(max(b) for b in bids))
        support = sorted({v for b in bids for v in b})
        previous, expected = 0.0, 0.0
        for x in support:
            at_most = 1.0
            for b in bids:
                at_most *= sum(p for v, p in zip(b, probabilities) if v <= x)
            expected += x * (at_most - previous)
            previous = at_most
        expectations.append(expected)
    count = len(groups)
    return (
        ("range", sum(lows) / count, sum(highs) / count),
        ("expected-value", sum(expectations) / count),
    )
