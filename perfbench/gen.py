"""Seeded input generator: writes every workload's CSVs, p-mappings and query stream.

Standard library only, and independent of the program under test: the
program receives nothing but the files written here, and a change to the
program's own data generators cannot change the inputs.  The same
``(workload, seed)`` always writes the same bytes.

Each workload directory holds ``manifest.json`` (datasets, engine options,
the query-stream file) plus one ``<name>.csv`` / ``<name>.json`` pair per
dataset.  A query-stream line is ``{"q": text, "m": mapping semantics,
"a": aggregate semantics}``.
"""

from __future__ import annotations

import datetime
import json
import random
from pathlib import Path

BY_TUPLE, BY_TABLE = "by-tuple", "by-table"
RANGE, DIST, EV = "range", "distribution", "expected-value"
AGGREGATES = ("COUNT", "SUM", "AVG", "MIN", "MAX")

#: Rows of the Section V table the ``scan`` workload folds.
SCAN_ROWS = 10_000
#: Rows of the dataset the ``serve`` workload serves.
SERVE_ROWS = 2_000
#: Distinct query texts ``adhoc`` cycles through: nearly eight times the
#: engine's 128-entry compile and plan caches, so a text always recurs
#: after its entries are evicted, and few enough that a run answers each
#: one some 50 times.
ADHOC_TEXTS = 1_000
#: Requests ``adhoc`` answers during set-up, the same for every seed.
ADHOC_WARMUP = 16
#: Auctions of the eBay table behind Q2 in ``worlds``.
WORLDS_AUCTIONS = 40

#: The paper's Q2 shape (Example 2) over the eBay mediated schema.
Q2 = (
    "SELECT AVG(R1.price) FROM "
    "(SELECT MAX(DISTINCT R2.price) FROM T2 AS R2 GROUP BY R2.auctionID) AS R1"
)


def _probabilities(rng: random.Random, count: int) -> list[float]:
    weights = [rng.random() + 0.05 for _ in range(count)]
    total = sum(weights)
    probabilities = [w / total for w in weights]
    probabilities[-1] = 1.0 - sum(probabilities[:-1])
    return probabilities


def _relation(name: str, attributes: list[tuple[str, str]]) -> dict:
    return {
        "name": name,
        "attributes": [{"name": a, "type": t} for a, t in attributes],
    }


def _pmapping(source: dict, target: dict, mappings: list[tuple[str, float, list]]) -> dict:
    return {
        "source": source,
        "target": target,
        "mappings": [
            {
                "name": name,
                "probability": probability,
                "correspondences": [
                    {"source": s, "target": t} for s, t in correspondences
                ],
            }
            for name, probability, correspondences in mappings
        ],
    }


def _write_dataset(out: Path, name: str, header: list[str], rows: list[tuple], pmapping: dict) -> dict:
    lines = [",".join(header)]
    lines.extend(",".join(_field(v) for v in row) for row in rows)
    (out / f"{name}.csv").write_text("\n".join(lines) + "\n")
    (out / f"{name}.json").write_text(json.dumps(pmapping, indent=1, sort_keys=True))
    return {"name": name, "csv": f"{name}.csv", "mapping": f"{name}.json", "rows": len(rows)}


def _field(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, datetime.date):
        return value.isoformat()
    return repr(value) if isinstance(value, float) else str(value)


def synthetic_dataset(
    rng: random.Random, out: Path, name: str, rows: int, attributes: int,
    mappings: int, source: str, target: str,
) -> dict:
    """A Section V table (id + REAL columns) with an uncertain ``value``."""
    header = ["id"] + [f"a{i}" for i in range(1, attributes + 1)]
    data = [
        (row_id,) + tuple(round(rng.uniform(0.0, 1000.0), 4) for _ in range(attributes))
        for row_id in range(1, rows + 1)
    ]
    chosen = rng.sample(header[1:], mappings)
    probabilities = _probabilities(rng, mappings)
    pmapping = _pmapping(
        _relation(source, [("id", "int")] + [(a, "real") for a in header[1:]]),
        _relation(target, [("id", "int"), ("value", "real")]),
        [
            (f"m{i + 1}", p, [("id", "id"), (column, "value")])
            for i, (column, p) in enumerate(zip(chosen, probabilities))
        ],
    )
    return _write_dataset(out, name, header, data, pmapping)


def realestate_dataset(out: Path) -> dict:
    """The paper's Table I instance and Example 1 p-mapping (fixed)."""
    header = ["ID", "price", "agentPhone", "postedDate", "reducedDate"]
    day = datetime.date
    rows = [
        (1, 100000.0, "215", day(2008, 1, 5), day(2008, 1, 30)),
        (2, 150000.0, "342", day(2008, 1, 30), day(2008, 2, 15)),
        (3, 200000.0, "215", day(2008, 1, 1), day(2008, 1, 10)),
        (4, 100000.0, "337", day(2008, 1, 2), day(2008, 2, 1)),
    ]
    known = [("ID", "propertyID"), ("price", "listPrice"), ("agentPhone", "phone")]
    pmapping = _pmapping(
        _relation("S1", [("ID", "int"), ("price", "real"), ("agentPhone", "text"),
                         ("postedDate", "date"), ("reducedDate", "date")]),
        _relation("T1", [("propertyID", "int"), ("listPrice", "real"),
                         ("phone", "text"), ("date", "date"), ("comments", "text")]),
        [
            ("m11", 0.6, known + [("postedDate", "date")]),
            ("m12", 0.4, known + [("reducedDate", "date")]),
        ],
    )
    return _write_dataset(out, "realestate", header, rows, pmapping)


def auctions_dataset(rng: random.Random, out: Path, name: str, auctions: int, mean_bids: int) -> dict:
    """Simulated second-price auctions (Example 2 schema): the listed
    ``currentPrice`` trails the winning ``bid``, the ambiguity the
    p-mapping models."""
    header = ["transactionID", "auction", "time", "bid", "currentPrice"]
    rows = []
    for number in range(1, auctions + 1):
        auction = number + 30
        start = round(rng.lognormvariate(5.3, 0.6), 2)
        # Bid counts repeat the same 2..(2*mean-2) cycle for every seed, so
        # the table's size, and the work over it, does not depend on the seed.
        bids = 2 + (number * 3) % (2 * mean_bids - 3)
        highest = second = start
        for sequence, time in enumerate(sorted(round(rng.uniform(0.0, 3.0), 4) for _ in range(bids)), 1):
            bid = round(min(highest, second + 2.5) + rng.lognormvariate(2.0, 1.0), 2)
            if bid > highest:
                highest, second = bid, highest
            elif bid > second:
                second = bid
            rows.append((auction * 100_000 + sequence, auction, time, bid,
                         round(min(highest, second + 2.5), 2)))
    known = [("transactionID", "transaction"), ("auction", "auctionID"), ("time", "timeUpdate")]
    pmapping = _pmapping(
        _relation("S2", [("transactionID", "int"), ("auction", "int"), ("time", "real"),
                         ("bid", "real"), ("currentPrice", "real")]),
        _relation("T2", [("transaction", "int"), ("auctionID", "int"),
                         ("timeUpdate", "real"), ("price", "real")]),
        [("m21", 0.3, known + [("bid", "price")]),
         ("m22", 0.7, known + [("currentPrice", "price")])],
    )
    return _write_dataset(out, name, header, rows, pmapping)


def _near(rng: random.Random, center: float) -> float:
    """A WHERE constant within 0.5 of ``center``: the seed changes the text
    and the data, while the selectivity, and so the work, stays put."""
    return round(center + rng.uniform(-0.5, 0.5), 4)


def _request(text: str, mapping: str, aggregate: str, check: dict | None = None) -> dict:
    request = {"q": text, "m": mapping, "a": aggregate}
    if check is not None:
        request["check"] = check
    return request


def ptime_cells(op: str) -> list[tuple[str, str]]:
    """Every cell the default engine answers in PTIME for a flat query."""
    cells = [(BY_TUPLE, RANGE)]
    if op in ("COUNT", "SUM"):
        cells.append((BY_TUPLE, EV))
    return cells + [(BY_TABLE, RANGE), (BY_TABLE, DIST), (BY_TABLE, EV)]


def gen_scan(rng: random.Random, out: Path) -> dict:
    dataset = synthetic_dataset(rng, out, "scan", SCAN_ROWS, 8, 5, "SRC", "MED")
    # One WHERE constant: 5 texts and 22 (text, cell) plans, all inside the
    # engine's 128-entry plan cache, and few enough that a run answers each
    # request some 30 times.
    constant = _near(rng, 500.0)
    stream = []
    for op in AGGREGATES:
        arg = "*" if op == "COUNT" else "value"
        text = f"SELECT {op}({arg}) FROM MED WHERE value < {constant}"
        stream.extend(_request(text, m, a) for m, a in ptime_cells(op))
    return {"datasets": [dataset], "engine": {}, "stream": stream}


def gen_serve(rng: random.Random, out: Path) -> dict:
    """Cheap by-tuple cells only.  A by-table cell scans 2,000 rows per
    mapping in ~8 ms of Python, past the interpreter's 5 ms switch
    interval, and made the served p95 jump whenever the box's speed moved
    that scan across it."""
    dataset = synthetic_dataset(rng, out, "serve", SERVE_ROWS, 8, 5, "SRC", "MED")
    # Four WHERE constants give 20 distinct requests, enough for a median
    # of their latencies under the percentile guard.
    stream = []
    for center in (350.0, 450.0, 550.0, 650.0):
        where = f"FROM MED WHERE value < {_near(rng, center)}"
        stream += [
            _request(f"SELECT COUNT(*) {where}", BY_TUPLE, RANGE),
            _request(f"SELECT SUM(value) {where}", BY_TUPLE, RANGE),
            _request(f"SELECT MIN(value) {where}", BY_TUPLE, RANGE),
            _request(f"SELECT SUM(value) {where}", BY_TUPLE, EV),
            _request(f"SELECT COUNT(*) {where}", BY_TUPLE, EV),
        ]
    return {"datasets": [dataset], "engine": {"vectorize": True}, "stream": stream}


def gen_worlds(rng: random.Random, out: Path) -> dict:
    datasets = [
        synthetic_dataset(rng, out, "dp", 1000, 6, 3, "W1", "D1"),
        synthetic_dataset(rng, out, "ext", 300, 6, 3, "W2", "D2"),
        synthetic_dataset(rng, out, "naive", 7, 6, 3, "W3", "D3"),
        synthetic_dataset(rng, out, "samp", 200, 6, 3, "W4", "D4"),
        auctions_dataset(rng, out, "auctions", WORLDS_AUCTIONS, 5),
    ]
    def check(kind: str, dataset: str, below: float) -> dict:
        return {"kind": kind, "dataset": dataset, "below": below}

    # Three WHERE constants give 22 distinct requests, enough for a median
    # of their latencies under the percentile guard.  MIN/MAX take one
    # constant: their cost follows an order statistic of the data, which
    # moves with the seed, so more of them would put that spread at the
    # median.
    constants = [_near(rng, center) for center in (400.0, 500.0, 600.0)]
    stream = []
    for c in constants:
        stream += [
            _request(f"SELECT COUNT(*) FROM D1 WHERE value < {c}", BY_TUPLE, DIST, check("count", "dp", c)),
            _request(f"SELECT SUM(value) FROM D3 WHERE value < {c}", BY_TUPLE, DIST, check("sum", "naive", c)),
            _request(f"SELECT AVG(value) FROM D3 WHERE value < {c}", BY_TUPLE, DIST, check("avg", "naive", c)),
            _request(f"SELECT AVG(value) FROM D3 WHERE value < {c}", BY_TUPLE, EV, check("avg", "naive", c)),
            _request(f"SELECT SUM(value) FROM D4 WHERE value < {c}", BY_TUPLE, DIST,
                     check("sum-sampled", "samp", c)),
            _request(f"SELECT AVG(value) FROM D4 WHERE value < {c}", BY_TUPLE, EV,
                     check("avg-sampled", "samp", c)),
        ]
    c = constants[1]
    stream += [
        _request(f"SELECT MIN(value) FROM D2 WHERE value < {c}", BY_TUPLE, DIST, check("min", "ext", c)),
        _request(f"SELECT MAX(value) FROM D2 WHERE value < {c}", BY_TUPLE, DIST, check("max", "ext", c)),
    ]
    q2 = {"kind": "q2", "dataset": "auctions", "below": None}
    stream += [_request(Q2, BY_TUPLE, RANGE, q2), _request(Q2, BY_TUPLE, EV, q2)]
    engine = {
        "allow_exponential": True, "use_extensions": True, "allow_sampling": True,
        "samples": 500, "seed": 7, "max_worlds": 20000, "degrade": True,
    }
    # Q2's by-tuple distribution over 40 auctions plans to nested-compose,
    # falls back to naive at run time and raises EvaluationError
    # (max_sequences).  It runs once per run, after the timed loop and
    # outside the operation counts; its outcome is printed with the result.
    probe = _request(Q2, BY_TUPLE, DIST, q2)
    return {"datasets": datasets, "engine": engine, "stream": stream, "probe": probe}


# -- adhoc: distinct texts over the SQL subset, cycled past every cache ---


def _day(rng: random.Random) -> str:
    d = datetime.date(2008, 1, 1) + datetime.timedelta(days=rng.randrange(50))
    return f"{d.year}-{d.month}-{d.day}"


def _realestate_condition(rng: random.Random, certain: bool) -> str:
    """A WHERE clause over T1; ``certain`` keeps it off the uncertain ``date``."""
    price = rng.randrange(90_000, 210_000)
    atoms = [
        f"listPrice < {price}",
        f"listPrice BETWEEN {price - 60_000} AND {price}",
        f"phone IN ('215', '{rng.randrange(300, 400)}')",
        f"phone LIKE '{rng.choice('23')}%'",
        "phone IS NOT NULL",
        "phone IS NULL",
        f"NOT listPrice > {price}",
    ]
    if not certain:
        atoms += [
            f"date < '{_day(rng)}'",
            f"date BETWEEN '{_day(rng)}' AND '2008-2-{rng.randrange(1, 28)}'",
            f"NOT date >= '{_day(rng)}'",
        ]
    first, second = rng.sample(atoms, 2)
    shape = rng.randrange(4)
    if shape == 0:
        return first
    if shape == 1:
        return f"{first} AND {second}"
    if shape == 2:
        return f"{first} OR {second}"
    return f"NOT ({first} OR {second})"


def _auction_condition(rng: random.Random, certain: bool, alias: str = "") -> str:
    """A WHERE clause over T2; ``certain`` keeps it off the uncertain ``price``."""
    time = round(rng.uniform(0.5, 3.0), 4)
    atoms = [
        f"{alias}timeUpdate < {time}",
        f"{alias}timeUpdate BETWEEN {round(time - 0.5, 4)} AND {time}",
        f"{alias}auctionID IN ({rng.randrange(31, 43)}, {rng.randrange(31, 43)})",
        f"NOT {alias}auctionID = {rng.randrange(31, 43)}",
        f"{alias}transaction IS NOT NULL",
    ]
    if not certain:
        price = round(rng.uniform(100.0, 500.0), 2)
        atoms += [f"{alias}price < {price}", f"{alias}price BETWEEN {price} AND {price + 150}"]
    first, second = rng.sample(atoms, 2)
    shape = rng.randrange(3)
    if shape == 0:
        return first
    return f"({first}) {'AND' if shape == 1 else 'OR'} ({second})"


def adhoc_request(rng: random.Random) -> dict:
    """One random PTIME request.  By-tuple expected value is asked only for
    COUNT, and for SUM under a WHERE over certain attributes, where
    Theorem 4 (by-tuple expected SUM = by-table expected SUM) is exact."""
    mapping = rng.choice((BY_TUPLE, BY_TABLE))
    aggregate = rng.choice((RANGE, EV)) if mapping == BY_TUPLE else rng.choice((RANGE, DIST, EV))
    shape = rng.randrange(10)
    if shape < 5:
        op = rng.choice(AGGREGATES) if aggregate == RANGE or mapping == BY_TABLE else rng.choice(("COUNT", "SUM"))
        arg = "*" if op == "COUNT" else "listPrice"
        certain = mapping == BY_TUPLE and aggregate == EV and op == "SUM"
        text = f"SELECT {op}({arg}) FROM T1 WHERE {_realestate_condition(rng, certain)}"
    elif shape < 8:
        op = rng.choice(AGGREGATES) if aggregate == RANGE or mapping == BY_TABLE else rng.choice(("COUNT", "SUM"))
        arg = "*" if op == "COUNT" else "price"
        # Grouped COUNT drops a group in worlds where none of its rows
        # qualify, so T2's by-tuple expected values keep a certain WHERE.
        certain = mapping == BY_TUPLE and aggregate == EV
        text = f"SELECT {op}({arg}) FROM T2 WHERE {_auction_condition(rng, certain)}"
        if rng.random() < 0.5:
            text += " GROUP BY auctionID"
    else:
        if mapping == BY_TUPLE:
            aggregate = RANGE  # nested-range; the other nested cells are not PTIME
        inner = rng.choice(("MAX(DISTINCT R2.price)", "MIN(R2.price)", "SUM(R2.price)"))
        outer = rng.choice(("AVG", "SUM", "MAX", "MIN"))
        # A WHERE over certain attributes keeps every group defined in every
        # world, so the composed by-tuple range is exact.
        text = (
            f"SELECT {outer}(R1.price) FROM (SELECT {inner} FROM T2 AS R2 "
            f"WHERE {_auction_condition(rng, True, 'R2.')} "
            "GROUP BY R2.auctionID) AS R1"
        )
    return _request(text, mapping, aggregate)


def gen_adhoc(rng: random.Random, out: Path) -> dict:
    datasets = [realestate_dataset(out), auctions_dataset(rng, out, "auctions", 12, 4)]
    # Set-up warms the engine on the same requests whatever the seed, so
    # ``setup_s`` does not move with it.
    fixed = random.Random("adhoc-warmup")
    warmup = [adhoc_request(fixed) for _ in range(ADHOC_WARMUP)]
    seen = {request["q"] for request in warmup}
    stream = []
    while len(stream) < ADHOC_TEXTS:
        request = adhoc_request(rng)
        if request["q"] not in seen:
            seen.add(request["q"])
            stream.append(request)
    return {"datasets": datasets, "engine": {}, "stream": stream, "warmup": warmup}


GENERATORS = {"scan": gen_scan, "adhoc": gen_adhoc, "worlds": gen_worlds, "serve": gen_serve}


def generate(workload: str, seed: int, out: Path) -> Path:
    """Write ``workload``'s inputs for ``seed`` into ``out``; returns the manifest path."""
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    spec = GENERATORS[workload](rng, out)
    stream = spec.pop("stream")
    (out / "queries.jsonl").write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in stream))
    manifest = {"workload": workload, "seed": seed, "queries": "queries.jsonl", **spec}
    path = out / "manifest.json"
    path.write_text(json.dumps(manifest, indent=1, sort_keys=True))
    return path
