"""Seeded inputs: the bike feeds and the read mixes drawn from them.

The workload seed reaches the program only through what is generated
here: ``CityModel(seed)`` makes the feed documents, and one
``random.Random`` per workload draws the read mix.  Literals in every
query come from the generated data, so the same seed always sends the
same statements, and a different seed sends different ones.

Feeds are generated directly, never through
``repro.bench.datasets.load_dataset``: that helper caches on
``(name, scale)`` and would hand back whichever seed ran first.
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.bench.datasets import DATASETS_BY_NAME, scaled_days, scaled_tuples
from repro.dwarf.cell import ALL
from repro.smartcity.bikes import BikeFeedGenerator
from repro.smartcity.city import CityModel

#: Zipf exponent of station popularity in the point mix.  No study of
#: bike-dashboard traffic exists to take it from; 0.75 is the middle of
#: the 0.64-0.83 range Breslau et al. measured for request popularity
#: at web caches ("Web Caching and Zipf-like Distributions", INFOCOM
#: 1999), the closest published read-through-cache workload.
STATION_ZIPF = 0.75

#: Each step back in time divides a day's weight by this factor, so the
#: latest day of the feed is read most.  Arbitrary: no source gives it.
RECENCY_DECAY = 1.5

#: Distinct ad-hoc predicates per shape; within a shape they are drawn
#: Zipf-skewed, so some statement texts repeat (plan-cache hits) and
#: some do not.
ADHOC_POOL = 12

#: Ad-hoc predicate shapes, taken in turn so every seed sends the same
#: mix of shapes and only the literals differ.
ADHOC_SHAPES = ("key", "at_least", "range", "leaf", "dimension_table")


def feed(dataset: str, seed: int):
    """The ``dataset`` period of the bike feed for ``seed``.

    Sizes follow the paper's Table 2 scaled by ``REPRO_SCALE``.
    """
    spec = DATASETS_BY_NAME[dataset]
    generator = BikeFeedGenerator(CityModel(seed))
    return generator.generate_documents(
        days=scaled_days(spec), total_records=scaled_tuples(spec)
    ).batch()


def _zipf_weights(count: int, exponent: float) -> List[float]:
    return [1.0 / (rank + 1) ** exponent for rank in range(count)]


class PointMix:
    """Point-query coordinate vectors over one fact set.

    Every draw starts from a real fact: its station is chosen
    Zipf-skewed over a seeded popularity order, its day with recent
    days favoured, then the fact among that station's facts of the day.
    Every other vector is a full point, the fact's keys in every
    dimension; the rest are partial-ALL, fixing 1-3 dimensions of the
    fact (the station, then the day, then one other) and leaving the
    others ALL.  The repo's stored-query and streaming-ingest benches
    (``benchmarks/bench_stored_queries.py``) also alternate two kinds,
    a mix their docstring calls full-point and partial-ALL, though
    their vectors fix only the station, or the station and the day.

    The full points are what take the mix past the row cache: partial-
    ALL vectors alone, even with uniform stations, touch under 4 MiB of
    TMonth's ``dwarf_cell`` rows, so nothing is ever evicted.
    """

    def __init__(self, facts, schema, rng: random.Random) -> None:
        self._rng = rng
        self._n_dimensions = schema.n_dimensions
        self._station = schema.dimension_index("station")
        self._day = schema.dimension_index("day")
        self._others = [
            index for index in range(schema.n_dimensions)
            if index not in (self._station, self._day)
        ]
        by_station: Dict[object, Dict[object, List]] = defaultdict(lambda: defaultdict(list))
        for fact in facts:
            by_station[fact.keys[self._station]][fact.keys[self._day]].append(fact)
        stations = sorted(by_station, key=str)
        rng.shuffle(stations)
        self._stations = stations
        self._station_weights = _zipf_weights(len(stations), STATION_ZIPF)
        self._by_station = by_station
        self._drawn = 0

    def draw(self) -> List:
        rng = self._rng
        station = rng.choices(self._stations, self._station_weights)[0]
        days = sorted(self._by_station[station], key=str)
        weights = [RECENCY_DECAY ** -(len(days) - 1 - i) for i in range(len(days))]
        day = rng.choices(days, weights)[0]
        fact = rng.choice(self._by_station[station][day])
        self._drawn += 1
        if self._drawn % 2 == 0:
            return list(fact.keys)
        vector = [ALL] * self._n_dimensions
        vector[self._station] = station
        fixed = rng.randint(1, 3)
        if fixed >= 2:
            vector[self._day] = day
        if fixed == 3:
            other = rng.choice(self._others)
            vector[other] = fact.keys[other]
        return vector


class Predicate(NamedTuple):
    """One ad-hoc filter over stored cells, rendered per dialect."""

    key: Optional[str] = None          # cell key equals
    low: Optional[int] = None          # measure >= low
    high: Optional[int] = None         # measure < high
    leaf: bool = False                 # leaf cells only
    dimension_table: Optional[str] = None

    def _clauses(self, key_column: str, true: str) -> List[str]:
        clauses = []
        if self.key is not None:
            clauses.append(f"{key_column} = '{self.key}'")
        if self.low is not None:
            clauses.append(f"measure >= {self.low}")
        if self.high is not None:
            clauses.append(f"measure < {self.high}")
        if self.leaf:
            clauses.append(f"leaf = {true}")
        if self.dimension_table is not None:
            clauses.append(f"dimension_table_name = '{self.dimension_table}'")
        return clauses

    def cql(self, schema_id: int) -> str:
        where = " AND ".join([f"schema_id = {schema_id}"] + self._clauses("key", "true"))
        return f"SELECT COUNT(*) FROM dwarf_cell WHERE {where} ALLOW FILTERING"

    def sql(self, schema_id: int, grouped: bool) -> str:
        where = " AND ".join([f"schema_id = {schema_id}"] + self._clauses("cell_key", "TRUE"))
        if grouped:
            return (
                "SELECT leaf, COUNT(*), MAX(measure) FROM CELL "
                f"WHERE {where} GROUP BY leaf"
            )
        return f"SELECT COUNT(*), SUM(measure), MAX(measure) FROM CELL WHERE {where}"

    def matches(self, cell) -> bool:
        """The same filter over a ``CellRecord`` (SQL NULL semantics)."""
        if self.key is not None and cell.key_text != self.key:
            return False
        if self.low is not None or self.high is not None:
            if cell.measure is None:
                return False
            if self.low is not None and cell.measure < self.low:
                return False
            if self.high is not None and cell.measure >= self.high:
                return False
        if self.leaf and not cell.is_leaf:
            return False
        if self.dimension_table is not None and cell.dimension_table != self.dimension_table:
            return False
        return True


class AdhocExpectation(NamedTuple):
    """What the cube's own cells say a predicate must return."""

    count: int
    total: Optional[int]
    maximum: Optional[int]
    by_leaf: Tuple[Tuple[bool, int, Optional[int]], ...]


def expect(predicate: Predicate, cells: Sequence) -> AdhocExpectation:
    """Evaluate ``predicate`` over transformed cell records."""
    count, total, maximum = 0, None, None
    groups: Dict[bool, List] = {}
    for cell in cells:
        if not predicate.matches(cell):
            continue
        count += 1
        group = groups.setdefault(cell.is_leaf, [0, None])
        group[0] += 1
        if cell.measure is not None:
            total = cell.measure if total is None else total + cell.measure
            maximum = cell.measure if maximum is None else max(maximum, cell.measure)
            if group[1] is None or cell.measure > group[1]:
                group[1] = cell.measure
    by_leaf = tuple((leaf, n, top) for leaf, (n, top) in sorted(groups.items()))
    return AdhocExpectation(count, total, maximum, by_leaf)


class AdhocMix:
    """Filtered-aggregate predicates drawn from a cube's stored cells.

    Each shape has :data:`ADHOC_POOL` predicates whose literals sit at
    fixed quantiles of the data (of measures, or of keys ranked by how
    many cells carry them), so a seed changes the literals but not how
    selective they are.  :meth:`draw` takes the shapes in turn and picks
    a predicate of the shape Zipf-skewed, so texts repeat.
    """

    def __init__(self, cells: Sequence, rng: random.Random) -> None:
        self._rng = rng
        self._measures = sorted(c.measure for c in cells if c.measure is not None)
        key_counts = Counter(c.key_text for c in cells if "'" not in c.key_text)
        self._keys = sorted(key_counts, key=lambda key: (key_counts[key], key))
        self._tables = sorted({c.dimension_table for c in cells if c.dimension_table})
        grid = [(i + 0.5) / ADHOC_POOL for i in range(ADHOC_POOL)]
        self.pools = {
            shape: [self._predicate(shape, q) for q in grid] for shape in ADHOC_SHAPES
        }
        self._weights = _zipf_weights(ADHOC_POOL, 1.0)
        self._drawn = 0

    @staticmethod
    def _at(values: Sequence, q: float):
        return values[min(len(values) - 1, int(q * len(values)))]

    def _predicate(self, shape: str, q: float) -> Predicate:
        measures = self._measures
        if shape == "key":
            return Predicate(key=self._at(self._keys, q))
        if shape == "at_least":
            return Predicate(low=self._at(measures, 0.5 + 0.5 * q))
        if shape == "range":
            low = self._at(measures, 0.8 * q)
            return Predicate(low=low, high=max(self._at(measures, 0.2 + 0.8 * q), low + 1))
        if shape == "leaf":
            return Predicate(low=self._at(measures, 0.9 * q), leaf=True)
        table = self._tables[int(q * len(self._tables))] if self._tables else None
        return Predicate(low=self._at(measures, 0.9 * q), dimension_table=table)

    def draw(self) -> Predicate:
        shape = ADHOC_SHAPES[self._drawn % len(ADHOC_SHAPES)]
        self._drawn += 1
        return self._rng.choices(self.pools[shape], self._weights)[0]
