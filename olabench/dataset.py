"""The benchmark's inputs: the TPC-H dataset, the query parameters, and
the answers every query is checked against.

The dataset is the repository's baseline: scale factor 0.05 (lineitem
about 300k rows), 16 partitions for lineitem and orders, 2 for the
other tables (1 for nation and region), npz with zone maps, generated
from the run's seed.
"""

from __future__ import annotations

import datetime
import os
import sqlite3
import time
from pathlib import Path

SCALE_FACTOR = 0.05
FACT_PARTITIONS = 16
DIMENSION_PARTITIONS = 2

#: Query parameters: the queries' DEFAULTS except q18 (the spec's 300
#: is empty at this scale) and q11, whose spec fraction 0.0001 scales as
#: 1/SF.
PARAMS: dict[int, dict] = {
    11: {"fraction": 0.0001 / SCALE_FACTOR},
    18: {"threshold": 200},
}


def kind(number: int) -> str:
    return f"q{number:02d}"


def number_of(kind_name: str) -> int:
    return int(kind_name[1:])


def generate(directory: Path, seed: int):
    """Generate the dataset and write the catalog; returns
    ``(catalog, tables, seconds)``."""
    from repro.tpch import generate_and_load

    started = time.perf_counter()
    catalog, tables = generate_and_load(
        directory,
        scale_factor=SCALE_FACTOR,
        seed=seed,
        fact_partitions=FACT_PARTITIONS,
        dimension_partitions=DIMENSION_PARTITIONS,
        fmt="npz",
        stats=True,
    )
    return catalog, tables, time.perf_counter() - started


def disk_bytes(directory: Path) -> int:
    total = 0
    for root, _dirs, files in os.walk(directory):
        for name in files:
            total += os.stat(os.path.join(root, name)).st_size
    return total


def references(tables, numbers) -> dict:
    """Exact answers from each query's reference implementation over
    the in-memory tables (the repository's own kernels)."""
    from repro.tpch.queries import QUERIES

    return {
        kind(n): QUERIES[n].run_reference(tables.tables, **PARAMS.get(n, {}))
        for n in numbers
    }


def _days(iso: str) -> int:
    return (datetime.date.fromisoformat(iso) - datetime.date(1970, 1, 1)).days


def _add_years(iso: str, years: int) -> str:
    day = datetime.date.fromisoformat(iso)
    return day.replace(year=day.year + years).isoformat()


def sqlite_answers(tables, numbers) -> dict:
    """q01 and q06 recomputed by stdlib ``sqlite3`` from the same
    generated lineitem, independent of the repository's kernels.
    Returns ``{kind: {column: [values]}}`` for those of ``numbers``
    that are q01 or q06."""
    from repro.tpch.queries import QUERIES

    wanted = [n for n in numbers if n in (1, 6)]
    if not wanted:
        return {}
    lineitem = tables.tables["lineitem"]
    names = ["l_returnflag", "l_linestatus", "l_quantity",
             "l_extendedprice", "l_discount", "l_tax", "l_shipdate"]
    db = sqlite3.connect(":memory:")
    try:
        db.execute(f"CREATE TABLE lineitem ({', '.join(names)})")
        db.executemany(
            f"INSERT INTO lineitem VALUES ({', '.join('?' * len(names))})",
            zip(*(lineitem.column(n).tolist() for n in names)),
        )
        out = {}
        if 1 in wanted:
            delta = QUERIES[1].defaults["delta_days"]
            cutoff = _days("1998-12-01") - delta
            rows = db.execute(
                """SELECT l_returnflag, l_linestatus,
                          SUM(l_quantity), SUM(l_extendedprice),
                          SUM(l_extendedprice * (1 - l_discount)),
                          SUM(l_extendedprice * (1 - l_discount)
                              * (1 + l_tax)),
                          AVG(l_quantity), AVG(l_extendedprice),
                          AVG(l_discount), COUNT(*)
                   FROM lineitem WHERE l_shipdate <= ?
                   GROUP BY l_returnflag, l_linestatus
                   ORDER BY l_returnflag, l_linestatus""",
                (cutoff,),
            ).fetchall()
            columns = ["l_returnflag", "l_linestatus", "sum_qty",
                       "sum_base_price", "sum_disc_price", "sum_charge",
                       "avg_qty", "avg_price", "avg_disc", "count_order"]
            out["q01"] = {c: [r[i] for r in rows]
                          for i, c in enumerate(columns)}
        if 6 in wanted:
            p = QUERIES[6].defaults
            lo = _days(p["start"])
            hi = _days(_add_years(p["start"], p["years"]))
            (revenue,), = db.execute(
                """SELECT SUM(l_extendedprice * l_discount) FROM lineitem
                   WHERE l_shipdate >= ? AND l_shipdate < ?
                     AND l_discount BETWEEN ? AND ?
                     AND l_quantity < ?""",
                (lo, hi, p["discount"] - 0.01001, p["discount"] + 0.01001,
                 p["quantity"]),
            ).fetchall()
            out["q06"] = {"revenue": [revenue]}
        return out
    finally:
        db.close()


def in_process_sequences(catalog, numbers) -> dict:
    """Snapshot count and t sequence of an in-process run of each query
    on the default engine, for comparison with what the server sends."""
    from repro import WakeContext
    from repro.tpch.queries import QUERIES

    ctx = WakeContext(catalog)
    out = {}
    for n in numbers:
        edf = ctx.run(QUERIES[n].build_plan(ctx, **PARAMS.get(n, {})))
        out[kind(n)] = [s.t for s in edf.snapshots]
    return out
