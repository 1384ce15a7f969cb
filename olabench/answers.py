"""Checks on what a query returned.  Each check returns a list of
problems (empty when the output is right), so one operation can be
counted as failed once whatever it broke.

Nothing is compared with stored output of an earlier run: finals are
checked against the reference implementations over tables regenerated
from the seed (and, for q01 and q06, against ``sqlite3``), snapshot
sequences against the properties the method guarantees, and wire
sequences against an in-process run of the same query.
"""

from __future__ import annotations

import math

import numpy as np

#: Tolerance of the repository's own query-equivalence tests.
RTOL = 1e-6
ATOL = 1e-8


def _as_floats(values: list) -> np.ndarray | None:
    try:
        return np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError):
        return None


def compare(got: dict[str, list], expected: dict[str, list],
            label: str) -> list[str]:
    """Same column names in the same order, same row count, numbers
    equal within ``RTOL``/``ATOL`` (NaN equal to NaN), the rest
    exactly equal."""
    if list(got) != list(expected):
        return [f"{label}: columns {list(got)} != {list(expected)}"]
    problems = []
    for name, want in expected.items():
        have = got[name]
        if len(have) != len(want):
            return [f"{label}: {len(have)} rows != {len(want)}"]
        a, b = _as_floats(have), _as_floats(want)
        if a is not None and b is not None:
            if not np.allclose(a, b, rtol=RTOL, atol=ATOL, equal_nan=True):
                problems.append(f"{label}: column {name!r} differs")
        elif have != want:
            problems.append(f"{label}: column {name!r} differs")
    return problems


def check_final(final: dict[str, list] | None, reference: dict[str, list],
                sqlite: dict[str, list] | None, label: str) -> list[str]:
    """The exact answer: present, non-empty, equal to the reference
    and, where given, to the ``sqlite3`` answer."""
    if final is None:
        return [f"{label}: no final snapshot"]
    if not reference or not len(next(iter(reference.values()))):
        return [f"{label}: reference answer is empty"]
    problems = compare(final, reference, f"{label} vs reference")
    if sqlite is not None:
        problems += compare(final, sqlite, f"{label} vs sqlite3")
    return problems


def check_properties(ts: list[float], rows: list[int],
                     layouts: list, label: str) -> list[str]:
    """What every snapshot sequence must satisfy: t never decreases and
    ends at exactly 1.0, rows_processed never decreases, and every
    snapshot has the same column layout."""
    if not ts:
        return [f"{label}: no snapshots"]
    problems = []
    if any(b < a for a, b in zip(ts, ts[1:])):
        problems.append(f"{label}: t decreased")
    if ts[-1] != 1.0:
        problems.append(f"{label}: last t is {ts[-1]!r}, not 1.0")
    if any(b < a for a, b in zip(rows, rows[1:])):
        problems.append(f"{label}: rows_processed decreased")
    if any(layout != layouts[0] for layout in layouts):
        problems.append(f"{label}: column layout changed")
    return problems


def check_sequence(ts: list[float], expected: list[float],
                   label: str) -> list[str]:
    """The wire sequence equals the in-process one: same snapshot count
    and the same t values."""
    if ts != expected:
        return [f"{label}: {len(ts)} snapshots t={ts[:4]}... over the "
                f"wire != {len(expected)} in process t={expected[:4]}..."]
    return []


def first_estimate_error(first: dict[str, list], exact,
                         number: int) -> float | None:
    """Error of a first estimate in percent: the §8.1 MAPE of
    :func:`repro.bench.metrics.mape` against the exact answer, taken as
    100% where no group of the estimate can be compared (the metric's
    own rule for a missing estimate) and clipped at 100%, since an
    estimate further off than the value itself carries no information
    and one such query would otherwise outweigh the rest.  ``None`` for
    a query the §8.3 categories do not score by MAPE: one whose output
    has no value column, or a "recall" query, whose estimates carry
    exact values for a growing set of groups (its error is recall)."""
    from repro.bench import metrics
    from repro.bench.workloads import METRIC_COLUMNS
    from repro.dataframe import DataFrame
    from repro.tpch.queries import QUERIES

    keys, values = METRIC_COLUMNS[number]
    if not values or QUERIES[number].category == "recall":
        return None
    estimate = DataFrame({name: np.asarray(column)
                          for name, column in first.items()})
    error = metrics.mape(estimate, exact, keys, values)
    if math.isnan(error):
        return 100.0
    return min(error, 100.0)
