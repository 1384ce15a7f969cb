"""The statistics the benchmark reports.

Latency metrics are taken per query *kind* (one of the distinct queries
in a workload) before they are combined: a percentile taken across a
mix of kinds falls on whichever kind is slowest and does not repeat from
run to run, so the headline figures are the geometric mean over kinds
of each kind's median, and the one tail figure pools equal counts per
kind and is reported only where it has a real tail behind it.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Mapping, Sequence


def geomean_of_kind_medians(samples: Mapping[str, Sequence[float]]) -> float:
    """Geometric mean over kinds of each kind's median sample.

    Every kind weighs the same whatever its sample count, and a kind
    that is ten times slower than the rest moves the result as much as
    one that is ten times faster.  Raises ``ValueError`` on an empty
    mapping, an empty kind, or a non-positive median (a geometric mean
    is undefined there, and a zero time means the clock was not read).
    """
    if not samples:
        raise ValueError("no kinds to average")
    logs = []
    for kind, values in samples.items():
        if not values:
            raise ValueError(f"kind {kind!r} has no samples")
        median = statistics.median(values)
        if median <= 0:
            raise ValueError(f"kind {kind!r} has median {median!r} <= 0")
        logs.append(math.log(median))
    return math.exp(sum(logs) / len(logs))


def tail_percentile(
    samples: Mapping[str, Sequence[float]],
    fraction: float = 0.9,
    min_beyond: int = 10,
) -> float | None:
    """The ``fraction`` percentile over equal counts per kind.

    Every kind contributes its first ``n`` samples, ``n`` being the
    smallest count of any kind, so a kind that happened to run more
    often cannot pull the tail its way.  Returns ``None`` unless at
    least ``min_beyond`` pooled samples lie strictly beyond the
    percentile: with fewer, the figure is one or two samples, not a
    tail.
    """
    if not samples or not 0.0 < fraction < 1.0:
        return None
    n = min(len(values) for values in samples.values())
    pooled = sorted(v for values in samples.values() for v in values[:n])
    if len(pooled) < 2:
        return None
    # statistics.quantiles(n=100) cuts at every whole percent; the
    # exclusive method interpolates between order statistics.
    cut = round(fraction * 100)
    value = statistics.quantiles(pooled, n=100)[cut - 1]
    beyond = sum(1 for v in pooled if v > value)
    return value if beyond >= min_beyond else None


class Tally:
    """Operations attempted and failed, with the first reason of each
    failure kept for the report.

    An operation is one query from submit to exact final; it fails if
    it raised, ended in a state other than ``done``, or returned a wrong
    answer.  A failure is counted once however many checks it broke.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, problems: Iterable[str]) -> bool:
        """Count one operation; ``problems`` lists what was wrong with
        it (empty when it succeeded).  Returns whether it succeeded."""
        problems = list(problems)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.reasons.append(problems[0])
        return not problems

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.reasons.extend(other.reasons)


def read_status_mib(pid: int | str, field: str = "VmHWM") -> float:
    """A ``kB`` field of ``/proc/<pid>/status`` in MiB.

    ``VmHWM`` is the peak resident set size of the process so far,
    ``VmRSS`` the current one.  ``pid`` may be ``"self"``.
    """
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        return parse_status_mib(handle.read(), field)


def parse_status_mib(text: str, field: str) -> float:
    """Parse one ``<field>:  <n> kB`` line of a ``/proc`` status text."""
    for line in text.splitlines():
        name, _, rest = line.partition(":")
        if name == field:
            number, unit = rest.split()
            if unit != "kB":
                raise ValueError(f"{field} in unexpected unit {unit!r}")
            return int(number) / 1024.0
    raise KeyError(f"{field} not in status text")


def spread(values: Sequence[float]) -> dict:
    """Median, quartiles and the interquartile range as a share of the
    median: the run-to-run spread a metric's bound is set against."""
    if len(values) < 2:
        raise ValueError("a spread needs at least two values")
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "rel_spread": (q3 - q1) / median if median else math.inf,
    }
