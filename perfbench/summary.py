"""Medians, quartiles and failure counts for the benchmark report."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field


def describe(values: list[float]) -> dict:
    """Median, first and third quartile and sample count of ``values``.

    Quartiles are ``statistics.quantiles(values, n=4)`` cut points; a
    single sample is its own median and quartiles.
    """
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def differing(first: dict[str, str], later: dict[str, str]) -> list[str]:
    """Artifact names whose sha256 differs between two repeats of a seed."""
    return sorted(name for name in first.keys() | later.keys()
                  if first.get(name) != later.get(name))


@dataclass
class Tally:
    """Stages attempted and failed; a stage fails if any check fails."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, stage: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{stage}: {p}" for p in problems]

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
