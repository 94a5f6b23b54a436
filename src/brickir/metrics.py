"""Sequence-validity metrics and dataset statistics.

All aggregations are pure functions over immutable reports and graphs, with
deterministic reduction order. Survival curves keep their integer counts so
exact-arithmetic identities (mean = sum of survival proportions) can be
verified downstream.
"""

from __future__ import annotations

import io
from collections import Counter
from dataclasses import dataclass

from .connectors import ConnectorFamily
from .program import ValidityReport


def mean_valid_steps(reports, mode: str = "connectivity") -> float:
    """Average number of successful build steps until an invalidating step."""
    reports = list(reports)
    if not reports:
        raise ValueError("no reports")
    return sum(r.steps(mode) for r in reports) / len(reports)


@dataclass(frozen=True)
class SurvivalCurve:
    """Proportion of sequences surviving at least k placement actions.

    ``survivors[k]`` counts reports with valid steps >= k, for k = 0..max;
    proportions are survivors / total (1.0 at k = 0, nonincreasing).
    """

    survivors: tuple
    total: int

    def proportions(self) -> list[float]:
        return [s / self.total for s in self.survivors]

    def to_json_obj(self) -> dict:
        return {
            "total": self.total,
            "survivors": list(self.survivors),
            "proportions": self.proportions(),
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("k,proportion\n")
        for k, s in enumerate(self.survivors):
            buf.write(f"{k},{s / self.total!r}\n")
        return buf.getvalue()


def survival_curve(reports) -> SurvivalCurve:
    """Survival-at-k of the connectivity steps over a batch of validity
    reports."""
    steps = [r.connectivity_steps for r in reports]
    if not steps:
        raise ValueError("no reports")
    top = max(steps)
    survivors = tuple(sum(1 for s in steps if s >= k) for k in range(top + 1))
    return SurvivalCurve(survivors, len(steps))


def p_invalid(placement_outcomes) -> float:
    """Pooled proportion of invalid placements. Each entry is one placement
    action's outcome: True means the placement was invalid."""
    outcomes = list(placement_outcomes)
    if not outcomes:
        raise ValueError("no placement outcomes")
    return sum(1 for o in outcomes if o) / len(outcomes)


def invalid_flags_from_report(report: ValidityReport, action_count: int):
    """Per-placement connectivity-invalid flags implied by a report over a
    sequence with ``action_count`` attempted placement actions."""
    valid = report.connectivity_steps
    if action_count < valid:
        raise ValueError("action_count smaller than the report's valid prefix")
    return [False] * valid + [True] * (action_count - valid)


def sequence_validity_bound(per_token_invalid_mass: float, length: int) -> float:
    """Probability that a length-n sampled sequence stays valid when each
    token carries the given invalid probability mass: (1 - mass) ** n."""
    if not 0.0 <= per_token_invalid_mass <= 1.0:
        raise ValueError("mass must be in [0, 1]")
    return (1.0 - per_token_invalid_mass) ** length


@dataclass(frozen=True)
class DatasetStats:
    """Corpus statistics: per-object histograms, connection-family sample
    proportions, and per-part frequency measures."""

    parts_per_object: dict
    unique_parts_per_object: dict
    unique_colors_per_object: dict
    connection_type_sample_proportions: dict
    part_frequency: dict  # part_id -> (relative frequency, sample proportion)
    sample_count: int

    def to_json_obj(self) -> dict:
        return {
            "sample_count": self.sample_count,
            "parts_per_object": {str(k): v for k, v in sorted(self.parts_per_object.items())},
            "unique_parts_per_object": {
                str(k): v for k, v in sorted(self.unique_parts_per_object.items())
            },
            "unique_colors_per_object": {
                str(k): v for k, v in sorted(self.unique_colors_per_object.items())
            },
            "connection_type_sample_proportions": dict(
                sorted(self.connection_type_sample_proportions.items())
            ),
            "part_frequency": {
                pid: {"relative_frequency": rf, "sample_proportion": sp}
                for pid, (rf, sp) in sorted(self.part_frequency.items())
            },
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("section,key,value\n")
        obj = self.to_json_obj()
        for section in (
            "parts_per_object",
            "unique_parts_per_object",
            "unique_colors_per_object",
            "connection_type_sample_proportions",
        ):
            for k, v in obj[section].items():
                buf.write(f"{section},{k},{v!r}\n")
        for pid, entry in obj["part_frequency"].items():
            buf.write(f"part_relative_frequency,{pid},{entry['relative_frequency']!r}\n")
            buf.write(f"part_sample_proportion,{pid},{entry['sample_proportion']!r}\n")
        return buf.getvalue()


def dataset_stats(corpus) -> DatasetStats:
    """One-pass statistics over a corpus of connectivity graphs.

    Connection-type proportions count a sample once per family present;
    part frequency reports both the share of all placed instances and the
    proportion of samples containing the part.
    """
    corpus = list(corpus)
    if not corpus:
        raise ValueError("empty corpus")
    parts_hist: Counter = Counter()
    uparts_hist: Counter = Counter()
    ucolors_hist: Counter = Counter()
    family_samples: Counter = Counter()
    part_instances: Counter = Counter()
    part_samples: Counter = Counter()
    total_instances = 0

    for g in corpus:
        insts = list(g.nodes.values())
        parts_hist[len(insts)] += 1
        uparts_hist[len({i.part_id for i in insts})] += 1
        ucolors_hist[len({i.color for i in insts})] += 1
        for fam in {e.family for e in g.edges}:
            family_samples[fam.value] += 1
        for pid in {i.part_id for i in insts}:
            part_samples[pid] += 1
        for inst in insts:
            part_instances[inst.part_id] += 1
        total_instances += len(insts)

    n = len(corpus)
    return DatasetStats(
        parts_per_object=dict(parts_hist),
        unique_parts_per_object=dict(uparts_hist),
        unique_colors_per_object=dict(ucolors_hist),
        connection_type_sample_proportions={
            fam.value: family_samples.get(fam.value, 0) / n for fam in ConnectorFamily
        },
        part_frequency={
            pid: (part_instances[pid] / total_instances, part_samples[pid] / n)
            for pid in part_instances
        },
        sample_count=n,
    )
