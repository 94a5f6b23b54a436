from fractions import Fraction

import numpy as np
import pytest

from brickir.connectors import ConnectorFamily
from brickir.geometry import QuantizedParams, RigidTransform
from brickir.graph import ConnEdge, ConnectivityGraph
from brickir.ldraw import PartInstance
from brickir.metrics import (
    dataset_stats,
    invalid_flags_from_report,
    mean_valid_steps,
    p_invalid,
    sequence_validity_bound,
    survival_curve,
)
from brickir.program import ValidityReport

from conftest import stats_json, survival_proportion


def _report(conn, coll=None):
    return ValidityReport(conn, coll if coll is not None else conn, None)


def test_mean_valid_steps_cases():
    assert mean_valid_steps([_report(3), _report(5), _report(7)]) == 5.0
    assert mean_valid_steps([_report(100)] * 8) == 100.0
    batch = [_report(10)] * 50 + [_report(20)] * 50
    assert mean_valid_steps(batch) == 15.0


def test_mean_valid_steps_modes_and_errors():
    reports = [_report(6, 2), _report(10, 4)]
    assert mean_valid_steps(reports, "connectivity") == 8.0
    assert mean_valid_steps(reports, "collision") == 3.0
    with pytest.raises(ValueError):
        mean_valid_steps([])
    with pytest.raises(ValueError):
        mean_valid_steps(reports, "bogus")


def test_survival_curve_cases():
    curve = survival_curve([_report(3), _report(5), _report(7)])
    assert survival_proportion(curve, 0) == 1.0
    assert survival_proportion(curve, 5) == pytest.approx(2 / 3)
    assert survival_proportion(curve, 7) == pytest.approx(1 / 3)
    assert survival_proportion(curve, 8) == 0.0
    assert survival_proportion(curve, 99) == 0.0
    props = curve.proportions()
    assert all(a >= b for a, b in zip(props, props[1:]))
    with pytest.raises(ValueError):
        survival_curve([])


def test_survival_mean_identity_exact():
    rng = np.random.default_rng(0)
    steps = [int(s) for s in rng.integers(0, 40, size=137)]
    reports = [_report(s) for s in steps]
    curve = survival_curve(reports)
    # identity: mean = sum over k >= 1 of survival(k), exactly (integer data)
    mean_exact = Fraction(sum(steps), len(steps))
    survival_sum = sum(
        (Fraction(curve.survivors[k], curve.total) for k in range(1, len(curve.survivors))),
        Fraction(0),
    )
    assert mean_exact == survival_sum


def test_p_invalid_cases():
    assert p_invalid([True] * 4 + [False] * 12) == 0.25
    assert p_invalid([False] * 9) == 0.0
    with pytest.raises(ValueError):
        p_invalid([])


def test_p_invalid_pooling_order_invariant():
    a = [True, False, False]
    b = [False, True, True, False]
    assert p_invalid(a + b) == p_invalid(b + a)


def test_invalid_flags_from_reports_match_hand_count():
    # three sequences: valid prefixes 3, 5, 7 of 8 attempted actions each
    reports = [_report(3), _report(5), _report(7)]
    flags = []
    for r in reports:
        flags.extend(invalid_flags_from_report(r, 8))
    assert len(flags) == 24
    assert sum(flags) == (8 - 3) + (8 - 5) + (8 - 7)
    assert p_invalid(flags) == pytest.approx(9 / 24)


def test_sequence_validity_bound_long_sequence():
    value = sequence_validity_bound(0.001, 4096)
    assert value < 0.017
    assert value == pytest.approx(0.0166, abs=2e-4)


def test_sequence_validity_bound_edges():
    assert sequence_validity_bound(0.0, 1000) == 1.0
    assert sequence_validity_bound(1.0, 1) == 0.0
    with pytest.raises(ValueError):
        sequence_validity_bound(1.5, 10)


def _graph(parts_colors, edge_families):
    nodes = {
        i: PartInstance(i, part, color, RigidTransform.identity())
        for i, (part, color) in enumerate(parts_colors)
    }
    edges = [
        ConnEdge(
            (0, "a"),
            (1, "b"),
            fam,
            QuantizedParams(euler_deg=(0, 0, 0)) if fam == ConnectorFamily.BALL else QuantizedParams(),
        )
        for fam in edge_families
    ]
    return ConnectivityGraph(nodes, edges)


def test_dataset_stats_single_object():
    g = _graph(
        [("a", 4), ("a", 4), ("a", 1), ("b", 1), ("c", 4)],
        [ConnectorFamily.STUD, ConnectorFamily.STUD],
    )
    stats = dataset_stats([g])
    assert stats.parts_per_object == {5: 1}
    assert stats.unique_parts_per_object == {3: 1}
    assert stats.unique_colors_per_object == {2: 1}
    assert stats.connection_type_sample_proportions["stud"] == 1.0
    assert stats.connection_type_sample_proportions["hinge"] == 0.0
    assert stats.part_frequency["a"] == (3 / 5, 1.0)


def test_dataset_stats_hinge_proportion():
    g1 = _graph([("a", 4), ("b", 4)], [ConnectorFamily.STUD])
    g2 = _graph([("a", 4), ("c", 2)], [ConnectorFamily.HINGE, ConnectorFamily.STUD])
    stats = dataset_stats([g1, g2])
    assert stats.connection_type_sample_proportions["hinge"] == 0.5
    assert stats.connection_type_sample_proportions["stud"] == 1.0
    assert stats.sample_count == 2


def test_dataset_stats_permutation_invariant():
    rng = np.random.default_rng(3)
    corpus = []
    for _ in range(12):
        n = int(rng.integers(2, 9))
        parts = [(f"p{rng.integers(4)}", int(rng.integers(3))) for _ in range(n)]
        fams = [list(ConnectorFamily)[int(rng.integers(5))] for _ in range(n - 1)]
        corpus.append(_graph(parts, fams))
    a = stats_json(dataset_stats(corpus))
    order = rng.permutation(len(corpus))
    b = stats_json(dataset_stats([corpus[i] for i in order]))
    assert a == b


def test_dataset_stats_matches_throwaway_counting_script():
    rng = np.random.default_rng(4)
    corpus = []
    for _ in range(20):
        n = int(rng.integers(1, 12))
        parts = [(f"p{rng.integers(5)}", int(rng.integers(4))) for _ in range(n)]
        fams = [list(ConnectorFamily)[int(rng.integers(5))] for _ in range(max(n - 1, 0))]
        corpus.append(_graph(parts, fams))
    stats = dataset_stats(corpus)

    # independent tallies
    total_insts = sum(len(g.nodes) for g in corpus)
    for pid, (rel, prop) in stats.part_frequency.items():
        count = sum(1 for g in corpus for i in g.nodes.values() if i.part_id == pid)
        containing = sum(
            1 for g in corpus if any(i.part_id == pid for i in g.nodes.values())
        )
        assert rel == count / total_insts
        assert prop == containing / 20
    for fam in ConnectorFamily:
        containing = sum(1 for g in corpus if any(e.family == fam for e in g.edges))
        assert stats.connection_type_sample_proportions[fam.value] == containing / 20
    sizes = [len(g.nodes) for g in corpus]
    assert stats.parts_per_object == {s: sizes.count(s) for s in set(sizes)}
    with pytest.raises(ValueError):
        dataset_stats([])


def test_csv_emitters():
    curve = survival_curve([_report(1), _report(2)])
    lines = curve.to_csv().strip().splitlines()
    assert lines[0] == "k,proportion"
    assert lines[1] == "0,1.0"
    g = _graph([("a", 4), ("b", 2)], [ConnectorFamily.STUD])
    csv = dataset_stats([g]).to_csv()
    assert csv.startswith("section,key,value\n")
    assert "connection_type_sample_proportions,stud,1.0" in csv
