"""The report writer against json and csv themselves.

The harness writes report.json's links blocks and temp_path_lengths lists,
and every CSV, as text of its own. On random sequence, gamma and comparison
reports, each file must equal what json.dumps(to_dict(), indent=2,
sort_keys=True) and csv.writer write, byte for byte: with awkward numbers
(-0.0, subnormals, 1e16, huge ints), numpy.float64 capacities and loads
assigned after construction, non-ASCII topology paths, no demands and
demands that ran no episode. A cell json cannot write as a number (NaN, an
infinity, a bool, another type) and a capacity that is not > 0 are refused
by every writer, naming the link or demand, before any file is written.
"""

import json
import math
import re
import tempfile
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlroute.cli import main
from rlroute.harness import (
    ComparisonReport,
    DemandOutcome,
    ExperimentConfig,
    ExperimentReport,
    GammaStudyReport,
    compare_baseline,
    emit_comparison_reports,
    emit_gamma_reports,
    emit_reports,
    run_gamma_study,
    run_sequence,
)
from rlroute.network import RoutePath, TrafficDemand, build_graph
from reference import (
    convergence_rows,
    csv_text,
    gamma_convergence_rows,
    length_rows,
    link_rows,
    report_json,
)
from test_golden import CASES as GOLDEN_CASES

LINK_HEADER = ["src", "dst", "max_bandwidth_bps", "used_bandwidth_bps", "utilization"]
DEMAND_HEADER = ["demand_index", "src", "dst"]

AWKWARD = [
    -0.0, 0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 0.1, 1 / 3, 1e16, 1e17, 1e22,
    1.7976931348623157e308, 0, 1, 2**53 + 1, 10**16, 10**30, -(10**30), 10**300,
]
numbers = st.one_of(
    st.sampled_from(AWKWARD),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(min_value=-(10**300), max_value=10**300),
)
# What a load can hold once assigned after construction and still be written.
cells = numbers | st.floats(allow_nan=False, allow_infinity=False).map(np.float64)
positive = st.one_of(
    st.sampled_from([x for x in AWKWARD if x > 0]),
    st.floats(min_value=5e-324, max_value=1.7976931348623157e308),
    st.integers(min_value=1, max_value=10**300),
    st.floats(min_value=1e-6, max_value=1e12).map(np.float64),
)
node_ids = st.integers(min_value=0, max_value=2**70)


@st.composite
def graphs(draw):
    """A graph of up to 5 nodes, maybe without links, with capacities and
    loads assigned after construction. A load whose utilization would
    overflow, which the writer refuses, is replaced by the capacity."""
    n = draw(st.integers(min_value=2, max_value=5))
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    graph = build_graph(n, [(a, b, 1e7) for a, b in chosen])
    for link in graph.iter_links():
        link.max_bandwidth = capacity = draw(positive)
        load = draw(cells)
        link.used_bandwidth = load if math.isfinite(float(load) / float(capacity)) else capacity
    return graph


demands = st.tuples(node_ids, node_ids, positive).filter(lambda t: t[0] != t[1]).map(
    lambda t: TrafficDemand(*t)
)
paths = st.builds(
    RoutePath, st.lists(node_ids, min_size=1, max_size=6, unique=True).map(tuple), st.booleans()
)


@st.composite
def outcomes(draw, demand_list):
    """One outcome per demand, episodes and path lengths drawn, some empty."""
    return [
        DemandOutcome(
            demand_index=index,
            demand=demand,
            final_path=draw(st.none() | paths),
            converged_episode=draw(st.none() | st.integers(min_value=1, max_value=10**20)),
            temp_path_lengths=tuple(draw(st.lists(
                st.integers(min_value=0, max_value=10**20), max_size=30
            ))),
            attempted_hops=draw(st.integers(min_value=0, max_value=10**20)),
        )
        for index, demand in enumerate(demand_list, start=1)
    ]


configs = st.builds(
    ExperimentConfig,
    topology=st.text()
    | st.sampled_from(["t8", "topologías/réseau-東京.json", "\x000", 'a"\x000']),
    demands=st.lists(demands, max_size=4),
    seed=st.integers(min_value=-(10**30), max_value=10**30),
    loss_mode=st.sampled_from(["off", "bernoulli"]),
)


@st.composite
def sequence_reports(draw, config=None):
    config = draw(configs) if config is None else config
    return ExperimentReport(config, draw(outcomes(config.demands)), draw(graphs()))


def emitted(emit, report) -> dict[str, str]:
    """The files emit writes for report, by name, decoded but with their
    line ends kept."""
    with tempfile.TemporaryDirectory() as out:
        paths = emit(report, out)
        return {p.name: p.read_bytes().decode("utf-8") for p in map(Path, paths)}


@settings(max_examples=150, deadline=None)
@given(sequence_reports())
def test_sequence_report_files_equal_json_and_csv(report):
    assert emitted(emit_reports, report) == {
        "report.json": report_json(report),
        "links.csv": csv_text(LINK_HEADER, link_rows(report.graph)),
        "temp_path_lengths.csv": csv_text(
            DEMAND_HEADER + ["episode", "length"], length_rows(report)
        ),
        "convergence.csv": csv_text(
            DEMAND_HEADER + ["converged_episode", "episodes_run"], convergence_rows(report)
        ),
    }


@st.composite
def gamma_studies(draw):
    base = draw(configs)
    control = replace(base, use_global=False, global_gamma=None)
    gammas = draw(st.lists(st.floats(min_value=0.0, max_value=1.0) | st.just(1), max_size=3))
    return GammaStudyReport(
        control=draw(sequence_reports(control)),
        runs=[
            draw(sequence_reports(replace(base, use_global=True, global_gamma=gamma)))
            for gamma in gammas
        ],
    )


@settings(max_examples=100, deadline=None)
@given(gamma_studies())
def test_gamma_report_files_equal_json_and_csv(study):
    header = DEMAND_HEADER + study.group_labels()
    assert emitted(emit_gamma_reports, study) == {
        "report.json": report_json(study),
        "convergence.csv": csv_text(header, gamma_convergence_rows(study)),
    }


@st.composite
def comparisons(draw):
    learned = draw(sequence_reports())
    baseline = [(demand, draw(paths)) for demand in learned.config.demands]
    return ComparisonReport(
        learned=learned, baseline_graph=draw(graphs()), baseline_paths=baseline
    )


@settings(max_examples=100, deadline=None)
@given(comparisons())
def test_comparison_report_files_equal_json_and_csv(comparison):
    assert emitted(emit_comparison_reports, comparison) == {
        "report.json": report_json(comparison),
        "links.csv": csv_text(LINK_HEADER, link_rows(comparison.learned.graph)),
        "links_baseline.csv": csv_text(LINK_HEADER, link_rows(comparison.baseline_graph)),
    }


def test_topology_paths_that_write_a_marker_text():
    # The writer marks each leaf's place with a string of its own; a
    # payload string that json writes the same way must not be taken for
    # one. A demand that ran no episode and a graph without links write
    # their lists as [].
    demand = TrafficDemand(0, 1, 1e5)
    outcome = DemandOutcome(1, demand, None, None, (), 0)
    for topology in ("\x000", 'a"\x000', "\x000\x001\x002"):
        config = ExperimentConfig(topology=topology, demands=[demand])
        report = ExperimentReport(config, [outcome], build_graph(2, []))
        assert emitted(emit_reports, report)["report.json"] == report_json(report)


def _refuse_constant(text):
    raise ValueError(f"{text} is not a JSON number")


@pytest.mark.parametrize("name", list(GOLDEN_CASES))
def test_golden_reports_hold_only_json_numbers(name, tmp_path):
    # json.loads takes NaN and Infinity unless told otherwise; RFC 8259
    # does not.
    assert main(GOLDEN_CASES[name][0] + ["--out", str(tmp_path)]) == 0
    json.loads((tmp_path / "report.json").read_text(), parse_constant=_refuse_constant)


T3 = ExperimentConfig(topology="t3", demands=[TrafficDemand(0, 2, 1e5), TrafficDemand(0, 1, 1e5)])


def written_study(kind):
    """A study of kind on T3, its writer, and a graph and a sequence report
    whose links and outcomes that writer writes."""
    if kind == "sequence":
        report = run_sequence(T3)
        return report, emit_reports, report.graph, report
    if kind == "gamma":
        study = run_gamma_study(T3, [0.5])
        return study, emit_gamma_reports, study.runs[0].graph, study.runs[0]
    comparison = compare_baseline(T3)
    return comparison, emit_comparison_reports, comparison.baseline_graph, comparison.learned


KINDS = ["sequence", "gamma", "comparison"]


def assert_refused(kind, spoil, message, tmp_path):
    study, emit, graph, report = written_study(kind)
    emit(study, tmp_path / "before")
    spoil(next(graph.iter_links()), report)
    with pytest.raises(ValueError, match=re.escape(message)):
        emit(study, tmp_path / "after")
    assert not (tmp_path / "after").exists()


NOT_JSON_NUMBERS = [
    math.nan, math.inf, -math.inf, np.float64("nan"), np.float64("-inf"), True, False,
    np.int64(3), Fraction(1, 3),
]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("load", NOT_JSON_NUMBERS, ids=repr)
def test_a_load_json_cannot_write_is_refused(kind, load, tmp_path):
    def spoil(link, report):
        link.used_bandwidth = load

    assert_refused(kind, spoil, "link (0,1): used_bandwidth_bps must be", tmp_path)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("length", [math.nan, math.inf, True, None, "2", np.int64(2)], ids=repr)
def test_a_temp_path_length_json_cannot_write_is_refused(kind, length, tmp_path):
    def spoil(link, report):
        outcome = report.outcomes[1]
        lengths = outcome.temp_path_lengths[:1] + (length,) + outcome.temp_path_lengths[2:]
        report.outcomes[1] = replace(outcome, temp_path_lengths=lengths)

    assert_refused(kind, spoil, "demand 2: temp_path_lengths[1] must be", tmp_path)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize(
    "capacity, message",
    [
        (0, "max_bandwidth must be > 0, got 0"),
        (0.0, "max_bandwidth must be > 0, got 0.0"),
        (-0.0, "max_bandwidth must be > 0, got -0.0"),
        (-1e6, "max_bandwidth must be > 0, got -1000000.0"),
        (np.float64(0.0), "max_bandwidth must be > 0, got 0.0"),
        # Refused as not > 0 or as not finite, whichever is read first.
        (math.nan, "max_bandwidth"),
    ],
)
def test_a_capacity_not_above_zero_is_refused(kind, capacity, message, tmp_path):
    # Utilization divides by the capacity read live, so that is where a
    # reassigned one is checked.
    def spoil(link, report):
        link.max_bandwidth = capacity

    assert_refused(kind, spoil, f"link (0,1): {message}", tmp_path)


@pytest.mark.parametrize("kind", KINDS)
def test_an_overflowing_utilization_is_refused(kind, tmp_path):
    def spoil(link, report):
        link.max_bandwidth, link.used_bandwidth = 1e-10, 1e308

    assert_refused(kind, spoil, "link (0,1): utilization must be an int or a finite float", tmp_path)


@pytest.mark.parametrize("kind", KINDS)
def test_an_overflowing_numpy_utilization_warns_and_is_refused(kind, tmp_path):
    def spoil(link, report):
        link.max_bandwidth, link.used_bandwidth = np.float64(1e-10), np.float64(1e308)

    with pytest.warns(RuntimeWarning, match="overflow"):
        assert_refused(kind, spoil, "link (0,1): utilization must be", tmp_path)


@pytest.mark.parametrize(
    "field, value, name",
    [
        ("demand_index", True, "demand index"),
        ("converged_episode", True, "demand 1: converged_episode"),
        ("converged_episode", np.int64(3), "demand 1: converged_episode"),
        ("attempted_hops", 2.0, "demand 1: attempted_hops"),
    ],
)
def test_outcome_ints_are_checked_at_construction(field, value, name):
    # The convergence CSV and the report skeleton write them as they are.
    fields = {"demand_index": 1, "converged_episode": None, "attempted_hops": 0, field: value}
    with pytest.raises(ValueError, match=f"^{name} must be an int"):
        DemandOutcome(demand=TrafficDemand(0, 1, 1e5), final_path=None, temp_path_lengths=(), **fields)
