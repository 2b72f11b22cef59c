"""The report writer against json and csv themselves.

The harness writes report.json's links blocks and temp_path_lengths lists,
and every CSV, as text of its own. On random sequence, gamma and comparison
reports, each file must equal what json.dumps(to_dict(), indent=2,
sort_keys=True) and csv.writer write, byte for byte: with awkward numbers
(-0.0, subnormals, 1e16, huge ints), loads assigned after construction
(inf, nan, numpy.float64, bools), non-ASCII topology paths, no demands and
demands that ran no episode.
"""

import math
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rlroute.harness import (
    ComparisonReport,
    DemandOutcome,
    ExperimentConfig,
    ExperimentReport,
    GammaStudyReport,
    emit_comparison_reports,
    emit_gamma_reports,
    emit_reports,
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
# What a load can hold once assigned after construction.
cells = st.one_of(
    numbers,
    st.sampled_from([math.inf, -math.inf, math.nan]),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.booleans(),
)
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
    loads assigned after construction."""
    n = draw(st.integers(min_value=2, max_value=5))
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    graph = build_graph(n, [(a, b, 1e7) for a, b in chosen])
    for link in graph.iter_links():
        link.max_bandwidth = draw(numbers.filter(bool) | positive)
        link.used_bandwidth = draw(cells)
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
                st.integers(min_value=0, max_value=10**20) | st.booleans(), max_size=30
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


# numpy warns of the overflows loads like these make, and the tests turn
# warnings into errors.
quiet_numpy = np.errstate(all="ignore")


@settings(max_examples=150, deadline=None)
@given(sequence_reports())
@quiet_numpy
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
@quiet_numpy
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
@quiet_numpy
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
