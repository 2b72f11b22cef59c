"""Tests for the benchmark's input generator.

    python3 -m pytest benchmarks/test_generate.py
"""

import json
import sys
from collections import deque
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

from generate import MAX_PRELOAD_UTILIZATION, write_instance  # noqa: E402
from rlroute import graph_from_dict  # noqa: E402
from rlroute.topologies import load_demands  # noqa: E402

# (nodes, demands) of the two synthetic workloads.
SIZES = [(100, 100), (400, 20)]


@pytest.mark.parametrize("nodes,demands", SIZES)
def test_same_seed_gives_byte_identical_files(tmp_path, nodes, demands):
    first = write_instance(tmp_path / "a", nodes, demands, seed=7, instance=3)
    again = write_instance(tmp_path / "b", nodes, demands, seed=7, instance=3)
    for a, b in zip(first, again):
        assert a.read_bytes() == b.read_bytes()


def test_seed_and_instance_each_change_both_files(tmp_path):
    base = write_instance(tmp_path / "base", 100, 100, seed=7)
    for other in (
        write_instance(tmp_path / "seed", 100, 100, seed=8),
        write_instance(tmp_path / "instance", 100, 100, seed=7, instance=1),
    ):
        for a, b in zip(base, other):
            assert a.read_bytes() != b.read_bytes()


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("nodes,demands", SIZES)
def test_generated_inputs_load_through_the_public_loaders(tmp_path, seed, nodes, demands):
    topology_path, demands_path = write_instance(tmp_path, nodes, demands, seed)
    graph = graph_from_dict(json.loads(topology_path.read_text(encoding="utf-8")))
    links = list(graph.iter_links())

    assert graph.num_nodes == nodes
    assert len(links) == 8 * nodes
    assert all(graph.has_link(link.dst, link.src) for link in links)
    assert all(link.utilization <= MAX_PRELOAD_UTILIZATION for link in links)
    assert all(0.95 <= link.reliability <= 1.0 for link in links)

    # Duplex links, so reaching every node from node 0 means strongly connected.
    seen, queue = {0}, deque([0])
    while queue:
        for nxt in graph.out_neighbors(queue.popleft()):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    assert len(seen) == nodes

    loaded = load_demands(demands_path)
    assert len(loaded) == demands
    assert all(0 <= d.src < nodes and 0 <= d.dst < nodes and d.src != d.dst for d in loaded)
