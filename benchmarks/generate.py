"""Seeded synthetic topologies and demand sets for the benchmark.

A graph is a bidirectional ring (so every node can reach every other) plus
random chords, every connection a duplex pair of directed links. Chords are
added until the mean out-degree reaches the requested value. Capacities,
preloads, reliabilities and node processing rates are drawn from small mixed
sets, so the learner sees real differences between links. Demands are
uniform over ordered node pairs.

The program only ever reads the result through its public loaders
(``load_topology`` via ``resolve_topology``, and ``load_demands``), so the
files written here are the whole interface.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

CAPACITIES_BPS = (10e6, 40e6, 100e6)
PROCESSING_RATES_BPS = (100e6, 200e6, 400e6)
DEMAND_RATES_BPS = (1e5, 2e5, 5e5, 1e6)
MEAN_OUT_DEGREE = 8.0
# Preloads leave every link at least half free, so one demand never
# saturates a link and load placement stays meaningful.
MAX_PRELOAD_UTILIZATION = 0.5


def make_topology(num_nodes: int, rng: random.Random) -> dict:
    """Ring plus random duplex chords, as a topology document."""
    pairs = {tuple(sorted((i, (i + 1) % num_nodes))) for i in range(num_nodes)}
    # Each duplex pair adds one out-link to both ends: mean degree is 2*pairs/n.
    target = round(MEAN_OUT_DEGREE * num_nodes / 2)
    while len(pairs) < target:
        u, v = rng.randrange(num_nodes), rng.randrange(num_nodes)
        if u != v:
            pairs.add((min(u, v), max(u, v)))

    nodes = [
        {"id": i, "processing_rate_bps": rng.choice(PROCESSING_RATES_BPS)}
        for i in range(num_nodes)
    ]
    links = []
    for u, v in sorted(pairs):
        capacity = rng.choice(CAPACITIES_BPS)
        for src, dst in ((u, v), (v, u)):
            links.append(
                {
                    "src": src,
                    "dst": dst,
                    "max_bandwidth_bps": capacity,
                    "used_bandwidth_bps": round(
                        rng.uniform(0.0, MAX_PRELOAD_UTILIZATION) * capacity, -3
                    ),
                    "reliability": round(rng.uniform(0.95, 1.0), 4),
                }
            )
    return {"nodes": nodes, "links": links}


def make_demands(num_nodes: int, count: int, rng: random.Random) -> list[dict]:
    """count demands with uniform distinct endpoints, in routing order."""
    demands = []
    for _ in range(count):
        src = rng.randrange(num_nodes)
        dst = rng.randrange(num_nodes - 1)
        if dst >= src:
            dst += 1
        demands.append({"src": src, "dst": dst, "traffic_bps": rng.choice(DEMAND_RATES_BPS)})
    return demands


def _dump(payload, path: Path) -> None:
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


def write_instance(
    out_dir: Path, num_nodes: int, num_demands: int, seed: int, instance: int = 0
) -> tuple[Path, Path]:
    """Write topology.json and demands.json for one (seed, instance) pair;
    returns both paths.

    Topology and demands draw from separate streams, so changing the demand
    count leaves the graph of a seed unchanged.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    topology_path = out_dir / "topology.json"
    demands_path = out_dir / "demands.json"
    topo_rng = random.Random(f"topology:{num_nodes}:{MEAN_OUT_DEGREE}:{seed}:{instance}")
    demand_rng = random.Random(f"demands:{num_nodes}:{seed}:{instance}")
    _dump(make_topology(num_nodes, topo_rng), topology_path)
    _dump(make_demands(num_nodes, num_demands, demand_rng), demands_path)
    return topology_path, demands_path

