"""Bundled example networks and demand sets.

Six small networks ship with the package, keyed T1..T4, T7, T8 (case
insensitive). T1 through T4 are toy graphs sized for unit arithmetic; T7 and
T8 are the two benchmark networks the comparison and convergence studies run
on, each with a matching bundled demand list. See data/README.md for how the
benchmark files were put together.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

from .network import (
    NetworkGraph,
    TopologyError,
    TrafficDemand,
    demands_from_list,
    graph_from_dict,
    load_topology,
)

BUILTIN_TOPOLOGIES = ("t1", "t2", "t3", "t4", "t7", "t8")
BUILTIN_DEMAND_SETS = ("t7", "t8")


def _data_text(filename: str) -> str:
    return resources.files("rlroute.data").joinpath(filename).read_text(encoding="utf-8")


def is_builtin(name: str) -> bool:
    return name.lower() in BUILTIN_TOPOLOGIES


def load_builtin(name: str) -> NetworkGraph:
    key = name.lower()
    if key not in BUILTIN_TOPOLOGIES:
        raise ValueError(
            f"unknown builtin topology {name!r}; choose from "
            f"{', '.join(t.upper() for t in BUILTIN_TOPOLOGIES)}"
        )
    return graph_from_dict(json.loads(_data_text(f"{key}.json")))


def resolve_topology(source: str) -> NetworkGraph:
    """Interpret source as a builtin id when it matches one, otherwise as a
    path to a topology JSON file, named in every error it raises."""
    if is_builtin(source):
        return load_builtin(source)
    path = Path(source)
    if not path.exists():
        raise FileNotFoundError(
            f"{source!r} is neither a builtin topology id "
            f"({', '.join(t.upper() for t in BUILTIN_TOPOLOGIES)}) nor an existing file"
        )
    return load_topology(source)


def builtin_demands(name: str) -> list[TrafficDemand]:
    key = name.lower()
    if key not in BUILTIN_DEMAND_SETS:
        raise ValueError(
            f"no bundled demand set for {name!r}; available: "
            f"{', '.join(t.upper() for t in BUILTIN_DEMAND_SETS)}"
        )
    filename = f"demands_{key}.json"
    return demands_from_list(json.loads(_data_text(filename)), filename)


def load_demands(path: str | Path) -> list[TrafficDemand]:
    """Read a demand list from a JSON file shaped like
    [{"src": 0, "dst": 26, "traffic_bps": 1.0e5}, ...]; errors name the file."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise TopologyError(f"{path}: {exc}") from None
    return demands_from_list(raw, str(path))
