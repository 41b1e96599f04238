"""Weighted transition systems: the robot workspace abstraction.

A WTS is generated from a grid scenario (see `world`) or loaded from a
waypoint-graph JSON file of the shape

    {"states": [{"id": "wp1", "label": ["a"]}, ...],
     "init": ["wp1"],
     "edges": [{"from": "wp1", "to": "wp2", "weight": 10}, ...]}

States are indexed densely; labels are bit patterns over the automaton's
proposition universe. Deleted edges keep their slot with infinite weight so
that downstream incremental searches see deletions as cost changes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .labels import APUniverse, APUniverseError
from .weights import INF, check_travel


@dataclass
class WTS:
    universe: APUniverse
    n_states: int
    labels: list[int]                      # bit pattern per state
    init: list[int]
    succ: list[dict[int, float]]           # state -> {succ: int travel, or INF}
    coords: list[tuple[int, int]] | None = None   # grid cell per state, if any
    names: list[str] | None = None                # external ids, if any

    def __post_init__(self):
        if len(self.labels) != self.n_states or len(self.succ) != self.n_states:
            raise ValueError("labels/succ length must match state count")
        if not self.init:
            raise ValueError("WTS needs at least one initial state")
        for i, out in enumerate(self.succ):
            for j, d in out.items():
                if not 0 <= j < self.n_states:
                    raise ValueError(f"edge {i}->{j} out of range")
                if d != INF:
                    check_travel(d, f"edge {i}->{j}")

    @property
    def n_edges(self) -> int:
        return sum(len(out) for out in self.succ)

    def edges(self):
        for i, out in enumerate(self.succ):
            for j, d in out.items():
                yield i, j, d

    def has_edge(self, i: int, j: int) -> bool:
        return j in self.succ[i]

    def set_weight(self, i: int, j: int, d: float):
        self.succ[i][j] = d


def wts_from_json(data: dict, universe: APUniverse) -> WTS:
    """Build a WTS from the waypoint-graph dict format."""
    states = data["states"]
    index = {}
    labels = []
    names = []
    for pos, item in enumerate(states):
        sid = item["id"]
        if sid in index:
            raise ValueError(f"duplicate waypoint id {sid!r}")
        index[sid] = pos
        names.append(str(sid))
        bits = 0
        for ap in item.get("label", []):
            try:
                bits |= 1 << universe.index(ap)
            except APUniverseError:
                raise APUniverseError(
                    f"waypoint {sid!r} labeled with {ap!r}, unknown to the automaton's universe"
                ) from None
        labels.append(bits)

    succ: list[dict[int, float]] = [{} for _ in states]
    for edge in data["edges"]:
        i, j = index[edge["from"]], index[edge["to"]]
        succ[i][j] = edge["weight"]  # checked by WTS, like every travel

    init = [index[sid] for sid in data["init"]]
    return WTS(universe, len(states), labels, init, succ, names=names)


def load_wts(path, universe: APUniverse) -> WTS:
    with open(path, encoding="utf-8") as fh:
        return wts_from_json(json.load(fh), universe)
