"""Workload definitions: each turns (seed, mission index) into one mission's inputs.

Every input comes from the seed through `random.Random` and
`tlreplan.random_map`, so one seed always yields the same maps and automata.
The program only ever sees the generated scenario and automaton text.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from dataclasses import dataclass
from pathlib import Path

PLAIN = "plain"
RELAXED = "relaxed"


BETA = 10   # suffix weighting, the simulator's default
LOOPS = 1   # loop traversals per mission


@dataclass(frozen=True)
class Workload:
    name: str
    automaton: str          # shipped asset name, or "wide:<k>" for a generated one
    size: int               # grid side
    density: float          # hidden-obstacle density
    mode: str               # plain | relaxed
    tail_pct: int           # percentile reported as replan_ms_tail
    setups: int             # timed set-ups before each mission

    @property
    def min_tail_events(self) -> int:
        """Event count at which at least ten events lie beyond tail_pct."""
        return -(-10 * 100 // (100 - self.tail_pct)) + 1


# Why each workload exists is in README.md and BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("grid-abcd", "sequence_abcd", 16, 0.35, PLAIN, 95, 3),
    Workload("relaxed-grid", "sequence_abcd", 6, 0.1, RELAXED, 80, 3),
    Workload("wide-ap", "wide:13", 8, 0.4, PLAIN, 75, 1),
)}


def automaton_text(workload: Workload, assets: Path) -> str:
    if workload.automaton.startswith("wide:"):
        return wide_hoa(int(workload.automaton[len("wide:"):]))
    return (assets / f"{workload.automaton}.hoa").read_text(encoding="utf-8")


def wide_hoa(k: int) -> str:
    """Cyclic mission "visit p0, p1, ..., p(k-1) in order" over k propositions.

    State i waits for p_i; state k is accepting and waits for p0 again.
    """
    aps = " ".join(f'"p{i}"' for i in range(k))
    lines = ["HOA: v1", f'name: "visit p0..p{k - 1} in order"', f"States: {k + 1}",
             "Start: 0", f"AP: {k} {aps}", "acc-name: Buchi", "Acceptance: 1 Inf(0)",
             "--BODY--"]
    for q in range(k + 1):
        want = q % k
        lines.append(f"State: {q} {{0}}" if q == k else f"State: {q}")
        lines.append(f"[!{want}] {q}")
        lines.append(f"[{want}] {want + 1}")
    lines.append("--END--")
    return "\n".join(lines) + "\n"


def mission_seed(seed: int, index: int) -> int:
    return seed * 100_003 + index


def ring_cells(n: int, k: int) -> list[tuple[int, int]]:
    """k cells spread evenly, clockwise, along the square ring one cell inside the border."""
    lo, hi = 1, n - 2
    ring = ([(lo, c) for c in range(lo, hi)] + [(r, hi) for r in range(lo, hi)]
            + [(hi, c) for c in range(hi, lo, -1)] + [(r, lo) for r in range(hi, lo, -1)])
    if k > len(ring):
        raise ValueError(f"a {n}x{n} grid has no room for {k} regions")
    return [ring[i * len(ring) // k] for i in range(k)]


def make_scenario(tl, workload: Workload, names, seed: int, index: int):
    """The grid for mission `index` of a run seeded with `seed`.

    Hidden obstacles come from `tl.random_map`; the regions sit at fixed
    cells along a ring, so every mission asks for the same tour and the
    spread between missions comes from the obstacles alone. The start
    keeps its 3x3 block free, and so does every region of a plain
    four-region mission: such a region is never the only way through, so
    the mission can always be completed. Relaxed workloads wall in the last
    region with hidden obstacles: the robot discovers mid-mission that the
    mission cannot be met and must relax it.
    """
    relaxed = workload.mode == RELAXED
    cells = ring_cells(workload.size, len(names))
    walled = cells[-1] if relaxed else None
    plain_four = len(names) <= 4 and not relaxed
    cleared = cells if plain_four else cells[:1]
    keep = set(cells) | {(r + dr, c + dc) for r, c in cleared
                         for dr in (-1, 0, 1) for dc in (-1, 0, 1)}
    base_seed = mission_seed(seed, index)
    for attempt in range(100):
        base = tl.random_map(base_seed * 101 + attempt, workload.size, workload.density,
                             allow_infeasible=True)
        obstacles = base.obstacles - keep
        if walled:
            obstacles |= set(base.neighbors(walled))
        scenario = dataclasses.replace(base, obstacles=obstacles, bumps=set(),
                                       regions={n: {c} for n, c in zip(names, cells)},
                                       start=cells[0])
        if relaxed or keep <= _reachable(scenario):
            return scenario
    raise RuntimeError(f"no connected map for seed {seed}, mission {index}")


def _reachable(scenario) -> set:
    seen = {scenario.start}
    queue = deque([scenario.start])
    while queue:
        cell = queue.popleft()
        for nb in scenario.neighbors(cell):
            if nb not in seen and nb not in scenario.obstacles:
                seen.add(nb)
                queue.append(nb)
    return seen


def fingerprint(scenario) -> tuple:
    """Hashable summary of a scenario, for the seed-sensitivity self-check."""
    return (scenario.width, scenario.start, tuple(sorted(scenario.obstacles)),
            tuple(sorted((n, tuple(sorted(c))) for n, c in scenario.regions.items())))
