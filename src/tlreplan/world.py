"""Gridworlds with hidden obstacles and slow cells, and one-cell sensing.

A scenario fixes the ground truth: wall segments (always known), hidden
impassable cells, hidden slow cells, labeled regions, and the start cell.
The robot's belief starts with walls only; sensing at a cell reveals
hidden objects in its 4-neighborhood and reports them as edge changes
against the belief transition system built at simulation start. States are
never removed: a revealed obstacle turns its incoming edges infinite.

Scenario files are JSON:

    {"width": 10, "height": 10,
     "walls": [[[0,4],[0,5]], ...],
     "obstacles": [[2,3], ...], "bumps": [[5,5], ...],
     "regions": {"a": [[1,1]], "b": [[1,8]], ...},
     "start": [1,1], "move_cost": 10, "bump_cost": 50}
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from .baselines import lex_dijkstra, loop_cost
from .labels import APUniverse
from .product import build_product
from .weights import INF, STATE_CAP, WeightRangeError, check_travel
from .wts import WTS

Cell = tuple[int, int]

DELETE = "delete"
REWEIGHT = "reweight"


@dataclass
class ChangeEvent:
    """One belief-WTS edge change caused by a revealed object."""

    kind: str
    i: int
    j: int
    weight: int | None = None


@dataclass
class GridScenario:
    width: int
    height: int
    walls: set[frozenset]
    obstacles: set[Cell]
    bumps: set[Cell]
    regions: dict[str, set[Cell]]
    start: Cell
    move_cost: int = 10
    bump_cost: int = 50

    def __post_init__(self):
        if self.move_cost < 1 or self.bump_cost < self.move_cost:
            # the planner's step is the cheapest edge when it is built; a
            # revealed bump below it would break its heuristics' admissibility
            raise ValueError(f"need 1 <= move_cost <= bump_cost, got move_cost="
                             f"{self.move_cost} and bump_cost={self.bump_cost}")
        check_travel(self.move_cost, "move_cost")
        check_travel(self.bump_cost, "bump_cost")
        for cell in [self.start, *self.obstacles, *self.bumps]:
            self._check_bounds(cell)
        for cells in self.regions.values():
            for cell in cells:
                self._check_bounds(cell)
                if cell in self.obstacles:
                    raise ValueError(f"region cell {cell} is an obstacle")
        if self.start in self.obstacles:
            raise ValueError("start cell is an obstacle")
        if self.obstacles & self.bumps:
            raise ValueError("a cell cannot be both obstacle and bump")
        for pair in self.walls:
            a, b = tuple(pair)
            self._check_bounds(a)
            self._check_bounds(b)
            if abs(a[0] - b[0]) + abs(a[1] - b[1]) != 1:
                raise ValueError(f"wall {a}-{b} does not separate adjacent cells")

    def _check_bounds(self, cell: Cell):
        r, c = cell
        if not (0 <= r < self.height and 0 <= c < self.width):
            raise ValueError(f"cell {cell} outside {self.height}x{self.width} grid")

    def cells(self):
        for r in range(self.height):
            for c in range(self.width):
                yield (r, c)

    def wall_between(self, a: Cell, b: Cell) -> bool:
        return frozenset((a, b)) in self.walls

    def neighbors(self, cell: Cell):
        r, c = cell
        for nr, nc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if 0 <= nr < self.height and 0 <= nc < self.width:
                yield (nr, nc)


@dataclass
class Belief:
    """What the robot knows so far; grows monotonically."""

    known_obstacles: set[Cell] = field(default_factory=set)
    known_bumps: set[Cell] = field(default_factory=set)
    wts: WTS | None = None
    cell_index: dict[Cell, int] | None = None

    def attach(self, wts: WTS):
        self.wts = wts
        self.cell_index = {cell: i for i, cell in enumerate(wts.coords)}


def to_wts(scenario: GridScenario, belief: Belief, universe: APUniverse) -> WTS:
    """Belief transition system: free cells, 4-neighbor edges, region labels.

    Only regions named in the automaton's universe become label bits; the
    automaton owns the vocabulary, extra regions are inert. A grid of
    `STATE_CAP` free cells or more is rejected before any cell is visited.
    """
    _check_cells(scenario.width * scenario.height - len(belief.known_obstacles))
    label_bits = {}
    names = set(universe.names)
    for name, cells in scenario.regions.items():
        if name not in names:
            continue
        bit = 1 << universe.index(name)
        for cell in cells:
            label_bits[cell] = label_bits.get(cell, 0) | bit

    coords = [cell for cell in scenario.cells() if cell not in belief.known_obstacles]
    index = {cell: i for i, cell in enumerate(coords)}
    labels = [label_bits.get(cell, 0) for cell in coords]
    succ: list[dict[int, float]] = [{} for _ in coords]
    for cell in coords:
        i = index[cell]
        for nb in scenario.neighbors(cell):
            j = index.get(nb)
            if j is None or scenario.wall_between(cell, nb):
                continue
            cost = scenario.bump_cost if nb in belief.known_bumps else scenario.move_cost
            succ[i][j] = cost

    if scenario.start in belief.known_obstacles:
        raise ValueError("start cell is believed blocked")
    init = [index[scenario.start]]
    return WTS(universe, len(coords), labels, init, succ, coords=coords)


def _check_cells(n: int) -> None:
    """Reject `n` grid cells, one WTS state each: every product over them reaches the cap."""
    if n >= STATE_CAP:
        raise WeightRangeError(f"{n} grid cells reach the product cap of {STATE_CAP} states")


def initial_belief(scenario: GridScenario) -> Belief:
    """Belief before planning: walls known, plus whatever the start cell sees."""
    belief = Belief()
    sense(scenario, belief, scenario.start)
    return belief


def sense(scenario: GridScenario, belief: Belief, position: Cell) -> list[ChangeEvent]:
    """Reveal hidden objects adjacent to `position`; returns belief-WTS changes.

    Before the belief WTS is built the belief sets are still updated but no
    edge events are produced. Re-sensing known objects yields nothing.
    """
    events: list[ChangeEvent] = []
    for cell in scenario.neighbors(position):
        if cell in scenario.obstacles and cell not in belief.known_obstacles:
            belief.known_obstacles.add(cell)
            events.extend(_in_edge_events(scenario, belief, cell, DELETE, None))
        elif cell in scenario.bumps and cell not in belief.known_bumps:
            belief.known_bumps.add(cell)
            events.extend(_in_edge_events(scenario, belief, cell, REWEIGHT, scenario.bump_cost))
    return events


def _in_edge_events(scenario, belief, cell, kind, weight) -> list[ChangeEvent]:
    if belief.wts is None or belief.cell_index is None:
        return []
    j = belief.cell_index.get(cell)
    if j is None:
        return []
    events = []
    for nb in scenario.neighbors(cell):
        i = belief.cell_index.get(nb)
        if i is None or not belief.wts.has_edge(i, j):
            continue
        events.append(ChangeEvent(kind, i, j, weight))
        belief.wts.set_weight(i, j, INF if kind == DELETE else weight)
    return events


# ---------------------------------------------------------------------------
# Scenario I/O


def scenario_from_dict(data: dict) -> GridScenario:
    return GridScenario(
        width=data["width"],
        height=data["height"],
        walls={frozenset((tuple(a), tuple(b))) for a, b in data.get("walls", [])},
        obstacles={tuple(c) for c in data.get("obstacles", [])},
        bumps={tuple(c) for c in data.get("bumps", [])},
        regions={name: {tuple(c) for c in cells} for name, cells in data.get("regions", {}).items()},
        start=tuple(data["start"]),
        move_cost=data.get("move_cost", 10),
        bump_cost=data.get("bump_cost", 50),
    )


def load_scenario(path) -> GridScenario:
    with open(path, encoding="utf-8") as fh:
        return scenario_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# Random benchmark maps


def random_map(seed: int, n: int, density: float, nba=None, retries: int = 200,
               allow_infeasible: bool = False, bump_density: float = 0.0) -> GridScenario:
    """Random n-by-n map: one region cell per quadrant, scattered hidden objects.

    Regeneration repeats with derived seeds until the ground truth admits a
    violation-free run (checked against `nba` when given, otherwise by free
    connectivity of the region cells). A map of `STATE_CAP` cells or more
    is rejected before any cell is rolled: a mission's first belief holds
    every cell but the few its start sees.
    """
    if not 0 <= density < 1:
        raise ValueError(f"density must be in [0, 1), got {density}")
    if n < 4:
        raise ValueError(f"map size must be at least 4, got {n}")
    _check_cells(n * n)
    for attempt in range(retries):
        rng = random.Random(seed * 1000003 + attempt)
        half = n // 2
        quads = {
            "a": ((0, half), (0, half)),
            "b": ((0, half), (half, n)),
            "c": ((half, n), (half, n)),
            "d": ((half, n), (0, half)),
        }
        region_cells = {}
        for name, ((r0, r1), (c0, c1)) in quads.items():
            region_cells[name] = (rng.randrange(r0, r1), rng.randrange(c0, c1))
        protected = set(region_cells.values())
        obstacles = set()
        bumps = set()
        for r in range(n):
            for c in range(n):
                cell = (r, c)
                if cell in protected:
                    continue
                roll = rng.random()
                if roll < density:
                    obstacles.add(cell)
                elif bump_density and roll < density + bump_density:
                    bumps.add(cell)
        scenario = GridScenario(
            width=n, height=n, walls=set(),
            obstacles=obstacles, bumps=bumps,
            regions={name: {cell} for name, cell in region_cells.items()},
            start=region_cells["a"],
        )
        if allow_infeasible or _ground_truth_feasible(scenario, nba):
            return scenario
    raise RuntimeError(f"no feasible map found for seed {seed} after {retries} attempts")


def _ground_truth_feasible(scenario: GridScenario, nba) -> bool:
    """Plain-mode feasibility: a reachable accepting product state on a cycle."""
    belief = Belief(known_obstacles=set(scenario.obstacles),
                    known_bumps=set(scenario.bumps))
    if nba is None:
        return _regions_connected(scenario)
    try:
        wts = to_wts(scenario, belief, nba.universe)
    except ValueError:
        return False
    pa = build_product(wts, nba)
    reachable, _ = lex_dijkstra(pa.out, pa.initial)
    return any(loop_cost(pa, acc)[0] != INF for acc in pa.accepting if acc in reachable)


def _regions_connected(scenario: GridScenario) -> bool:
    free = {cell for cell in scenario.cells() if cell not in scenario.obstacles}
    targets = {cell for cells in scenario.regions.values() for cell in cells}
    stack = [scenario.start]
    seen = {scenario.start}
    while stack:
        cell = stack.pop()
        for nb in scenario.neighbors(cell):
            if nb in free and nb not in seen and not scenario.wall_between(cell, nb):
                seen.add(nb)
                stack.append(nb)
    return targets <= seen
