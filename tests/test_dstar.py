import copy
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (DictGraph, RescanSearchInstance, apply_edge_changes, random_weighted_graph,
                      reverse_dijkstra_cost)
from tlreplan.dstar import SearchInstance
from tlreplan.weights import INF_W, KM_CAP, pack, path_weight, unpack

INF = math.inf


def _chain(weights):
    g = DictGraph(len(weights) + 1)
    for i, w in enumerate(weights):
        g.add_edge(i, i + 1, (0, w))
    return g


def test_initialize_state():
    g = _chain([10, 10])
    inst = SearchInstance(g, start=0, goal=2, heuristic=lambda a, b: 5 * abs(a - b))
    assert inst.rhs == [INF, INF, pack((0, 0))]
    assert inst.g == [INF] * 3
    assert inst.reached == {2}
    assert len(inst.U) == 1
    k1, k2, node = inst.U[0]
    assert node == 2
    # h(start, goal) enters the travel part only
    assert (k1, k2) == (pack((0, 10)), pack((0, 0)))
    assert inst.km == 0


def test_initialize_rejects_unknown_states():
    g = _chain([10])
    with pytest.raises(ValueError):
        SearchInstance(g, start=5, goal=1)
    with pytest.raises(ValueError):
        SearchInstance(g, start=0, goal=9)


def test_calculate_key_min_and_shift():
    g = _chain([10, 10])
    inst = SearchInstance(g, 0, 2)
    inst.g[1] = pack((0, 30))
    inst.rhs[1] = pack((0, 20))
    assert inst.calculate_key(1) == (pack((0, 20)), pack((0, 20)))
    inst.h = lambda a, b: 5
    assert inst.calculate_key(1) == (pack((0, 25)), pack((0, 20)))
    inst.km += 7
    assert inst.calculate_key(1) == (pack((0, 32)), pack((0, 20)))


def test_key_violation_dominates_travel():
    g = _chain([10])
    inst = SearchInstance(g, 0, 1)
    inst.g[0] = pack((1, 5))
    inst.rhs[0] = pack((1, 5))
    inst.g[1] = pack((0, 99))
    inst.rhs[1] = pack((0, 99))
    assert inst.calculate_key(1) < inst.calculate_key(0)


def test_update_vertex_goal_keeps_zero_rhs():
    g = _chain([10])
    inst = SearchInstance(g, 0, 1)
    inst.update_vertex(1)
    assert inst.rhs[1] == pack((0, 0))


def test_update_vertex_min_over_successors():
    g = DictGraph(4)
    g.add_edge(0, 1, (1, 5))
    g.add_edge(0, 2, (0, 50))
    inst = SearchInstance(g, 0, 3)
    inst.g[1] = pack((0, 0))
    inst.g[2] = pack((0, 0))
    inst.update_vertex(0)
    assert inst.rhs[0] == pack((0, 50))  # violation-first ordering


def test_compute_chain():
    g = _chain([10, 10])
    inst = SearchInstance(g, 0, 2)
    inst.compute_shortest_path()
    assert inst.cost_from() == pack((0, 20))
    assert inst.extract_path() == [0, 1, 2]


def test_compute_grid_manhattan():
    n = 10
    g = DictGraph(n * n)
    for r in range(n):
        for c in range(n):
            for dr, dc in ((0, 1), (0, -1), (1, 0), (-1, 0)):
                r2, c2 = r + dr, c + dc
                if 0 <= r2 < n and 0 <= c2 < n:
                    g.add_edge(r * n + c, r2 * n + c2, (0, 10))
    h = lambda a, b: 10 * (abs(a // n - b // n) + abs(a % n - b % n))
    inst = SearchInstance(g, start=0, goal=n * n - 1, heuristic=h)
    inst.compute_shortest_path()
    assert inst.cost_from() == pack((0, 10 * (9 + 9)))


def test_extract_path_tie_breaks_to_lowest_index():
    g = DictGraph(4)
    g.add_edge(0, 1, (0, 10))
    g.add_edge(0, 2, (0, 10))
    g.add_edge(1, 3, (0, 10))
    g.add_edge(2, 3, (0, 10))
    inst = SearchInstance(g, 0, 3)
    inst.compute_shortest_path()
    assert inst.extract_path() == [0, 1, 3]


def test_extract_path_on_unreachable_state_raises():
    g = DictGraph(3)
    g.add_edge(0, 1, (0, 10))
    inst = SearchInstance(g, 0, 1)
    inst.compute_shortest_path()
    with pytest.raises(ValueError):
        inst.extract_path(2)  # no route from 2 to the goal


def test_disconnection_yields_infinite_cost():
    g = _chain([10, 10])
    inst = SearchInstance(g, 0, 2)
    inst.compute_shortest_path()
    apply_edge_changes(inst, [(1, 2, (0, INF))])
    inst.compute_shortest_path()
    assert inst.cost_from() == INF


def test_empty_change_set_is_noop():
    g = _chain([10, 10])
    inst = SearchInstance(g, 0, 2)
    inst.compute_shortest_path()
    before = (list(inst.g), list(inst.rhs), set(inst.reached), inst.expansions)
    apply_edge_changes(inst, [])
    inst.compute_shortest_path()
    assert (inst.g, inst.rhs, inst.reached, inst.expansions) == before


def test_move_start_accumulates_km():
    g = _chain([10, 10, 10])
    inst = SearchInstance(g, 0, 3, heuristic=lambda a, b: 10 * abs(a - b))
    inst.compute_shortest_path()
    inst.move_start(1)
    assert inst.km == 10
    assert inst.start == 1
    inst.move_start(1)
    assert inst.km == 10


def test_km_cap_starts_the_search_over():
    g = _chain([10, 10, 10])
    inst = SearchInstance(g, 0, 3, heuristic=lambda a, b: 10 * abs(a - b))
    inst.compute_shortest_path()
    inst.km = KM_CAP - 11
    inst.move_start(1)  # km reaches KM_CAP - 1: the search is kept
    assert inst.km == KM_CAP - 1 and inst.g[1] == pack((0, 20))
    inst.compute_shortest_path()
    assert inst.cost_from() == pack((0, 20))
    inst.move_start(2)  # km would reach KM_CAP + 9: the search starts over from 2
    assert (inst.start, inst.km, inst.g, inst.rhs, inst.reached) == \
        (2, 0, [INF] * 4, [INF, INF, INF, 0], {3})
    inst.compute_shortest_path()
    assert inst.cost_from() == pack((0, 10))
    assert inst.extract_path() == [2, 3]


def test_oracle_equivalence_random_graphs():
    for seed in range(100):
        rng = random.Random(seed)
        g = random_weighted_graph(rng, n=64, avg_degree=3.0,
                                  max_violation=3 if seed % 2 else 0)
        inst = SearchInstance(g, start=0, goal=63)
        inst.compute_shortest_path()
        oracle = reverse_dijkstra_cost(g, 63)
        assert inst.cost_from() == oracle.get(0, INF), f"seed {seed}"


def test_mutation_interleaving_matches_fresh_search():
    for seed in range(100):
        rng = random.Random(1000 + seed)
        g = random_weighted_graph(rng, n=64, avg_degree=3.5, max_violation=2)
        inst = SearchInstance(g, start=0, goal=63)
        inst.compute_shortest_path()
        edges = [(u, v) for u, v, _ in g.edges()]
        for _ in range(rng.randint(1, 6)):
            batch = []
            for _ in range(rng.randint(1, 5)):
                u, v = rng.choice(edges)
                kind = rng.random()
                if kind < 0.4:
                    w = (0, INF)
                elif kind < 0.8:
                    w = (rng.randint(0, 2), rng.randint(1, 9) * 10)
                else:
                    w = (0, rng.randint(1, 9) * 10)
                batch.append((u, v, w))
            apply_edge_changes(inst, batch)
            inst.compute_shortest_path()
        oracle = reverse_dijkstra_cost(g, 63)
        assert inst.cost_from() == oracle.get(0, INF), f"seed {seed}"


def test_extracted_path_weight_equals_cost():
    checked = 0
    for seed in range(120):
        rng = random.Random(2000 + seed)
        g = random_weighted_graph(rng, n=48, avg_degree=3.5, max_violation=2)
        inst = SearchInstance(g, start=0, goal=47)
        inst.compute_shortest_path()
        if inst.cost_from() == INF:
            continue
        path = inst.extract_path()
        assert path[0] == 0 and path[-1] == 47
        assert path_weight(g.out, path) == inst.cost_from(), f"seed {seed}"
        checked += 1
        if checked >= 50:
            break
    assert checked >= 50


def test_zero_violation_states_expand_first():
    for seed in range(100):
        rng = random.Random(3000 + seed)
        g = random_weighted_graph(rng, n=40, avg_degree=3.0, max_violation=3,
                                  zero_violation_chain=True)
        inst = SearchInstance(g, start=0, goal=39, log_pops=True)
        inst.compute_shortest_path()
        assert unpack(inst.cost_from())[0] == 0, f"seed {seed}: clean chain exists"
        for _k1, k2, _state in inst.pop_log:
            assert unpack(k2)[0] == 0, f"seed {seed}: violating state expanded early"


def test_start_move_plus_changes_still_optimal():
    # walk the start along a path while the graph changes; km keeps keys valid
    for seed in range(30):
        rng = random.Random(4000 + seed)
        g = random_weighted_graph(rng, n=50, avg_degree=3.5)
        h = lambda a, b: 0
        inst = SearchInstance(g, start=0, goal=49, heuristic=h)
        inst.compute_shortest_path()
        edges = [(u, v) for u, v, _ in g.edges()]
        current = 0
        for _ in range(4):
            if inst.cost_from(current) == INF:
                break
            nxt = inst.extract_path(current)[1] if inst.cost_from(current) != 0 else current
            inst.move_start(nxt)
            current = nxt
            u, v = rng.choice(edges)
            apply_edge_changes(inst, [(u, v, (0, rng.randint(1, 9) * 10))])
            inst.compute_shortest_path()
            oracle = reverse_dijkstra_cost(g, 49)
            assert inst.cost_from(current) == oracle.get(current, INF), f"seed {seed}"


def _lookahead(inst, s):
    best = INF
    for v, w in inst.graph.succ_items(s):
        gv = inst.g[v]
        if w != INF and gv != INF:
            best = min(best, gv + w)
    return best


def _random_batch(rng, g):
    """Raises, drops (deleted edges restored among them), deletes and created edges."""
    edges = list(g.edges())
    batch = []
    for _ in range(rng.randint(1, 6)):
        u, v, w = rng.choice(edges)
        wv, wt = unpack(w)
        kind = rng.random()
        if kind < 0.3 and wt != INF:
            batch.append((u, v, (wv + rng.randint(0, 1), wt + rng.randint(1, 5) * 10)))
        elif kind < 0.55:
            top = 9 if wt == INF else max(1, wt // 10 - 1)
            batch.append((u, v, (rng.randint(0, min(wv, 2)), rng.randint(1, top) * 10)))
        elif kind < 0.8:
            batch.append((u, v, INF_W))
        else:
            a, b = rng.randrange(g.n), rng.randrange(g.n)
            if a != b and b not in g.out[a]:
                batch.append((a, b, (rng.randint(0, 2), rng.randint(1, 9) * 10)))
    return batch


def _mixed_case(seed):
    """A random 40-state graph, a quarter of its edges deleted, and a consistent heuristic."""
    rng = random.Random(5000 + seed)
    n = 40
    g = random_weighted_graph(rng, n=n, avg_degree=3.0, max_violation=2 if seed % 2 else 0)
    for u, v, _w in rng.sample(list(g.edges()), n // 4):
        g.add_edge(u, v, INF_W)  # deleted before the first search, restored by later drops
    x = [rng.randrange(10) for _ in range(n)]
    h = lambda a, b: abs(x[a] - x[b])  # every travel is >= 10, so h is consistent
    return rng, g, h


@pytest.mark.parametrize("seed", range(40))
def test_tightening_expansion_matches_rescan_reference(seed):
    """The O(1) expansion step keeps the lookahead invariant and the textbook pop order.

    Mixed change batches go through `apply_edge_changes` (forced only when an
    edge is created, as in the planner), interleaved with start moves under
    a consistent heuristic. After every search: each state's rhs is its
    one-step lookahead, the start's cost equals a reverse Dijkstra, and
    pops, g, rhs and the reached set equal those of the reference that
    rescans every predecessor.
    """
    rng, g, h = _mixed_case(seed)
    n = g.n
    inst = SearchInstance(g, start=0, goal=n - 1, heuristic=h, log_pops=True)
    ref = RescanSearchInstance(copy.deepcopy(g), start=0, goal=n - 1, heuristic=h,
                               log_pops=True)
    for step in range(8):
        inst.compute_shortest_path()
        ref.compute_shortest_path()
        for s in range(n - 1):
            assert inst.rhs[s] == _lookahead(inst, s), f"seed {seed} step {step} s {s}"
        oracle = reverse_dijkstra_cost(g, n - 1)
        assert inst.cost_from() == oracle.get(inst.start, INF), f"seed {seed} step {step}"
        assert inst.pop_log == ref.pop_log, f"seed {seed} step {step}"
        assert (inst.g, inst.rhs, inst.reached) == (ref.g, ref.rhs, ref.reached), \
            f"seed {seed} step {step}"
        if rng.random() < 0.5 and inst.cost_from() != INF and inst.start != n - 1:
            nxt = inst.extract_path()[1]
            inst.move_start(nxt)
            ref.move_start(nxt)
        batch = _random_batch(rng, g)
        apply_edge_changes(inst, batch)
        apply_edge_changes(ref, batch)


@pytest.mark.parametrize("seed", range(20))
def test_budget_stops_after_exactly_that_many_expansions(seed):
    """A budgeted search stops after `budget` expansions; one it does not reach is unchanged.

    On the mixed change batches and start moves of the tightening test, each
    search runs three ways from copies of one state: unbudgeted, with a budget
    below its expansions, and with a budget at or above them. The first and
    last return True with the same pops, g, rhs and reached set. The cut one
    returns False after exactly `budget` pops of the same log, and a later
    call without a budget finishes it to the same pops, g, rhs and reached set.
    """
    rng, g, h = _mixed_case(seed)
    n = g.n
    inst = SearchInstance(g, start=0, goal=n - 1, heuristic=h, log_pops=True)
    for step in range(8):
        full = copy.deepcopy(inst)
        assert full.compute_shortest_path() is True
        need = full.expansions - inst.expansions
        done = len(inst.pop_log)
        if need > 1:
            budget = rng.randint(1, need - 1)
            cut = copy.deepcopy(inst)
            assert cut.compute_shortest_path(budget=budget) is False, f"seed {seed} step {step}"
            assert cut.expansions - inst.expansions == budget
            assert cut.pop_log == full.pop_log[:done + budget]
            assert cut.compute_shortest_path() is True
            assert (cut.pop_log, cut.g, cut.rhs, cut.reached) == \
                (full.pop_log, full.g, full.rhs, full.reached)
        assert inst.compute_shortest_path(budget=need + rng.randint(0, 3)) is True
        assert (inst.pop_log, inst.g, inst.rhs, inst.reached) == \
            (full.pop_log, full.g, full.rhs, full.reached)
        if rng.random() < 0.5 and inst.cost_from() != INF and inst.start != n - 1:
            inst.move_start(inst.extract_path()[1])
        apply_edge_changes(inst, _random_batch(rng, g))


def test_restored_edge_reaches_a_state_behind_it():
    """A deleted edge into an expanded state, restored later, is seen without force.

    The restore rewrites an existing edge, so its tail is requeued only if the
    search has reached it; expanding the head must count a tail behind a
    deleted edge as reached.
    """
    g = DictGraph(2)
    g.add_edge(0, 1, INF_W)
    inst = SearchInstance(g, start=0, goal=1)
    inst.compute_shortest_path()
    assert inst.cost_from() == INF
    apply_edge_changes(inst, [(0, 1, (0, 5))])
    inst.compute_shortest_path()
    assert inst.cost_from() == pack((0, 5))


@st.composite
def _restore_case(draw):
    """A small graph with some edges deleted, then batches that delete, rewrite and restore."""
    n = draw(st.integers(2, 9))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                          .filter(lambda e: e[0] != e[1]), min_size=1, max_size=24, unique=True))
    weight = st.one_of(st.just(INF_W), st.tuples(st.integers(0, 2), st.integers(1, 9)))
    initial = draw(st.lists(weight, min_size=len(pairs), max_size=len(pairs)))
    change = st.tuples(st.integers(0, len(pairs) - 1), weight)
    batches = draw(st.lists(st.lists(change, min_size=1, max_size=4), min_size=1, max_size=5))
    return n, pairs, initial, batches


@settings(max_examples=200, deadline=None)
@given(_restore_case())
def test_reached_shortcut_matches_forced_rescan(case):
    """Skipping unreached tails in `note_changed_edges` is exact.

    Two searches over copies of one graph take the same batches of rewrites,
    deleted edges coming back among them: one requeues only reached tails,
    the other every tail (`force=True`). After each search both hold the same
    g, rhs and path, and the cost equals a reverse Dijkstra.
    """
    n, pairs, initial, batches = case
    graphs = [DictGraph(n), DictGraph(n)]
    for g in graphs:
        for (u, v), w in zip(pairs, initial):
            g.add_edge(u, v, w)
    short, forced = (SearchInstance(g, start=0, goal=n - 1) for g in graphs)
    for batch in [[]] + batches:
        for inst, force in ((short, False), (forced, True)):
            for i, w in batch:
                inst.graph.add_edge(*pairs[i], w)
            inst.note_changed_edges({pairs[i][0] for i, _w in batch}, force=force)
            inst.compute_shortest_path()
        assert (short.g, short.rhs) == (forced.g, forced.rhs)
        assert short.cost_from() == reverse_dijkstra_cost(graphs[0], n - 1).get(0, INF)
        if short.cost_from() != INF:
            assert short.extract_path() == forced.extract_path()
