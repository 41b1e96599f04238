import math
import time

import pytest

from conftest import chi_bits, visit_in_order_hoa
from tlreplan.hoa import parse_nba
from tlreplan.labels import APUniverse
from tlreplan.product import (build_product, build_relaxed_product, dist,
                              dist_bits)
from tlreplan.world import Belief, ChangeEvent, GridScenario, to_wts
from tlreplan.wts import WTS

INF = math.inf


def _nba(body, n_props=3, n_states=2, start=0, names=None):
    if names is None:
        names = " ".join(f'"p{i}"' for i in range(n_props))
    return parse_nba(f"""HOA: v1
States: {n_states}
Start: {start}
AP: {n_props} {names}
acc-name: Buchi
Acceptance: 1 Inf(0)
--BODY--
{body}
--END--
""")


def _line_wts(universe, labels, weights):
    """Chain 0 -> 1 -> ... with the given destination labels."""
    n = len(labels)
    succ = [{} for _ in range(n)]
    for i, w in enumerate(weights):
        succ[i][i + 1] = w
    return WTS(universe, n, labels, [0], succ)


def test_dist_zero_when_label_enables():
    nba = _nba("State: 0\n[0] 1\nState: 1 {0}\n[t] 1")
    assert dist_bits(nba, 0, 1, 0b001) == 0


def test_dist_single_missing_proposition():
    # guard p0 & p1, destination labeled {p0}
    nba = _nba("State: 0\n[0 & 1] 1\nState: 1 {0}\n[t] 1", n_props=2)
    assert dist_bits(nba, 0, 1, 0b01) == 1


def test_dist_min_over_enabling_labels():
    # guard (p0 & !p1) | (p1 & p2) with empty destination label:
    # enabling labels enumerate to {p0}, {p0,p2}, {p1,p2}, {p0,p1,p2}; min distance 1
    nba = _nba("State: 0\n[(0 & !1) | (1 & 2)] 1\nState: 1 {0}\n[t] 1")
    enabling = set(chi_bits(nba, 0, 1))
    assert enabling == {0b001, 0b101, 0b110, 0b111}
    assert min(bits.bit_count() for bits in enabling) == 1
    assert dist_bits(nba, 0, 1, 0) == 1


def test_dist_requires_transition():
    nba = _nba("State: 0\n[0] 1\nState: 1 {0}\n[t] 1")
    with pytest.raises(ValueError):
        dist_bits(nba, 1, 0, 0)


def test_plain_product_edges_follow_destination_label():
    nba = _nba("State: 0\n[0] 1\n[!0] 0\nState: 1 {0}\n[t] 1", n_props=1, names='"a"')
    u = nba.universe
    wts = _line_wts(u, [0, 1], [10])  # move into an a-labeled state
    pa = build_product(wts, nba)
    assert pa.n_states == 2 * 2
    # from <0,q0>, destination label {a} enables only q0->q1
    assert set(pa.succ[pa.sid(0, 0)].keys()) == {pa.sid(1, 1)}
    assert pa.succ[pa.sid(0, 0)][pa.sid(1, 1)] == (0, 10)


def test_unit_nba_product_isomorphic_to_wts():
    nba = _nba("State: 0 {0}\n[t] 0", n_props=1, names='"a"', n_states=1)
    u = nba.universe
    succ = [{1: 10, 2: 20}, {0: 10}, {}]
    wts = WTS(u, 3, [0, 1, 0], [0], succ)
    pa = build_product(wts, nba)
    assert pa.n_states == 3
    assert pa.n_edges == wts.n_edges
    assert pa.accepting == [0, 1, 2]
    for i, out in enumerate(succ):
        assert {v: (0, d) for v, d in out.items()} == pa.succ[i]


def test_relaxed_superset_and_violation_zero_iff_plain():
    nba = _nba("State: 0\n[0] 1\n[!0] 0\nState: 1 {0}\n[0 & 1] 1", n_props=2)
    u = nba.universe
    wts = _line_wts(u, [0, 0b01, 0b10], [10, 30])
    plain = build_product(wts, nba)
    relaxed = build_relaxed_product(wts, nba)
    plain_edges = {(a, b) for a in range(plain.n_states) for b in plain.succ[a]}
    relaxed_edges = {(a, b) for a in range(relaxed.n_states) for b in relaxed.succ[a]}
    assert plain_edges <= relaxed_edges
    assert len(relaxed_edges) > len(plain_edges)
    for a, b in relaxed_edges:
        viol = relaxed.succ[a][b][0]
        assert (viol == 0) == ((a, b) in plain_edges)
        assert relaxed.succ[a][b][1] == wts.weight(*map(lambda s: s // 2, (a, b)))


def test_relaxed_edge_count_per_wts_edge():
    # one WTS edge, automaton with 3 transition pairs, all reachable labels
    nba = _nba("State: 0\n[0] 1\n[!0] 0\nState: 1 {0}\n[t] 1", n_props=1, names='"a"')
    u = nba.universe
    wts = _line_wts(u, [0, 1], [10])
    relaxed = build_relaxed_product(wts, nba)
    assert relaxed.n_edges == 3  # pairs (0,0), (0,1), (1,1) each inserted once


def test_universe_mismatch_rejected():
    nba = _nba("State: 0 {0}\n[t] 0", n_props=1, names='"a"', n_states=1)
    other = APUniverse(("b",))
    wts = WTS(other, 1, [0], [0], [{}])
    with pytest.raises(ValueError):
        build_product(wts, nba)


def test_dist_on_product_states():
    nba = _nba("State: 0\n[0 & 1] 1\nState: 1 {0}\n[t] 1", n_props=2)
    wts = _line_wts(nba.universe, [0, 0b01], [10])
    pa = build_relaxed_product(wts, nba)
    assert dist(pa, pa.sid(0, 0), pa.sid(1, 1)) == 1
    with pytest.raises(ValueError):
        dist(pa, pa.sid(1, 0), pa.sid(0, 1))  # no workspace edge 1->0


class TestMapWtsChange:
    def _setup(self):
        # 3-state automaton with exactly 3 pairs compatible with label {a}
        nba = _nba(
            "State: 0\n[0] 1\n[!0] 0\nState: 1\n[0] 2\nState: 2 {0}\n[0] 2",
            n_props=1, names='"a"', n_states=3)
        wts = _line_wts(nba.universe, [0, 1], [10])
        pa = build_product(wts, nba)
        return nba, wts, pa

    def test_delete_maps_to_all_compatible_pairs(self):
        _, _, pa = self._setup()
        mod = pa.map_wts_change(ChangeEvent("delete", 0, 1))
        assert len(mod) == 3
        assert all(ch.weight == (INF, INF) for ch in mod)
        assert {(ch.u, ch.v) for ch in mod} == {
            (pa.sid(0, 0), pa.sid(1, 1)),
            (pa.sid(0, 1), pa.sid(1, 2)),
            (pa.sid(0, 2), pa.sid(1, 2)),
        }

    def test_reweight_keeps_edge_set(self):
        _, _, pa = self._setup()
        before = {(ch.u, ch.v) for ch in pa.map_wts_change(ChangeEvent("reweight", 0, 1, 50))}
        mod = pa.map_wts_change(ChangeEvent("reweight", 0, 1, 50))
        assert {(ch.u, ch.v) for ch in mod} == before
        assert all(ch.weight == (0, 50) for ch in mod)

    def test_no_compatible_pairs_empty_mod(self):
        nba = _nba("State: 0\n[0] 1\nState: 1 {0}\n[0] 1", n_props=1, names='"a"')
        wts = _line_wts(nba.universe, [0, 0], [10])  # unlabeled destination
        pa = build_product(wts, nba)
        assert pa.map_wts_change(ChangeEvent("delete", 0, 1)) == []

    def test_unknown_edge_rejected(self):
        _, _, pa = self._setup()
        with pytest.raises(ValueError):
            pa.map_wts_change(ChangeEvent("delete", 1, 0))

    def test_apply_changes_updates_weights_in_place(self):
        _, _, pa = self._setup()
        mod = pa.map_wts_change(ChangeEvent("reweight", 0, 1, 50))
        created = pa.apply_changes(mod)
        assert created == []
        for ch in mod:
            assert pa.succ[ch.u][ch.v] == (0, 50)

    def test_relaxed_reweight_keeps_violation(self):
        nba = _nba("State: 0\n[0 & 1] 1\nState: 1 {0}\n[t] 1", n_props=2)
        wts = _line_wts(nba.universe, [0, 0b01], [10])
        pa = build_relaxed_product(wts, nba)
        mod = pa.map_wts_change(ChangeEvent("reweight", 0, 1, 50))
        weights = {(ch.u, ch.v): ch.weight for ch in mod}
        assert weights[(pa.sid(0, 0), pa.sid(1, 1))] == (1, 50)


def test_plain_edges_reverified_by_independent_guard_evaluation(seq_nba):
    from test_hoa import _eval_reference
    from tlreplan.world import Belief, load_scenario, to_wts
    from conftest import ASSETS
    scn = load_scenario(ASSETS / "bench_map_a.json")
    wts = to_wts(scn, Belief(), seq_nba.universe)
    pa = build_product(wts, seq_nba)
    guards = {}
    for qm, guard, qn in seq_nba.transitions:
        guards.setdefault((qm, qn), []).append(guard)
    for u in range(pa.n_states):
        pi, qm = pa.unpack(u)
        for v in pa.succ[u]:
            pj, qn = pa.unpack(v)
            assert wts.has_edge(pi, pj)
            bits = wts.labels[pj]
            assert any(_eval_reference(g, bits) for g in guards.get((qm, qn), []))


def test_relaxed_violation_zero_iff_plain_on_benchmark(seq_nba):
    from tlreplan.world import Belief, load_scenario, to_wts
    from conftest import ASSETS
    scn = load_scenario(ASSETS / "bench_map_b.json")
    wts = to_wts(scn, Belief(), seq_nba.universe)
    plain = build_product(wts, seq_nba)
    relaxed = build_relaxed_product(wts, seq_nba)
    for u in range(relaxed.n_states):
        plain_out = plain.succ[u]
        for v, (viol, _t) in relaxed.succ[u].items():
            assert (viol == 0) == (v in plain_out)


def test_64_ap_products_build_within_a_second():
    nba = parse_nba(visit_in_order_hoa(64))
    n = 20
    cells = [divmod(6 * i, n) for i in range(64)]
    scenario = GridScenario(width=n, height=n, walls=set(), obstacles=set(), bumps=set(),
                            regions={f"p{i}": {cell} for i, cell in enumerate(cells)},
                            start=cells[0])
    wts = to_wts(scenario, Belief(), nba.universe)
    pairs = len(nba.pairs())
    for build, enabled in ((build_product, pairs // 2), (build_relaxed_product, pairs)):
        start = time.perf_counter()
        pa = build(wts, nba)
        assert time.perf_counter() - start < 1, build.__name__
        # every automaton state has exactly one of its two moves enabled per label
        assert pa.n_edges == wts.n_edges * enabled
    assert dist_bits(nba, 63, 64, 1 << 63) == 0
    assert dist_bits(nba, 63, 64, 1 << 5) == 1
    assert dist_bits(nba, 63, 63, 1 << 63) == 1
