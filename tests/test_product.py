import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (chi_bits, dist, dist_bits, enabled_bits, guard_predicate, hoa_guards,
                      visit_in_order_hoa)
from tlreplan.hoa import parse_nba
from tlreplan.labels import APUniverse
from tlreplan.product import build_product, build_relaxed_product
from tlreplan.weights import STATE_CAP, TRAVEL_CAP, WeightRangeError, pack
from tlreplan.weights import unpack as unpack_weight
from tlreplan.world import Belief, ChangeEvent, GridScenario, random_map, to_wts
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
    guard = "(0 & !1) | (1 & 2)"
    nba = _nba(f"State: 0\n[{guard}] 1\nState: 1 {{0}}\n[t] 1")
    enabling = set(chi_bits(guard, 3))
    assert enabling == set(enabled_bits(nba, 0, 1)) == {0b001, 0b101, 0b110, 0b111}
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

    def test_travel_cap_boundary(self):
        _, _, pa = self._setup()
        mod = pa.map_wts_change(ChangeEvent("reweight", 0, 1, TRAVEL_CAP - 1))
        assert all(ch.weight == (0, TRAVEL_CAP - 1) for ch in mod)
        for bad in (TRAVEL_CAP, 2.5, 10.0, None):
            with pytest.raises(WeightRangeError):
                pa.map_wts_change(ChangeEvent("reweight", 0, 1, bad))
            with pytest.raises(WeightRangeError):
                pa.map_wts_change(ChangeEvent("add", 1, 0, bad))

    def test_relaxed_reweight_keeps_violation(self):
        nba = _nba("State: 0\n[0 & 1] 1\nState: 1 {0}\n[t] 1", n_props=2)
        wts = _line_wts(nba.universe, [0, 0b01], [10])
        pa = build_relaxed_product(wts, nba)
        mod = pa.map_wts_change(ChangeEvent("reweight", 0, 1, 50))
        weights = {(ch.u, ch.v): ch.weight for ch in mod}
        assert weights[(pa.sid(0, 0), pa.sid(1, 1))] == (1, 50)


def test_plain_edges_reverified_by_independent_guard_evaluation(seq_nba):
    from tlreplan.world import Belief, load_scenario, to_wts
    from conftest import ASSETS
    scn = load_scenario(ASSETS / "bench_map_a.json")
    wts = to_wts(scn, Belief(), seq_nba.universe)
    pa = build_product(wts, seq_nba)
    text = (ASSETS / "sequence_abcd.hoa").read_text(encoding="utf-8")
    guards = {pair: [guard_predicate(g) for g in texts]
              for pair, texts in hoa_guards(text).items()}
    enabled = {(pi * pa.nq + qm, pj * pa.nq + qn)
               for pi, row in enumerate(wts.succ) for pj in row
               for (qm, qn), preds in guards.items()
               if any(holds(wts.labels[pj]) for holds in preds)}
    assert {(u, v) for u in range(pa.n_states) for v in pa.succ[u]} == enabled


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


def test_product_state_cap():
    nba = _nba("State: 0\n[0] 1\nState: 1 {0}\n[0] 1", n_props=1, names='"a"')
    n = STATE_CAP // nba.n_states
    wts = WTS(nba.universe, n, [0] * n, [0], [{}] * n)  # no edges: cheap to check
    with pytest.raises(WeightRangeError, match="cap"):
        build_product(wts, nba)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_succ_view_reads_the_packed_maps_after_random_batches(seq_nba, data):
    """After add, delete and reweight batches, `succ[u][v]` is the last weight
    written to u -> v, unpacked, and `pred[v][u]` holds the same packed weight."""
    build = data.draw(st.sampled_from([build_product, build_relaxed_product]))
    wts = to_wts(random_map(3, 4, 0.0), Belief(), seq_nba.universe)
    pa = build(wts, seq_nba)
    n = wts.n_states
    written = {(u, v): pa.succ[u][v] for u, row in enumerate(pa.out) for v in row}
    for _ in range(data.draw(st.integers(1, 4))):
        mod = []
        for _ in range(data.draw(st.integers(1, 5))):
            i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
            kind = data.draw(st.sampled_from(["add", "delete", "reweight"]))
            if kind != "add" and not wts.has_edge(i, j):
                kind = "add"
            travel = None if kind == "delete" else data.draw(st.integers(1, TRAVEL_CAP - 1))
            mod += pa.map_wts_change(ChangeEvent(kind, i, j, travel))
        pa.apply_changes(mod)
        written.update(((ch.u, ch.v), ch.weight) for ch in mod)
    assert sum(len(row) for row in pa.pred) == pa.n_edges == len(written)
    for u, row in enumerate(pa.out):
        assert pa.succ[u].keys() == row.keys()
        for v, w in row.items():
            assert pa.succ[u][v] == unpack_weight(w) == written[u, v]
            assert pa.pred[v][u] == w == pack(written[u, v])


def test_succ_view_is_read_only(seq_nba):
    pa = build_product(to_wts(random_map(3, 4, 0.0), Belief(), seq_nba.universe), seq_nba)
    u = next(s for s, row in enumerate(pa.out) if row)
    v = next(iter(pa.out[u]))
    out_before = dict(pa.out[u])
    pred_before = dict(pa.pred[v])
    snapshot = pa.succ[u]
    with pytest.raises(TypeError):
        pa.succ[u] = {}
    snapshot[v] = (0, 1)
    del snapshot[v]
    snapshot[-1] = (0, 1)
    assert pa.out[u] == out_before
    assert pa.pred[v] == pred_before
    assert pa.succ[u] == {w: unpack_weight(x) for w, x in out_before.items()}
