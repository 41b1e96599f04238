"""Product of a WTS and a Buchi automaton, plain or relaxed.

Plain mode contains exactly the transitions whose destination label enables
the automaton move. Relaxed mode additionally inserts, for every workspace
edge and every automaton transition with a nonempty enabling-label set, an
edge penalized by the minimal label distance needed to pretend the move was
legal. That violation is the minimum, over the cubes `(pos, neg)` of the
transition's guards, of `popcount(pos & ~bits) + popcount(neg & bits)` for
the destination label `bits`: the exact Hamming distance to the nearest
enabling label, found without listing the labels. Each product edge
carries a (violation, travel) weight; deletions keep the edge with an
infinite weight so incremental searches can treat them as cost changes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .hoa import NBA, cubes_distance, cubes_enable
from .weights import INF, INF_WEIGHT
from .wts import WTS

PLAIN = "plain"
RELAXED = "relaxed"


@dataclass(frozen=True)
class PAEdgeChange:
    """One affected product edge: new weight (violation, travel)."""

    u: int
    v: int
    weight: tuple


def dist_bits(nba: NBA, qm: int, qn: int, label_bits: int) -> int:
    """Violation of taking q_m -> q_n when the destination carries `label_bits`."""
    cubes = nba.pair_cubes(qm, qn)
    if not cubes:
        raise ValueError(f"no transition {qm}->{qn}: relaxation undefined")
    return cubes_distance(cubes, label_bits)


class ProductAutomaton:
    """Adjacency-form product with both successor and predecessor lists."""

    def __init__(self, wts: WTS, nba: NBA, mode: str = PLAIN):
        if wts.universe != nba.universe:
            raise ValueError("WTS and automaton use different proposition universes")
        if mode not in (PLAIN, RELAXED):
            raise ValueError(f"unknown mode {mode!r}")
        self.wts = wts
        self.nba = nba
        self.mode = mode
        self.nq = nba.n_states
        self.n_states = wts.n_states * nba.n_states

        self._plain_pairs: dict[int, list] = {}
        self._relaxed_pairs: dict[int, list] = {}
        self._pair_cubes = [(qm, qn, nba.pair_cubes(qm, qn)) for qm, qn in nba.pairs()]

        nq = self.nq
        succ: list[dict] = [{} for _ in range(self.n_states)]
        pred: list[list] = [[] for _ in range(self.n_states)]
        labels = wts.labels
        pairs_for = self._pairs_for_label
        for i, out in enumerate(wts.succ):
            base = i * nq
            for j, d in out.items():
                vbase = j * nq
                for qm, qn, viol in pairs_for(labels[j]):
                    u = base + qm
                    v = vbase + qn
                    succ[u][v] = INF_WEIGHT if d == INF else (viol, d)
                    pred[v].append(u)
        self.succ = succ
        self.pred = pred

        self.initial = [pi * nq + q0 for pi in wts.init for q0 in nba.initial]
        self.accepting = [
            pi * nq + qf for pi in range(wts.n_states) for qf in sorted(nba.accepting)
        ]

    # -- state indexing -----------------------------------------------------

    def sid(self, pi: int, q: int) -> int:
        return pi * self.nq + q

    def unpack(self, s: int) -> tuple[int, int]:
        return divmod(s, self.nq)

    @property
    def n_edges(self) -> int:
        return sum(len(out) for out in self.succ)

    # -- label/pair caches ---------------------------------------------------

    def _pairs_for_label(self, bits: int) -> list:
        """(q_m, q_n, violation) triples applicable to a destination label."""
        if self.mode == PLAIN:
            pairs = self._plain_pairs.get(bits)
            if pairs is None:
                pairs = [(qm, qn, 0) for qm, qn, cubes in self._pair_cubes
                         if cubes_enable(cubes, bits)]
                self._plain_pairs[bits] = pairs
            return pairs
        pairs = self._relaxed_pairs.get(bits)
        if pairs is None:
            pairs = [(qm, qn, cubes_distance(cubes, bits)) for qm, qn, cubes in self._pair_cubes
                     if cubes]
            self._relaxed_pairs[bits] = pairs
        return pairs

    # -- change mapping ------------------------------------------------------

    def map_wts_change(self, change) -> list[PAEdgeChange]:
        """Translate one workspace edge change into the affected product edges.

        `change` needs attributes kind ('add' | 'delete' | 'reweight'),
        i, j (WTS states) and weight (new travel, ignored for deletes).
        """
        i, j = change.i, change.j
        if change.kind in ("delete", "reweight") and not self.wts.has_edge(i, j):
            raise ValueError(f"unknown WTS edge {i}->{j}")
        if change.kind == "delete":
            new_travel = INF
        else:
            new_travel = change.weight
            if new_travel is None or (new_travel != INF and new_travel < 1):
                raise ValueError(f"bad weight {new_travel!r} for {change.kind}")
        nq = self.nq
        base = i * nq
        vbase = j * nq
        out = []
        for qm, qn, viol in self._pairs_for_label(self.wts.labels[j]):
            w = INF_WEIGHT if new_travel == INF else (viol, new_travel)
            out.append(PAEdgeChange(base + qm, vbase + qn, w))
        return out

    def apply_changes(self, mod: list[PAEdgeChange]) -> list[PAEdgeChange]:
        """Write a change set into the adjacency. Exclusive-write operation.

        Returns the subset that created brand-new edges (possible only for
        workspace edge additions); incremental searches must not apply
        their sparse-update shortcut to those.
        """
        succ = self.succ
        pred = self.pred
        created = []
        for ch in mod:
            row = succ[ch.u]
            if ch.v not in row:
                pred[ch.v].append(ch.u)
                created.append(ch)
            row[ch.v] = ch.weight
        return created


def build_product(wts: WTS, nba: NBA) -> ProductAutomaton:
    return ProductAutomaton(wts, nba, PLAIN)


def build_relaxed_product(wts: WTS, nba: NBA) -> ProductAutomaton:
    return ProductAutomaton(wts, nba, RELAXED)


def dist(pa: ProductAutomaton, s_m: int, s_n: int) -> int:
    """Violation of the product transition s_m -> s_n (0 when it is legal)."""
    pi, qm = pa.unpack(s_m)
    pj, qn = pa.unpack(s_n)
    if not pa.wts.has_edge(pi, pj):
        raise ValueError(f"no workspace edge {pi}->{pj}")
    return dist_bits(pa.nba, qm, qn, pa.wts.labels[pj])
