"""Product of a WTS and a Buchi automaton, plain or relaxed.

Relaxed mode holds, for every workspace edge and every automaton
transition with a nonempty enabling-label set, an edge penalized by the
minimal label distance needed to pretend the move was legal. That
violation is the minimum, over the cubes `(pos, neg)` of the transition's
guards, of `popcount(pos & ~bits) + popcount(neg & bits)` for the
destination label `bits`: the exact Hamming distance to the nearest
enabling label, found without listing the labels. Plain mode is the
violation-0 slice of the same rows, in the same order: exactly the
transitions whose destination label enables the automaton move. Each
product edge carries a packed (violation, travel) weight (see `weights`);
deletions keep the edge with an infinite weight so incremental searches can
treat them as cost changes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .hoa import NBA, cubes_distance
from .weights import INF, INF_W, SHIFT, check_states, check_travel, pack, unpack
from .wts import WTS

PLAIN = "plain"
RELAXED = "relaxed"


@dataclass(frozen=True)
class PAEdgeChange:
    """One affected product edge: new weight (violation, travel)."""

    u: int
    v: int
    weight: tuple


class WeightView:
    """Read-only (violation, travel) snapshots of a packed adjacency.

    `view[u]` is a fresh `{v: (violation, travel)}` dict built from row u;
    writing into it changes neither the adjacency nor the next snapshot.
    """

    __slots__ = ("_rows",)

    def __init__(self, rows: list[dict]):
        self._rows = rows

    def __getitem__(self, u):
        return {v: unpack(w) for v, w in self._rows[u].items()}


class ProductAutomaton:
    """Adjacency-form product: each edge's packed weight, by tail and by head.

    `out[u]` maps each head v to the packed weight of u -> v, and `pred[v]`
    maps each tail u to the same weight. `succ[u]` is a fresh
    `{v: (violation, travel)}` snapshot of `out[u]`, for callers outside the
    searches.
    """

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
        check_states(self.n_states)

        self._pairs: dict[int, list] = {}  # label bits -> pairs, for this product's mode
        self._pair_cubes = [(qm, qn, nba.pair_cubes(qm, qn)) for qm, qn in nba.pairs()]

        nq = self.nq
        out: list[dict] = [{} for _ in range(self.n_states)]
        pred: list[dict] = [{} for _ in range(self.n_states)]
        labels = wts.labels
        pairs_for = self._pairs_for_label
        for i, row in enumerate(wts.succ):
            base = i * nq
            for j, d in row.items():
                vbase = j * nq
                for qm, qn, viol in pairs_for(labels[j]):
                    u = base + qm
                    v = vbase + qn
                    out[u][v] = pred[v][u] = viol + d  # INF stays INF
        self.out = out
        self.pred = pred
        self.succ = WeightView(out)

        self.initial = [pi * nq + q0 for pi in wts.init for q0 in nba.initial]
        self.accepting = [
            pi * nq + qf for pi in range(wts.n_states) for qf in sorted(nba.accepting)
        ]

    # -- state indexing -----------------------------------------------------

    def sid(self, pi: int, q: int) -> int:
        return pi * self.nq + q

    @property
    def n_edges(self) -> int:
        return sum(len(row) for row in self.out)

    # -- label/pair caches ---------------------------------------------------

    def _pairs_for_label(self, bits: int) -> list:
        """(q_m, q_n, packed violation) triples applicable to a destination label."""
        pairs = self._pairs.get(bits)
        if pairs is None:
            pairs = [(qm, qn, cubes_distance(cubes, bits) << SHIFT)
                     for qm, qn, cubes in self._pair_cubes if cubes]
            if self.mode == PLAIN:  # the moves the label enables: the violation-free rows
                pairs = [p for p in pairs if not p[2]]
            self._pairs[bits] = pairs
        return pairs

    def clean_moves(self, bits: int) -> list[list[int]]:
        """Per automaton state, its violation-free successors into a state labelled `bits`."""
        moves: list[list[int]] = [[] for _ in range(self.nq)]
        for qm, qn, viol in self._pairs_for_label(bits):
            if not viol:
                moves[qm].append(qn)
        return moves

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
            if new_travel != INF:
                check_travel(new_travel, f"{change.kind} of {i}->{j}")
        nq = self.nq
        base = i * nq
        vbase = j * nq
        out = []
        for qm, qn, viol in self._pairs_for_label(self.wts.labels[j]):
            w = INF_W if new_travel == INF else (viol >> SHIFT, new_travel)
            out.append(PAEdgeChange(base + qm, vbase + qn, w))
        return out

    def apply_changes(self, mod: list[PAEdgeChange]) -> list[PAEdgeChange]:
        """Write a change set into the adjacency. Exclusive-write operation.

        Returns the subset that created brand-new edges (possible only for
        workspace edge additions); incremental searches must not apply
        their sparse-update shortcut to those.
        """
        out = self.out
        pred = self.pred
        created = []
        for ch in mod:
            row = out[ch.u]
            if ch.v not in row:
                created.append(ch)
            row[ch.v] = pred[ch.v][ch.u] = pack(ch.weight)
        return created


def build_product(wts: WTS, nba: NBA) -> ProductAutomaton:
    return ProductAutomaton(wts, nba, PLAIN)


def build_relaxed_product(wts: WTS, nba: NBA) -> ProductAutomaton:
    return ProductAutomaton(wts, nba, RELAXED)

