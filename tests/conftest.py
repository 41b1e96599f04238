import random
from pathlib import Path

import pytest

from tlreplan.dstar import DictGraph
from tlreplan.hoa import parse_nba_file

ASSETS = Path(__file__).resolve().parent.parent / "src" / "tlreplan" / "assets"


@pytest.fixture(scope="session")
def seq_nba():
    return parse_nba_file(ASSETS / "sequence_abcd.hoa")


@pytest.fixture(scope="session")
def seq_nba_anchored():
    return parse_nba_file(ASSETS / "sequence_abcd_anchored.hoa")


@pytest.fixture(scope="session")
def seq_nba_32():
    return parse_nba_file(ASSETS / "sequence_abcd_32.hoa")


def random_weighted_graph(rng: random.Random, n: int = 64, avg_degree: float = 3.0,
                          max_violation: int = 0, zero_violation_chain: bool = False):
    """Random directed graph with (violation, travel) weights.

    With zero_violation_chain, a 0 -> 1 -> ... -> n-1 chain of clean edges
    guarantees a violation-free route to the last node.
    """
    g = DictGraph(n)
    if zero_violation_chain:
        for u in range(n - 1):
            g.add_edge(u, u + 1, (0, rng.randint(1, 9) * 10))
    n_edges = int(n * avg_degree)
    for _ in range(n_edges):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v or (zero_violation_chain and v == u + 1):
            continue
        viol = rng.randint(0, max_violation) if max_violation else 0
        g.add_edge(u, v, (viol, rng.randint(1, 9) * 10))
    return g


def visit_in_order_hoa(k: int) -> str:
    """Cyclic mission "visit p0, p1, ..., p(k-1) in order" over k propositions.

    State i waits for p_i; state k is accepting and waits for p0 again.
    """
    aps = " ".join(f'"p{i}"' for i in range(k))
    lines = ["HOA: v1", f"States: {k + 1}", "Start: 0", f"AP: {k} {aps}",
             "acc-name: Buchi", "Acceptance: 1 Inf(0)", "--BODY--"]
    for q in range(k + 1):
        want = q % k
        lines.append(f"State: {q} {{0}}" if q == k else f"State: {q}")
        lines += [f"[!{want}] {q}", f"[{want}] {want + 1}"]
    return "\n".join(lines + ["--END--", ""])


def chi_bits(nba, qm: int, qn: int) -> tuple[int, ...]:
    """All labels (as bit patterns) enabling q_m -> q_n, by enumeration.

    Evaluates the guard trees on every one of the 2**|AP| labels, so it is
    an oracle for small universes only; the library itself uses cubes.
    """
    guards = [g for m, g, n in nba.transitions if (m, n) == (qm, qn)]
    return tuple(bits for bits in range(1 << nba.universe.size)
                 if any(g.eval(bits) for g in guards))


def chi(nba, qm: int, qn: int) -> set:
    """Labels enabling the transition q_m -> q_n; empty set if none."""
    return {nba.universe.label_from_bits(b) for b in chi_bits(nba, qm, qn)}


def reverse_dijkstra_cost(graph, goal):
    """Independent cost-to-goal map: lexicographic Dijkstra over reversed edges."""
    from tlreplan.baselines import lex_dijkstra
    dist, _ = lex_dijkstra(lambda u: graph.pred_items(u), [goal])
    return dist
