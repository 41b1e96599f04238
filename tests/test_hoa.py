import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (ASSETS, chi, chi_bits, cubes_enable, delta, dist_bits, enabled_bits,
                      hoa_guards)
from tlreplan.hoa import (MAX_GUARD_CUBES, GuardTooLargeError, HoaParseError,
                          UnsupportedHoaError, parse_guard, parse_nba)
from tlreplan.weights import STATE_CAP

EVENTUALLY_A = """HOA: v1
States: 2
Start: 0
AP: 1 "a"
acc-name: Buchi
Acceptance: 1 Inf(0)
--BODY--
State: 0
[!0] 0
[0] 1
State: 1 {0}
[t] 1
--END--
"""


def test_parse_eventually_a():
    nba = parse_nba(EVENTUALLY_A)
    assert nba.n_states == 2
    assert nba.initial == [0]
    assert nba.accepting == [1]
    assert nba.n_transitions == 3
    assert nba.universe.names == ("a",)


def test_non_buchi_acceptance_rejected():
    text = EVENTUALLY_A.replace("Acceptance: 1 Inf(0)", "Acceptance: 2 Inf(0)&Inf(1)")
    with pytest.raises(UnsupportedHoaError):
        parse_nba(text)


def test_transition_based_acceptance_rejected():
    text = EVENTUALLY_A.replace("[0] 1", "[0] 1 {0}")
    with pytest.raises(UnsupportedHoaError):
        parse_nba(text)


@pytest.mark.parametrize("header", ["States", "Start", "AP", "Acceptance", "acc-name"])
def test_missing_header_rejected(header):
    lines = [line for line in EVENTUALLY_A.splitlines() if not line.startswith(f"{header}:")]
    body = lines.index("--BODY--") + 1
    with pytest.raises(HoaParseError) as exc:
        parse_nba("\n".join(lines) + "\n")
    assert str(exc.value) == f"missing {header}: header (line {body})"
    assert exc.value.line == body


def test_syntax_error_carries_line():
    text = EVENTUALLY_A.replace("[!0] 0", "[!0 &] 0")
    with pytest.raises(HoaParseError) as exc:
        parse_nba(text)
    assert exc.value.line == 9


def test_guard_ap_index_out_of_range():
    with pytest.raises(HoaParseError):
        parse_nba(EVENTUALLY_A.replace("[!0] 0", "[1] 0"))


def test_unknown_header_rejected_but_name_ignored():
    assert parse_nba(EVENTUALLY_A.replace("HOA: v1\n", 'HOA: v1\nname: "x"\n')).n_states == 2
    with pytest.raises(UnsupportedHoaError):
        parse_nba(EVENTUALLY_A.replace("HOA: v1\n", "HOA: v1\nAlias: @a 0\n"))


@pytest.mark.parametrize("first, repeat", [
    ('AP: 1 "a"', 'AP: 2 "a" "b"'),
    ("States: 2", "States: 3"),
    ("acc-name: Buchi", "acc-name: Buchi"),
    ("Acceptance: 1 Inf(0)", "Acceptance: 1 Inf(0)"),
    ("Start: 0", "Start: 0"),
], ids=["AP", "States", "acc-name", "Acceptance", "Start"])
def test_repeated_header(first, repeat):
    text = EVENTUALLY_A.replace(f"{first}\n", f"{first}\n{repeat}\n")
    if first.startswith("Start"):  # a repeated start state counts once
        assert parse_nba(text).initial == [0]
        return
    with pytest.raises(HoaParseError) as exc:
        parse_nba(text)
    assert exc.value.line == text.splitlines().index(first) + 2


def test_benchmark_automaton_counts(seq_nba_32):
    assert seq_nba_32.n_states == 32
    assert seq_nba_32.n_transitions == 92
    assert seq_nba_32.accepting == [31]


def test_guard_precedence():
    cubes = parse_guard("0 | 1 & !2", 3)
    # parses as 0 | (1 & !2)
    assert cubes_enable(cubes, 0b001)
    assert cubes_enable(cubes, 0b010)
    assert not cubes_enable(cubes, 0b110)
    assert chi_bits("0 | 1 & !2", 3) == chi_bits("0 | (1 & !2)", 3) == tuple(
        bits for bits in range(8) if cubes_enable(cubes, bits))


def test_guard_parentheses_and_errors():
    cubes = parse_guard("(0 | 1) & !2", 3)
    assert not cubes_enable(cubes, 0b001 | 0b100)
    with pytest.raises(HoaParseError):
        parse_guard("(0 | 1", 3)
    with pytest.raises(HoaParseError):
        parse_guard("0 ~ 1", 3)
    with pytest.raises(HoaParseError):
        parse_guard("", 3)


def _mk_nba(guard_text, n_props=3):
    names = " ".join(f'"p{i}"' for i in range(n_props))
    return parse_nba(f"""HOA: v1
States: 2
Start: 0
AP: {n_props} {names}
acc-name: Buchi
Acceptance: 1 Inf(0)
--BODY--
State: 0
[{guard_text}] 1
State: 1 {{0}}
[t] 1
--END--
""")


def test_chi_unique_assignment():
    nba = _mk_nba("0 & !1", n_props=2)
    labels = chi("0 & !1", nba.universe)
    assert {l.bits for l in labels} == set(enabled_bits(nba, 0, 1)) == {0b01}


def test_chi_true_guard_is_all_labels():
    nba = _mk_nba("t", n_props=1)
    assert {l.bits for l in chi("t", nba.universe)} == set(enabled_bits(nba, 0, 1)) == {0, 1}


def test_chi_absent_transition_empty():
    nba = _mk_nba("t", n_props=1)
    assert enabled_bits(nba, 1, 0) == ()
    assert chi("f", nba.universe) == set()


def _random_guard(rng, n_props, depth=3):
    if depth == 0 or rng.random() < 0.3:
        return str(rng.randrange(n_props))
    op = rng.choice(["&", "|", "!"])
    if op == "!":
        return f"!({_random_guard(rng, n_props, depth - 1)})"
    return (f"({_random_guard(rng, n_props, depth - 1)}) {op} "
            f"({_random_guard(rng, n_props, depth - 1)})")


def test_chi_matches_brute_force_on_random_guards():
    rng = random.Random(7)
    for _ in range(40):
        n_props = rng.randint(2, 6)
        text = _random_guard(rng, n_props)
        nba = _mk_nba(text, n_props=n_props)
        assert enabled_bits(nba, 0, 1) == chi_bits(text, n_props), text


def _guard_texts(n_props):
    leaves = st.sampled_from(["t", "f", *map(str, range(n_props))])
    return st.recursive(leaves, lambda sub: st.one_of(
        sub.map(lambda g: f"!{g}"),
        st.tuples(sub, sub).map(lambda p: f"({p[0]} & {p[1]})"),
        st.tuples(sub, sub).map(lambda p: f"({p[0]} | {p[1]})"),
        sub.map(lambda g: f"({g} & !{g})"),
        # unparenthesized, so precedence decides; the text oracle ranks by Python's
        st.tuples(sub, st.sampled_from("&|"), sub).map(" ".join),
    ), max_leaves=12)


def _hamming_to_set(n_props, targets):
    """Distance from every label to the nearest target, by BFS on the hypercube."""
    dist = dict.fromkeys(targets, 0)
    frontier = list(targets)
    while frontier:
        nxt = []
        for bits in frontier:
            for i in range(n_props):
                flipped = bits ^ (1 << i)
                if flipped not in dist:
                    dist[flipped] = dist[bits] + 1
                    nxt.append(flipped)
        frontier = nxt
    return dist


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 10).flatmap(lambda n: st.tuples(st.just(n), _guard_texts(n))))
def test_cubes_match_enumeration_oracle(case):
    n_props, text = case
    nba = _mk_nba(text, n_props=n_props)
    cubes = nba.pair_cubes(0, 1)
    assert len(set(cubes)) == len(cubes)
    assert all(not pos & neg for pos, neg in cubes)
    enabling = chi_bits(text, n_props)
    assert bool(cubes) == bool(enabling)
    distance = _hamming_to_set(n_props, enabling)
    for bits in range(1 << n_props):
        assert (1 in delta(nba, 0, bits)) == (distance.get(bits) == 0), (text, bits)
        if enabling:
            assert dist_bits(nba, 0, 1, bits) == distance[bits], (text, bits)


def _pairs(op, inner, n):
    return f" {op} ".join(f"({2 * i} {inner} {2 * i + 1})" for i in range(n))


@pytest.mark.parametrize("text", [
    _pairs("&", "|", 20),               # 2**20 cubes
    f"!({_pairs('|', '&', 20)})",       # the same, through De Morgan
], ids=["and-of-ors", "negated-or-of-ands"])
def test_over_bound_guard_raises_named_error_quickly(text):
    start = time.perf_counter()
    with pytest.raises(GuardTooLargeError) as exc:
        _mk_nba(text, n_props=40)
    assert time.perf_counter() - start < 1
    assert exc.value.line == 9
    assert isinstance(exc.value, HoaParseError)


def test_state_count_at_the_product_cap_is_rejected_in_the_header():
    text = EVENTUALLY_A.replace("States: 2", f"States: {STATE_CAP}")
    with pytest.raises(HoaParseError, match="cap") as exc:
        parse_nba(text)
    assert exc.value.line == 2


def test_guard_at_the_bound_and_wide_disjunctions_compile():
    at_bound = _mk_nba(_pairs("&", "|", 16), n_props=32)
    assert len(at_bound.pair_cubes(0, 1)) == MAX_GUARD_CUBES
    # only the negation of a wide disjunction of conjunctions blows up
    wide = _mk_nba(_pairs("|", "&", 32), n_props=64)
    assert len(wide.pair_cubes(0, 1)) == 32
    assert 1 in delta(wide, 0, 0b11 << 62)


@pytest.mark.parametrize("path", sorted(ASSETS.glob("*.hoa")), ids=lambda p: p.name)
def test_shipped_automata_agree_with_text_oracle(path):
    text = path.read_text(encoding="utf-8")
    nba = parse_nba(text)
    assert len(nba.universe.names) <= 5
    guards = hoa_guards(text)
    assert sorted(guards) == nba.pairs()
    for (qm, qn), texts in guards.items():
        enabling = set().union(*(chi_bits(g, len(nba.universe.names)) for g in texts))
        assert set(enabled_bits(nba, qm, qn)) == enabling, (path.name, qm, qn)
