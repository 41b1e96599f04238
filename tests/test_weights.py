import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tlreplan.weights import (BETA_CAP, INF_W, KM_CAP, SHIFT, STATE_CAP, TRAVEL_CAP,
                              WeightRangeError, check_states, check_travel, pack, path_weight,
                              unpack)

INF = math.inf


def lasso(prefix: tuple, loop: tuple, beta: int) -> tuple:
    """Prefix plus beta times loop, computed on packed weights, as the planner totals a run."""
    return unpack(pack(prefix) + beta * pack(loop))


def test_addition_is_componentwise():
    assert lasso((1, 10), (2, 30), 1) == (3, 40)
    assert lasso((0, 0), (5, 7), 1) == (5, 7)


def test_infinity_absorbs():
    assert lasso(INF_W, (3, 10), 10) == INF_W
    assert lasso((3, 10), INF_W, 10) == INF_W
    assert lasso(INF_W, INF_W, 1) == INF_W


def test_lexicographic_order_violation_first():
    assert (0, 999) < (1, 1)
    assert (2, 5) < (2, 6)
    assert not (1, 1) < (0, 999)


def test_infinite_weight_outranks_every_finite_weight():
    assert (50, 10_000) < INF_W
    assert (INF - 1, 0) < INF_W  # still finite travel, still below
    assert not INF_W < INF_W


def test_scale_and_zero():
    assert lasso((0, 0), (1, 30), 10) == (10, 300)
    assert lasso((2, 5), (1, 30), 10) == (12, 305)
    assert lasso((0, 0), (0, 0), 99) == (0, 0)


def test_equality_decomposes_componentwise():
    # weight equality holds exactly when both components match, which is
    # what makes one consistency check cover violation and travel at once
    assert (1, 2) == (1, 2)
    assert (1, 2) != (1, 3)
    assert (1, 2) != (0, 2)


def test_path_weight_sums_edges_componentwise():
    out = [{1: pack((1, 10))}, {2: pack((0, 30))}, {0: pack((2, 5))}]
    assert path_weight(out, [0, 1, 2]) == pack((1, 40))
    assert path_weight(out, [0, 1, 2, 0]) == pack((3, 45))
    assert path_weight(out, [2]) == pack((0, 0))  # a single state costs nothing


def test_path_weight_is_infinite_across_a_deleted_edge():
    out = [{1: pack((0, 10))}, {2: pack(INF_W)}, {0: pack((0, 10))}]
    assert path_weight(out, [0, 1, 2, 0]) == INF
    assert path_weight(out, [2, 0, 1]) == pack((0, 20))


# Travels below 2**62 keep every sum of two, and every product with a beta
# below BETA_CAP of one below 2**46, within the packing's exact range.
violations = st.integers(min_value=0, max_value=1 << 70)
travels = st.integers(min_value=0, max_value=(1 << 62) - 1)
weights = st.tuples(violations, travels)


@given(weights, weights)
def test_pack_preserves_order_and_equality(a, b):
    assert (pack(a) < pack(b)) == (a < b)
    assert (pack(a) == pack(b)) == (a == b)
    assert pack(a) < INF


@given(weights, weights)
def test_pack_preserves_sums(a, b):
    assert pack(a) + pack(b) == pack((a[0] + b[0], a[1] + b[1]))


@given(st.tuples(violations, st.integers(min_value=0, max_value=(1 << 46) - 1)),
       st.integers(min_value=1, max_value=BETA_CAP - 1))
def test_pack_preserves_scaling_by_beta(w, beta):
    assert beta * pack(w) == pack((beta * w[0], beta * w[1]))


@given(st.tuples(violations, st.integers(min_value=0, max_value=(1 << SHIFT) - 1)))
def test_unpack_inverts_pack(w):
    assert unpack(pack(w)) == w


def test_infinity_packs_to_inf_and_back():
    assert pack(INF_W) == INF
    assert pack((3, INF)) == INF  # a weight is infinite exactly when its travel is
    assert unpack(INF) == INF_W
    assert INF + pack((5, 7)) == INF


def test_travel_cap_boundary():
    check_travel(1, "edge")
    check_travel(TRAVEL_CAP - 1, "edge")
    for bad in (TRAVEL_CAP, 0, 2.5, 10.0, True, "10", None):
        with pytest.raises(WeightRangeError):
            check_travel(bad, "edge")


def test_state_cap_boundary():
    check_states(STATE_CAP - 1)
    with pytest.raises(WeightRangeError):
        check_states(STATE_CAP)


def test_caps_keep_every_key_below_the_shift():
    # a lasso total over a product at its caps, plus the largest heuristic
    # and a km just below its cap, still has travel below 2**SHIFT
    path = (STATE_CAP + 1) * (TRAVEL_CAP - 1)
    total = path + (BETA_CAP - 1) * path
    assert total + path + path + KM_CAP + path < 1 << SHIFT
