import math

from tlreplan.weights import INF_W, lasso_cost, path_weight

INF = math.inf


def test_addition_is_componentwise():
    assert lasso_cost((1, 10), (2, 30), 1) == (3, 40)
    assert lasso_cost((0, 0), (5, 7), 1) == (5, 7)


def test_infinity_absorbs():
    assert lasso_cost(INF_W, (3, 10), 10) == INF_W
    assert lasso_cost((3, 10), INF_W, 10) == INF_W
    assert lasso_cost(INF_W, INF_W, 1) == INF_W


def test_lexicographic_order_violation_first():
    assert (0, 999) < (1, 1)
    assert (2, 5) < (2, 6)
    assert not (1, 1) < (0, 999)


def test_infinite_weight_outranks_every_finite_weight():
    assert (50, 10_000) < INF_W
    assert (INF - 1, 0) < INF_W  # still finite travel, still below
    assert not INF_W < INF_W


def test_scale_and_zero():
    assert lasso_cost((0, 0), (1, 30), 10) == (10, 300)
    assert lasso_cost((2, 5), (1, 30), 10) == (12, 305)
    assert lasso_cost((0, 0), (0, 0), 99) == (0, 0)


def test_equality_decomposes_componentwise():
    # weight equality holds exactly when both components match, which is
    # what makes one consistency check cover violation and travel at once
    assert (1, 2) == (1, 2)
    assert (1, 2) != (1, 3)
    assert (1, 2) != (0, 2)


def test_path_weight_sums_edges_componentwise():
    succ = [{1: (1, 10)}, {2: (0, 30)}, {0: (2, 5)}]
    assert path_weight(succ, [0, 1, 2]) == (1, 40)
    assert path_weight(succ, [0, 1, 2, 0]) == (3, 45)
    assert path_weight(succ, [2]) == (0, 0)  # a single state costs nothing


def test_path_weight_is_infinite_across_a_deleted_edge():
    succ = [{1: (0, 10)}, {2: INF_W}, {0: (0, 10)}]
    assert path_weight(succ, [0, 1, 2, 0]) == INF_W
    assert path_weight(succ, [2, 0, 1]) == (0, 20)
