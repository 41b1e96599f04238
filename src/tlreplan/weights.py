"""Duo-component edge weights: (violation, travel) with lexicographic order.

A weight is a plain `(violation, travel)` tuple, so tuple comparison is
the lexicographic order: violation always outranks travel, which realizes
a dominance constant that is "large enough" without picking a number.
Unreachability is the single canonical value INF_W, infinite in both
components, so that it compares above every finite weight, violating or
not. A weight is finite exactly when its travel is.
"""

from __future__ import annotations

import math

INF = math.inf
INF_W = (INF, INF)


def lasso_cost(prefix: tuple, loop: tuple, beta: int) -> tuple:
    """Prefix weight plus beta times loop weight, componentwise; INF_W if either is infinite."""
    if prefix[1] == INF or loop[1] == INF:
        return INF_W
    return (prefix[0] + beta * loop[0], prefix[1] + beta * loop[1])


def path_weight(succ, path) -> tuple:
    """Sum of `succ[a][b]` along a node sequence; INF_W across a deleted edge."""
    v = t = 0
    for a, b in zip(path, path[1:]):
        wv, wt = succ[a][b]
        if wt == INF:
            return INF_W
        v += wv
        t += wt
    return (v, t)
