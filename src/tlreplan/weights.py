"""Duo-component edge weights: (violation, travel), packed into one exact int.

Violation always outranks travel, which realizes a dominance constant that
is "large enough" without picking a number. Outside the program a weight
is a `(violation, travel)` tuple, compared lexicographically, and
unreachability is INF_W, infinite in both components. Every search sees a
weight packed into one number:

    pack((violation, travel)) = (violation << SHIFT) + travel

and a deleted edge or an unreachable state is `INF` (`math.inf`), which
compares above every int and absorbs every sum. A weight is finite exactly
when its travel is; `unpack` inverts `pack` on every weight.

Order and sums. Let a = (va << SHIFT) + ta and b = (vb << SHIFT) + tb with
violations va, vb >= 0 and travels 0 <= ta, tb < 2**SHIFT. If va < vb then
a < (va + 1) << SHIFT <= b; if va == vb then a < b exactly when ta < tb. So
integer order is lexicographic order. The sum a + b is the packing of the
componentwise sum, and k * a the packing of k times each component, as long
as the summed travel stays below 2**SHIFT; violations are unbounded ints
and never carry into anything.

Caps. Inputs are checked so that every travel the searches form stays
below 2**SHIFT = 2**64:

- an edge travel is an int below TRAVEL_CAP = 2**24 (`check_travel`);
- beta is an int below BETA_CAP = 2**16 (`planner.check_beta`);
- a product has fewer than STATE_CAP = 2**20 states (`check_states`).

Every finite g a search sets is a shortest-path cost when it is set (D*
Lite expands an overconsistent state only at its exact distance; Koenig &
Likhachev, AAAI 2002), and a shortest path crosses each of the n product
states at most once, plus one edge to a virtual goal. So a loop cost or a
prefix cost has travel below (n + 1) * TRAVEL_CAP <= 2**44, and a lasso
total, prefix plus beta times loop, below 2**44 + 2**16 * 2**44 < 2**61. A
one-step lookahead adds one edge, an admissible heuristic is at most a
path cost (the free-product distances are below 2**44), and a search
restarts before its key drift km reaches KM_CAP = 2**62
(`dstar.SearchInstance.move_start`). A key's first part, packed cost plus
heuristic plus km, therefore has travel below 2**61 + 2**44 + 2**62 + 2**44
< 2**64, and orders as the tuple key (violation, travel + h + km) would.
The main search's goal edges carry beta * loop less the least such value, so
each of its g is a true total less one constant: order is still true order.
"""

from __future__ import annotations

import math

INF = math.inf
INF_W = (INF, INF)

SHIFT = 64
TRAVEL_CAP = 1 << 24
BETA_CAP = 1 << 16
STATE_CAP = 1 << 20
KM_CAP = 1 << 62
_TRAVEL_MASK = (1 << SHIFT) - 1


class WeightRangeError(ValueError):
    """A travel, beta or product size that the packed weight cannot hold exactly."""


def pack(w: tuple):
    """One int for a (violation, travel) weight; INF for an infinite travel."""
    v, t = w
    return INF if t == INF else (v << SHIFT) + t


def unpack(x) -> tuple:
    """The (violation, travel) tuple of a packed weight; INF_W for INF."""
    return INF_W if x == INF else (x >> SHIFT, x & _TRAVEL_MASK)


def path_weight(out, path):
    """Packed sum of `out[a][b]` along a node sequence; INF across a deleted edge."""
    return sum(out[a][b] for a, b in zip(path, path[1:]))


def check_travel(d, what: str) -> None:
    """Reject a travel the packing cannot hold: not an int, below 1, or at or above the cap."""
    if type(d) is not int or not 1 <= d < TRAVEL_CAP:
        raise WeightRangeError(f"{what} travel {d!r} must be an int in [1, {TRAVEL_CAP})")


def check_states(n: int) -> None:
    """Reject a product too large for the packed weights' travel bound."""
    if n >= STATE_CAP:
        raise WeightRangeError(f"product of {n} states reaches the cap of {STATE_CAP}")
