import math

import pytest

from tlreplan.labels import APUniverse
from tlreplan.weights import TRAVEL_CAP, WeightRangeError
from tlreplan.wts import WTS, wts_from_json

INF = math.inf
U = APUniverse(("a",))


def _waypoints(weight):
    return {"states": [{"id": "w0", "label": ["a"]}, {"id": "w1"}], "init": ["w0"],
            "edges": [{"from": "w0", "to": "w1", "weight": weight}]}


def test_travel_cap_boundary():
    assert WTS(U, 2, [0, 0], [0], [{1: TRAVEL_CAP - 1}, {0: INF}]).succ[0][1] == TRAVEL_CAP - 1
    assert wts_from_json(_waypoints(TRAVEL_CAP - 1), U).succ[0][1] == TRAVEL_CAP - 1
    for bad in (TRAVEL_CAP, 0, 2.5, 10.0, "10"):
        with pytest.raises(WeightRangeError):
            WTS(U, 2, [0, 0], [0], [{1: bad}, {}])
        with pytest.raises(WeightRangeError):
            wts_from_json(_waypoints(bad), U)
