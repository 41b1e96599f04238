import pytest
from hypothesis import given, strategies as st

from conftest import Label, label, rho, xi, zeta
from tlreplan.labels import APUniverse, APUniverseError

AB = APUniverse(("a", "b"))
ABC = APUniverse(("a", "b", "c"))


def test_xi_membership():
    l = label(AB, ["a"])
    assert xi(0, l) == 1
    assert xi(1, l) == 0
    assert xi(2, label(ABC, [])) == 0


def test_xi_index_out_of_range():
    with pytest.raises(APUniverseError):
        xi(2, label(AB, ["a"]))


def test_zeta_componentwise():
    assert zeta(label(ABC, ["a", "c"])) == [1, 0, 1]
    assert zeta(label(ABC, [])) == [0, 0, 0]
    assert zeta(label(ABC, ["a", "b", "c"])) == [1, 1, 1]


def test_rho_examples():
    assert rho(label(AB, ["a"]), label(AB, ["a", "b"])) == 1
    assert rho(label(AB, ["a"]), label(AB, ["a"])) == 0
    assert rho(label(ABC, ["a"]), label(ABC, ["b", "c"])) == 3


def test_rho_universe_mismatch():
    with pytest.raises(APUniverseError):
        rho(label(AB, ["a"]), label(ABC, ["a"]))


def test_universe_validation():
    with pytest.raises(APUniverseError):
        APUniverse(("a", "a"))
    with pytest.raises(APUniverseError):
        APUniverse(("a", ""))
    with pytest.raises(APUniverseError):
        APUniverse(tuple(f"p{i}" for i in range(65)))


def test_label_bits_validation():
    with pytest.raises(APUniverseError):
        Label(AB, 1 << 2)


UNIVERSE5 = APUniverse(tuple("pqrst"))
bits5 = st.integers(min_value=0, max_value=31)


@given(bits5, bits5)
def test_rho_symmetry_and_identity(x, y):
    lx, ly = Label(UNIVERSE5, x), Label(UNIVERSE5, y)
    assert rho(lx, ly) == rho(ly, lx) >= 0
    assert (rho(lx, ly) == 0) == (x == y)


@given(bits5, bits5, bits5)
def test_rho_triangle_inequality(x, y, z):
    lx, ly, lz = Label(UNIVERSE5, x), Label(UNIVERSE5, y), Label(UNIVERSE5, z)
    assert rho(lx, lz) <= rho(lx, ly) + rho(ly, lz)


@given(bits5, bits5)
def test_rho_equals_zeta_l1_distance(x, y):
    lx, ly = Label(UNIVERSE5, x), Label(UNIVERSE5, y)
    assert rho(lx, ly) == sum(abs(a - b) for a, b in zip(zeta(lx), zeta(ly)))


def test_rho_popcount_exhaustive_small():
    u = APUniverse(tuple("abcdef"))
    labels = [Label(u, b) for b in range(64)]
    for lx in labels:
        for ly in labels:
            expected = sum(abs(a - b) for a, b in zip(zeta(lx), zeta(ly)))
            assert rho(lx, ly) == expected == (lx.bits ^ ly.bits).bit_count()
