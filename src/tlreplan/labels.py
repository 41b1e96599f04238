"""Atomic-proposition universes, label subsets, and the violation metric.

Labels are fixed-width bit patterns over an ordered universe of at most 64
propositions, so the set-difference metric reduces to XOR + popcount.
"""

from __future__ import annotations

from dataclasses import dataclass


class APUniverseError(ValueError):
    """Invalid universe definition or a label/universe mismatch."""


@dataclass(frozen=True)
class APUniverse:
    """Ordered set of atomic propositions; ordering fixes bit indices."""

    names: tuple[str, ...]

    def __post_init__(self):
        if len(self.names) != len(set(self.names)):
            raise APUniverseError(f"duplicate proposition names in {self.names}")
        if any(not n for n in self.names):
            raise APUniverseError("proposition names must be non-empty")
        if len(self.names) > 64:
            raise APUniverseError(f"at most 64 propositions supported, got {len(self.names)}")

    @property
    def size(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise APUniverseError(f"unknown proposition {name!r}") from None

    def label(self, names=()) -> "Label":
        """Build a label from an iterable of proposition names."""
        bits = 0
        for n in names:
            bits |= 1 << self.index(n)
        return Label(self, bits)

    def label_from_bits(self, bits: int) -> "Label":
        return Label(self, bits)


@dataclass(frozen=True)
class Label:
    """A subset of one universe's propositions, held as a bit pattern."""

    universe: APUniverse
    bits: int

    def __post_init__(self):
        if self.bits < 0 or self.bits >> self.universe.size:
            raise APUniverseError(
                f"label bits {self.bits:#x} outside universe of size {self.universe.size}"
            )

    def names(self) -> tuple[str, ...]:
        return tuple(n for i, n in enumerate(self.universe.names) if self.bits >> i & 1)

    def __contains__(self, name: str) -> bool:
        return self.bits >> self.universe.index(name) & 1 == 1


def xi(ap: int, l: Label) -> int:
    """1 if proposition index `ap` is in the label, else 0."""
    if not 0 <= ap < l.universe.size:
        raise APUniverseError(f"proposition index {ap} outside universe of size {l.universe.size}")
    return l.bits >> ap & 1


def zeta(l: Label) -> list[int]:
    """Binary membership vector of the label, in universe order."""
    return [l.bits >> i & 1 for i in range(l.universe.size)]


def rho(l: Label, l2: Label) -> int:
    """Symmetric-difference cardinality between two labels of one universe."""
    if l.universe != l2.universe:
        raise APUniverseError("labels belong to different universes")
    return (l.bits ^ l2.bits).bit_count()
