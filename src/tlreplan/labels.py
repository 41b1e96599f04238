"""Atomic-proposition universes.

A label is a fixed-width bit pattern over an ordered universe of at most 64
propositions: bit i holds exactly when the universe's i-th proposition
does, so the violation metric reduces to XOR + popcount.
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

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise APUniverseError(f"unknown proposition {name!r}") from None
