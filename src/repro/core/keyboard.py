"""QWERTY keyboard geometry.

The paper's fat-finger distance (after Moore & Edelman) restricts the usual
edit operations to *letters adjacent on a QWERTY keyboard*.  This module
models the physical layout once so both the distance metric and the typo
generators agree on adjacency.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Tuple

__all__ = ["QWERTY_ROWS", "qwerty_adjacency", "are_adjacent"]

#: Physical rows with their horizontal stagger (row offset in key-widths).
#: The digit row sits above the top letter row; offsets approximate a
#: standard ANSI keyboard.
QWERTY_ROWS: List[Tuple[str, float]] = [
    ("1234567890-", 0.0),
    ("qwertyuiop", 0.5),
    ("asdfghjkl", 0.75),
    ("zxcvbnm", 1.25),
]

_POSITIONS: Dict[str, Tuple[float, float]] = {}
for _row_index, (_row, _offset) in enumerate(QWERTY_ROWS):
    for _col, _ch in enumerate(_row):
        _POSITIONS[_ch] = (_row_index, _offset + _col)


def _build_adjacency() -> Dict[str, FrozenSet[str]]:
    adjacency: Dict[str, set] = {ch: set() for ch in _POSITIONS}
    for a, (row_a, col_a) in _POSITIONS.items():
        for b, (row_b, col_b) in _POSITIONS.items():
            if a == b:
                continue
            row_diff = abs(row_a - row_b)
            col_diff = abs(col_a - col_b)
            if row_diff == 0 and col_diff <= 1.0:
                adjacency[a].add(b)
            elif row_diff == 1 and col_diff <= 1.0:
                adjacency[a].add(b)
    return {ch: frozenset(neigh) for ch, neigh in adjacency.items()}


_ADJACENCY: Dict[str, FrozenSet[str]] = _build_adjacency()


def qwerty_adjacency(char: str) -> FrozenSet[str]:
    """The set of keys physically adjacent to ``char`` (empty if unknown)."""
    return _ADJACENCY.get(char.lower(), frozenset())


def are_adjacent(a: str, b: str) -> bool:
    """True when the two keys neighbour each other on a QWERTY keyboard."""
    return b.lower() in qwerty_adjacency(a)
