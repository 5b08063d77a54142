"""Columnar (struct-of-arrays) backing store for per-node state.

An object graph would keep node state spread across Python objects —
positions inside per-node records, listening state behind a method call,
half-duplex deadlines in a dict — which is exactly the layout the
simulator-survey literature blames for the 10k-node wall: every range query
and every broadcast fan-out walks pointers one node at a time.

:class:`ColumnarNodeStore` holds the same state as parallel arrays
(positions, alive mask, listening flag, half-duplex deadline).  The spatial
index :class:`~repro.net.spatial.SpatialGrid` answers its range queries
over the position columns, and the broadcast channel picks audiences by
store row.

Rows are append-only: node death marks ``alive[row] = False`` but never
reuses the row, so a row index doubles as the node's grid insertion index
and id→row mappings stay valid for the whole run (the channel still needs
the row of a node whose death raced its own in-flight frame).
"""

from __future__ import annotations

from typing import Dict, Hashable, List

import numpy as np

__all__ = ["ColumnarNodeStore"]


class ColumnarNodeStore:
    """Parallel per-node state arrays, grown by doubling, rows append-only.

    Columns
    -------
    ``xs`` / ``ys``
        Positions (float64), exactly the floats handed to ``insert``.
    ``alive``
        False once the node left the index (death); dead rows are
        tombstones excluded by every query mask.
    ``listening``
        Radio-on flag published by every attached endpoint via
        :meth:`repro.net.channel.BroadcastChannel.note_listening`; lets the
        broadcast fan-out drop the sleepers of a large neighborhood with
        one mask instead of one check per candidate.
    ``listening_py`` / ``tx_until_py``
        Plain lists: the listening flag again, and the absolute time the
        node's own transmission ends (half duplex, maintained by the
        channel).  The channel's per-candidate loop reads them, and a list
        index is several times cheaper than a numpy scalar read.
    """

    __slots__ = (
        "xs", "ys", "alive", "listening",
        "listening_py", "tx_until_py",
        "ids", "row_of", "size", "death_epoch", "_capacity",
    )

    def __init__(self, capacity: int = 64) -> None:
        capacity = max(int(capacity), 8)
        self.xs = np.zeros(capacity, dtype=np.float64)
        self.ys = np.zeros(capacity, dtype=np.float64)
        self.alive = np.zeros(capacity, dtype=bool)
        self.listening = np.zeros(capacity, dtype=bool)
        self.listening_py: List[bool] = []
        self.tx_until_py: List[float] = []
        #: row -> id (rows of removed nodes keep their id; rows never recycle)
        self.ids: List[Hashable] = []
        #: id -> row, kept across removal (see module docstring)
        self.row_of: Dict[Hashable, int] = {}
        self.size = 0
        #: bumped on every kill; consumers cache it to answer "has anything
        #: died since I computed this?" with one int compare
        self.death_epoch = 0
        self._capacity = capacity

    def append(self, item: Hashable, x: float, y: float) -> int:
        """Add a live row for ``item`` and return its index."""
        row = self.size
        if row == self._capacity:
            self._grow()
        self.xs[row] = x
        self.ys[row] = y
        self.alive[row] = True
        self.listening[row] = False
        self.listening_py.append(False)
        self.tx_until_py.append(0.0)
        self.ids.append(item)
        self.row_of[item] = row
        self.size = row + 1
        return row

    def kill(self, item: Hashable) -> None:
        """Tombstone ``item``'s row (removal from the index)."""
        row = self.row_of[item]
        self.alive[row] = False
        self.listening[row] = False
        self.listening_py[row] = False
        self.death_epoch += 1

    def _grow(self) -> None:
        new_capacity = self._capacity * 2
        for name in ("xs", "ys", "alive", "listening"):
            old = getattr(self, name)
            grown = np.zeros(new_capacity, dtype=old.dtype)
            grown[: self.size] = old[: self.size]
            setattr(self, name, grown)
        self._capacity = new_capacity
