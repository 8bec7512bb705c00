"""Incremental difference-logic over constraints x - y <= k.

Each constraint is an edge y -> x of weight k.  A valid potential (one
shortest-path distance per vertex from a virtual source with zero-weight
edges everywhere) witnesses satisfiability; a negative cycle refutes it.
Assertions are trailed so decision levels can be popped exactly, and a
failed assertion leaves the edge set untouched but parks the graph in a
conflict state until the level containing it is popped.
"""

from __future__ import annotations

from dataclasses import dataclass

from .semantics import Valuation


@dataclass(frozen=True)
class Sat:
    """Assertion accepted; the graph stays consistent."""


@dataclass(frozen=True)
class Conflict:
    """Assertion rejected; cycle lists the constraint ids of a negative cycle."""

    cycle: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "cycle", tuple(self.cycle))


def negate_diff(x, y, k: int):
    """Complement of x - y <= k over the integers: y - x <= -k - 1."""
    return (y, x, -k - 1)


class DiffGraph:
    """Constraint graph with trailed assertions and level push/pop."""

    def __init__(self, vertices=()):
        self._dist: dict = {v: 0 for v in vertices}
        self._edges: dict = {}  # (y, x) -> list of (k, cid), parallel edges kept
        self._out: dict = {v: set() for v in self._dist}
        self._trail: list = []
        self._level_ids: list = [0]
        self._used_ids: list = [set()]
        self._next_level = 1
        self._conflicted = False

    # -- introspection ------------------------------------------------------

    def vertices(self) -> tuple:
        return tuple(sorted(self._dist, key=str))

    def edge_multiset(self) -> tuple:
        rows = []
        for (y, x), entries in self._edges.items():
            for k, cid in entries:
                rows.append((str(y), str(x), k, str(cid)))
        return tuple(sorted(rows))

    def in_conflict(self) -> bool:
        return self._conflicted

    def current_level(self) -> int:
        return self._level_ids[-1]

    # -- internals ----------------------------------------------------------

    def _ensure_vertex(self, v) -> None:
        if v not in self._dist:
            self._dist[v] = 0
            self._out[v] = set()

    def _active_edge(self, y, x):
        entries = self._edges.get((y, x))
        best = min(entries, key=lambda e: e[0])
        return best

    def _attach(self, y, x, k: int, cid) -> None:
        self._edges.setdefault((y, x), []).append((k, cid))
        self._out[y].add(x)

    def _detach(self, y, x, k: int, cid) -> None:
        entries = self._edges[(y, x)]
        entries.remove((k, cid))
        if not entries:
            del self._edges[(y, x)]
            self._out[y].discard(x)

    # -- operations ----------------------------------------------------------

    def assert_diff(self, x, y, k: int, cid):
        """Add constraint x - y <= k under id cid; Sat or Conflict."""
        if self._conflicted:
            raise ValueError("graph is in conflict; pop the failing level first")
        if cid in self._used_ids[-1]:
            raise ValueError(f"duplicate constraint id {cid!r} at the current level")
        self._used_ids[-1].add(cid)
        self._ensure_vertex(x)
        self._ensure_vertex(y)
        if x == y:
            if k >= 0:
                self._trail.append(("edge", y, x, k, cid, True))
                self._attach(y, x, k, cid)
                return Sat()
            self._trail.append(("edge", y, x, k, cid, False))
            self._conflicted = True
            return Conflict((cid,))
        dist = self._dist
        if dist[x] <= dist[y] + k:
            self._trail.append(("edge", y, x, k, cid, True))
            self._attach(y, x, k, cid)
            return Sat()
        # Propagate tentative decreases from x; reaching y closes a negative
        # cycle through the new edge.
        tent = {x: dist[y] + k}
        pred = {x: (y, cid)}
        queue = [x]
        while queue:
            u = queue.pop()
            du = tent.get(u, dist[u])
            for w in self._out[u]:
                weight, eid = self._active_edge(u, w)
                cand = du + weight
                if cand < tent.get(w, dist[w]):
                    if w == y:
                        cycle = [eid]
                        node = u
                        while node != x:
                            prev, pcid = pred[node]
                            cycle.append(pcid)
                            node = prev
                        cycle.append(cid)
                        self._trail.append(("edge", y, x, k, cid, False))
                        self._conflicted = True
                        return Conflict(tuple(cycle))
                    tent[w] = cand
                    pred[w] = (u, eid)
                    queue.append(w)
        dist.update(tent)
        self._trail.append(("edge", y, x, k, cid, True))
        self._attach(y, x, k, cid)
        return Sat()

    def push_level(self) -> int:
        if self._conflicted:
            raise ValueError("graph is in conflict; pop the failing level first")
        level = self._next_level
        self._next_level += 1
        self._level_ids.append(level)
        self._used_ids.append(set())
        self._trail.append(("level", level))
        return level

    def pop_level(self, level: int) -> None:
        """Undo every assertion made at or after pushing the given level."""
        if level not in self._level_ids[1:]:
            raise ValueError(f"unknown level {level}")
        while True:
            entry = self._trail.pop()
            if entry[0] == "level":
                self._level_ids.pop()
                self._used_ids.pop()
                if entry[1] == level:
                    break
                continue
            _, y, x, k, cid, active = entry
            if active:
                self._detach(y, x, k, cid)
            else:
                self._conflicted = False

    def solution(self) -> Valuation:
        """Pointwise-greatest solution with all values <= 0 (shortest paths)."""
        if self._conflicted:
            raise ValueError("no solution: graph is in conflict")
        dist = {v: 0 for v in self._dist}
        active = [
            (y, x, min(k for k, _ in entries))
            for (y, x), entries in self._edges.items()
        ]
        for _ in range(len(dist)):
            changed = False
            for y, x, k in active:
                if dist[y] + k < dist[x]:
                    dist[x] = dist[y] + k
                    changed = True
            if not changed:
                break
        return Valuation.of(dist)
