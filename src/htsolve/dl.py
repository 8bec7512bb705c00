"""Incremental difference logic over constraints x - y <= k.

Each constraint is an edge y -> x of weight k, and an ordered pair keeps
only its tightest bound.  A valid potential (one shortest-path distance per
vertex from a virtual source with zero-weight edges everywhere) witnesses
satisfiability; a negative cycle refutes it.  Each assertion updates the
potential from the new edge's head onwards, and a bound that would close a
negative cycle is rejected: it adds nothing, so the graph stays consistent
and can take further bounds.
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
    """Constraint graph that checks each bound as it is asserted."""

    def __init__(self):
        self._dist: dict = {}  # vertex -> potential
        self._edges: dict = {}  # (y, x) -> (k, cid) of the pair's tightest bound
        self._out: dict = {}  # y -> vertices x with an edge y -> x
        self._ids: set = set()

    def edge_multiset(self) -> tuple:
        return tuple(
            sorted((str(y), str(x), k, str(cid)) for (y, x), (k, cid) in self._edges.items())
        )

    def assert_diff(self, x, y, k: int, cid):
        """Add constraint x - y <= k under id cid; Sat or Conflict.

        An id may be used once per graph.  A bound no tighter than the one
        its pair holds changes nothing.
        """
        if cid in self._ids:
            raise ValueError(f"duplicate constraint id {cid!r}")
        self._ids.add(cid)
        if x == y and k < 0:
            return Conflict((cid,))
        held = self._edges.get((y, x))
        if held is not None and held[0] <= k:
            return Sat()
        dist = self._dist
        start = dist.get(y, 0) + k
        if dist.get(x, 0) > start:
            # Propagate tentative decreases from x; reaching y closes a
            # negative cycle through the new edge.
            tent = {x: start}
            pred = {x: (y, cid)}
            queue = [x]
            while queue:
                u = queue.pop()
                du = tent[u]
                for w in self._out.get(u, ()):
                    weight, eid = self._edges[(u, w)]
                    cand = du + weight
                    if cand < tent.get(w, dist[w]):
                        if w == y:
                            cycle = [eid]
                            node = u
                            while node != x:
                                node, pcid = pred[node]
                                cycle.append(pcid)
                            cycle.append(cid)
                            return Conflict(tuple(cycle))
                        tent[w] = cand
                        pred[w] = (u, eid)
                        queue.append(w)
            dist.update(tent)
        dist.setdefault(x, 0)
        dist.setdefault(y, 0)
        self._edges[(y, x)] = (k, cid)
        self._out.setdefault(y, set()).add(x)
        return Sat()

    def solution(self) -> Valuation:
        """Pointwise-greatest solution with all values <= 0 (shortest paths)."""
        dist = dict.fromkeys(self._dist, 0)
        for _ in range(len(dist)):
            changed = False
            for (y, x), (k, _) in self._edges.items():
                if dist[y] + k < dist[x]:
                    dist[x] = dist[y] + k
                    changed = True
            if not changed:
                break
        return Valuation.of(dist)
