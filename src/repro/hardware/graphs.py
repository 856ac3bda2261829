"""Graph kernels over plain adjacency containers (internal).

The compilers need four queries on a coupling graph: all-pairs hop
distances, all-pairs distances with weighted cross-chip links, one shortest
path between two qubits, and connected components.  They are implemented
here with the standard library only, over insertion-ordered adjacency dicts
(``adj[u]`` iterates ``u``'s neighbours) or, for the all-pairs kernels,
neighbour lists indexed by node.

Ties are resolved exactly as networkx resolves them (the reference the
routing goldens were recorded with): :func:`shortest_path` is a line-by-line
port of networkx 3.6's bidirectional searches, and :func:`connected_components`
yields components in node insertion order.  Given the same adjacency order
they return the same path and the same component order.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from heapq import heappop, heappush
from itertools import count

__all__ = [
    "NoPathError",
    "bfs_distance_rows",
    "connected_components",
    "dijkstra_distance_rows",
    "shortest_path",
]

#: Distance of an unreachable node.  The all-pairs kernels fill their rows
#: with this very object, so ``d is INF`` is a valid (and fast) test.
INF = float("inf")

Adjacency = Mapping[int, Iterable[int]]


class NoPathError(ValueError):
    """Raised by :func:`shortest_path` when the two nodes are disconnected."""


def bfs_distance_rows(neighbors: Sequence[Iterable[int]]) -> list[list[float]]:
    """Unweighted all-pairs hop distances; ``rows[a][b]`` is ``INF`` if unreachable.

    ``neighbors[u]`` lists the neighbours of node ``u`` (nodes are
    ``0..n-1``).  One level-synchronous BFS per source: frontier lists and a
    float level counter avoid a deque and an int-to-float conversion per
    visit, which makes this faster than a sparse-matrix Dijkstra on small
    devices.
    """
    n = len(neighbors)
    rows = []
    for source in range(n):
        dist = [INF] * n
        dist[source] = 0.0
        frontier = [source]
        level = 0.0
        while frontier:
            level += 1.0
            reached = []
            for u in frontier:
                for v in neighbors[u]:
                    if dist[v] is INF:
                        dist[v] = level
                        reached.append(v)
            frontier = reached
        rows.append(dist)
    return rows


def dijkstra_distance_rows(
    neighbors: Sequence[Sequence[int]], weights: Sequence[Sequence[float]]
) -> list[list[float]]:
    """Weighted all-pairs distances; ``weights[u][i]`` weighs ``u -> neighbors[u][i]``.

    A binary-heap Dijkstra per source.  Each distance is accumulated as
    ``d[u] + w`` along the path from the source, so it is the same float
    sum a sparse-matrix Dijkstra produces.
    """
    n = len(neighbors)
    rows = []
    for source in range(n):
        dist = [INF] * n
        dist[source] = 0.0
        done = [False] * n
        heap = [(0.0, source)]
        while heap:
            du, u = heappop(heap)
            if done[u]:
                continue
            done[u] = True
            for v, w in zip(neighbors[u], weights[u], strict=False):
                alt = du + w
                if alt < dist[v]:
                    dist[v] = alt
                    heappush(heap, (alt, v))
        rows.append(dist)
    return rows


def shortest_path(
    adj: Adjacency,
    source: int,
    target: int,
    weight: Callable[[int, int], float] | None = None,
) -> list[int]:
    """One shortest path from ``source`` to ``target``, both included.

    Unweighted (``weight=None``) this is networkx's bidirectional BFS;
    weighted it is networkx's bidirectional Dijkstra, with
    ``weight(u, v)`` the cost of the edge ``u -> v``.  Raises
    :class:`NoPathError` when ``target`` is unreachable.
    """
    if weight is None:
        return _bidirectional_bfs(adj, source, target)
    return _bidirectional_dijkstra(adj, source, target, weight)


def _bidirectional_bfs(adj: Adjacency, source: int, target: int) -> list[int]:
    pred, succ, meet = _bidirectional_pred_succ(adj, source, target)
    path = []
    node: int | None = meet
    while node is not None:
        path.append(node)
        node = pred[node]
    path.reverse()
    node = succ[path[-1]]
    while node is not None:
        path.append(node)
        node = succ[node]
    return path


def _bidirectional_pred_succ(
    adj: Adjacency, source: int, target: int
) -> tuple[dict[int, int | None], dict[int, int | None], int]:
    """BFS from both ends, expanding the smaller fringe, until they meet."""
    if target == source:
        return {target: None}, {source: None}, source
    pred: dict[int, int | None] = {source: None}
    succ: dict[int, int | None] = {target: None}
    forward_fringe = [source]
    reverse_fringe = [target]
    while forward_fringe and reverse_fringe:
        if len(forward_fringe) <= len(reverse_fringe):
            this_level = forward_fringe
            forward_fringe = []
            for v in this_level:
                for w in adj[v]:
                    if w not in pred:
                        forward_fringe.append(w)
                        pred[w] = v
                    if w in succ:
                        return pred, succ, w
        else:
            this_level = reverse_fringe
            reverse_fringe = []
            for v in this_level:
                for w in adj[v]:
                    if w not in succ:
                        succ[w] = v
                        reverse_fringe.append(w)
                    if w in pred:
                        return pred, succ, w
    raise NoPathError(f"no path between {source} and {target}")


def _bidirectional_dijkstra(
    adj: Adjacency, source: int, target: int, weight: Callable[[int, int], float]
) -> list[int]:
    if source == target:
        return [source]
    dists: list[dict[int, float]] = [{}, {}]
    preds: list[dict[int, int | None]] = [{source: None}, {target: None}]
    fringe: list[list[tuple[float, int, int]]] = [[], []]
    seen: list[dict[int, float]] = [{source: 0}, {target: 0}]
    c = count()
    heappush(fringe[0], (0, next(c), source))
    heappush(fringe[1], (0, next(c), target))
    finaldist = None
    meetnode = None
    direction = 1
    while fringe[0] and fringe[1]:
        # alternate directions; 0 searches from the source, 1 from the target
        direction = 1 - direction
        dist, _, v = heappop(fringe[direction])
        if v in dists[direction]:
            continue
        dists[direction][v] = dist
        if v in dists[1 - direction]:
            forward = []
            node: int | None = meetnode
            while node is not None:
                forward.append(node)
                node = preds[0][node]
            forward.reverse()
            node = preds[1][meetnode]
            while node is not None:
                forward.append(node)
                node = preds[1][node]
            return forward
        for w in adj[v]:
            cost = weight(v, w) if direction == 0 else weight(w, v)
            vw_length = dist + cost
            if w in dists[direction]:
                continue
            if w not in seen[direction] or vw_length < seen[direction][w]:
                seen[direction][w] = vw_length
                heappush(fringe[direction], (vw_length, next(c), w))
                preds[direction][w] = v
                if w in seen[1 - direction]:
                    finaldist_w = vw_length + seen[1 - direction][w]
                    if finaldist is None or finaldist > finaldist_w:
                        finaldist, meetnode = finaldist_w, w
    raise NoPathError(f"no path between {source} and {target}")


def connected_components(adj: Adjacency) -> list[list[int]]:
    """Connected components, ordered by their first node in ``adj``'s order."""
    seen: set[int] = set()
    components = []
    for start in adj:
        if start in seen:
            continue
        seen.add(start)
        component = [start]
        frontier = [start]
        while frontier:
            reached = []
            for u in frontier:
                for v in adj[u]:
                    if v not in seen:
                        seen.add(v)
                        reached.append(v)
            component.extend(reached)
            frontier = reached
        components.append(component)
    return components
