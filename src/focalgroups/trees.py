"""Integer-levelled graphs: balls of regular trees, the coset tree on
which a lamplighter family acts, and fiber products of two such graphs
over matching level functions.

Tree vertices carry coordinates (n, c): an integer level n and a finite
configuration supported on positions >= n.  The parent (one step toward
the distinguished end) forgets position n; a vertex has q children.
"""

from __future__ import annotations

import csv
import io
from collections import deque
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from .metric import DistanceMatrix, graph_distance_matrix, qi_embedding_check
from .words import GroupPoint, _identity_row_lengths, _require_validated, _sample_encoded


class TreeError(ValueError):
    pass


class TreeVertex(tuple):
    """The vertex (n, c) as a tuple: an integer level n and a sorted
    configuration c = ((position, value), ...) with positions >= n and
    values nonzero.  parent() and children() build their vertices valid by
    construction, without the check."""

    __slots__ = ()
    n = property(itemgetter(0))
    c = property(itemgetter(1))

    def __new__(cls, n, c):
        if any(pos < n for pos, _ in c):
            raise TreeError(f"configuration below level {n}")
        return tuple.__new__(cls, (n, c))

    def __getnewargs__(self):
        return tuple(self)

    def parent(self):
        # Only the lowest lamp of c can sit at n.
        n, c = self
        return tuple.__new__(TreeVertex, (n + 1, c[1:] if c and c[0][0] == n else c))

    def children(self, q):
        # The new lamp sits at n - 1, below every position of c.
        n, c = self
        return [tuple.__new__(TreeVertex, (n - 1, ((n - 1, val),) + c if val else c)) for val in range(q)]

    def id(self):
        return f"{self[0]}|" + ",".join(f"{p}:{v}" for p, v in self[1])

    def __repr__(self):
        return self.id()


BASEPOINT = TreeVertex(0, ())


def tree_distance(v: TreeVertex, w: TreeVertex) -> int:
    """Graph distance via the lowest common ancestor level."""
    cv, cw = dict(v.c), dict(w.c)
    top = max([v.n, w.n] + [p + 1 for p in set(cv) | set(cw) if cv.get(p) != cw.get(p)])
    return (top - v.n) + (top - w.n)


# ---------------------------------------------------------------------------
# The G-action on the coset tree (lamplighter families)
# ---------------------------------------------------------------------------
#
# Vertices encode cosets of the stabilizer A = {support >= 0}: the coset
# of (h, m) sits at level n = -m and keeps h at positions below m,
# re-indexed by the reflection i = -pos - 1 so the configuration lives
# on [n, +oo).  The level function b'(v) = n then satisfies
# b'(g.v) = b'(v) - m(g), and alpha moves the basepoint to a child.


def _reflect(config):
    return tuple(sorted((-pos - 1, val) for pos, val in config))


def _require_lamplighter(family):
    if family.config().get("family") != "lamplighter":
        raise TreeError(f"tree action unsupported for {family.name}")


def vertex_level(v: TreeVertex) -> int:
    """The equivariant level b'(v)."""
    return v.n


def vertex_rep(family, v: TreeVertex) -> GroupPoint:
    """A group element whose coset is v (acts on the basepoint to give v)."""
    _require_lamplighter(family)
    return GroupPoint(family, _reflect(v.c), -v.n)


def tree_act(g: GroupPoint, v: TreeVertex) -> TreeVertex:
    """Left action on cosets; a graph automorphism commuting with the
    parent map and shifting levels by -m(g)."""
    family = g.family
    _require_lamplighter(family)
    p = g * vertex_rep(family, v)
    n = -p.m
    config = tuple((i, val) for i, val in _reflect(p.h) if i >= n)
    return TreeVertex(n, config)


def tree_transitivity_witness(family, v: TreeVertex, w: TreeVertex) -> GroupPoint:
    """A group element g with tree_act(g, v) = w, checked by acting with it."""
    g = vertex_rep(family, w) * vertex_rep(family, v).inverse()
    if tree_act(g, v) != w:
        raise TreeError(f"{g} takes {v} to {tree_act(g, v)}, not to {w}")
    return g


def basepoint_distances(basis, enc, ms):
    """d(o, g.o) for the points g = (h, m) of a lamplighter family encoded
    as rows enc on `basis` with exponents ms, as an int64 array: the
    identity row of the basis's coset-tree pair form, tree_pairs.

    tree_act puts g.o at level -m with the lamps of h below position m,
    the lowest at p reflected to -p - 1, so its lowest common ancestor
    with o sits at level max(0, -m, -p) and d(o, g.o) = m - 2 min(0, m, p)
    (with no lamp, p drops out).
    """
    one = np.zeros((1, basis.width), dtype=basis.dtype)
    return basis.tree_pairs(one, np.zeros(1, dtype=np.int64), enc, ms)[0][0]


def tree_qi_probe(family, count=200, max_len=8, seed=0):
    """Compare word length with orbit tree distance on sampled elements.
    The sample stays encoded on its own basis: the word lengths are its
    identity row, and the orbit distances are basepoint_distances.

    The family is checked before anything is drawn: an unvalidated one
    raises UnvalidatedFamilyError, and any other but a lamplighter family
    a TreeError."""
    _require_validated(family)
    _require_lamplighter(family)
    basis, enc, ms = _sample_encoded(family, count, max_len, seed)
    lengths = _identity_row_lengths(family, basis, enc, ms)
    samples = set(zip(lengths.tolist(), basepoint_distances(basis, enc, ms).tolist()))
    return qi_embedding_check(sorted(samples))


# ---------------------------------------------------------------------------
# Levelled graphs
# ---------------------------------------------------------------------------


@dataclass
class BusemannGraph:
    """Finite connected graph with an integer level on each vertex; every
    edge changes the level by exactly +-1.  `interior` marks vertices all
    of whose neighbours in the ambient infinite object are present."""

    vertices: list
    edges: list
    b: dict
    interior: set = field(default_factory=set)

    def __post_init__(self):
        self._adj = {v: [] for v in self.vertices}
        for u, v in self.edges:
            self._adj[u].append(v)
            self._adj[v].append(u)

    def neighbors(self, v):
        return self._adj[v]

    def degree(self, v):
        return len(self._adj[v])

    def validate(self):
        for u, v in self.edges:
            if abs(self.b[u] - self.b[v]) != 1:
                raise TreeError(f"edge ({u}, {v}) changes the level by {self.b[v] - self.b[u]}")
        if self.vertices:
            seen = {self.vertices[0]}
            queue = deque(seen)
            while queue:
                u = queue.popleft()
                for w in self._adj[u]:
                    if w not in seen:
                        seen.add(w)
                        queue.append(w)
            if len(seen) != len(self.vertices):
                raise TreeError("graph is not connected")
        return self

    def distance_matrix(self) -> DistanceMatrix:
        index = {v: i for i, v in enumerate(self.vertices)}
        # Each edge u -- v goes both ways: sources u then v, targets v then u.
        ends = np.array([(index[u], index[v]) for u, v in self.edges], dtype=np.intp).reshape(-1, 2).T
        return graph_distance_matrix(self.vertices, ends.ravel(), ends[::-1].ravel())

    def to_dot(self):
        lines = ["graph levelled {"]
        for v in self.vertices:
            lines.append(f'  "{v}" [label="{v}\\nb={self.b[v]}"];')
        for u, v in self.edges:
            lines.append(f'  "{u}" -- "{v}";')
        lines.append("}")
        return "\n".join(lines)

    def to_adjacency_csv(self):
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["u", "v", "b_u", "b_v"])
        for u, v in self.edges:
            writer.writerow([u, v, self.b[u], self.b[v]])
        return buf.getvalue()


def regular_tree_ball(k, levels, orientation=-1):
    """Ball of the (k+1)-regular tree around the basepoint, with integer
    levels toward a distinguished end: each vertex has one neighbour one
    step toward the end and k away from it.

    With the default orientation the level is -n, so the k-fold branching
    happens in the +1 level direction.
    """
    if k < 1 or levels < 0:
        raise TreeError("need k >= 1 and levels >= 0")
    dist = {BASEPOINT: 0}
    order = [BASEPOINT]
    queue = deque([BASEPOINT])
    while queue:
        v = queue.popleft()
        if dist[v] == levels:
            continue
        for w in [v.parent()] + v.children(k):
            if w not in dist:
                dist[w] = dist[v] + 1
                order.append(w)
                queue.append(w)
    ids = {v: v.id() for v in order}
    vertices = [ids[v] for v in order]
    edges = []
    for v in order:
        p = v.parent()
        if p in dist:
            edges.append((ids[v], ids[p]))
    b = {ids[v]: orientation * v.n for v in order}
    interior = {ids[v] for v in order if dist[v] < levels}
    return BusemannGraph(vertices, edges, b, interior)


def lamplighter_tree_ball(family, levels):
    """Orbit ball of the coset tree, labelled with the equivariant level
    b' = n (so b'(g.v) = b'(v) - m(g))."""
    _require_lamplighter(family)
    return regular_tree_ball(family.q, levels, orientation=1)


# ---------------------------------------------------------------------------
# Fiber products
# ---------------------------------------------------------------------------


def millefeuille(X: BusemannGraph, T: BusemannGraph) -> BusemannGraph:
    """Fiber product over the level functions: vertices are pairs with
    b(x) = b'(y), edges pair edges of X and T moving in the same level
    direction, and the output level is b(x)."""
    pairs = []
    by_level = {}
    for y in T.vertices:
        by_level.setdefault(T.b[y], []).append(y)
    for x in X.vertices:
        for y in by_level.get(X.b[x], []):
            pairs.append((x, y))
    if not pairs:
        raise TreeError("empty fiber: the level ranges do not meet")

    ids = {p: f"{p[0]};{p[1]}" for p in pairs}
    edges = []
    t_adj = {y: T.neighbors(y) for y in T.vertices}
    for x, y in pairs:
        for x2 in X.neighbors(x):
            step = X.b[x2] - X.b[x]
            for y2 in t_adj[y]:
                if T.b[y2] - T.b[y] == step and ids[(x, y)] < ids[(x2, y2)]:
                    edges.append((ids[(x, y)], ids[(x2, y2)]))
    b = {ids[p]: X.b[p[0]] for p in pairs}
    interior = {ids[(x, y)] for x, y in pairs if x in X.interior and y in T.interior}
    graph = BusemannGraph([ids[p] for p in pairs], edges, b, interior)
    return graph


def line_fiber_isomorphic(product: BusemannGraph, T: BusemannGraph) -> bool:
    """Check the degenerate case: when X has one vertex per level, the
    fiber product projects isomorphically onto T."""
    mapping = {pid: pid.partition(";")[2] for pid in product.vertices}
    if sorted(mapping.values()) != sorted(T.vertices):
        return False
    prod_edges = {frozenset((mapping[u], mapping[v])) for u, v in product.edges}
    t_edges = {frozenset((u, v)) for u, v in T.edges}
    return prod_edges == t_edges
