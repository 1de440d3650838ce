"""Exact metric primitives on finite integer distance data: Gromov
products, the four-point hyperbolicity constant, two-sided affine
embedding constants, and all-pairs distances of finite graphs.

All rational values are computed in scaled-integer arithmetic and
returned as Fractions; floats never decide a comparison (the embedding
fit's float ratios only propose a candidate that integer products
confirm).  The four-point constant is a (max,min) matrix product per
basepoint, computed with numpy.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import numbers
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np

# Read only by the environment block of perfbench/run.py; no package code uses them.
_speedups = None
USE_SPEEDUPS = False

EXHAUSTIVE_CUTOFF = 64
# Entries per array temporary in the batched kernels, read only by row_blocks.
PAIRS_PER_BLOCK = 1 << 16
# Basepoints drawn besides the centre above the exhaustive cutoff.
SEEDED_BASEPOINTS = 1


class MetricError(ValueError):
    pass


def row_blocks(count, width, most=None):
    """Consecutive slices covering range(count), each of at most
    PAIRS_PER_BLOCK // width rows of `width` entries and at most `most`
    rows, and of one row at least: a row wider than PAIRS_PER_BLOCK goes
    alone.  Every batched kernel cuts its rows here, and PAIRS_PER_BLOCK
    is read at the call, so one patch of it reaches them all."""
    step = PAIRS_PER_BLOCK // width
    if most is not None:
        step = min(step, most)
    step = max(1, step)
    return [slice(lo, min(lo + step, count)) for lo in range(0, count, step)]


class Report:
    """Base of the dataclasses that reach the user as JSON.

    as_dict renders every dataclass field by one rule: a Fraction as a
    float, a tuple as a list, anything else as it is.  An override only
    adds a derived key, renames a field or nests another report."""

    def as_dict(self):
        return {f.name: _json_value(getattr(self, f.name)) for f in fields(self)}


def _json_value(v):
    if isinstance(v, Fraction):
        return float(v)
    return list(v) if isinstance(v, tuple) else v


@dataclass
class DistanceMatrix:
    """Symmetric integer distances over an ordered finite point set.

    d keeps any signed integer type it is given (ball matrices come in the
    smallest one that holds their distances); anything else becomes int64.
    Sums of distances are taken in int64.

    delta_ceiling is a proven upper bound on the four-point constant, or
    None: ball_points sets it where the family's basis proves one on the
    ball's own matrix (delta <= 1 on every lamplighter ball), restrict
    keeps it, as a subset keeps any bound on delta, and from_csv never
    sets it."""

    points: list
    d: np.ndarray
    delta_ceiling: Fraction | None = None

    def __post_init__(self):
        self.d = np.asarray(self.d)
        if self.d.dtype.kind != "i":
            self.d = self.d.astype(np.int64)
        if self.d.shape != (len(self.points), len(self.points)):
            raise MetricError("distance matrix shape does not match the point list")
        self._index = {p: i for i, p in enumerate(self.points)}
        if len(self._index) != len(self.points):
            raise MetricError("duplicate point identifiers")

    def __len__(self):
        return len(self.points)

    def index(self, p):
        try:
            return self._index[p]
        except KeyError:
            raise MetricError(f"unknown point {p!r}") from None

    def distance(self, x, y):
        return int(self.d[self.index(x), self.index(y)])

    def validate(self):
        """Raise MetricError unless d is a genuine integer metric."""
        d = self.d
        if (d < 0).any():
            raise MetricError("negative distance")
        if (np.diag(d) != 0).any():
            raise MetricError("nonzero diagonal")
        if (d != d.T).any():
            raise MetricError("asymmetric distances")
        n = len(self.points)
        for k in range(n):
            if (d > d[:, k, None].astype(np.int64) + d[None, k, :]).any():
                raise MetricError("triangle inequality fails")
        return self

    def restrict(self, subset):
        idx = [self.index(p) for p in subset]
        return DistanceMatrix(list(subset), self.d[np.ix_(idx, idx)], self.delta_ceiling)

    def to_csv(self, stream):
        writer = csv.writer(stream)
        writer.writerow([str(p) for p in self.points])
        for row in self.d:
            writer.writerow([int(v) for v in row])

    @classmethod
    def from_csv(cls, stream):
        rows = list(csv.reader(stream))
        points = rows[0]
        d = np.array([[int(v) for v in row] for row in rows[1:]], dtype=np.int64)
        return cls(points, d)

    def csv_string(self):
        buf = io.StringIO()
        self.to_csv(buf)
        return buf.getvalue()


def graph_distance_matrix(points, adjacency) -> DistanceMatrix:
    """Shortest-path distances of a finite unweighted graph: d[s, t] is the
    length of a shortest path from points[s] to points[t], and
    `adjacency[i]` lists the neighbour indices of `points[i]`.

    One level-synchronous BFS runs from every vertex at once (Then et al.,
    PVLDB 8(4), 2014): row v of `seen` is a packed bitset of the vertices
    that v reaches.  The targets first reached from v at level L + 1 are
    the unseen ones that one of v's neighbours first reached at level L,
    so each level ORs the frontier rows of v's neighbours, one padded
    neighbour slot at a time, keeps the bits not seen before, and adds one
    to every pair still unreached: a pair first reached at level L ends
    at L.  Levels are counted, and returned, in the smallest signed type
    that holds n - 1, the longest a distance can be.
    """
    n = len(points)
    degrees = np.array([len(a) for a in adjacency], dtype=np.int64)
    flat = np.fromiter(itertools.chain.from_iterable(adjacency), dtype=np.int64, count=int(degrees.sum()))
    # nbrs[v, k] is v's k-th neighbour, or n (an all-zero frontier row) past the last.
    nbrs = np.full((n, int(degrees.max(initial=0))), n, dtype=np.int64)
    slots = np.arange(len(flat)) - np.repeat(np.cumsum(degrees) - degrees, degrees)
    nbrs[np.repeat(np.arange(n), degrees), slots] = flat
    frontier = np.zeros((n + 1, (n + 7) // 8), dtype=np.uint8)
    frontier[np.arange(n), np.arange(n) // 8] = 128 >> (np.arange(n) % 8)
    seen = frontier[:n].copy()
    reach = np.empty_like(seen)
    d = np.zeros((n, n), dtype=np.min_scalar_type(-max(n, 1)))
    while True:
        reach.fill(0)
        for slot in nbrs.T:
            reach |= frontier[slot]
        reach &= ~seen
        if not reach.any():
            break
        d += np.unpackbits(~seen, axis=1, count=n).view(np.int8)
        seen |= reach
        frontier[:n] = reach
    if not np.unpackbits(seen, axis=1, count=n).all():
        raise MetricError("graph is disconnected")
    return DistanceMatrix(points, d)


def gromov_product(x, y, base, D: DistanceMatrix) -> Fraction:
    """(x|y) at `base`: half of d(base,x) + d(base,y) - d(x,y)."""
    b, i, j = D.index(base), D.index(x), D.index(y)
    return Fraction(int(D.d[b, i]) + int(D.d[b, j]) - int(D.d[i, j]), 2)


@dataclass
class DeltaReport(Report):
    """The four-point constant of a finite metric as an interval.

    `delta` is attained by the quadruple `witness` = (x, y, z, w) of point
    ids, so it is a lower bound; `upper` is an upper bound.  `method` says
    how they were reached: "exact" (every point a basepoint), "ceiling"
    (the centre's constant reached the matrix's proven delta_ceiling) or
    "basepoints" (the centre and a seeded point).  The interval is
    exhaustive exactly when its two ends meet, whatever the method.
    `samples` counts the ordered quadruples covered, |basepoints| * n**3.
    """

    delta: Fraction
    upper: Fraction
    n_points: int
    method: str
    samples: int
    seed: int | None
    witness: tuple

    @property
    def exhaustive(self):
        return self.delta == self.upper

    def as_dict(self):
        return {**super().as_dict(), "exhaustive": self.exhaustive}


# The longest prefix whose levels 2j and 2j - 1 share one product: its
# operand entries 1 + k still fit uint8, and every sum of the product is an
# integer below k (k + 1)**2 < 2**24, so float32 holds it exactly.
PAIRED_PREFIX_LIMIT = 254


def _defect2_at(d, xs, ceiling=None):
    """Twice the four-point constant at each basepoint x in `xs`: the
    largest min(g[y,w], g[w,z]) - g[y,z] over y, z, w, where g = d[x,:,None]
    + d[x,None,:] - d holds the doubled Gromov products at x.  `d` must be
    a metric.  Returns (defects, yz), where yz[i] is a pair (y, z) of point
    indices that attains defects[i] at xs[i].

    `ceiling`, when given, is a proven integer bound on every defect:
    a basepoint whose defect reaches it leaves `live`, and the scan ends
    when every basepoint has.  A level only raises a defect strictly, so
    no later level could have moved a basepoint's defect or pair, and the
    result is the one the full scan gives.

    The (max,min) product of g with itself is at least v exactly where the
    boolean product of (g >= v) with itself is nonzero, so each distinct
    value v of g costs one float32 matmul (exact: it counts 0/1 products
    and n < 2**24), and the defect is the largest v - g[y,z] over the
    pairs it reaches (Fournier, Ismail and Vigneron, Inform. Process.
    Lett. 2015).  On a metric 0 <= g <= 2 max d, so the distinct values
    are read from a presence mask over that range.  The levels run from
    the top: g[y,w] <= 2 min(d(x,y), d(x,w)), so level v only involves the
    points with 2 d(x,.) >= v, a prefix once each basepoint's points are
    sorted farthest first; and no level v can raise a defect above v, as
    g >= 0.  So a level batches only its live basepoints, those with at
    least two points in their prefix (with one, only (y, y) is reached,
    and g[y,y] >= v cannot beat) and with v above their defect, up to the
    longest of their prefixes; the scan stops when v no longer beats the
    least defect found.  A live basepoint whose defect is
    still 0 also skips the matmul at a level where g >= v is an
    equivalence relation on its points, as at every level of a tree: then
    the product reaches only the pairs with g >= v, none of which beats 0.

    Levels 2j and 2j - 1 have the same prefixes, because 2 d(x,.) is even,
    and when both are present they share one product over the live set of
    2j, which holds that of 2j - 1.  With k the prefix length and
    B = [g >= 2j - 1] + k [g >= 2j], every term of B @ B is 0, 1, k + 1 or
    (k + 1)**2, so the pairs reached at 2j are those with a sum of at least
    (k + 1)**2 (k terms below it add up to at most k (k + 1)) and those
    reached at 2j - 1 the nonzero ones.  Every partial sum is an integer at
    most k (k + 1)**2 < 2**24, so float32 is exact whatever order the
    matmul adds in, for k up to PAIRED_PREFIX_LIMIT; longer prefixes and
    unpaired levels run one product per level.  Level 2j updates the
    defects first, and level 2j - 1 then beats the updated ones (a
    basepoint no longer live there has none to beat).  A basepoint skips
    the shared product only when both masks are equivalence relations.

    g is held in the smallest signed integer type that holds 2 max d, and
    a level only looks for its best pair at the live basepoints where some
    reached pair beats the defect found so far; there the pair is the
    first (y, z) in row-major order of least g[y,z] among those reached.
    A level runs on the chunks of its live basepoints that row_blocks
    cuts for their k x k float32 operands, each on the longest prefix in
    its chunk, so its temporaries stay bounded however many basepoints
    there are.
    """
    xs = np.asarray(xs, dtype=np.intp)
    top = 2 * int(d.max())
    # No defect exceeds top, so a ceiling at or above it ends nothing.
    ceiling = top if ceiling is None else ceiling
    d = d.astype(np.min_scalar_type(-1 - top), copy=False)
    order = np.argsort(-d[xs], axis=1, kind="stable")
    dx = np.take_along_axis(d[xs], order, axis=1)
    g = dx[:, :, None] + dx[:, None, :] - np.stack([d[o][:, o] for o in order])
    present = np.zeros(top + 1, dtype=bool)
    present[g.ravel()] = True
    levels = np.flatnonzero(present)[::-1].tolist()
    prefix = (2 * dx[:, :, None] >= levels).sum(axis=1)
    rows = np.arange(len(xs))
    best = np.zeros(len(xs), dtype=np.int64)
    y = np.zeros(len(xs), dtype=np.intp)
    z = np.zeros(len(xs), dtype=np.intp)
    i = 0
    while i < len(levels) and best.min() < min(levels[i], ceiling):
        v, ks = levels[i], prefix[:, i]
        live = np.flatnonzero((ks >= 2) & (best < min(v, ceiling)))
        k = int(ks[live].max(initial=0))
        paired = v % 2 == 0 and levels[i + 1 : i + 2] == [v - 1] and k <= PAIRED_PREFIX_LIMIT
        i += 1 + paired
        if not live.size:
            continue
        for block in row_blocks(len(live), k * k):
            chunk = live[block]
            _run_level(v, paired, g, chunk, int(ks[chunk].max()), best, y, z)
    return best, np.stack([order[rows, y], order[rows, z]], axis=1)


def _run_level(v, paired, g, live, k, best, y, z):
    """Level v, and level v - 1 with it when paired, at the live basepoints
    on their first k points: the equivalence skip, one product, and the
    defect updates.  The masks go before the operand is cast, and the
    operand before the product is read."""
    gk = g[live, :k, :k]
    masks = (gk >= v, gk >= v - 1) if paired else (gk >= v,)
    closed = _equivalences(masks, np.flatnonzero(best[live] == 0))
    if closed.size:
        keep = np.ones(len(live), dtype=bool)
        keep[closed] = False
        live, gk, masks = live[keep], gk[keep], [b[keep] for b in masks]
    b = masks[1].view(np.uint8) + masks[0].view(np.uint8) * np.uint8(k) if paired else masks[0]
    del masks
    b = b.astype(np.float32)
    s = np.matmul(b, b)
    del b
    if paired:
        _raise_defects(v, live, gk, s >= (k + 1) ** 2, best, y, z)
        _raise_defects(v - 1, live, gk, s > 0, best, y, z)
    else:
        _raise_defects(v, live, gk, s > 0, best, y, z)


def _equivalences(masks, t):
    """The rows t of the stacked boolean masks at which every mask is an
    equivalence relation on the points of its diagonal: each row equals
    the row of its first member (rows past a basepoint's own prefix are
    empty)."""
    for b in masks:
        if not t.size:
            break
        k = b.shape[-1]
        bt = b[t] if len(t) < len(b) else b
        first = bt.argmax(axis=2) + k * np.arange(len(t))[:, None]
        same = (bt == bt.reshape(-1, k)[first.ravel()].reshape(bt.shape)).all(axis=2)
        t = t[(same | ~np.diagonal(bt, axis1=1, axis2=2)).all(axis=1)]
    return t


def _raise_defects(v, live, gk, reached, best, y, z):
    """Level v's update: where a pair reached at basepoint live[j] beats
    its defect, the defect becomes v - g[y,z] at the first reached pair of
    least g, and (y, z) that pair."""
    k = gk.shape[-1]
    beats = reached & (gk < (v - best[live]).astype(gk.dtype)[:, None, None])
    i = np.flatnonzero(beats.any(axis=(1, 2)))
    low = np.where(reached[i], gk[i], v).reshape(len(i), k * k)
    at = low.argmin(axis=1)
    i = live[i]
    best[i] = v - low[np.arange(len(i)), at]
    y[i], z[i] = np.divmod(at, k)


def four_point_delta(
    D: DistanceMatrix,
    exhaustive_cutoff: int = EXHAUSTIVE_CUTOFF,
    seed: int = 0,
) -> DeltaReport:
    """Least delta >= 0 with (y|z)_x >= min[(y|w)_x, (w|z)_x] - delta over
    ordered quadruples (the basepoint ranges over the points too).

    Exact for point sets up to `exhaustive_cutoff`: every point is a
    basepoint.  Beyond it, the centre (the first point of least
    eccentricity) runs first when D carries a delta_ceiling: if its
    constant reaches the ceiling, delta = upper = the ceiling, with method
    "ceiling" and no seed.  Otherwise, and always without a ceiling, the
    basepoints are the centre and SEEDED_BASEPOINTS other points drawn
    with `seed`; `delta` is the largest constant at one of them, and
    `upper` twice the least, since the four-point constant at one
    basepoint bounds the constant at every other by a factor of 2
    (Bridson-Haefliger, III.H.1.22).  The ceiling also ends every
    basepoint's scan early, which changes no other report.
    """
    n = len(D)
    if n < 1:
        raise MetricError("need at least one point")
    d = D.d
    ceiling = None if D.delta_ceiling is None else math.floor(2 * D.delta_ceiling)
    if n <= exhaustive_cutoff:
        xs, method, seed = np.arange(n), "exact", None
        defects, yz = _defect2_at(d, xs, ceiling)
    else:
        centre = int(np.argmin(d.max(axis=1)))
        xs, method = np.array([centre]), "ceiling"
        if ceiling is not None:
            defects, yz = _defect2_at(d, xs, ceiling)
        if ceiling is None or defects[0] < ceiling:
            others = np.delete(np.arange(n), centre)
            drawn = np.random.default_rng(seed).choice(others, min(SEEDED_BASEPOINTS, n - 1), replace=False)
            xs, method = np.concatenate([[centre], drawn]), "basepoints"
            defects, yz = _defect2_at(d, xs, ceiling)
        else:
            seed = None
    i = int(np.argmax(defects))
    x, (y, z) = int(xs[i]), yz[i].tolist()
    dx = d[x].astype(np.int64)
    w = int(np.argmax(np.minimum(dx[y] + dx - d[y], dx + dx[z] - d[:, z])))
    upper = 2 * defects.min() if method == "basepoints" else defects[i]
    return DeltaReport(
        delta=Fraction(int(defects[i]), 2),
        upper=Fraction(int(upper), 2),
        n_points=n,
        method=method,
        samples=len(xs) * n**3,
        seed=seed,
        witness=tuple(D.points[j] for j in (x, y, z, w)),
    )


def hyperbolicity_bound(n0: int) -> float:
    """The thin-triangle argument's constant 16*log2(n0 + 2)."""
    return 16 * math.log2(n0 + 2)


def delta_within_bound(delta: Fraction, n0: int) -> bool:
    """Exact comparison delta <= 16*log2(n0+2), done in integers:
    delta = p/q <= 16 log2(n0+2)  iff  2**(p) <= (n0+2)**(16*q)."""
    p, q = delta.numerator, delta.denominator
    if p <= 0:
        return True
    return 2**p <= (n0 + 2) ** (16 * q)


@dataclass
class QIReport(Report):
    """Tightest witnessed two-sided affine bounds between two distance
    samples: (1/multiplicative) s - additive <= t <= multiplicative s + additive.
    `samples` is the number of distinct (s, t) pairs the bounds rest on."""

    multiplicative_constant: Fraction
    additive_constant: Fraction
    samples: int
    injective: bool


def qi_embedding_check(samples) -> QIReport:
    """Fit the tightest (lambda, c) witnessed by the (s, t) samples, which
    must be integer distances (MetricError otherwise).

    lambda is the largest two-sided difference ratio |dt|/|ds| (and its
    reciprocal) over sample pairs, and at least 1; c then covers the
    residuals on both sides.  Pairs with equal s or equal t contribute to c
    only.  The injective flag is false when a positive domain distance maps
    to image distance 0.

    The fit is exact integer arithmetic on arrays of the sample pairs:
    lambda = P/Q is the pair with the largest max(ds, dt) / min(ds, dt)
    under float division, confirmed by p*Q <= P*q on every pair (p/q each
    pair's ratio) and replaced by the first pair that beats it until none
    does; c = max(0, max(t*Q - s*P) / Q, max(s*Q - t*P) / P).
    """
    samples = list(samples)
    if not samples:
        raise MetricError("empty sample list")
    if not all(isinstance(v, numbers.Integral) for pair in samples for v in pair):
        raise MetricError("non-integer distance in samples")
    if any(s < 0 or t < 0 for s, t in samples):
        raise MetricError("negative distance in samples")
    # Products of two distances stay below 2**63 under this bound; beyond
    # it the same code runs on Python ints.
    dtype = np.int64 if max(max(pair) for pair in samples) < 2**31 else object
    s, t = np.array(samples, dtype=dtype).T
    i, j = np.triu_indices(len(samples), 1)
    ds, dt = np.abs(s[i] - s[j]), np.abs(t[i] - t[j])
    both = (ds > 0) & (dt > 0)
    p, q = np.maximum(ds, dt)[both], np.minimum(ds, dt)[both]
    P, Q = 1, 1
    if len(p):
        k = int(np.argmax(p.astype(float) / q.astype(float)))
        P, Q = int(p[k]), int(q[k])
        while (beats := np.flatnonzero(p * Q > P * q)).size:
            P, Q = int(p[beats[0]]), int(q[beats[0]])
    c = max(Fraction(0), Fraction(int((t * Q - s * P).max()), Q), Fraction(int((s * Q - t * P).max()), P))
    injective = bool((t[s > 0] > 0).all())
    return QIReport(Fraction(P, Q), c, len(samples), injective)
