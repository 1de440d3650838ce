"""Exact metric primitives on finite integer distance data: Gromov
products, the four-point hyperbolicity constant, two-sided affine
embedding constants, and all-pairs distances of finite graphs.

All rational values are computed in scaled-integer arithmetic and
returned as Fractions; floats never enter a comparison.  The quadruple
enumeration behind the four-point constant is vectorized with numpy.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# Read only by the environment block of perfbench/run.py; no package code uses them.
_speedups = None
USE_SPEEDUPS = False

EXHAUSTIVE_CUTOFF = 64
DEFAULT_SAMPLES = 200_000


class MetricError(ValueError):
    pass


@dataclass
class DistanceMatrix:
    """Symmetric integer distances over an ordered finite point set."""

    points: list
    d: np.ndarray

    def __post_init__(self):
        self.d = np.asarray(self.d, dtype=np.int64)
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
            if (d > d[:, k, None] + d[None, k, :]).any():
                raise MetricError("triangle inequality fails")
        return self

    def restrict(self, subset):
        idx = [self.index(p) for p in subset]
        return DistanceMatrix(list(subset), self.d[np.ix_(idx, idx)])

    def to_csv(self, stream):
        close = False
        if isinstance(stream, (str, os.PathLike)):
            stream, close = open(stream, "w", newline=""), True
        try:
            writer = csv.writer(stream)
            writer.writerow([str(p) for p in self.points])
            for row in self.d:
                writer.writerow([int(v) for v in row])
        finally:
            if close:
                stream.close()

    @classmethod
    def from_csv(cls, stream):
        close = False
        if isinstance(stream, (str, os.PathLike)):
            stream, close = open(stream, newline=""), True
        try:
            rows = list(csv.reader(stream))
        finally:
            if close:
                stream.close()
        points = rows[0]
        d = np.array([[int(v) for v in row] for row in rows[1:]], dtype=np.int64)
        return cls(points, d)

    def csv_string(self):
        buf = io.StringIO()
        self.to_csv(buf)
        return buf.getvalue()


def graph_distance_matrix(points, adjacency) -> DistanceMatrix:
    """Shortest-path distances of a finite unweighted graph, one BFS per
    source; `adjacency[i]` lists the neighbour indices of `points[i]`."""
    n = len(points)
    rows = []
    for src in range(n):
        row = [-1] * n
        row[src] = 0
        frontier, step, reached = [src], 0, 1
        while frontier:
            step += 1
            nxt = []
            for u in frontier:
                for v in adjacency[u]:
                    if row[v] < 0:
                        row[v] = step
                        nxt.append(v)
            reached += len(nxt)
            frontier = nxt
        if reached != n:
            raise MetricError("graph is disconnected")
        rows.append(row)
    return DistanceMatrix(points, np.array(rows, dtype=np.int64).reshape(n, n))


def gromov_product(x, y, base, D: DistanceMatrix) -> Fraction:
    """(x|y) at `base`: half of d(base,x) + d(base,y) - d(x,y)."""
    b, i, j = D.index(base), D.index(x), D.index(y)
    return Fraction(int(D.d[b, i]) + int(D.d[b, j]) - int(D.d[i, j]), 2)


@dataclass
class DeltaReport:
    delta: Fraction
    n_points: int
    exhaustive: bool
    samples: int
    seed: int | None

    def as_dict(self):
        return {
            "delta": float(self.delta),
            "n_points": self.n_points,
            "exhaustive": self.exhaustive,
            "samples": self.samples,
            "seed": self.seed,
        }


def _defect2_exhaustive_numpy(d):
    n = d.shape[0]
    best = 0
    for x in range(n):
        gp2 = d[x][:, None] + d[x][None, :] - d
        m = np.full((n, n), np.iinfo(np.int64).min, dtype=np.int64)
        for w in range(n):
            np.maximum(m, np.minimum(gp2[:, w][:, None], gp2[w][None, :]), out=m)
        best = max(best, int((m - gp2).max()))
    return best


def _defect2_quadruples_numpy(d, xs, ys, zs, ws):
    gyz = d[xs, ys] + d[xs, zs] - d[ys, zs]
    gyw = d[xs, ys] + d[xs, ws] - d[ys, ws]
    gwz = d[xs, ws] + d[xs, zs] - d[ws, zs]
    defect = np.minimum(gyw, gwz) - gyz
    return max(0, int(defect.max()))


def four_point_delta(
    D: DistanceMatrix,
    exhaustive_cutoff: int = EXHAUSTIVE_CUTOFF,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> DeltaReport:
    """Least delta >= 0 with (y|z)_x >= min[(y|w)_x, (w|z)_x] - delta over
    ordered quadruples (the basepoint ranges over the points too).

    Exhaustive for point sets up to `exhaustive_cutoff`; beyond that a
    seeded uniform sample of quadruples is scanned and the seed recorded,
    so the value is a certified lower bound for the true constant.
    """
    n = len(D)
    if n < 1:
        raise MetricError("need at least one point")
    d = D.d
    if n <= exhaustive_cutoff:
        defect2 = _defect2_exhaustive_numpy(d)
        return DeltaReport(Fraction(defect2, 2), n, True, n**4, None)
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, n, size=(4, samples), dtype=np.int64)
    defect2 = _defect2_quadruples_numpy(d, idx[0], idx[1], idx[2], idx[3])
    return DeltaReport(Fraction(defect2, 2), n, False, samples, seed)


def hyperbolicity_bound(n0: int) -> float:
    """The thin-triangle argument's constant 16*log2(n0 + 2)."""
    import math

    return 16 * math.log2(n0 + 2)


def delta_within_bound(delta: Fraction, n0: int) -> bool:
    """Exact comparison delta <= 16*log2(n0+2), done in integers:
    delta = p/q <= 16 log2(n0+2)  iff  2**(p) <= (n0+2)**(16*q)."""
    p, q = delta.numerator, delta.denominator
    if p <= 0:
        return True
    return 2**p <= (n0 + 2) ** (16 * q)


@dataclass
class QIReport:
    """Tightest witnessed two-sided affine bounds between two distance
    samples: (1/multiplicative) s - additive <= t <= multiplicative s + additive.
    `samples` is the number of distinct (s, t) pairs the bounds rest on."""

    multiplicative_constant: Fraction
    additive_constant: Fraction
    samples: int
    injective: bool

    def as_dict(self):
        return {
            "multiplicative_constant": float(self.multiplicative_constant),
            "additive_constant": float(self.additive_constant),
            "samples": self.samples,
            "injective": self.injective,
        }


def qi_embedding_check(samples) -> QIReport:
    """Fit the tightest (lambda, c) witnessed by the (s, t) samples.

    lambda is the largest two-sided difference ratio |dt|/|ds| (and its
    reciprocal) over sample pairs; c then covers the residuals on both
    sides.  Pairs with equal s contribute to c only.  The injective flag
    is false when a positive domain distance maps to image distance 0.
    """
    samples = [(Fraction(s), Fraction(t)) for s, t in samples]
    if not samples:
        raise MetricError("empty sample list")
    if any(s < 0 or t < 0 for s, t in samples):
        raise MetricError("negative distance in samples")
    lam = Fraction(1)
    for i in range(len(samples)):
        s1, t1 = samples[i]
        for j in range(i + 1, len(samples)):
            s2, t2 = samples[j]
            ds, dt = abs(s1 - s2), abs(t1 - t2)
            if ds == 0 or dt == 0:
                continue
            lam = max(lam, dt / ds, ds / dt)
    c = Fraction(0)
    for s, t in samples:
        c = max(c, t - lam * s, s / lam - t)
    injective = all(t > 0 for s, t in samples if s > 0)
    return QIReport(lam, max(c, Fraction(0)), len(samples), injective)
