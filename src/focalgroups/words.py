"""Word metric on G = H x| Z for the generating set S = A u {alpha+-}:
normal forms, exact distances, geodesic witnesses, and the windowed BFS
oracle used to validate the closed-form length.

Group elements are pairs (h, m) with composition
(h, m) . (h', m') = (h . alpha^m(h'), m + m'), so that alpha h alpha^-1
equals alpha(h).
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .families import ARRAY_INF, INF, FamilyError, json_field
from .metric import DistanceMatrix, graph_distance_matrix

ALPHA = "a+"
ALPHA_INV = "a-"


class WordError(ValueError):
    pass


class UnvalidatedFamilyError(RuntimeError):
    """Raised when word_length is asked to trust an unvalidated a_length."""


@dataclass(frozen=True)
class Gen:
    """A single A-letter; payload is a raw H-element."""

    payload: object


@dataclass(frozen=True)
class GroupPoint:
    family: object
    h: object
    m: int

    def __mul__(self, other):
        if other.family != self.family:
            raise WordError("mixed families")
        f = self.family
        return GroupPoint(f, f.multiply(self.h, f.alpha_pow(other.h, self.m)), self.m + other.m)

    def inverse(self):
        f = self.family
        return GroupPoint(f, f.alpha_pow(f.invert(self.h), -self.m), -self.m)

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        out = identity_point(self.family)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def is_identity(self):
        return self.m == 0 and self.h == self.family.identity()

    def key(self):
        return self.family.canonical_bytes(self.h) + f"@{self.m}".encode()

    def to_json(self):
        obj = self.family.h_to_json(self.h)
        obj["m"] = self.m
        return obj

    def __repr__(self):
        return f"({self.family.format_h(self.h)}, {self.m})"


def identity_point(family):
    return GroupPoint(family, family.identity(), 0)


def alpha_point(family, k=1):
    return GroupPoint(family, family.identity(), k)


def h_point(family, h):
    return GroupPoint(family, h, 0)


def point_from_json(family, obj):
    return GroupPoint(family, family.h_from_json(obj), json_field(obj, "m", int, 0))


# ---------------------------------------------------------------------------
# Words and normal forms
# ---------------------------------------------------------------------------


def check_word(family, letters):
    for letter in letters:
        if letter in (ALPHA, ALPHA_INV):
            continue
        if isinstance(letter, Gen):
            if not family.in_A(letter.payload):
                raise WordError(f"generator {family.format_h(letter.payload)} is not in A")
        else:
            raise WordError(f"bad letter {letter!r}")


def evaluate(family, letters):
    """Left-to-right product of the letters, starting at the identity: an
    A-letter g takes (h, m) to (h . alpha^m(g), m), and alpha+- moves m."""
    check_word(family, letters)
    h, m = family.identity(), 0
    for letter in letters:
        if isinstance(letter, Gen):
            h = family.multiply(h, family.alpha_pow(letter.payload, m))
        else:
            m += 1 if letter == ALPHA else -1
    return GroupPoint(family, h, m)


@dataclass(frozen=True)
class NormalForm:
    """The canonical shape alpha^-i g_1 ... g_k alpha^j with g_s in A."""

    family: object
    i: int
    gs: tuple
    j: int

    @property
    def k(self):
        return len(self.gs)

    def length(self):
        return self.i + len(self.gs) + self.j

    def to_word(self):
        return [ALPHA_INV] * self.i + [Gen(g) for g in self.gs] + [ALPHA] * self.j

    def evaluate(self):
        return evaluate(self.family, self.to_word())

    def __repr__(self):
        gs = " ".join(self.family.format_h(g) for g in self.gs)
        return f"a^-{self.i} [{gs}] a^{self.j}"


def rewrite_to_normal_form(family, letters):
    """Move negative alpha-powers to the left and positive ones to the
    right, conjugating the A-letters they hop over (each hop applies
    alpha, which keeps them in A).  The result evaluates to the same
    element and is never longer than the input; on geodesic words the
    length is preserved exactly.
    """
    check_word(family, letters)
    i, gs, t = 0, [], 0
    for letter in letters:
        if letter == ALPHA:
            t += 1
        elif letter == ALPHA_INV:
            t -= 1
        else:
            if t >= 0:
                gs.append(family.alpha_pow(letter.payload, t))
            else:
                i += -t
                gs = [family.alpha_pow(g, -t) for g in gs]
                gs.append(letter.payload)
                t = 0
    if t < 0:
        i += -t
        gs = [family.alpha_pow(g, -t) for g in gs]
        t = 0
    return NormalForm(family, i, tuple(gs), t)


def k0_bound(n0):
    """Uniform bound on the A-block length of geodesic normal forms."""
    import math

    return math.ceil(4 * math.log2(n0 + 2))


# ---------------------------------------------------------------------------
# Exact word length
# ---------------------------------------------------------------------------


def word_length(x):
    """Exact d_S(1, x) = min over i >= max(0, -m) of
    2i + m + a_length(alpha^i(h)), where x = (h, m).

    The minimization stops at the first i with a_length <= 1: beyond it
    the objective strictly increases because a_length(alpha(h)) <=
    a_length(h).  Finiteness is guaranteed by the confining union axiom.
    """
    return _length_scan(x)[0]


def _length_scan(x):
    """word_length's scan: (length, the first i attaining it, alpha^i(h))."""
    family = x.family
    _require_validated(family)
    best, i = None, max(0, -x.m)
    g = family.alpha_pow(x.h, i)
    while True:
        la = family.a_length(g)
        if la is not INF:
            cost = 2 * i + x.m + la
            if best is None or cost < best:
                best, best_i, best_g = cost, i, g
            if la <= 1:
                return best, best_i, best_g
        i += 1
        g = family.alpha_pow(g, 1)
        if i > 10**6:
            raise WordError("word_length failed to terminate; broken family?")


def _require_validated(family):
    if not (family.a_length_validated or family.trusted):
        raise UnvalidatedFamilyError(
            f"{family.name}: a_length has not been validated against the "
            "brute-force oracle; trust it with family.unchecked() (--unchecked)"
        )


# Pairs per block of rows in _encoded_word_lengths, and products per block of
# frontier rows in breadth_first: bounds every array temporary (512 kB each,
# so they stay in cache) whatever the size of the ball or of the frontier.
PAIRS_PER_BLOCK = 1 << 16

# The most points ball_points keeps and bfs_oracle reaches: either matrix
# holds n^2 int64 distances (800 MB at the limit) and the delta kernel several
# n x n temporaries, so more is a configuration error, not an allocation failure.
BALL_POINT_LIMIT = 10_000


def pairwise_word_lengths(xs, ys):
    """d(x, y) for every x in xs and y in ys, as an int64 array.

    word_length's closed form on all pairs at once: x^-1 y = (g, m) with
    g = alpha^-m_x(h_x^-1 h_y) and m = m_y - m_x, and the minimum over
    i >= max(0, -m) of 2i + m + a_length(alpha^i g) runs as array steps up
    to the same stopping index, the first such i with a_length <= 1 (the
    pair kernel of the family's basis gives it).  Both sides are encoded
    once on one basis, the rows in order of m_x, and go through
    _encoded_word_lengths with every column in each block.
    """
    if not xs or not ys:
        return np.zeros((len(xs), len(ys)), dtype=np.int64)
    family = xs[0].family
    if any(p.family != family for p in itertools.chain(xs, ys)):
        raise WordError("mixed families")
    _require_validated(family)
    basis = family.basis([p.h for p in itertools.chain(xs, ys)], 1, 0)
    row_ms = np.array([x.m for x in xs], dtype=np.int64)
    order = np.argsort(row_ms, kind="stable")
    R = basis.encode([xs[i].h for i in order.tolist()])
    C = basis.encode([y.h for y in ys])
    return _encoded_word_lengths(basis, R, row_ms[order], C, np.array([y.m for y in ys], dtype=np.int64), at=order)


def _encoded_word_lengths(basis, R, row_ms, C, col_ms, at=None, symmetric=False):
    """d(x_i, y_j) for encoded rows R and columns C, as an int64 array.

    Rows must come in order of m (row_ms ascending) and go in blocks of
    consecutive rows, which keeps each block's range of exponents short;
    a block has at most PAIRS_PER_BLOCK pairs.  Encoded row r is written
    straight to row at[r] of the result (row r when at is None).  With
    `symmetric`, C is R itself, column c goes to column at[c], and the
    matrix is symmetric with a zero diagonal: each block runs only
    against the columns from its own first row on and is mirrored, and
    blocks hold at most a third of the rows, so every set of points does
    about two thirds of the pairs or fewer.  The columns are moved to
    at[c] a block of rows at a time, so the result is the only
    matrix-sized array.
    """
    n_rows, n_cols = len(row_ms), len(col_ms)
    out = np.empty((n_rows, n_cols), dtype=np.int64)
    if not n_rows or not n_cols:
        return out
    at = np.arange(n_rows) if at is None else at
    step = PAIRS_PER_BLOCK // n_cols
    if symmetric:
        step = min(step, -(-n_rows // 3))
    step = max(1, step)
    for lo in range(0, n_rows, step):
        rows, cols = slice(lo, lo + step), slice(lo if symmetric else 0, None)
        block = _block_word_lengths(basis, basis.take(R, rows), row_ms[rows], basis.take(C, cols), col_ms[cols])
        out[at[rows], cols] = block
        if symmetric:
            out[at[cols], rows] = block.T
    if symmetric:
        # Column c of each row still holds encoded column c.
        to = np.argsort(at)
        for lo in range(0, n_rows, step):
            out[lo : lo + step] = out[lo : lo + step].take(to, axis=1)
    return out


def _block_word_lengths(basis, R, row_ms, C, col_ms, first=False):
    """The lengths of one block of pairs; with `first`, also each pair's
    first exponent that attains its minimum (the i of _length_scan)."""
    m = col_ms[None, :] - row_ms[:, None]
    settle, lengths = basis.pair_a_lengths(R, row_ms, C)
    if (settle == ARRAY_INF).any():
        raise WordError("word_length failed to terminate; broken family?")
    # Pair ij scans its own exponents k = start_ij + j, j = 0..span_ij.
    # Steps past a pair's stopping index cannot lower its minimum (2k + m
    # alone exceeds the cost there), so the longest span sets the loop.
    start = np.maximum(0, -m)
    span = np.maximum(start, settle) - start
    best = at = None
    for j in range(int(span.max()) + 1):
        k = start + j
        cost = lengths(k)
        cost += m
        cost += 2 * k
        if best is None:
            best, at = cost, k
            continue
        if first:
            at = np.where(cost < best, k, at)
        best = np.minimum(best, cost, out=best)
    return (best, at) if first else best


def _identity_row_lengths(family, basis, enc, ms):
    """d(1, x) for the points x encoded on `basis` as rows enc with
    exponents ms, as an int64 array: the identity row of
    _encoded_word_lengths, with no decoding of the points."""
    one = basis.encode([family.identity()])
    return _encoded_word_lengths(basis, one, np.zeros(1, dtype=np.int64), enc, ms)[0]


def geodesic_witness(x):
    """A word of length word_length(x) in normal-form shape evaluating to x."""
    _, i, g = _length_scan(x)
    gs = x.family.a_factorize(g)
    return [ALPHA_INV] * i + [Gen(a) for a in gs] + [ALPHA] * (x.m + i)


def distance(x, y):
    """Word distance d(x, y) = |x^-1 y|."""
    return word_length(x.inverse() * y)


# ---------------------------------------------------------------------------
# Windowed BFS oracle
# ---------------------------------------------------------------------------


class Products:
    """The batched group law for one list of generators.

    Points are batches (enc, ms): rows of the family's array encoding on
    a basis shared with the generators, and an int64 array of exponents.
    times() multiplies every point by every generator in one call, with
    row r * len(gens) + c holding x_r . s_c; the basis is wide enough for
    every product of at most `factors` generators.  A point's key is its
    encoded row plus m, so two points are equal exactly when their keys
    are; with every generator in H, every point has m = 0 and its key is
    its row's.
    """

    def __init__(self, gens, factors):
        self.family = gens[0].family
        if any(s.family != self.family for s in gens):
            raise WordError("mixed families")
        shift = max(0, factors - 1) * max(abs(s.m) for s in gens)
        self.basis = self.family.basis([s.h for s in gens], factors, shift)
        self.gens, self.gen_ms = self.encode(gens)
        self.in_H = not self.gen_ms.any()

    def encode(self, points):
        return self.basis.encode([x.h for x in points]), np.array([x.m for x in points], dtype=np.int64)

    def times(self, enc, ms):
        return self.basis.twisted_products(enc, ms, self.gens), (ms[:, None] + self.gen_ms).ravel()

    def take(self, enc, ms, rows):
        return self.basis.take(enc, rows), ms[rows]

    def concat(self, parts):
        return self.basis.concat([enc for enc, _ in parts]), np.concatenate([ms for _, ms in parts])

    def keys(self, enc, ms):
        if self.in_H:
            return self.basis.row_keys(enc)
        return list(zip(self.basis.row_keys(enc), ms.tolist()))

    def decode(self, enc, ms):
        return [GroupPoint(self.family, h, m) for h, m in zip(self.basis.decode(enc), ms.tolist())]


def _first_new(keys, seen):
    """Positions of the keys not in `seen`, first occurrences only, in
    order; adds those keys to `seen`."""
    out = []
    for r, key in enumerate(keys):
        if key not in seen:
            seen.add(key)
            out.append(r)
    return out


@dataclass
class Sweep:
    law: Products
    enc: object  # the points' rows on law.basis in BFS order, the identity first
    ms: np.ndarray  # their exponents
    depths: np.ndarray  # the BFS level of each point, ascending
    truncated: bool  # some product fell outside the window
    capped: bool  # the cap stopped the sweep
    closed: bool  # a level found nothing new before the cap or the last level

    def __len__(self):
        return len(self.ms)

    def points(self):
        return self.law.decode(self.enc, self.ms)


def breadth_first(law, levels, window=None, cap=None):
    """Level-synchronous BFS from the identity over the law's generators.

    Each level multiplies the frontier by every generator in blocks of
    frontier rows of at most PAIRS_PER_BLOCK products and keeps the new
    points in first-occurrence order (the order of a point-by-point scan
    of frontier x generators).  With a window, products outside it are
    dropped and the sweep is truncated; with a cap, checked after each
    block, the sweep stops at the first point beyond cap points, so it
    holds every depth below its last one.
    """
    enc, ms = law.encode([identity_point(law.family)])
    by_depth, seen, count = [(enc, ms)], set(law.keys(enc, ms)), 1
    step = max(1, PAIRS_PER_BLOCK // len(law.gen_ms))
    truncated = capped = closed = False
    for depth in range(1, levels + 1):
        found = []
        for lo in range(0, len(ms), step):
            cand, cand_ms = law.times(*law.take(enc, ms, slice(lo, lo + step)))
            if window is not None:
                inside = (np.abs(cand_ms) <= window.levels) & law.basis.in_window(cand, window)
                truncated = truncated or not inside.all()
                cand, cand_ms = law.take(cand, cand_ms, np.flatnonzero(inside))
            new = _first_new(law.keys(cand, cand_ms), seen)
            if cap is not None and count + len(new) > cap:
                new, capped = new[: cap + 1 - count], True
            found.append(law.take(cand, cand_ms, new))
            count += len(new)
            if capped:
                break
        enc, ms = law.concat(found)
        by_depth.append((enc, ms))
        if capped:
            break
        if not len(ms):
            closed = True
            break
    depths = np.repeat(np.arange(len(by_depth)), [len(ms) for _, ms in by_depth])
    return Sweep(law, *law.concat(by_depth), depths, truncated, capped, closed)


@dataclass
class BfsResult:
    family: object
    window: object
    radius: int
    points: dict  # key -> GroupPoint, in the sweep's order
    dist: dict  # key -> int
    trusted: set  # keys whose closed-form geodesic stays inside the window
    truncated: bool
    generators: list
    sweep: Sweep

    def distance_matrix(self):
        """All-pairs distances within the windowed Cayley graph (upper
        bounds for d_S away from the trusted set), from the sweep's own
        encoding sorted by key."""
        keys = list(self.points)
        order = sorted(range(len(keys)), key=keys.__getitem__)
        law = self.sweep.law
        enc, ms = law.take(self.sweep.enc, self.sweep.ms, np.array(order, dtype=np.intp))
        index = dict(zip(law.keys(enc, ms), range(len(keys))))
        step = len(self.generators)
        found = [index.get(key) for key in law.keys(*law.times(enc, ms))]
        adjacency = [[j for j in found[i * step : (i + 1) * step] if j is not None] for i in range(len(keys))]
        return graph_distance_matrix([keys[r].decode() for r in order], adjacency)


def bfs_oracle(family, window=None, radius=5):
    """Exact distances from the identity in the Cayley graph restricted
    to the window, over generators (windowed A) u {alpha+-}.

    Window distances can only overestimate d_S; an element is marked
    trusted when an explicitly verified geodesic witness stays inside
    the window (then both bounds meet and the value is exact).  The law
    holds products of radius + 1 generators, so the distance matrix
    multiplies the sweep's points once more on the same basis.  A sweep
    that passes BALL_POINT_LIMIT points raises a FamilyError.
    """
    if window is None:
        window = family.default_window(radius)
    by_key = {}
    for a in family.iter_A_window(window):
        if a == family.identity():
            continue
        for g in (a, family.invert(a)):
            if family.in_A(g) and family.in_window(g, window):
                by_key[family.canonical_bytes(g)] = GroupPoint(family, g, 0)
    gens = list(by_key.values()) + [alpha_point(family, 1), alpha_point(family, -1)]

    sweep = breadth_first(Products(gens, radius + 1), radius, window=window, cap=BALL_POINT_LIMIT)
    if sweep.capped:
        raise FamilyError(f"the BFS oracle passes the limit of {BALL_POINT_LIMIT} points")
    points = {x.key(): x for x in sweep.points()}
    dist = dict(zip(points, sweep.depths.tolist()))
    trusted = set(itertools.compress(points, _trusted_rows(sweep.law, sweep.enc, sweep.ms, window)))
    return BfsResult(family, window, radius, points, dist, trusted, sweep.truncated, gens, sweep)


def _trusted_rows(law, enc, ms, window):
    """Which of the points encoded as rows enc on law.basis, with exponents
    ms, have a closed-form geodesic witness inside the window, as a bool
    array: geodesic_witness walked and verified for every point at once.

    The identity row gives each point x = (h, m) its first minimising
    exponent i, and basis.a_factorize the A-letters a_1 .. a_k of
    alpha^i(h), a row outside every power of A having none.  The witness
    alpha^-i a_1 .. a_k alpha^(m+i) stays inside the window when i and |m|
    are at most its levels, and every letter and every prefix
    alpha^-i(a_1 .. a_j) lies in it; it is verified when the last prefix
    is h itself.  Identity letters end the shorter factorizations and
    leave their prefixes as they are.  Every prefix is one twisted sum
    (H is abelian), all in one call.  The identity row is one block: an
    oracle has at most BALL_POINT_LIMIT points.  Every point of the sweep
    has i <= d(1, x) <= its depth, so the law's basis, which holds twists
    up to the radius, holds alpha^i(h) and alpha^-i of its letters.
    """
    basis, n = law.basis, len(ms)
    one, rows = basis.encode([law.family.identity()]), np.arange(n)
    _, i = _block_word_lengths(basis, one, np.zeros(1, dtype=np.int64), enc, ms, first=True)
    ok = (i[0] <= window.levels) & (np.abs(ms) <= window.levels)
    i = np.where(ok, i[0], 0)
    letters, factored = basis.a_factorize(basis.twisted_sums(enc, i, rows, n))
    # Prefix j of row r, at row j * n + r, sums letters l <= j of row r.
    k = len(letters)
    l, j = np.triu_indices(k)
    S = basis.concat(letters)
    src, dst = (l[:, None] * n + rows).ravel(), (j[:, None] * n + rows).ravel()
    prefixes = basis.twisted_sums(basis.take(S, src), np.tile(-i, len(l)), dst, k * n)
    ok &= factored & basis.in_window(S, window).reshape(k, n).all(axis=0)
    ok &= basis.in_window(prefixes, window).reshape(k, n).all(axis=0)
    last = basis.row_keys(basis.take(prefixes, slice((k - 1) * n, None)))
    return ok & np.array([p == h for p, h in zip(last, basis.row_keys(enc))], dtype=bool)


# ---------------------------------------------------------------------------
# Ball generation and samplers
# ---------------------------------------------------------------------------


def ball_points(family, radius, window=None, sample=None, seed=0):
    """Points of B(radius), sorted by key, with exact pairwise distances.

    Exhaustive over the windowed slice of G by default (every window
    element h with every exponent |m| <= levels); when `sample` is given,
    a deterministic seeded sample of that size is drawn instead.  The
    candidates' H-elements are encoded once on one basis (the window's
    elements, or the sampled points' h), and the candidates are one take
    of that encoding with their exponents as an int64 array.  The
    identity row over them is the radius filter.  Keys come from
    canonical_bytes(h), once per window element, plus @m, and only the
    kept points become GroupPoints.  The kept rows run against themselves
    as a triangle: in order of m, each block of rows only against the
    columns from its own start on, mirrored, and written straight to its
    points' rows and columns in key order.  Returns (points,
    DistanceMatrix).
    """
    _require_validated(family)
    if window is None:
        window = family.default_window(radius)
    if sample is None:
        hs = list(family.iter_window(window))
        h_of = np.repeat(np.arange(len(hs)), 2 * window.levels + 1)
        ms = np.tile(np.arange(-window.levels, window.levels + 1, dtype=np.int64), len(hs))
    else:
        drawn = sample_points(family, sample, max_len=radius, seed=seed, window=window)
        hs = [x.h for x in drawn]
        h_of = np.arange(len(hs))
        ms = np.array([x.m for x in drawn], dtype=np.int64)
    basis = family.basis(hs, 1, 0)
    cands = basis.take(basis.encode(hs), h_of)
    lengths = _identity_row_lengths(family, basis, cands, ms)
    kept = np.flatnonzero(lengths <= radius)
    if len(kept) > BALL_POINT_LIMIT:
        raise FamilyError(f"the ball has {len(kept)} points, above the limit of {BALL_POINT_LIMIT}")
    h_of, ms = h_of[kept].tolist(), ms[kept]
    h_keys = {i: family.canonical_bytes(hs[i]) for i in set(h_of)}
    keys = [h_keys[i] + b"@%d" % m for i, m in zip(h_of, ms.tolist())]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    pts = [GroupPoint(family, hs[h_of[r]], m) for r, m in zip(order, ms[order].tolist())]
    ids = [keys[r].decode() for r in order]
    # The matrix runs on the sorted points in order of m: its encoded row
    # r is sorted point by_m[r].
    by_m = np.argsort(ms[order], kind="stable")
    rows = np.array(order, dtype=np.intp)[by_m]
    R = basis.take(cands, kept[rows])
    d = _encoded_word_lengths(basis, R, ms[rows], R, ms[rows], at=by_m, symmetric=True)
    return pts, DistanceMatrix(ids, d)


def random_word(family, rng, max_len, a_letters):
    length = rng.randint(0, max_len)
    letters = []
    for _ in range(length):
        r = rng.random()
        if r < 0.25:
            letters.append(ALPHA)
        elif r < 0.5:
            letters.append(ALPHA_INV)
        else:
            letters.append(Gen(rng.choice(a_letters)))
    return letters


class _WindowALetters(Sequence):
    """The A-letters of a window other than the identity, in
    iter_A_window order, each built when it is drawn: a windowed A can be
    far too large to list (lamplighter(q) has q^4 letters at radius 7)."""

    def __init__(self, family, window):
        self.family, self.window = family, window
        self.size, self.identity_at = family.a_window_shape(window)

    def __len__(self):
        return self.size - 1

    def __getitem__(self, i):
        if not 0 <= i < len(self):
            raise IndexError(i)
        return self.family.a_window_letter(self.window, i + (i >= self.identity_at))


def window_a_letters(family, window):
    return _WindowALetters(family, window)


def sample_points(family, count, max_len=8, seed=0, window=None):
    """Deterministic sample of distinct group points: evaluates random
    words over windowed A-letters and alpha+-, dropping duplicates.  Each
    A-letter is built from the index drawn, so the window's A is never
    listed."""
    basis, enc, ms = _sample_encoded(family, count, max_len, seed, window)
    return [GroupPoint(family, h, m) for h, m in zip(basis.decode(enc), ms.tolist())]


def _sample_encoded(family, count, max_len=8, seed=0, window=None):
    """sample_points as (basis, enc, ms): the kept points in draw order,
    encoded on one basis and not decoded.

    Words are drawn in chunks with random_word's RNG calls; a letter index
    drawn from range(len(a_letters)) consumes the stream as drawing the
    letter does.  A chunk is evaluated as one batch: each A-letter twisted
    by its prefix exponent and summed per word (H is abelian) on the basis
    of the letters drawn so far, then deduplicated on (row key, m) in draw
    order.  A chunk that draws a new letter rebuilds the basis and
    re-encodes the points kept so far.  Words drawn past the point where a
    word-by-word loop stops are ignored, and an A-letter drawn from a
    window whose A is the identity alone raises only if that loop would
    have drawn it.
    """
    if window is None:
        window = family.default_window(max_len)
    rng = random.Random(seed)
    a_letters = window_a_letters(family, window)
    indices = range(len(a_letters))
    letters, row_of = [], {}  # the distinct letters drawn, and the row of each index
    basis = family.basis(letters, max_len, max_len)
    letter_enc = kept = basis.encode(letters)
    kept_ms, seen = np.zeros(0, dtype=np.int64), set()
    attempts = 0
    while len(kept_ms) < count and attempts < 50 * count:
        # The first chunk has a word per missing point, later ones twice
        # that many times the words drawn per point kept so far.
        missing = count - len(kept_ms)
        size = -(-2 * missing * attempts // len(kept_ms)) if len(kept_ms) else missing
        size = min(size, 50 * count - attempts)
        known, error = len(letters), None
        word_of, rows, twists, ms = [], [], [], []
        try:
            for w in range(size):
                m = 0
                for letter in random_word(family, rng, max_len, indices):
                    if not isinstance(letter, Gen):
                        m += 1 if letter == ALPHA else -1
                        continue
                    i = letter.payload
                    if i not in row_of:
                        row_of[i] = len(letters)
                        letters.append(a_letters[i])
                        check_word(family, [Gen(letters[-1])])
                    word_of.append(w)
                    rows.append(row_of[i])
                    twists.append(m)
                ms.append(m)
        except IndexError as exc:  # a window whose A is the identity alone
            error = exc
        if len(letters) > known:
            new_basis = family.basis(letters, max_len, max_len)
            letter_enc = new_basis.encode(letters)
            kept = new_basis.encode(basis.decode(kept))
            seen = set(zip(new_basis.row_keys(kept), kept_ms.tolist()))
            basis = new_basis
        ms = np.array(ms, dtype=np.int64)
        enc = basis.twisted_sums(
            basis.take(letter_enc, np.array(rows, dtype=np.intp)),
            np.array(twists, dtype=np.int64),
            np.array(word_of, dtype=np.intp),
            len(ms),
        )
        new = _first_new(list(zip(basis.row_keys(enc), ms.tolist())), seen)[:missing]
        kept = basis.concat([kept, basis.take(enc, new)])
        kept_ms = np.concatenate([kept_ms, ms[new]])
        attempts += len(ms)
        if error is not None and len(kept_ms) < count:
            raise error
    return basis, kept, kept_ms


# ---------------------------------------------------------------------------
# Distortion of H inside G
# ---------------------------------------------------------------------------


@dataclass
class DistortionReport:
    family: dict
    window: dict
    m_max: int
    checked: int
    violations: list
    complete: bool

    @property
    def passed(self):
        return not self.violations

    def as_dict(self):
        return {
            "family": self.family,
            "window": self.window,
            "m_max": self.m_max,
            "checked": self.checked,
            "violations": self.violations,
            "complete": self.complete,
            "passed": self.passed,
        }


def distortion_check(family, m_max=3, window=None, samples=1000, seed=0, exhaustive_cap=4096):
    """Verify that products of 2^m windowed A-elements have word length
    <= 2*n0*m + 1 for m <= m_max.

    A contains the identity, so the set A^(2^m) of <= 2^m-fold products is
    the ball of radius 2^m in the A-word metric: the points of depth
    <= 2^m of one BFS over A, capped at exhaustive_cap (on lamplighter
    families A.A = A, and the sweep closes at depth 2).  From the first
    level whose ball passes the cap on, each level checks seeded random
    products instead: letter indices drawn as rng.choice(a_window) would
    draw the letters, and each product the sum of its letters' rows of the
    law's generators (H is abelian).  The balls and the samples stay
    encoded on the sweep's basis: their lengths are one identity row, and
    only the violating elements are decoded.
    """
    if window is None:
        window = family.default_window(6)
    a_window = list(family.iter_A_window(window))
    law = Products([h_point(family, a) for a in a_window], 2**m_max)
    sweep = breadth_first(law, 2**m_max, cap=exhaustive_cap)
    # A capped sweep holds every depth below its last one.
    whole = sweep.depths[-1] - 1 if sweep.capped else 2**m_max
    exhaustive = [m for m in range(1, m_max + 1) if 2**m <= whole]
    # Level m checks rows [lo, hi) of one encoding: each ball is a prefix
    # of the sweep, and the sampled levels follow the largest one.
    rows = [(0, int(np.searchsorted(sweep.depths, 2**m, side="right"))) for m in exhaustive]
    size = rows[-1][1] if rows else 0
    parts = [law.take(sweep.enc, sweep.ms, slice(0, size))]
    rng, indices = random.Random(seed), range(len(a_window))
    for m in range(len(exhaustive) + 1, m_max + 1):
        picks = np.array([rng.choice(indices) for _ in range(samples * 2**m)], dtype=np.intp)
        word = np.repeat(np.arange(samples), 2**m)
        enc = law.basis.twisted_sums(law.basis.take(law.gens, picks), np.zeros(len(picks), dtype=np.int64), word, samples)
        rows.append((size, size + samples))
        size += samples
        parts.append((enc, np.zeros(samples, dtype=np.int64)))
    enc, ms = law.concat(parts)
    lengths = _identity_row_lengths(family, law.basis, enc, ms)
    violations = []
    for m, (lo, hi) in enumerate(rows, 1):
        bound = 2 * family.n0 * m + 1
        bad = lo + np.flatnonzero(lengths[lo:hi] > bound)
        for h, wl in zip(law.basis.decode(law.basis.take(enc, bad)), lengths[bad].tolist()):
            violations.append({"m": m, "h": family.format_h(h), "length": wl, "bound": bound})
    return DistortionReport(
        family=family.config(),
        window=window.as_dict(),
        m_max=m_max,
        checked=sum(hi - lo for lo, hi in rows),
        violations=violations[:10],
        complete=len(exhaustive) == m_max,
    )


# ---------------------------------------------------------------------------
# Word syntax: "a- g{0:1} a+"
# ---------------------------------------------------------------------------


def parse_word(family, text):
    letters = []
    for token in text.split():
        if token == "a+":
            letters.append(ALPHA)
        elif token == "a-":
            letters.append(ALPHA_INV)
        elif token.startswith("g{") and token.endswith("}"):
            letters.append(Gen(family.parse_gen(token[2:-1])))
        else:
            raise WordError(f"bad word token {token!r}")
    check_word(family, letters)
    return letters


def format_word(family, letters):
    parts = []
    for letter in letters:
        if letter == ALPHA:
            parts.append("a+")
        elif letter == ALPHA_INV:
            parts.append("a-")
        else:
            parts.append("g" + family.format_h(letter.payload))
    return " ".join(parts)
