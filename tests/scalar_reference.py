"""Point-by-point references for the batched group-law consumers.

These are the scalar loops that breadth_first, the oracle's distance
matrix and trusted set, graph_distance_matrix, distortion_check's
squaring and the Schottky check replaced, the int64 candidate-argmax
form of the four-point kernel, the lamplighter delta ceiling's check
with a lowest differing position per pair of points, ball_points with
a GroupPoint per candidate and two full pairwise_word_lengths calls,
sample_points
drawing from a list of every windowed A-letter, the batched distances
to the axis {alpha^k}, the fixed-point identity behind the lineal /
focal verdict written in H's own operations, the Fraction loop over
sample pairs behind the embedding constants, and the multiply /
alpha_pow / in_A loop over the confining axioms; the tests pin the
faster versions' outputs, element order included, against them.
"""

import itertools
import random
from fractions import Fraction

import numpy as np

from focalgroups.families import ConfiningReport, FamilyError
from focalgroups.metric import DistanceMatrix, MetricError, QIReport, row_blocks
from focalgroups.words import (
    ALPHA,
    ALPHA_INV,
    DistortionReport,
    Gen,
    GroupPoint,
    alpha_point,
    evaluate,
    geodesic_witness,
    h_point,
    identity_point,
    pairwise_word_lengths,
    random_word,
    word_length,
)


def graph_distance_matrix(points, src, dst):
    """metric.graph_distance_matrix with one Python BFS per source over
    adjacency lists."""
    n = len(points)
    adjacency = [[] for _ in range(n)]
    for u, v in zip(src, dst):
        adjacency[u].append(v)
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


def ball_points(family, radius, window=None, sample=None, seed=0):
    """words.ball_points with a GroupPoint per candidate: the identity row
    over the candidates filters them, and the kept points, sorted by key,
    give the whole matrix from a second pairwise_word_lengths call."""
    if window is None:
        window = family.default_window(radius)
    if sample is None:
        levels = range(-window.levels, window.levels + 1)
        candidates = [GroupPoint(family, h, m) for h in family.iter_window(window) for m in levels]
    else:
        candidates = sample_points(family, sample, max_len=radius, seed=seed, window=window)
    lengths = pairwise_word_lengths([identity_point(family)], candidates)[0]
    pts = sorted((x for x, ell in zip(candidates, lengths) if ell <= radius), key=GroupPoint.key)
    d = pairwise_word_lengths(pts, pts)
    ids = [x.key().decode() for x in pts]
    return pts, DistanceMatrix(ids, d)


def delta_ceiling(basis, enc, ms, d):
    """LamplighterBasis.delta_ceiling with the lowest differing position
    found again for every pair of points, through tree_pairs a block of
    rows at a time."""
    if not basis.twisted:
        return None
    span = max(abs(basis.lo), abs(basis.hi) + 1, int(np.abs(ms).max(initial=0)))
    dtype = np.promote_types(d.dtype, np.min_scalar_type(-(4 * span + 2)))
    for rows in row_blocks(len(ms), len(ms)):
        d_T, differs = basis.tree_pairs(enc[rows], ms[rows], enc, ms, dtype)
        d_T += differs
        if not np.array_equal(d_T, d[rows]):
            return None
    return Fraction(1)


def defect2_at(d, xs):
    """metric._defect2_at on int64 Gromov products, taking at each level
    the argmax of v - g[y,z] over every reached (basepoint, y, z)."""
    xs = np.asarray(xs, dtype=np.intp)
    order = np.argsort(-d[xs], axis=1, kind="stable")
    dx = np.take_along_axis(d[xs], order, axis=1)
    g = dx[:, :, None] + dx[:, None, :] - d[order[:, :, None], order[:, None, :]]
    levels = np.unique(g)[::-1]
    prefix = (2 * dx[:, :, None] >= levels).sum(axis=1).max(axis=0)
    gmin, rows = int(levels[-1]), np.arange(len(xs))
    best = np.zeros(len(xs), dtype=np.int64)
    at = np.zeros(len(xs), dtype=np.intp)
    for v, k in zip(levels.tolist(), prefix.tolist()):
        if v - gmin <= best.min():
            break
        gk = g[:, :k, :k]
        b = (gk >= v).astype(np.float32)
        cand = np.where(np.matmul(b, b) > 0, v - gk, 0).reshape(len(xs), -1)
        arg = cand.argmax(axis=1)
        top = cand[rows, arg]
        better = top > best
        best[better] = top[better]
        at[better] = np.ravel_multi_index(np.unravel_index(arg[better], (k, k)), g.shape[1:])
    y, z = np.unravel_index(at, g.shape[1:])
    return best, np.stack([order[rows, y], order[rows, z]], axis=1)


def subgroup_closure(generators, L, cap):
    """(elements, closed, capped) of words of length <= L over the
    generators and their inverses, multiplying one point at a time."""
    family = generators[0].family
    gens = []
    seen_gen = set()
    for g in list(generators) + [g.inverse() for g in generators]:
        if g.key() not in seen_gen:
            seen_gen.add(g.key())
            gens.append(g)
    start = identity_point(family)
    elems = {start.key(): start}
    frontier = [start]
    capped = False
    for _ in range(L):
        nxt = []
        for x in frontier:
            for s in gens:
                y = x * s
                if y.key() not in elems:
                    elems[y.key()] = y
                    nxt.append(y)
                    if len(elems) > cap:
                        capped = True
                        break
            if capped:
                break
        frontier = nxt
        if capped or not frontier:
            break
    closed = not frontier and not capped
    return list(elems.values()), closed, capped


def oracle_sweep(gens, window, radius):
    """(points, dist, truncated) of the windowed BFS from the identity."""
    family = gens[0].family
    start = identity_point(family)
    dist = {start.key(): 0}
    points = {start.key(): start}
    frontier = [start]
    truncated = False
    for d in range(radius):
        nxt = []
        for x in frontier:
            for s in gens:
                y = x * s
                if not (abs(y.m) <= window.levels and family.in_window(y.h, window)):
                    truncated = True
                    continue
                k = y.key()
                if k not in dist:
                    dist[k] = d + 1
                    points[k] = y
                    nxt.append(y)
        frontier = nxt
        if not frontier:
            break
    return points, dist, truncated


def oracle_distance_matrix(res):
    """BfsResult.distance_matrix with one scalar product per edge."""
    keys = sorted(res.points)
    index = {k: i for i, k in enumerate(keys)}
    src, dst = [], []
    for i, k in enumerate(keys):
        x = res.points[k]
        for s in res.generators:
            j = index.get((x * s).key())
            if j is not None:
                src.append(i)
                dst.append(j)
    return graph_distance_matrix([k.decode() for k in keys], src, dst)


def witness_in_window(x, window):
    """The oracle's trusted-set test, multiplying GroupPoints letter by
    letter along the geodesic witness."""
    # The oracle is ungated, so it trusts every family's a_length.
    family = x.family.unchecked()
    try:
        letters = geodesic_witness(GroupPoint(family, x.h, x.m))
    except FamilyError:
        return False
    pos = identity_point(family)
    for letter in letters:
        if isinstance(letter, Gen) and not family.in_window(letter.payload, window):
            return False
        pos = pos * (
            alpha_point(family, 1)
            if letter == ALPHA
            else alpha_point(family, -1) if letter == ALPHA_INV else h_point(family, letter.payload)
        )
        if not (abs(pos.m) <= window.levels and family.in_window(pos.h, window)):
            return False
    return pos == x


def distortion_check(family, m_max=3, window=None, samples=1000, seed=0, exhaustive_cap=4096):
    """words.distortion_check squaring a set of H-elements one product at
    a time, with one scalar word_length per checked element."""
    if window is None:
        window = family.default_window(6)
    a_window = list(family.iter_A_window(window))
    rng = random.Random(seed)
    violations = []
    checked = 0
    complete = True
    current, exhaustive = set(a_window), True
    for m in range(1, m_max + 1):
        bound = 2 * family.n0 * m + 1
        if exhaustive:
            nxt = set()
            for a in current:
                for b in current:
                    nxt.add(family.multiply(a, b))
                    if len(nxt) > exhaustive_cap:
                        break
                if len(nxt) > exhaustive_cap:
                    break
            if len(nxt) > exhaustive_cap:
                exhaustive = False
                complete = False
            else:
                current = nxt
        if exhaustive:
            batch = current
        else:
            batch = []
            for _ in range(samples):
                h = family.identity()
                for _ in range(2**m):
                    h = family.multiply(h, rng.choice(a_window))
                batch.append(h)
        for h in batch:
            checked += 1
            wl = word_length(h_point(family, h))
            if wl > bound:
                violations.append({"m": m, "h": family.format_h(h), "length": wl, "bound": bound})
    return DistortionReport(
        family=family.config(),
        window=window.as_dict(),
        m_max=m_max,
        checked=checked,
        violations=violations[:10],
        violation_count=len(violations),
        complete=complete,
    )


def qi_embedding_check(samples):
    """metric.qi_embedding_check as a Fraction loop over every pair of
    samples, taking any rational distances."""
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


def schottky(a, b, L):
    """(qi report dict, injective, words_checked, collision), one word at a time."""
    seen = {}
    samples = set()
    collision = None
    frontier = [(identity_point(a.family), "")]
    count = 0
    for _ in range(L):
        nxt = []
        for x, w in frontier:
            for g, tag in ((a, "a"), (b, "b")):
                y, wy = x * g, w + tag
                count += 1
                key = y.key()
                if key in seen and collision is None:
                    collision = (seen[key], wy)
                if key not in seen:
                    seen[key] = wy
                samples.add((len(wy), word_length(y)))
                nxt.append((y, wy))
        frontier = nxt
    injective = collision is None
    report = qi_embedding_check(sorted(samples))
    report.injective = report.injective and injective
    return report.as_dict(), injective, count, collision


def sample_points(family, count, max_len=8, seed=0, window=None):
    """words.sample_points drawing each A-letter from a list of every
    non-identity windowed A-letter; a window with none has nothing to
    draw."""
    if window is None:
        window = family.default_window(max_len)
    rng = random.Random(seed)
    a_letters = [a for a in family.iter_A_window(window) if a != family.identity()]
    if count > 0 and not a_letters:
        raise FamilyError("cannot sample a window whose A holds only the identity")
    seen, out = set(), []
    attempts = 0
    while len(out) < count and attempts < 50 * count:
        attempts += 1
        x = evaluate(family, random_word(family, rng, max_len, a_letters))
        if x.key() not in seen:
            seen.add(x.key())
            out.append(x)
    return out


def axis_distances(xs):
    """boundary.axis_distance(x) for every x in xs, as an int64 array.

    One pairwise_word_lengths call against alpha^k for k in [min m, max m]
    gives each base = d(x, alpha^m_x); a second one over k widened by the
    largest base covers every x's window [m_x - base, m_x + base], and
    the columns outside it are true distances no smaller than base, so
    each row minimum is exact."""
    if not xs:
        return np.zeros(0, dtype=np.int64)
    family = xs[0].family
    ms = np.array([x.m for x in xs], dtype=np.int64)
    lo, hi = int(ms.min()), int(ms.max())
    near = pairwise_word_lengths(xs, [alpha_point(family, k) for k in range(lo, hi + 1)])
    reach = int(near[np.arange(len(xs)), ms - lo].max())
    axis = [alpha_point(family, k) for k in range(lo - reach, hi + reach + 1)]
    return pairwise_word_lengths(xs, axis).min(axis=1)


def fixes_fixed_point(g0, g):
    """Whether g = (h, m) fixes the second fixed point of g0 = (h0, m0),
    m0 != 0: (1 - alpha^m0) h == (1 - alpha^m) h0 in H, each side written
    as x * alpha^k(x)^-1 with the family's multiply, invert and alpha_pow."""
    f = g0.family

    def one_minus_alpha(k, h):
        return f.multiply(h, f.invert(f.alpha_pow(h, k)))

    return one_minus_alpha(g0.m, g.h) == one_minus_alpha(g.m, g0.h)


def lineal_or_focal(generators):
    """The action type of a generator set with a hyperbolic generator:
    lineal iff every generator fixes the first hyperbolic one's second
    fixed point."""
    g0 = next(g for g in generators if g.m != 0)
    return "lineal" if all(fixes_fixed_point(g0, g) for g in generators) else "focal"


def verify_confining(family, window=None, exhaust_depth=8, max_elements=100000):
    """families.verify_confining as one family.in_A test per element and
    per pair, walking alpha for axiom (b)."""
    if window is None:
        window = family.default_window(6)
    report = ConfiningReport(
        family=family.config(),
        window=window.as_dict(),
        exhaust_depth=exhaust_depth,
        alpha_into_A=True,
        strict_witness=None,
        absorbed=True,
    )

    a_window = list(itertools.islice(family.iter_A_window(window), max_elements + 1))
    if len(a_window) > max_elements:
        a_window = a_window[:max_elements]
        report.complete = False

    for a in a_window:
        if not family.in_A(family.alpha(a)):
            report.alpha_into_A = False
            report.absorption_failures.append({"axiom": "alpha(A) in A", "witness": family.format_h(a)})
            break
    for a in a_window:
        # a is outside alpha(A) iff alpha^-1(a) is not in A.
        if not family.in_A(family.alpha_inv(a)):
            report.strict_witness = family.format_h(a)
            break

    count = 0
    for h in family.iter_window(window):
        count += 1
        if count > max_elements:
            report.complete = False
            break
        g, ok = h, False
        for _ in range(exhaust_depth + 1):
            if family.in_A(g):
                ok = True
                break
            g = family.alpha(g)
        if not ok:
            report.absorbed = False
            report.absorption_failures.append({"axiom": "union of alpha^-n(A) = H", "witness": family.format_h(h)})
            if len(report.absorption_failures) > 5:
                break

    pairs = itertools.product(a_window, a_window)
    for k, (a, b) in enumerate(pairs):
        if k >= max_elements:
            report.complete = False
            break
        prod = family.alpha_pow(family.multiply(a, b), family.n0)
        if not family.in_A(prod):
            report.product_absorbed = False
            report.product_failures.append(
                {"a": family.format_h(a), "b": family.format_h(b), "image": family.format_h(prod)}
            )
            if len(report.product_failures) > 5:
                break
    return report
