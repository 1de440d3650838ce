import io
import itertools
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import scalar_reference as ref
from hypothesis import example, given
from hypothesis import strategies as st

from focalgroups import cli, families, metric
from focalgroups.families import LamplighterFamily, LamplighterWindow
from focalgroups.metric import (
    DistanceMatrix,
    MetricError,
    PAIRED_PREFIX_LIMIT,
    delta_within_bound,
    four_point_delta,
    graph_distance_matrix,
    gromov_product,
    hyperbolicity_bound,
    qi_embedding_check,
    row_blocks,
    _defect2_at,
)
from focalgroups.trees import millefeuille, regular_tree_ball
from focalgroups.words import ball_points


def reference_delta(D):
    """Independent oracle: plain Fraction arithmetic over all quadruples."""
    pts = D.points
    gp = {(x, y, z): gromov_product(y, z, x, D) for x, y, z in itertools.product(pts, repeat=3)}
    best = Fraction(0)
    for x, y, z, w in itertools.product(pts, repeat=4):
        best = max(best, min(gp[x, y, w], gp[x, w, z]) - gp[x, y, z])
    return best


def quadruple_defect(D, x, y, z, w):
    """min[(y|w)_x, (w|z)_x] - (y|z)_x in Fraction arithmetic."""
    return min(gromov_product(y, w, x, D), gromov_product(w, z, x, D)) - gromov_product(y, z, x, D)


@st.composite
def graph_metrics(draw, max_n=12):
    """Graph metrics on a path through 1..max_n points plus random chords."""
    n = draw(st.integers(1, max_n))
    chords = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n))
    adjacency = [set() for _ in range(n)]
    for a, b in [(i, i + 1) for i in range(n - 1)] + chords:
        if a != b:
            adjacency[a].add(b)
            adjacency[b].add(a)
    return graph_distance_matrix(list(range(n)), [sorted(s) for s in adjacency])


def path_metric(n):
    d = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    return DistanceMatrix(list(range(n)), d)


def cycle_metric(n):
    i = np.arange(n)
    diff = np.abs(i[:, None] - i[None, :])
    return DistanceMatrix(list(range(n)), np.minimum(diff, n - diff))


def random_graph_metric(n, seed):
    rng = random.Random(seed)
    edges = [(i, i + 1) for i in range(n - 1)]
    for _ in range(n):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            edges.append((min(a, b), max(a, b)))
    adj = {i: set() for i in range(n)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    d = np.full((n, n), 10 * n, dtype=np.int64)
    for s in range(n):
        d[s, s] = 0
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if d[s, v] > d[s, u] + 1:
                        d[s, v] = d[s, u] + 1
                        nxt.append(v)
            frontier = nxt
    return DistanceMatrix(list(range(n)), d)


@st.composite
def adjacency_lists(draw):
    """Directed or undirected graphs on 0-20 or 63-90 vertices: half of
    them carry a spanning cycle (directed) or path (undirected), the rest
    are mostly disconnected; extra edges may repeat or be self-loops."""
    n = draw(st.one_of(st.integers(0, 20), st.integers(63, 90)), label="n")
    directed = draw(st.booleans(), label="directed")
    edges = []
    if draw(st.booleans(), label="spanning"):
        edges = [(i, (i + 1) % n) for i in range(n)] if directed else [(i, i + 1) for i in range(n - 1)]
    if n:
        edges += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n), label="extra")
    adjacency = [[] for _ in range(n)]
    for a, b in edges:
        adjacency[a].append(b)
        if not directed:
            adjacency[b].append(a)
    return adjacency


def distances_or_none(gdm, adjacency):
    try:
        D = gdm(list(range(len(adjacency))), adjacency)
    except MetricError:
        return None
    assert D.d.dtype.kind == "i"
    return D.d


class TestGraphDistanceMatrix:
    @given(adjacency=adjacency_lists())
    @example(adjacency=[])
    @example(adjacency=[[0, 0]])
    @example(adjacency=[[(i + 1) % 65, (i + 1) % 65] for i in range(65)])
    def test_matches_scalar_reference(self, adjacency):
        want = distances_or_none(ref.graph_distance_matrix, adjacency)
        got = distances_or_none(graph_distance_matrix, adjacency)
        assert (got is None) == (want is None)
        if want is not None:
            assert np.array_equal(got, want)

    def test_directed_orientation(self):
        # A directed 3-cycle 0 -> 1 -> 2 -> 0: d[s, t] runs from s to t.
        D = graph_distance_matrix(list("abc"), [[1], [2], [0]])
        assert D.d.tolist() == [[0, 1, 2], [2, 0, 1], [1, 2, 0]]

    @pytest.mark.parametrize(
        "adjacency",
        [
            [[1], [0], [0]],  # vertex 2 has no in-edges
            [[1], [2], [], [0]],  # 3 is unreachable and 2 reaches nothing
        ],
    )
    def test_directed_unreachable_raises(self, adjacency):
        for gdm in (graph_distance_matrix, ref.graph_distance_matrix):
            with pytest.raises(MetricError, match="graph is disconnected"):
                gdm(list(range(len(adjacency))), adjacency)

    def test_path(self):
        n = 6
        adjacency = [[j for j in (i - 1, i + 1) if 0 <= j < n] for i in range(n)]
        D = graph_distance_matrix(list("abcdef"), adjacency)
        assert D.points == list("abcdef")
        assert D.d.dtype.kind == "i"
        assert (D.d == path_metric(n).d).all()

    def test_cycle(self):
        for n in (3, 4, 7):
            adjacency = [[(i - 1) % n, (i + 1) % n] for i in range(n)]
            D = graph_distance_matrix(list(range(n)), adjacency)
            assert (D.d == cycle_metric(n).d).all()

    def test_disconnected_rejected(self):
        adjacency = [[1], [0], [3], [2]]
        for gdm in (graph_distance_matrix, ref.graph_distance_matrix):
            with pytest.raises(MetricError, match="graph is disconnected"):
                gdm(list(range(4)), adjacency)


class TestGromovProduct:
    def test_direct_formula(self):
        d = np.array([[0, 3, 5], [3, 0, 4], [5, 4, 0]])
        D = DistanceMatrix(["x", "y", "z"], d)
        assert gromov_product("z", "y", "x", D) == 2

    def test_identity_case(self):
        d = np.array([[0, 3, 5], [3, 0, 4], [5, 4, 0]])
        D = DistanceMatrix(["x", "y", "z"], d)
        assert gromov_product("x", "z", "x", D) == 0

    def test_equilateral(self):
        d = 2 * (1 - np.eye(3, dtype=np.int64))
        D = DistanceMatrix(["a", "b", "c"], d)
        assert gromov_product("b", "c", "a", D) == 1

    def test_unknown_point(self):
        D = path_metric(3)
        with pytest.raises(MetricError):
            gromov_product(0, 1, "nope", D)

    def test_base_change_bound(self):
        D = random_graph_metric(12, seed=5)
        pts = D.points
        rng = random.Random(0)
        for _ in range(300):
            x, w, y, z = (rng.choice(pts) for _ in range(4))
            lhs = abs(gromov_product(y, z, x, D) - gromov_product(y, z, w, D))
            assert lhs <= D.distance(x, w)


# The benchmark's ball matrices (its four certificate balls and the
# nadic:2 oracle window taken as a ball; the lamplighter:2 oracle window is
# the r5 ball's), the T3 x T4 radius-3 millefeuille, where delta = 0
# makes the kernel scan every level, and the nadic:3 radius-3 ball, whose
# prefixes (55, 197, 381, 472 at the basepoints below) run paired levels
# below PAIRED_PREFIX_LIMIT and single ones above it in one call.
KERNEL_MATRICES = {
    "lamplighter2-r4": ("lamplighter:2", 4, None),
    "lamplighter2-r5-window": ("lamplighter:2", 5, families.LamplighterWindow(-2, 2, 5)),
    "nadic2-r3": ("nadic:2", 3, None),
    "product-r2-window": (
        "product(lamplighter:2,nadic:2)",
        2,
        families.ProductWindow(families.LamplighterWindow(-1, 1, 2), families.NadicWindow(1, 1, 2), 2),
    ),
    "nadic2-r5-window": ("nadic:2", 5, families.NadicWindow(2, 2, 5)),
    "nadic3-r3": ("nadic:3", 3, None),
    "millefeuille-T3xT4-r3": None,
}


def kernel_matrix(key):
    if KERNEL_MATRICES[key] is None:
        return millefeuille(regular_tree_ball(2, 3), regular_tree_ball(3, 3)).distance_matrix()
    spec, radius, window = KERNEL_MATRICES[key]
    return ball_points(families.family_from_config(spec), radius, window=window)[1]


class TestFourPointDelta:
    def test_path_is_tree(self):
        assert four_point_delta(path_metric(3)).delta == 0

    def test_four_cycle(self):
        report = four_point_delta(cycle_metric(4))
        assert report.delta == reference_delta(cycle_metric(4)) == 1
        assert report.exhaustive

    def test_larger_cycles_match_reference(self):
        for n in (5, 6, 7):
            D = cycle_metric(n)
            assert four_point_delta(D).delta == reference_delta(D)

    def test_monotone_under_restriction(self):
        D = random_graph_metric(10, seed=1)
        full = four_point_delta(D).delta
        for k in (4, 6, 8):
            sub = four_point_delta(D.restrict(D.points[:k])).delta
            assert sub <= full

    def test_kernels_agree(self):
        for seed in range(4):
            D = random_graph_metric(14, seed=seed)
            expected = int(2 * reference_delta(D))
            defects, _ = _defect2_at(D.d, np.arange(len(D)))
            assert defects.max() == expected

    def test_sampled_mode_deterministic_and_bounded(self):
        D = random_graph_metric(80, seed=3)
        r1 = four_point_delta(D, seed=42)
        r2 = four_point_delta(D, seed=42)
        assert not r1.exhaustive and r1.method == "basepoints" and r1.seed == 42
        assert r1 == r2
        assert r1.samples == 2 * 80**3
        # the basepoint interval brackets the exhaustive constant
        full = four_point_delta(D, exhaustive_cutoff=len(D))
        assert full.exhaustive and full.delta == full.upper
        assert r1.delta <= full.delta <= r1.upper

    def test_quadruple_kernels_agree(self):
        D = random_graph_metric(30, seed=7)
        xs = np.arange(len(D))
        defects, yz = _defect2_at(D.d, xs)
        # no quadruple beats the kernel at its basepoint ...
        rng = np.random.default_rng(0)
        idx = rng.integers(0, len(D), size=(4, 5000), dtype=np.int64)
        for x, y, z, w in zip(*(map(int, row) for row in idx)):
            assert 2 * quadruple_defect(D, x, y, z, w) <= defects[x]
        # ... and each basepoint's pair (y, z) attains it with some w
        for x in xs.tolist():
            y, z = yz[x].tolist()
            assert max(2 * quadruple_defect(D, x, y, z, w) for w in range(len(D))) == defects[x]

    @given(D=graph_metrics())
    def test_exact_mode_matches_reference(self, D):
        report = four_point_delta(D)
        assert report.method == "exact" and report.seed is None
        assert report.delta == report.upper == reference_delta(D)
        assert quadruple_defect(D, *report.witness) == report.delta
        assert report.samples == len(D) ** 4

    @given(D=graph_metrics(), data=st.data())
    def test_basepoint_interval_brackets_reference(self, D, data):
        cutoff = data.draw(st.integers(0, len(D) - 1))
        seed = data.draw(st.integers(0, 2**32 - 1))
        report = four_point_delta(D, exhaustive_cutoff=cutoff, seed=seed)
        assert report.method == "basepoints" and report.seed == seed
        assert report.delta <= reference_delta(D) <= report.upper
        assert quadruple_defect(D, *report.witness) == report.delta
        assert report.samples == min(2, len(D)) * len(D) ** 3
        assert four_point_delta(D, exhaustive_cutoff=cutoff, seed=seed) == report

    @given(D=graph_metrics(), data=st.data())
    def test_kernel_matches_reference(self, D, data):
        """Equal (defects, yz) on drawn basepoint subsets, with the metric
        scaled so 2 max d lands on either side of 127 or 32,767: the edges
        of the int8, int16 and int32 Gromov-product types."""
        n, top = len(D), int(D.d.max())
        xs = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True), label="xs")
        limit = data.draw(st.sampled_from([None, 127, 32767]), label="limit")
        factor = 1 if limit is None or top == 0 else limit // (2 * top) + data.draw(st.integers(0, 1), label="over")
        d = D.d.astype(np.int64) * factor
        got, want = _defect2_at(d, xs), ref.defect2_at(d, xs)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("block", [1, 300])
    @given(D=graph_metrics(max_n=16), data=st.data())
    def test_kernel_chunks_match_reference(self, block, D, data):
        """Chunks of one basepoint, or of the few whose operands fit 300
        entries, give the (defects, yz) of the reference."""
        xs = data.draw(st.lists(st.integers(0, len(D) - 1), min_size=1, max_size=len(D), unique=True), label="xs")
        with mock.patch.object(metric, "PAIRS_PER_BLOCK", block):
            got = _defect2_at(D.d, xs)
        want = ref.defect2_at(D.d, xs)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("key", sorted(KERNEL_MATRICES))
    def test_kernel_matches_reference_on_benchmark_matrices(self, key):
        D = kernel_matrix(key)
        n = len(D)
        centre = int(np.argmin(D.d.max(axis=1)))
        xs = [centre, *np.random.default_rng(0).choice(n, 3, replace=False).tolist()]
        got, want = _defect2_at(D.d, xs), ref.defect2_at(D.d, xs)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_paired_kernel_sums_are_exact_at_the_limit(self):
        # Every entry of B at its largest, 1 + k (the most uint8 holds): each
        # sum of B @ B is k (k + 1)**2, the largest a paired product can
        # reach, and float32 must hold it and every partial sum exactly.
        k = PAIRED_PREFIX_LIMIT
        b = np.full((2, k, k), np.uint8(k + 1)).astype(np.float32)
        assert (np.matmul(b, b) == k * (k + 1) ** 2).all()
        assert k * (k + 1) ** 2 < 2**24 and k + 1 == np.iinfo(np.uint8).max

    @pytest.mark.parametrize(
        "key, method, interval",
        [
            # The lamplighter balls carry the proven ceiling 1, which the centre reaches.
            pytest.param("lamplighter2-r4", "ceiling", (1, 1), id="lamplighter2-r4"),
            pytest.param("lamplighter2-r5-window", "ceiling", (1, 1), id="lamplighter2-r5-window"),
            pytest.param("nadic2-r3", "basepoints", (Fraction(3, 2), 2), id="nadic2-r3"),
            pytest.param("product-r2-window", "basepoints", (1, 2), id="product-r2-window"),
        ],
    )
    def test_benchmark_ball_intervals(self, key, method, interval):
        D = kernel_matrix(key)
        report = four_point_delta(D)
        assert report.method == method
        assert (report.delta, report.upper) == interval
        assert quadruple_defect(D, *report.witness) == report.delta

    def test_report_json_fields(self):
        rep = four_point_delta(path_metric(5)).as_dict()
        assert set(rep) == {"delta", "upper", "method", "witness", "n_points", "exhaustive", "samples", "seed"}


@st.composite
def small_lamplighter_balls(draw):
    """Lamplighter balls cut to at most 64 points: a whole windowed ball
    or a seeded sample of one, restricted to a drawn subset."""
    family = LamplighterFamily(draw(st.sampled_from([2, 3]), label="q"))
    radius = draw(st.integers(0, 5), label="radius")
    window = LamplighterWindow(draw(st.integers(-2, 0), label="lo"), draw(st.integers(0, 2), label="hi"), radius)
    sample = None if radius <= 3 else draw(st.integers(1, 64), label="sample")
    D = ball_points(family, radius, window=window, sample=sample, seed=draw(st.integers(0, 9), label="seed"))[1]
    keep = draw(st.lists(st.integers(0, len(D) - 1), min_size=1, max_size=64, unique=True), label="keep")
    return D.restrict([D.points[i] for i in keep])


def encoded_rows(pts):
    """(basis, rows, ms) of ball points encoded on a basis of their own."""
    family = pts[0].family
    basis = family.basis([p.h for p in pts], 1, 0)
    return basis, basis.encode([p.h for p in pts]), np.array([p.m for p in pts], dtype=np.int64)


class TestDeltaCeiling:
    """delta <= 1 on lamplighter balls: proven from the coset tree on the
    ball's own matrix, and a ceiling that ends the kernel's scans."""

    @given(D=small_lamplighter_balls())
    def test_kernel_ceiling_changes_no_exact_report(self, D):
        report = four_point_delta(D)
        assert D.delta_ceiling == 1 and report.method == "exact" and report.delta <= 1
        assert report == four_point_delta(DistanceMatrix(D.points, D.d))

    def test_kernel_ceiling_at_every_basepoint(self):
        # Every basepoint of lamplighter:2 r4 attains 2 delta_x = 2, with the
        # ceiling or without, at the same pair; chunks of 16 basepoints.
        D = kernel_matrix("lamplighter2-r4")
        assert len(D) == 146 and D.delta_ceiling == 1
        for lo in range(0, len(D), 16):
            xs = np.arange(lo, min(lo + 16, len(D)))
            full, capped = _defect2_at(D.d, xs), _defect2_at(D.d, xs, ceiling=2)
            assert (full[0] == 2).all()
            assert np.array_equal(full[0], capped[0]) and np.array_equal(full[1], capped[1])

    @pytest.mark.parametrize("block", [1, metric.PAIRS_PER_BLOCK])
    def test_kernel_ceiling_needs_every_entry(self, block):
        # An entry on either side of the diagonal, checked in one block or
        # in a block per row.
        pts, D = ball_points(LamplighterFamily(2), 4)
        basis, rows, ms = encoded_rows(pts)
        i, j = D.index("L:-1:1,0:1,1:1,2:1@-1"), D.index("L:-1:1,0:1,1:1,2:1@-2")
        with mock.patch.object(metric, "PAIRS_PER_BLOCK", block):
            assert basis.delta_ceiling(rows, ms, D.d) == 1
            for entries in ([(i, j)], [(j, i)], [(i, j), (j, i)]):
                d = D.d.copy()
                for e in entries:
                    d[e] += 1
                assert basis.delta_ceiling(rows, ms, d) is None
        # The symmetric raise is still a metric, and with no ceiling it gets
        # the two-basepoint report, pinned here.
        raised = DistanceMatrix(D.points, d, basis.delta_ceiling(rows, ms, d)).validate()
        assert four_point_delta(raised).as_dict() == {
            "delta": 1.0,
            "upper": 2.0,
            "n_points": 146,
            "method": "basepoints",
            "samples": 2 * 146**3,
            "seed": 0,
            "witness": ["L:@0", "L:-2:1,-1:1,0:1,1:1,2:1@-1", "L:@-4", "L:-2:1,-1:1,0:1,1:1,2:1@-3"],
            "exhaustive": False,
        }

    @pytest.mark.parametrize("ceiling", [Fraction(3, 2), Fraction(2)])
    def test_kernel_ceiling_the_centre_misses_keeps_the_interval(self, ceiling):
        # nadic:2 r3 has delta = 3/2, and its centre gives only 1: under a
        # true ceiling it does not reach, the two-basepoint report stands.
        D = kernel_matrix("nadic2-r3")
        report = four_point_delta(DistanceMatrix(D.points, D.d, ceiling))
        assert report == four_point_delta(D) and report.method == "basepoints"

    @pytest.mark.parametrize(
        "family, window",
        [
            # alpha = id: lamps at positions >= 0 keep every length finite.
            pytest.param(families.SpoofIdentityFamily(2).unchecked(), LamplighterWindow(0, 2, 3), id="spoof-identity:2"),
            pytest.param(families.NadicFamily(2), None, id="nadic:2"),
            pytest.param(families.ProductFamily(LamplighterFamily(2), families.NadicFamily(2)), None, id="product"),
        ],
    )
    def test_no_ceiling_off_the_lamplighter_families(self, family, window):
        pts, D = ball_points(family, 3 if window else 2, window=window)
        basis, rows, ms = encoded_rows(pts)
        assert D.delta_ceiling is None and basis.delta_ceiling(rows, ms, D.d) is None

    def test_restrict_keeps_the_ceiling(self):
        D = kernel_matrix("lamplighter2-r4")
        assert D.restrict(D.points[::7]).delta_ceiling == 1
        assert DistanceMatrix(D.points, D.d).restrict(D.points[:3]).delta_ceiling is None

    def test_matrix_read_from_csv_has_no_ceiling(self, capsys):
        # The CSV of `ball` holds distances only: read back, the same ball
        # gets the two-basepoint interval, not the ceiling.
        assert cli.main(["ball", "--family", "lamplighter:2", "--radius", "4"]) == 0
        D = DistanceMatrix.from_csv(io.StringIO(capsys.readouterr().out))
        report = four_point_delta(D)
        assert D.delta_ceiling is None and report.method == "basepoints" and (report.delta, report.upper) == (1, 2)


class TestRowBlocks:
    @given(
        count=st.integers(0, 300),
        width=st.integers(1, 400),
        most=st.none() | st.integers(1, 50),
        block=st.sampled_from([1, 7, 100, metric.PAIRS_PER_BLOCK]),
    )
    def test_cover_in_order_within_both_bounds(self, count, width, most, block):
        # A row wider than the block still goes, alone.
        with mock.patch.object(metric, "PAIRS_PER_BLOCK", block):
            blocks = row_blocks(count, width, most)
        assert [i for b in blocks for i in range(count)[b]] == list(range(count))
        for b in blocks:
            size = b.stop - b.start
            assert size >= 1 and (size == 1 or size * width <= block)
            assert most is None or size <= most


class TestBoundComparison:
    def test_exact_bound_comparison(self):
        assert delta_within_bound(Fraction(16), 0)
        assert not delta_within_bound(Fraction(33, 2), 0)
        # 16*log2(3) = 25.36...: 25 is inside, 25.5 is not
        assert delta_within_bound(Fraction(25), 1)
        assert not delta_within_bound(Fraction(51, 2), 1)
        assert hyperbolicity_bound(0) == 16.0


class TestDistanceMatrix:
    def test_validate_rejects_bad_metrics(self):
        with pytest.raises(MetricError):
            DistanceMatrix([0, 1], np.array([[0, 1], [2, 0]])).validate()
        with pytest.raises(MetricError):
            DistanceMatrix([0, 1], np.array([[1, 1], [1, 0]])).validate()
        bad = np.array([[0, 1, 9], [1, 0, 1], [9, 1, 0]])
        with pytest.raises(MetricError):
            DistanceMatrix([0, 1, 2], bad).validate()

    def test_csv_round_trip(self):
        D = cycle_metric(5)
        buf = io.StringIO(D.csv_string())
        back = DistanceMatrix.from_csv(buf)
        assert back.points == [str(p) for p in D.points]
        assert (back.d == D.d).all()


class TestNarrowMatrices:
    """An int8 matrix with entries near 127, where sums of two distances
    leave int8, gives the answers of the same matrix in int64."""

    @staticmethod
    def pair():
        # A 5-cycle with edges of 60: the witness line's sums reach 240.
        wide = DistanceMatrix([f"p{i}" for i in range(5)], cycle_metric(5).d * 60)
        return DistanceMatrix(wide.points, wide.d.astype(np.int8)), wide

    def test_keeps_its_type(self):
        narrow, wide = self.pair()
        assert narrow.d.dtype == np.int8 and wide.d.dtype == np.int64
        assert int(narrow.d.max()) == 120

    def test_validate(self):
        narrow, _ = self.pair()
        assert narrow.validate() is narrow
        d = narrow.d.copy()
        d[0, 2] = d[2, 0] = 127  # 127 > d(0, 1) + d(1, 2) = 60 + 60
        with pytest.raises(MetricError, match="triangle"):
            DistanceMatrix(narrow.points, d).validate()

    def test_gromov_products(self):
        narrow, wide = self.pair()
        for x, y, z in itertools.product(narrow.points, repeat=3):
            assert gromov_product(y, z, x, narrow) == gromov_product(y, z, x, wide)

    def test_four_point_delta_and_witness(self):
        narrow, wide = self.pair()
        for cutoff in (5, 2):
            report = four_point_delta(narrow, exhaustive_cutoff=cutoff)
            assert report == four_point_delta(wide, exhaustive_cutoff=cutoff)
            assert quadruple_defect(narrow, *report.witness) == report.delta
        assert four_point_delta(narrow).delta == 60 * reference_delta(cycle_metric(5))

    def test_restrict(self):
        narrow, wide = self.pair()
        subset = narrow.points[::-2]
        got, want = narrow.restrict(subset), wide.restrict(subset)
        assert got.d.dtype == np.int8 and got.points == want.points and (got.d == want.d).all()

    def test_csv_round_trip(self):
        narrow, wide = self.pair()
        assert narrow.csv_string() == wide.csv_string()
        back = DistanceMatrix.from_csv(io.StringIO(narrow.csv_string()))
        assert back.points == narrow.points and back.d.dtype == np.int64 and (back.d == wide.d).all()

    def test_unsigned_and_float_become_int64(self):
        for d in (np.eye(2, dtype=np.uint8), np.eye(2), [[0, 1], [1, 0]]):
            assert DistanceMatrix([0, 1], d).d.dtype == np.int64


class TestQIEmbedding:
    def test_identity_samples(self):
        rep = qi_embedding_check([(n, n) for n in range(10)])
        assert rep.multiplicative_constant == 1
        assert rep.additive_constant == 0
        assert rep.injective

    def test_affine_samples(self):
        rep = qi_embedding_check([(n, 2 * n + 1) for n in range(1, 12)])
        assert rep.multiplicative_constant == 2
        assert rep.additive_constant == 1

    def test_collapse_not_injective(self):
        rep = qi_embedding_check([(0, 0), (3, 0)])
        assert not rep.injective

    def test_empty_samples_rejected(self):
        with pytest.raises(MetricError):
            qi_embedding_check([])

    @pytest.mark.parametrize("samples", [[(1, Fraction(1, 2))], [(1.0, 2)], [(0, 0), (2, "3")]])
    def test_non_integer_samples_rejected(self, samples):
        with pytest.raises(MetricError):
            qi_embedding_check(samples)

    @given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)), min_size=1, max_size=40))
    @example([(4, 7)])  # a single sample
    @example([(3, 0), (3, 5), (3, 2)])  # equal s only
    @example([(0, 0), (2, 0), (5, 0)])  # t = 0 throughout
    @example([(1, 0), (4, 0), (4, 3), (9, 3)])  # equal s and equal t pairs
    @example([(0, 0), (2**40, 3), (5, 2**35)])  # past the int64 product bound
    # Ratios (2^31 - 1)/(2^31 - 2) < (2^31 - 2)/(2^31 - 3) round to one float.
    @example([(0, 0), (2**31 - 2, 2**31 - 1), (2**31 - 3, 2**31 - 2)])
    @example([(0, 0), (2**60, 2**60), (2**61 + 1, 2**61)])
    def test_integer_fit_matches_fraction_loop(self, samples):
        got, want = qi_embedding_check(samples), ref.qi_embedding_check(samples)
        assert type(got.multiplicative_constant) is type(got.additive_constant) is Fraction
        assert (got.multiplicative_constant, got.additive_constant, got.samples, got.injective) == (
            want.multiplicative_constant,
            want.additive_constant,
            want.samples,
            want.injective,
        )
