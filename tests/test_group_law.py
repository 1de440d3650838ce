"""The batched group law (words.Products over each family's basis) against
the scalar GroupPoint law, the scalar law's own axioms, and the batched
consumers against the scalar loops they replaced (tests/scalar_reference.py).
"""

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import scalar_reference as ref
from hypothesis import given, settings
from hypothesis import strategies as st
from test_families import ShortNadic
from test_words import H_STRATEGIES, lamp_configs, point_lists

from focalgroups.boundary import _subgroup_closure, axis_distance, schottky_semigroup_check
from focalgroups.families import (
    ARRAY_INF,
    INF,
    FamilyError,
    LamplighterBasis,
    LamplighterFamily,
    LamplighterWindow,
    NadicBasis,
    NadicFamily,
    NadicWindow,
    ProductFamily,
    ProductWindow,
    SpoofIdentityFamily,
)
from focalgroups import metric, words
from focalgroups.words import (
    GroupPoint,
    Products,
    UnvalidatedFamilyError,
    alpha_point,
    ball_points,
    bfs_oracle,
    distortion_check,
    h_point,
    identity_point,
    pairwise_word_lengths,
    sample_points,
    word_length,
)

L2 = LamplighterFamily(2)
L3 = LamplighterFamily(3)
N2 = NadicFamily(2)
N3 = NadicFamily(3)
N10 = NadicFamily(10)
PROD = ProductFamily(L2, N2)
SPOOF = SpoofIdentityFamily(2)
L200 = LamplighterFamily(200)

LAWS = dict(H_STRATEGIES)
LAWS["spoof-identity:2"] = (SPOOF, lamp_configs(2))

# Each property runs on 7 families (14 cases for the batched product), so
# a smaller example budget than the profile's keeps the file near 5 s.
FEW = settings(max_examples=20)


def points(family, hs, max_m):
    return st.builds(GroupPoint, st.just(family), hs, st.integers(-max_m, max_m))


class TestBatchedProducts:
    @pytest.mark.parametrize("max_m", [7, 40], ids=["small-m", "large-m"])
    @pytest.mark.parametrize("spec", sorted(LAWS))
    @FEW
    @given(data=st.data())
    def test_matches_scalar_law(self, spec, max_m, data):
        family, hs = LAWS[spec]
        gens = data.draw(st.lists(points(family, hs, max_m), min_size=1, max_size=5), label="gens")
        law = Products(gens, 3)
        twos = [x * s for x in gens for s in gens]
        threes = [x * s for x in twos for s in gens]
        enc, ms = law.times(*law.encode(gens))
        assert law.decode(enc, ms) == twos
        enc, ms = law.times(enc, ms)
        assert law.decode(enc, ms) == threes
        # Keys are canonical (the same row however the point was reached)
        # and equal exactly when the points are.
        keys = law.keys(enc, ms)
        assert keys == law.keys(*law.encode(threes))
        scalar = [x.key() for x in threes]
        assert len(set(keys)) == len(set(scalar)) == len(set(zip(keys, scalar)))
        window = family.default_window(4)
        assert law.basis.in_window(enc, window).tolist() == [family.in_window(x.h, window) for x in threes]

    def test_large_shift_uses_python_ints(self):
        gens = [alpha_point(N2, 40) * h_point(N2, Fraction(-3, 4)), h_point(N2, Fraction(1, 2))]
        law = Products(gens, 3)
        assert law.basis.dtype is object
        twos = [x * s for x in gens for s in gens]
        assert law.decode(*law.times(*law.encode(gens))) == twos
        assert Products([h_point(N2, Fraction(1, 2))], 3).basis.dtype is np.int64

    def test_spoof_ignores_the_shift(self):
        law = Products([alpha_point(SPOOF, 5), h_point(SPOOF, SPOOF.lamp(0))], 4)
        assert (law.basis.lo, law.basis.hi) == (0, 0)
        x = alpha_point(SPOOF, 3) * h_point(SPOOF, SPOOF.lamp(0))
        assert law.decode(*law.times(*law.encode([x])))[1] == x * h_point(SPOOF, SPOOF.lamp(0))

    def test_products_outside_the_basis_raise(self):
        law = Products([alpha_point(L2, 1), h_point(L2, L2.lamp(0))], 2)
        far = alpha_point(L2, 2)
        with pytest.raises(FamilyError):
            law.times(*law.encode([far]))
        with pytest.raises(FamilyError):
            law.encode([h_point(L2, L2.lamp(5))])
        nlaw = Products([alpha_point(N2, 1), h_point(N2, Fraction(1))], 2)
        with pytest.raises(FamilyError):
            nlaw.times(*nlaw.encode([alpha_point(N2, 2)]))
        with pytest.raises(FamilyError):
            nlaw.encode([h_point(N2, Fraction(1, 8))])

    def test_sums_check_each_row_against_its_own_shift(self):
        # Row 0's lamp at 0 moves up by 4 and row 1's lamp at 4 stays: each
        # fits, though the union of their lamps with shift 4 would not.
        basis = LamplighterBasis(2, 0, 4)
        S = np.array([[1, 0, 0, 0, 0], [0, 0, 0, 0, 1]], dtype=np.uint8)
        got = basis.twisted_sums(S, np.array([4, 0]), np.array([0, 1]), 2)
        assert got.tolist() == [[0, 0, 0, 0, 1]] * 2
        with pytest.raises(FamilyError):
            basis.twisted_sums(S, np.array([0, 1]), np.array([0, 1]), 2)
        with pytest.raises(FamilyError):
            basis.twisted_products(np.zeros((2, 5), dtype=np.uint8), np.array([4, 0]), S)


class TestScalarGroupLaw:
    @pytest.mark.parametrize("spec", sorted(LAWS))
    @FEW
    @given(data=st.data())
    def test_group_axioms(self, spec, data):
        family, hs = LAWS[spec]
        x, y, z = (data.draw(points(family, hs, 7), label=name) for name in "xyz")
        one = identity_point(family)
        assert (x * y) * z == x * (y * z)
        assert (x * x.inverse()).is_identity() and (x.inverse() * x).is_identity()
        assert one * x == x == x * one

    @pytest.mark.parametrize("spec", sorted(LAWS))
    @FEW
    @given(data=st.data())
    def test_alpha_is_an_automorphism(self, spec, data):
        f, hs = LAWS[spec]
        a, b = data.draw(hs, label="a"), data.draw(hs, label="b")
        j, k = data.draw(st.integers(-6, 6), label="j"), data.draw(st.integers(-6, 6), label="k")
        assert f.alpha(f.multiply(a, b)) == f.multiply(f.alpha(a), f.alpha(b))
        assert f.alpha(f.invert(a)) == f.invert(f.alpha(a))
        assert f.alpha(f.identity()) == f.identity()
        assert f.alpha_inv(f.alpha(a)) == a == f.alpha(f.alpha_inv(a))
        assert f.alpha_pow(f.alpha_pow(a, j), k) == f.alpha_pow(a, j + k)
        # In G, conjugation by alpha acts on H as alpha.
        assert alpha_point(f, 1) * h_point(f, a) * alpha_point(f, -1) == h_point(f, f.alpha(a))


CLOSURES = {
    "lamplighter-focal": ([alpha_point(L2, 1), h_point(L2, L2.lamp(0))], 8),
    "lamplighter-three": ([alpha_point(L2, 1), h_point(L2, L2.lamp(0)), h_point(L2, L2.lamp(1))], 8),
    "lamplighter-finite": ([h_point(L2, L2.lamp(0)), h_point(L2, L2.lamp(1))], 4),
    "lamplighter3-finite": ([h_point(L3, L3.lamp(0)), h_point(L3, L3.lamp(1, 2))], 6),
    "nadic-report": ([alpha_point(N2, 1), h_point(N2, Fraction(1)), h_point(N2, Fraction(1, 2))], 6),
    "nadic-horocyclic": ([h_point(N2, Fraction(1)), h_point(N2, Fraction(1, 2))], 8),
    "nadic3": ([alpha_point(N3, 1), h_point(N3, Fraction(1, 3))], 7),
    "nadic10": ([alpha_point(N10, 2), h_point(N10, Fraction(1, 10))], 5),
    "product": ([alpha_point(PROD, 1), h_point(PROD, (L2.lamp(0), Fraction(1)))], 5),
    "spoof": ([alpha_point(SPOOF, 1), h_point(SPOOF, SPOOF.lamp(0))], 8),
    # q > 128: digit sums leave uint8, so the basis holds int64 digits.
    "lamplighter200": ([alpha_point(L200, 1), h_point(L200, L200.lamp(0, 150))], 5),
}


def same_closure(got, want):
    (sweep, closed, capped), (ref_elems, ref_closed, ref_capped) = got, want
    elems = sweep.points()
    assert len(sweep) == len(ref_elems)
    assert [x.key() for x in elems] == [x.key() for x in ref_elems]
    assert elems == ref_elems
    assert (closed, capped) == (ref_closed, ref_capped)


class TestClosure:
    @pytest.mark.parametrize("cap", [20000, 1, 2, 50, 51, 300])
    @pytest.mark.parametrize("name", sorted(CLOSURES))
    def test_matches_scalar_loop(self, name, cap):
        gens, L = CLOSURES[name]
        same_closure(_subgroup_closure(gens, L, cap), ref.subgroup_closure(gens, L, cap))

    @pytest.mark.parametrize("spec", sorted(LAWS))
    @FEW
    @given(data=st.data())
    def test_random_generators(self, spec, data):
        family, hs = LAWS[spec]
        gens = data.draw(st.lists(points(family, hs, 2), min_size=1, max_size=3), label="gens")
        L = data.draw(st.integers(0, 4), label="L")
        cap = data.draw(st.integers(1, 300), label="cap")
        # Small blocks split each level into many blocks of frontier rows,
        # and the cap lands inside one.
        block = data.draw(st.sampled_from([metric.PAIRS_PER_BLOCK, 20, 1]), label="block")
        with mock.patch.object(metric, "PAIRS_PER_BLOCK", block):
            got = _subgroup_closure(gens, L, cap)
        same_closure(got, ref.subgroup_closure(gens, L, cap))


ORACLES = {
    "lamplighter-r5": (L2, LamplighterWindow(-2, 2, 5), 5),
    "lamplighter3-r4": (L3, LamplighterWindow(-1, 2, 4), 4),
    "nadic-r5": (N2, NadicWindow(2, 2, 5), 5),
    "nadic3-r4": (N3, NadicWindow(2, 1, 4), 4),
    "nadic10-r3": (N10, NadicWindow(1, 1, 3), 3),
    "product-r3": (PROD, ProductWindow(LamplighterWindow(-1, 1, 3), NadicWindow(1, 1, 3), 3), 3),
    "lamplighter-r0": (L2, LamplighterWindow(-1, 1, 2), 0),
}


class TestOracle:
    # The default block, and blocks of a few frontier rows.
    @pytest.mark.parametrize(
        "name, block",
        [pytest.param(name, None, id=name) for name in sorted(ORACLES)]
        + [pytest.param(name, 40, id=f"{name}-block40") for name in sorted(ORACLES)],
    )
    def test_matches_scalar_loop(self, name, block):
        family, window, radius = ORACLES[name]
        with mock.patch.object(metric, "PAIRS_PER_BLOCK", block or metric.PAIRS_PER_BLOCK):
            res = bfs_oracle(family, window, radius=radius)
        points, dist, truncated = ref.oracle_sweep(res.generators, window, radius)
        assert list(res.points) == list(points)
        assert list(res.points.values()) == list(points.values())
        assert res.dist == dist
        assert res.truncated == truncated
        assert res.trusted == {k for k, x in points.items() if ref.witness_in_window(x, window)}
        D, want = res.distance_matrix(), ref.oracle_distance_matrix(res)
        assert D.points == want.points
        assert np.array_equal(D.d, want.d)

    def test_point_limit(self):
        # The lamplighter-r5 oracle has 178 points: a limit of 178 keeps
        # them all, and 177 is a configuration error, not a shorter oracle.
        family, window, radius = ORACLES["lamplighter-r5"]
        with mock.patch.object(words, "BALL_POINT_LIMIT", 178):
            assert len(bfs_oracle(family, window, radius=radius).points) == 178
        with mock.patch.object(words, "BALL_POINT_LIMIT", 177), pytest.raises(FamilyError, match="limit of 177 points"):
            bfs_oracle(family, window, radius=radius)

    def test_large_a_stops_at_the_first_level(self):
        # The default radius-4 window of nadic:10 has 20,002 generators.
        with pytest.raises(FamilyError, match="limit"):
            bfs_oracle(N10, radius=4)


def lamplighter_windows(lo, hi, radius):
    return st.builds(LamplighterWindow, st.integers(lo, 0), st.integers(0, hi), st.integers(0, radius))


def nadic_windows(xmax, dpow, radius):
    return st.builds(NadicWindow, st.integers(0, xmax), st.integers(0, dpow), st.integers(0, radius))


def levels_near(r):
    # Below, at and above the radius: the law's basis holds twists up to
    # the radius only.
    return st.integers(max(0, r - 2), r + 2)


def lamplighter_windows_near(lo, hi, r):
    return st.builds(LamplighterWindow, st.integers(lo, 0), st.integers(0, hi), levels_near(r))


def nadic_windows_near(xmax, dpow, r):
    return st.builds(NadicWindow, st.integers(1, xmax), st.integers(0, dpow), levels_near(r))


# family, the radii drawn, and the windows for a radius.  nadic:10 at
# radius 9 has an object-dtype basis.
TRUSTED = {
    "lamplighter:2": (L2, st.integers(1, 5), lambda r: lamplighter_windows_near(-2, 2, r)),
    "lamplighter:3": (L3, st.integers(1, 4), lambda r: lamplighter_windows_near(-1, 2, r)),
    "nadic:2": (N2, st.integers(1, 6), lambda r: nadic_windows_near(6, 2, r)),
    "nadic:3": (N3, st.integers(1, 4), lambda r: nadic_windows_near(2, 1, r)),
    "nadic:10": (N10, st.just(9), lambda r: st.builds(NadicWindow, st.integers(1, 2), st.integers(0, 1), st.integers(0, 3))),
    "product": (
        PROD,
        st.integers(1, 3),
        lambda r: st.builds(ProductWindow, lamplighter_windows(-1, 1, r), nadic_windows(1, 1, r), levels_near(r)),
    ),
    "spoof-identity:2": (SPOOF, st.integers(1, 4), lambda r: lamplighter_windows_near(-2, 2, r)),
}


# A window whose slice of G is finite: the oracle's sweep closes at depth 5.
CLOSED_ORACLE = (L2, LamplighterWindow(-1, 1, 1), 6)


class TestOracleGraph:
    """The oracle's Cayley graph comes from its sweep's edges, and only the
    points at the last depth are multiplied again."""

    @pytest.mark.parametrize("spec", sorted(TRUSTED))
    @settings(max_examples=25)
    @given(data=st.data())
    def test_matches_scalar_reference(self, spec, data):
        # Drawn windows, many of which close before the radius (nadic:10 at
        # radius 9, the object-dtype basis, always does), in whole blocks
        # or blocks of a few frontier rows.
        family, radii, windows = TRUSTED[spec]
        radius = data.draw(radii, label="radius")
        window = data.draw(windows(radius), label="window")
        block = data.draw(st.sampled_from([metric.PAIRS_PER_BLOCK, 40, 1]), label="block")
        with mock.patch.object(metric, "PAIRS_PER_BLOCK", block):
            res = bfs_oracle(family, window, radius=radius)
            D = res.distance_matrix()
        points, dist, truncated = ref.oracle_sweep(res.generators, window, radius)
        assert list(res.points.items()) == list(points.items())
        assert res.dist == dist and res.truncated == truncated
        assert res.trusted == {k for k, x in points.items() if ref.witness_in_window(x, window)}
        want = ref.oracle_distance_matrix(res)
        assert D.points == want.points
        assert np.array_equal(D.d, want.d)

    def test_closed_sweep(self):
        family, window, radius = CLOSED_ORACLE
        res = bfs_oracle(family, window, radius=radius)
        assert res.sweep.closed and len(res.points) == 24 and res.sweep.depths[-1] == 5
        want = ref.oracle_distance_matrix(res)
        assert np.array_equal(res.distance_matrix().d, want.d)

    @pytest.mark.parametrize(
        "family, window, radius",
        [pytest.param(*ORACLES[name], id=name) for name in sorted(ORACLES)] + [pytest.param(*CLOSED_ORACLE, id="closed")],
    )
    def test_distance_matrix_multiplies_only_the_last_depth(self, family, window, radius):
        res = bfs_oracle(family, window, radius=radius)
        depths = res.sweep.depths
        last = 0 if res.sweep.closed else int((depths == depths[-1]).sum())
        with mock.patch.object(Products, "times", autospec=True, side_effect=Products.times) as times:
            res.distance_matrix()
        assert sum(len(c.args[2]) for c in times.call_args_list) == last
        assert times.call_count == (0 if res.sweep.closed else 1)


class TestTrustedSet:
    @pytest.mark.parametrize("spec", sorted(TRUSTED))
    @given(data=st.data())
    def test_matches_scalar_walk(self, spec, data):
        # The batched walk trusts exactly the points whose witness the
        # GroupPoint walk keeps inside the window; the oracle never asks
        # for validation, so the spoof runs as its trusted copy would.
        family, radii, windows = TRUSTED[spec]
        radius = data.draw(radii, label="radius")
        window = data.draw(windows(radius), label="window")
        res = bfs_oracle(family, window, radius=radius)
        assert res.trusted == {k for k, x in res.points.items() if ref.witness_in_window(x, window)}

    def test_nadic10_basis_is_object_dtype(self):
        res = bfs_oracle(N10, NadicWindow(1, 1, 3), radius=9)
        assert res.sweep.enc.dtype == object and res.trusted

    def test_geodesic_below_the_levels_is_untrusted(self):
        # (6, 0) takes six A-letters inside levels 0, but its geodesic
        # a- g{1} g{1} g{1} a+ has length 5 and needs level -1.
        res = bfs_oracle(N2, NadicWindow(6, 0, 0), radius=6)
        key = h_point(N2, Fraction(6)).key()
        assert res.dist[key] == 6 and word_length(res.points[key]) == 5
        assert key not in res.trusted
        assert res.trusted == {k for k, x in res.points.items() if ref.witness_in_window(x, res.window)}

    def test_prefix_outside_the_window_is_untrusted(self, monkeypatch):
        # Letters 1 and -1 appended to every n-adic witness keep its last
        # prefix h, but the prefix between them, h + alpha^-i(1), may leave
        # the window.
        family, window, radius = ORACLES["nadic-r5"]
        want = bfs_oracle(family, window, radius=radius)
        factorize = NadicBasis.a_factorize

        def longer(basis, G):
            letters, factored = factorize(basis, G)
            unit = np.full_like(G, basis.scale)
            return letters + [unit, -unit], factored

        monkeypatch.setattr(NadicBasis, "a_factorize", longer)
        got = bfs_oracle(family, window, radius=radius)

        def inside(x):
            i = words._length_scan(x)[1]
            return family.in_window(x.h + family.alpha_pow(Fraction(1), -i), window)

        assert got.trusted == {k for k in want.trusted if inside(want.points[k])} < want.trusted

    def test_unverified_factorization_is_untrusted(self, monkeypatch):
        # Identity letters lie in every window, but their last prefix is
        # the identity, not h: only the points with h = 1 stay trusted.
        family, window, radius = ORACLES["lamplighter-r5"]
        monkeypatch.setattr(LamplighterBasis, "a_factorize", lambda basis, G: ([np.zeros_like(G)], np.ones(len(G), dtype=bool)))
        res = bfs_oracle(family, window, radius=radius)
        assert res.trusted == {k for k, x in res.points.items() if not x.h}


# family, the largest radius whose default window stays small, and the
# narrowed windows for a radius.
BALLS = {
    "lamplighter:2": (L2, 4, lambda r: lamplighter_windows(-2, 2, r)),
    "lamplighter:3": (L3, 3, lambda r: lamplighter_windows(-2, 1, r)),
    "nadic:2": (N2, 4, lambda r: nadic_windows(2, 3, r)),
    "nadic:3": (N3, 3, lambda r: nadic_windows(2, 2, r)),
    "product": (
        PROD,
        2,
        lambda r: st.builds(ProductWindow, lamplighter_windows(-1, 1, r), nadic_windows(1, 1, r), st.integers(0, r)),
    ),
}


class TestBallPoints:
    @pytest.mark.parametrize("spec", sorted(BALLS))
    @FEW
    @given(data=st.data())
    def test_matches_scalar_reference(self, spec, data):
        # One encoding and the mirrored triangle give the points, ids and
        # matrix of a GroupPoint per candidate and two full pair calls; a
        # small PAIRS_PER_BLOCK makes many ragged blocks.
        family, default_max, windows = BALLS[spec]
        radius = data.draw(st.integers(0, 4), label="radius")
        sample = data.draw(st.none() | st.integers(0, 40), label="sample")
        seed = data.draw(st.integers(0, 50), label="seed")
        narrow = (sample is None and radius > default_max) or data.draw(st.booleans(), label="narrow")
        window = data.draw(windows(radius), label="window") if narrow else None
        block = data.draw(st.sampled_from([metric.PAIRS_PER_BLOCK, 2000, 150]), label="block")
        try:
            want_pts, want = ref.ball_points(family, radius, window=window, sample=sample, seed=seed)
        except FamilyError:
            # A sampled window whose A holds only the identity.
            with pytest.raises(FamilyError, match="only the identity"):
                ball_points(family, radius, window=window, sample=sample, seed=seed)
            return
        with mock.patch.object(metric, "PAIRS_PER_BLOCK", block):
            pts, D = ball_points(family, radius, window=window, sample=sample, seed=seed)
        assert pts == want_pts
        assert D.points == want.points
        assert D.d.dtype.kind == "i" and np.array_equal(D.d, want.d)


DISTORTIONS = {
    "lamplighter": (L2, dict(window=LamplighterWindow(-3, 3, 6))),
    "lamplighter3": (L3, dict(window=LamplighterWindow(-2, 2, 6))),
    "nadic-default": (N2, {}),
    "nadic-small-window": (N2, dict(window=NadicWindow(2, 3, 6))),
    "nadic-capped": (N2, dict(exhaustive_cap=100, samples=40, seed=3)),
    "nadic3": (N3, dict(window=NadicWindow(2, 2, 5))),
    "nadic10": (N10, dict(window=NadicWindow(1, 1, 3), m_max=2)),
    "product-sampled": (
        PROD,
        dict(window=ProductWindow(LamplighterWindow(0, 2, 4), NadicWindow(1, 2, 4), 4), exhaustive_cap=300, samples=40),
    ),
    "spoof": (SPOOF.unchecked(), dict(window=LamplighterWindow(-2, 2, 4))),
    # The BFS depths 3, 4 and 5 over the default A hold 97, 129 and 161 points.
    "nadic-cap97": (N2, dict(exhaustive_cap=97, samples=40)),
    "nadic-cap128": (N2, dict(exhaustive_cap=128, samples=40)),
    "nadic-cap129": (N2, dict(exhaustive_cap=129, samples=40)),
    "nadic-capped-small-blocks": (N2, dict(exhaustive_cap=100, samples=40, seed=3)),
}

# Products per block of frontier rows, where an entry sets it.
DISTORTION_BLOCKS = {"nadic-capped-small-blocks": 100}


class TestDistortion:
    @pytest.mark.parametrize("name", sorted(DISTORTIONS))
    def test_matches_scalar_loop(self, name):
        family, kwargs = DISTORTIONS[name]
        with mock.patch.object(metric, "PAIRS_PER_BLOCK", DISTORTION_BLOCKS.get(name, metric.PAIRS_PER_BLOCK)):
            got = distortion_check(family, **kwargs).as_dict()
        want = ref.distortion_check(family, **kwargs).as_dict()
        # The scalar loop listed violations in set order.
        for report in (got, want):
            report["violations"].sort(key=lambda v: (v["m"], v["h"]))
        assert got == want

    @pytest.mark.parametrize("name", ["nadic-capped", "product-sampled"])
    def test_samples_stay_encoded(self, name, monkeypatch):
        # Sampled products are sums of encoded letters, not scalar products.
        def refuse(*args):
            raise AssertionError("a sampled product left the encoding")

        family, kwargs = DISTORTIONS[name]
        want = ref.distortion_check(family, **kwargs).as_dict()
        monkeypatch.setattr(family, "multiply", refuse)
        got = distortion_check(family, **kwargs).as_dict()
        for report in (got, want):
            report["violations"].sort(key=lambda v: (v["m"], v["h"]))
        assert got == want and not got["complete"]

    def test_spoof_needs_unchecked(self):
        with pytest.raises(UnvalidatedFamilyError):
            distortion_check(SPOOF, m_max=2)

    def test_nadic_default_counts(self):
        # 65 + 129 + 257 elements: A^2, A^4 and A^8 for the 33 elements of A
        # on the 1/16 grid.
        report = distortion_check(N2)
        assert report.checked == 451 and report.complete

    def test_violations_are_counted_beyond_the_list(self):
        # With n0 = 0 the bound is 1 at every level, and 352 of the same 451
        # products break it; ten are listed, all are counted.
        report = distortion_check(ShortNadic(2))
        assert report.checked == 451 and report.complete and not report.passed
        assert len(report.violations) == 10 and report.violation_count == 352
        assert report.as_dict()["violation_count"] == 352
        # The scalar loop lists its ten in set order, but counts the same.
        assert ref.distortion_check(ShortNadic(2)).violation_count == 352

    def test_cap_decision(self):
        # |A.A| = 65 on the 1/16 grid: a cap of 65 keeps the first square
        # exhaustive, 64 does not.
        assert distortion_check(N2, m_max=1, exhaustive_cap=65).complete
        assert not distortion_check(N2, m_max=1, exhaustive_cap=64, samples=5).complete


SCHOTTKY = {
    "lamplighter": (alpha_point(L2, 1), alpha_point(L2, 1) * h_point(L2, L2.lamp(0)), 10),
    "nadic": (alpha_point(N2, 1), alpha_point(N2, 1) * h_point(N2, Fraction(1)), 10),
    "nadic3": (alpha_point(N3, 1), alpha_point(N3, 1) * h_point(N3, Fraction(1)), 8),
    "lamps-collide": (h_point(L2, L2.lamp(0)), h_point(L2, L2.lamp(1)), 8),
    "equal-pair": (alpha_point(L2, 1), alpha_point(L2, 1), 6),
    "product": (alpha_point(PROD, 1), alpha_point(PROD, 1) * h_point(PROD, (L2.lamp(0), Fraction(1))), 7),
    "inverse-pair": (alpha_point(N2, 1), alpha_point(N2, -1), 6),
}


class TestSchottky:
    @pytest.mark.parametrize("name", sorted(SCHOTTKY))
    def test_matches_scalar_loop(self, name):
        a, b, L = SCHOTTKY[name]
        report, injective, count, collision = ref.schottky(a, b, L)
        want = dict(report, injective=injective, words_checked=count, collision=list(collision) if collision else None)
        assert schottky_semigroup_check(a, b, L=L).as_dict() == want

    @pytest.mark.parametrize("name", sorted(SCHOTTKY))
    def test_levels_stay_encoded(self, name, monkeypatch):
        # Each level's lengths come from its encoded rows, not a decode.
        def refuse(*args, **kwargs):
            raise AssertionError("a Schottky level left the encoding")

        monkeypatch.setattr(words.Products, "decode", refuse)
        self.test_matches_scalar_loop(name)

    def test_spoof_needs_unchecked(self):
        a, b = alpha_point(SPOOF, 1), alpha_point(SPOOF, 1) * h_point(SPOOF, SPOOF.lamp(0))
        with pytest.raises(UnvalidatedFamilyError):
            schottky_semigroup_check(a, b, L=3)
        trusted = SPOOF.unchecked()
        a, b = alpha_point(trusted, 1), alpha_point(trusted, 1) * h_point(trusted, SPOOF.lamp(0))
        report, injective, count, collision = ref.schottky(a, b, 6)
        got = schottky_semigroup_check(a, b, L=6)
        assert (got.report.as_dict(), got.injective, got.words_checked, got.collision) == (
            report,
            injective,
            count,
            collision,
        )


class TestPairKernel:
    def test_identity_elements_far_up_the_axis(self):
        # Every quotient is trivial (amax = 0) while row exponents reach 100:
        # the power table must not be built in int64.
        xs = [alpha_point(N2, 100), alpha_point(N2, 3)]
        assert ref.axis_distances(xs).tolist() == [axis_distance(x) for x in xs] == [0, 0]
        assert pairwise_word_lengths(xs, xs).tolist() == [[0, 97], [97, 0]]

    @pytest.mark.parametrize("family", [L2, N2, N10, PROD, SPOOF], ids=lambda f: f.name)
    def test_lengths_take_an_exponent_per_pair(self, family):
        pts = sample_points(family, 12, max_len=6, seed=5)
        rows, cols = pts[:4], pts
        basis = family.basis([x.h for x in pts], 1, 0)
        _, _, lengths = basis.pair_a_lengths(basis.encode([x.h for x in rows]), np.array([x.m for x in rows]), basis.encode([y.h for y in cols]))
        k = np.arange(len(rows) * len(cols), dtype=np.int64).reshape(len(rows), len(cols)) % 7
        got = lengths(k)
        for i, x in enumerate(rows):
            for j, y in enumerate(cols):
                g = family.alpha_pow(family.multiply(family.invert(x.h), y.h), -x.m)
                want = family.a_length(family.alpha_pow(g, int(k[i, j])))
                assert got[i, j] == (ARRAY_INF if want == INF else want)

    @pytest.mark.parametrize("spec", sorted(H_STRATEGIES))
    @given(data=st.data())
    def test_membership_is_length_at_most_one(self, spec, data):
        # What verify_confining reads off the kernel: alpha^k(g) in A iff
        # lengths(k) <= 1, and settle <= d iff alpha^m(g) in A for some
        # 0 <= m <= d.
        family, hs = H_STRATEGIES[spec]
        rows = data.draw(point_lists(family, hs), label="rows")
        cols = data.draw(st.lists(hs, min_size=1, max_size=8), label="cols")
        basis = family.basis([x.h for x in rows] + cols, 2, 1)
        R, C = basis.encode([x.h for x in rows]), basis.encode(cols)
        settle, _, lengths = basis.pair_a_lengths(R, np.array([x.m for x in rows], dtype=np.int64), C)
        inside = [lengths(np.full(settle.shape, k, dtype=np.int64)) <= 1 for k in range(3)]
        for i, x in enumerate(rows):
            for j, h in enumerate(cols):
                g = family.alpha_pow(family.multiply(family.invert(x.h), h), -x.m)
                walk = [family.in_A(family.alpha_pow(g, m)) for m in range(9)]
                assert [bool(inside[k][i, j]) for k in range(3)] == walk[:3]
                assert [bool(settle[i, j] <= d) for d in range(9)] == [any(walk[: d + 1]) for d in range(9)]
