import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scalar_reference import sample_points as listed_sample_points

from focalgroups.families import (
    FamilyError,
    LamplighterFamily,
    LamplighterWindow,
    NadicFamily,
    NadicWindow,
    ProductFamily,
    ProductWindow,
    SpoofIdentityFamily,
)
from focalgroups import words
from focalgroups.words import (
    ALPHA,
    ALPHA_INV,
    Gen,
    GroupPoint,
    UnvalidatedFamilyError,
    WordError,
    alpha_point,
    ball_points,
    bfs_oracle,
    distance,
    distortion_check,
    evaluate,
    format_word,
    geodesic_witness,
    h_point,
    identity_point,
    k0_bound,
    pairwise_word_lengths,
    parse_word,
    random_word,
    rewrite_to_normal_form,
    sample_points,
    window_a_letters,
    word_length,
)

L2 = LamplighterFamily(2)
N2 = NadicFamily(2)
PROD = ProductFamily(L2, N2)
FAMILIES = [L2, N2, PROD]


class TestEvaluate:
    def test_empty_word_is_identity(self):
        assert evaluate(L2, []).is_identity()

    def test_alpha_powers(self):
        assert evaluate(L2, [ALPHA] * 5) == alpha_point(L2, 5)

    def test_concat_homomorphism(self):
        rng = random.Random(0)
        letters = window_a_letters(L2, L2.default_window(4))
        for _ in range(50):
            u = random_word(L2, rng, 6, letters)
            v = random_word(L2, rng, 6, letters)
            assert evaluate(L2, u + v) == evaluate(L2, u) * evaluate(L2, v)

    def test_word_matches_direct_product(self):
        a, b = L2.lamp(0), L2.lamp(2)
        w = [Gen(a), ALPHA_INV, Gen(b)]
        direct = h_point(L2, a) * alpha_point(L2, -1) * h_point(L2, b)
        assert evaluate(L2, w).key() == direct.key()

    def test_rejects_letters_outside_A(self):
        with pytest.raises(WordError):
            evaluate(L2, [Gen(L2.lamp(-1))])
        with pytest.raises(WordError):
            evaluate(N2, [Gen(Fraction(3, 2))])


class TestGroupPoint:
    def test_composition_convention(self):
        # alpha h alpha^-1 = alpha(h)
        h = h_point(L2, L2.lamp(0))
        conj = alpha_point(L2, 1) * h * alpha_point(L2, -1)
        assert conj == h_point(L2, L2.alpha(L2.lamp(0)))

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
    def test_inverse_and_powers(self, family):
        for g in sample_points(family, 20, max_len=5, seed=2):
            assert (g * g.inverse()).is_identity()
            assert g**3 == g * g * g
            assert g**-2 == (g.inverse()) * (g.inverse())

    def test_mixed_families_raise(self):
        with pytest.raises(WordError):
            h_point(L2, L2.lamp(0)) * h_point(N2, N2.element(1))
        with pytest.raises(WordError):
            h_point(L2, L2.lamp(0)) * h_point(LamplighterFamily(3), L2.lamp(0))

    def test_equal_family_instances_multiply(self):
        other = LamplighterFamily(2)
        assert other is not L2 and other == L2
        x = h_point(L2, L2.lamp(0)) * h_point(other, other.lamp(1))
        assert x == h_point(L2, L2.multiply(L2.lamp(0), L2.lamp(1)))


class TestRewrite:
    def test_negative_power_moves_left(self):
        a = L2.lamp(0)
        nf = rewrite_to_normal_form(L2, [Gen(a), ALPHA_INV])
        assert (nf.i, nf.gs, nf.j) == (1, (L2.alpha(a),), 0)

    def test_positive_power_moves_right(self):
        a = L2.lamp(0)
        nf = rewrite_to_normal_form(L2, [ALPHA, Gen(a)])
        assert (nf.i, nf.gs, nf.j) == (0, (L2.alpha(a),), 1)

    def test_empty_word(self):
        nf = rewrite_to_normal_form(L2, [])
        assert (nf.i, nf.gs, nf.j) == (0, (), 0)

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
    def test_preserves_evaluation_never_longer(self, family):
        rng = random.Random(7)
        letters = window_a_letters(family, family.default_window(4))
        for _ in range(400):
            w = random_word(family, rng, 10, letters)
            nf = rewrite_to_normal_form(family, w)
            assert nf.evaluate() == evaluate(family, w)
            assert nf.length() <= len(w)

    def test_geodesics_keep_length_and_small_k(self):
        for family in FAMILIES:
            k0 = k0_bound(family.n0)
            for g in sample_points(family, 60, max_len=7, seed=9):
                witness = geodesic_witness(g)
                nf = rewrite_to_normal_form(family, witness)
                assert nf.length() == len(witness) == word_length(g)
                assert nf.k <= k0


def windows(family):
    """Windows of family, including ones whose A holds only the identity."""
    if isinstance(family, ProductFamily):
        return st.builds(ProductWindow, windows(family.left), windows(family.right), st.integers(0, 7))
    if isinstance(family, LamplighterFamily):
        return st.tuples(st.integers(-4, 4), st.integers(0, 5)).map(lambda t: LamplighterWindow(t[0], t[0] + t[1], 7))
    return st.builds(NadicWindow, st.integers(0, 3), st.integers(0, 3), st.integers(0, 7))


def outcome(f, *args, **kwargs):
    try:
        return f(*args, **kwargs)
    except (IndexError, FamilyError) as exc:
        return type(exc)


class TestSamplePoints:
    @pytest.mark.parametrize("family", FAMILIES + [LamplighterFamily(3), NadicFamily(10), SpoofIdentityFamily(2)], ids=lambda f: f.name)
    @given(data=st.data())
    def test_draws_match_listed_letters(self, family, data):
        window = data.draw(windows(family), label="window")
        letters = outcome(list, window_a_letters(family, window))
        listed = outcome(lambda: [a for a in family.iter_A_window(window) if a != family.identity()])
        assert letters == listed
        count, max_len, seed = data.draw(st.tuples(st.integers(0, 20), st.integers(0, 7), st.integers(0, 999)))
        got = outcome(sample_points, family, count, max_len=max_len, seed=seed, window=window)
        assert got == outcome(listed_sample_points, family, count, max_len=max_len, seed=seed, window=window)

    def test_large_q_lists_no_letters(self):
        # 200^4 - 1 A-letters at the default radius-7 window: drawn, not listed.
        family = LamplighterFamily(200)
        assert len(window_a_letters(family, family.default_window(7))) == 200**4 - 1
        pts = sample_points(family, 60, max_len=7)
        assert len(pts) == 60 and len({x.key() for x in pts}) == 60

    def test_product_cap_still_raises(self):
        family = ProductFamily(L2, N2)
        window = ProductWindow(LamplighterWindow(-3, 3, 5), NadicWindow(2, 11, 5), 5)
        with pytest.raises(FamilyError, match="above its cap"):
            sample_points(family, 5, max_len=5, window=window)


class TestWordLength:
    def test_alpha_power_length(self):
        assert word_length(alpha_point(L2, 3)) == 3
        for k in range(-8, 9):
            assert word_length(alpha_point(L2, k)) == abs(k)

    def test_single_lamp(self):
        assert word_length(h_point(L2, L2.lamp(0))) == 1

    def test_negative_lamp_needs_descent(self):
        assert word_length(h_point(L2, L2.lamp(-2))) == 5

    def test_nadic_five(self):
        assert word_length(h_point(N2, N2.element(5))) == 5

    def test_refuses_unvalidated_family(self):
        spoof = SpoofIdentityFamily(2)
        x = h_point(spoof, spoof.lamp(0))
        with pytest.raises(UnvalidatedFamilyError):
            word_length(x)

    def test_trusted_copy_is_the_same_family(self):
        # Trust travels with the copy alone: it equals the family, so their
        # points mix, and the family itself stays gated after the copy.
        spoof = SpoofIdentityFamily(2)
        trusted = spoof.unchecked()
        assert trusted == spoof and hash(trusted) == hash(spoof) and trusted.config() == spoof.config()
        with pytest.raises(UnvalidatedFamilyError):
            word_length(h_point(spoof, spoof.lamp(0)))
        x = h_point(trusted, spoof.lamp(0))
        assert word_length(x) == 1 and x == h_point(spoof, spoof.lamp(0))

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
    def test_left_invariance(self, family):
        pts = sample_points(family, 25, max_len=5, seed=11)
        rng = random.Random(12)
        for _ in range(60):
            g, x, y = (rng.choice(pts) for _ in range(3))
            assert distance(g * x, g * y) == distance(x, y)

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
    def test_projection_is_lipschitz(self, family):
        for x in sample_points(family, 60, max_len=6, seed=13):
            wl = word_length(x)
            assert wl >= abs(x.m)
            h0 = family.alpha_pow(x.h, max(0, -x.m))
            assert (wl == abs(x.m)) == (family.a_length(h0) == 0)


class TestGeodesicWitness:
    def test_identity(self):
        assert geodesic_witness(identity_point(L2)) == []

    def test_negative_lamp_witness(self):
        w = geodesic_witness(h_point(L2, L2.lamp(-2)))
        assert format_word(L2, w) == "a- a- g{0:1} a+ a+"

    def test_nadic_witness_structure(self):
        x = h_point(N2, N2.element(5))
        w = geodesic_witness(x)
        assert len(w) == 5
        assert evaluate(N2, w) == x

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
    def test_witness_realizes_length(self, family):
        for g in sample_points(family, 50, max_len=6, seed=14):
            w = geodesic_witness(g)
            assert evaluate(family, w) == g
            assert len(w) == word_length(g)

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
    def test_witness_takes_first_minimizing_index(self, family):
        for g in sample_points(family, 50, max_len=6, seed=15):
            target, i = word_length(g), max(0, -g.m)
            while family.a_length(family.alpha_pow(g.h, i)) + 2 * i + g.m != target:
                i += 1
            w = geodesic_witness(g)
            assert w[:i] == [ALPHA_INV] * i and w[i : i + 1] != [ALPHA_INV]

    def test_refuses_unvalidated_family(self):
        spoof = SpoofIdentityFamily(2)
        x = h_point(spoof, spoof.lamp(0))
        with pytest.raises(UnvalidatedFamilyError):
            geodesic_witness(x)
        assert format_word(spoof, geodesic_witness(h_point(spoof.unchecked(), spoof.lamp(0)))) == "g{0:1}"


class TestBfsOracle:
    def test_radius_zero(self):
        res = bfs_oracle(L2, radius=0)
        assert len(res.points) == 1

    def test_lamplighter_agreement(self):
        res = bfs_oracle(L2, LamplighterWindow(-3, 3, 5), radius=5)
        assert res.trusted
        for key in res.trusted:
            assert res.dist[key] == word_length(res.points[key])

    def test_nadic_agreement(self):
        res = bfs_oracle(N2, NadicWindow(4, 4, 6), radius=6)
        assert res.trusted
        for key in res.trusted:
            assert res.dist[key] == word_length(res.points[key])

    def test_product_agreement_small(self):
        window = PROD.default_window(3)
        res = bfs_oracle(PROD, window, radius=3)
        for key in res.trusted:
            assert res.dist[key] == word_length(res.points[key])

    def test_distance_matrix_view(self):
        res = bfs_oracle(L2, LamplighterWindow(-2, 2, 3), radius=3)
        D = res.distance_matrix()
        D.validate()
        origin = identity_point(L2).key().decode()
        # matrix distances dominate the word metric and agree from 1
        for key, x in res.points.items():
            assert D.distance(origin, key.decode()) == res.dist[key]
            assert res.dist[key] >= word_length(x)


def scalar_matrix(xs, ys):
    return np.array([[distance(x, y) for y in ys] for x in xs], dtype=np.int64)


def lamp_configs(q, lo=-8, hi=8):
    lamps = st.dictionaries(st.integers(lo, hi), st.integers(1, q - 1), max_size=5)
    return lamps.map(lambda d: tuple(sorted(d.items())))


def nadic_values(n):
    # Denominators up to n^5 and |x| up to 6: off the default window grids.
    return st.builds(lambda num, k: Fraction(num, n**k), st.integers(-6 * n**5, 6 * n**5), st.integers(0, 5))


H_STRATEGIES = {
    "lamplighter:2": (L2, lamp_configs(2)),
    "lamplighter:3": (LamplighterFamily(3), lamp_configs(3)),
    "nadic:2": (N2, nadic_values(2)),
    "nadic:3": (NadicFamily(3), nadic_values(3)),
    # Composite n: denominators 2^a 5^b divide a power of 10 without being one.
    "nadic:10": (NadicFamily(10), nadic_values(10)),
    "product(lamplighter:2,nadic:2)": (PROD, st.tuples(lamp_configs(2), nadic_values(2))),
}


def group_points(family, hs):
    return st.builds(GroupPoint, st.just(family), hs, st.integers(-7, 7))


def point_lists(family, hs):
    return st.lists(group_points(family, hs), min_size=1, max_size=8)


class TestPairwiseWordLengths:
    @pytest.mark.parametrize("spec", sorted(H_STRATEGIES))
    @given(data=st.data())
    def test_matches_scalar_distance(self, spec, data):
        family, hs = H_STRATEGIES[spec]
        xs = data.draw(point_lists(family, hs), label="xs")
        ys = data.draw(point_lists(family, hs), label="ys")
        got = pairwise_word_lengths(xs, ys)
        assert got.dtype == np.int64
        assert np.array_equal(got, scalar_matrix(xs, ys))

    @pytest.mark.parametrize(
        "family, window",
        [pytest.param(f, None, id=f.name) for f in FAMILIES + [NadicFamily(10), SpoofIdentityFamily(2)]]
        # q = 200 has int64 digits; A-letters on two positions keep the sampler small.
        + [pytest.param(LamplighterFamily(200), LamplighterWindow(-1, 1, 7), id="lamplighter(q=200)")],
    )
    def test_row_blocks_match_scalar(self, family, window, monkeypatch):
        # Blocks of a few rows, taken in order of m, scattered back in place,
        # all against one encoding of the columns.
        monkeypatch.setattr(words, "PAIRS_PER_BLOCK", 100)
        # The trusted copy lets the unvalidated spoof through the gates.
        pts = sample_points(family.unchecked(), 60, max_len=7, seed=21, window=window)
        got = pairwise_word_lengths(pts, pts)
        assert np.array_equal(got, scalar_matrix(pts, pts))

    @pytest.mark.parametrize("spec", sorted(H_STRATEGIES))
    @given(data=st.data())
    def test_first_minimising_exponent(self, spec, data):
        # The identity row's lengths and first exponents are _length_scan's
        # (length, i), the exponent the geodesic witness starts from.
        family, hs = H_STRATEGIES[spec]
        xs = data.draw(point_lists(family, hs), label="xs")
        basis = family.basis([x.h for x in xs], 1, 0)
        one, zero = basis.encode([family.identity()]), np.zeros(1, dtype=np.int64)
        ms = np.array([x.m for x in xs], dtype=np.int64)
        lengths, first = words._block_word_lengths(basis, one, zero, basis.encode([x.h for x in xs]), ms, first=True)
        assert list(zip(lengths[0].tolist(), first[0].tolist())) == [words._length_scan(x)[:2] for x in xs]

    def test_identity_row_is_word_length(self):
        pts = sample_points(N2, 40, max_len=7, seed=3)
        row = pairwise_word_lengths([identity_point(N2)], pts)[0]
        assert list(row) == [word_length(x) for x in pts]

    def test_empty_sides(self):
        pts = sample_points(L2, 5, seed=1)
        assert pairwise_word_lengths([], pts).shape == (0, 5)
        assert pairwise_word_lengths(pts, []).shape == (5, 0)

    def test_mixed_families_raise(self):
        with pytest.raises(WordError):
            pairwise_word_lengths([identity_point(L2)], [identity_point(N2)])

    def test_nadic_overflow_uses_python_ints(self):
        # n^|m| times a numerator exceeds 2^63: the kernel must switch to
        # object dtype and still agree with the scalar path.
        n10 = NadicFamily(10)
        pts = [
            GroupPoint(n10, Fraction(7, 10**3), 19),
            GroupPoint(n10, Fraction(-123, 10**2), -19),
            GroupPoint(n10, Fraction(5), 19),
            GroupPoint(n10, Fraction(98765, 10**4), 19),
            GroupPoint(n10, Fraction(1, 10), 0),
            GroupPoint(n10, Fraction(0), -7),
        ]
        basis = n10.basis([x.h for x in pts], 1, 0)
        enc = basis.encode([x.h for x in pts])
        _, lengths = basis.pair_a_lengths(enc, np.array([x.m for x in pts]), enc)
        assert lengths(0).dtype == object
        assert 10**19 * 98765 > 2**63
        assert np.array_equal(pairwise_word_lengths(pts, pts), scalar_matrix(pts, pts))

    def test_nadic_composite_denominators(self):
        # 1/4 and 3/4 lie in Z[1/10] with a common denominator 10^2, not 10.
        n10 = NadicFamily(10)
        pts = [GroupPoint(n10, Fraction(v), m) for v in ("1/4", "-3/4", "1/2", "0") for m in (-1, 0, 2)]
        assert np.array_equal(pairwise_word_lengths(pts, pts), scalar_matrix(pts, pts))

    def test_spoof_has_no_shift_semantics(self):
        # alpha = id: pairs whose quotient lies in A match the scalar path,
        # which a lamplighter shift by m would not.
        spoof = SpoofIdentityFamily(2)
        trusted = spoof.unchecked()
        pts = [GroupPoint(trusted, spoof.lamp(p), m) for p in (0, 1, 2) for m in (-3, 0, 2)]
        pts.append(GroupPoint(trusted, (), 1))
        got = pairwise_word_lengths(pts, pts)
        assert np.array_equal(got, scalar_matrix(pts, pts))
        with pytest.raises(UnvalidatedFamilyError):
            pairwise_word_lengths([GroupPoint(spoof, x.h, x.m) for x in pts], pts)


def into_A(family, h):
    # The first alpha^k(h) in A, which the confining union axiom provides.
    while not family.in_A(h):
        h = family.alpha(h)
    return h


def random_words(family, hs):
    letters = st.one_of(st.sampled_from([ALPHA, ALPHA_INV]), hs.map(lambda h: Gen(into_A(family, h))))
    return st.lists(letters, max_size=12)


# Six families per property: a smaller example budget than the profile's
# keeps the class near 4 s.
FEW = settings(max_examples=25)


class TestMetricProperties:
    @pytest.mark.parametrize("spec", sorted(H_STRATEGIES))
    @FEW
    @given(data=st.data())
    def test_left_invariance(self, spec, data):
        family, hs = H_STRATEGIES[spec]
        xs = data.draw(point_lists(family, hs), label="xs")
        ys = data.draw(point_lists(family, hs), label="ys")
        g = data.draw(group_points(family, hs), label="g")
        moved = pairwise_word_lengths([g * x for x in xs], [g * y for y in ys])
        assert np.array_equal(moved, pairwise_word_lengths(xs, ys))

    @pytest.mark.parametrize("spec", sorted(H_STRATEGIES))
    @FEW
    @given(data=st.data())
    def test_triangle_inequality(self, spec, data):
        family, hs = H_STRATEGIES[spec]
        xs = data.draw(point_lists(family, hs), label="xs")
        d = pairwise_word_lengths(xs, xs)
        assert np.array_equal(d, d.T) and not d.diagonal().any()
        # d[i, k] <= d[i, j] + d[j, k] at index [i, j, k].
        assert (d[:, None, :] <= d[:, :, None] + d[None, :, :]).all()

    @pytest.mark.parametrize("spec", sorted(H_STRATEGIES))
    @FEW
    @given(data=st.data())
    def test_normal_form_evaluates_to_the_word(self, spec, data):
        family, hs = H_STRATEGIES[spec]
        w = data.draw(random_words(family, hs), label="w")
        nf = rewrite_to_normal_form(family, w)
        assert nf.evaluate() == evaluate(family, w)
        assert nf.length() <= len(w)


class TestBallPoints:
    def test_radius_zero(self):
        pts, D = ball_points(L2, 0)
        assert len(pts) == 1 and D.d[0, 0] == 0

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
    def test_radius_zero_is_identity_only(self, family):
        pts, D = ball_points(family, 0)
        assert len(pts) == 1 and pts[0].is_identity()
        assert D.d.shape == (1, 1) and D.d[0, 0] == 0

    @pytest.mark.parametrize(
        "family, radius, window",
        [
            (L2, 4, None),
            (N2, 3, None),
            (PROD, 2, None),
            (L2, 5, LamplighterWindow(-2, 2, 5)),
        ],
        ids=["lamplighter2-r4", "nadic2-r3", "product-r2", "lamplighter2-r5-window"],
    )
    def test_matrix_matches_scalar_distance(self, family, radius, window):
        pts, D = ball_points(family, radius, window=window)
        assert np.array_equal(D.d, scalar_matrix(pts, pts))
        window = window or family.default_window(radius)
        kept = [
            x
            for h in family.iter_window(window)
            for m in range(-window.levels, window.levels + 1)
            if word_length(x := GroupPoint(family, h, m)) <= radius
        ]
        assert sorted(x.key() for x in kept) == [x.key() for x in pts]

    def test_sampled_ball_filter_matches_scalar(self):
        pts, D = ball_points(N2, 6, sample=120, seed=4)
        window = N2.default_window(6)
        expected = [x for x in sample_points(N2, 120, max_len=6, seed=4, window=window) if word_length(x) <= 6]
        assert [x.key() for x in pts] == sorted(x.key() for x in expected)
        assert np.array_equal(D.d, scalar_matrix(pts, pts))

    def test_spoof_refused_and_never_hangs(self):
        spoof = SpoofIdentityFamily(2)
        with pytest.raises(UnvalidatedFamilyError):
            ball_points(spoof, 2)
        start = time.perf_counter()
        with pytest.raises(WordError):
            ball_points(spoof.unchecked(), 2)
        assert time.perf_counter() - start < 5

    def test_above_the_point_limit_raises(self, monkeypatch):
        # lamplighter:2 r2 keeps 18 points; no point is dropped to fit.
        monkeypatch.setattr(words, "BALL_POINT_LIMIT", 17)
        with pytest.raises(FamilyError, match="the ball has 18 points, above the limit of 17"):
            ball_points(L2, 2)
        monkeypatch.setattr(words, "BALL_POINT_LIMIT", 18)
        assert len(ball_points(L2, 2)[0]) == 18

    def test_exhaustive_ball_is_metric(self):
        pts, D = ball_points(L2, 4)
        D.validate()
        assert all(word_length(x) <= 4 for x in pts)

    def test_sampled_ball_accepted(self):
        pts, D = ball_points(L2, 8, sample=100, seed=5)
        D.validate()
        from focalgroups.metric import four_point_delta

        four_point_delta(D, seed=0)  # just has to be accepted


class TestDistortion:
    def test_lamplighter_products_stay_short(self):
        report = distortion_check(L2, m_max=3, window=LamplighterWindow(-3, 3, 6))
        assert report.passed and report.complete
        # A is a subgroup: every product of 8 windowed A-elements has length <= 1
        assert all(v["m"] != 3 or v["length"] <= 1 for v in report.violations)

    def test_nadic_products_within_bound(self):
        report = distortion_check(N2, m_max=3, window=NadicWindow(2, 2, 6), samples=300, seed=1)
        assert report.passed

    def test_m_zero_trivial(self):
        report = distortion_check(L2, m_max=0, window=LamplighterWindow(-2, 2, 4))
        assert report.passed and report.checked == 0


class TestGrowthInclusion:
    """Windowed A-powers lie in the balls predicted by the doubling
    inclusion A^(2^m) inside B(2*n0*m + 1), for m <= 3."""

    @pytest.mark.parametrize("family", [L2, N2], ids=lambda f: f.name)
    def test_inclusion(self, family):
        window = family.default_window(4)
        rng = random.Random(3)
        a_win = list(family.iter_A_window(window))
        for m in range(4):
            bound = 2 * family.n0 * m + 1
            for _ in range(200):
                h = family.identity()
                for _ in range(2**m):
                    h = family.multiply(h, rng.choice(a_win))
                assert word_length(h_point(family, h)) <= bound


class TestWordParsing:
    def test_round_trip(self):
        text = "a- g{0:1} a+"
        letters = parse_word(L2, text)
        assert format_word(L2, letters) == text

    def test_nadic_tokens(self):
        letters = parse_word(N2, "g{1/2} a+")
        assert evaluate(N2, letters) == h_point(N2, Fraction(1, 2)) * alpha_point(N2, 1)

    def test_bad_token(self):
        with pytest.raises(WordError):
            parse_word(L2, "b?")
