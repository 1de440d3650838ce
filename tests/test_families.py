import dataclasses
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
import scalar_reference as ref
from hypothesis import given
from hypothesis import strategies as st

from focalgroups import words
from focalgroups.families import (
    ARRAY_INF,
    INF,
    FamilyError,
    LamplighterFamily,
    LamplighterWindow,
    NadicFamily,
    NadicWindow,
    ProductFamily,
    SpoofIdentityFamily,
    brute_force_a_length,
    family_from_config,
    validate_a_length,
    verify_confining,
)

L2 = LamplighterFamily(2)
L3 = LamplighterFamily(3)
N2 = NadicFamily(2)
N3 = NadicFamily(3)
PROD = ProductFamily(L2, N3)

ALL = [L2, L3, N2, N3, PROD]


def window_elements(family, radius=5):
    """Every element of the default window; a product's window is above its
    cap at radius 5, so the cap is raised to take it whole."""
    window = family.default_window(radius)
    if isinstance(family, ProductFamily):
        window = dataclasses.replace(window, cap=10**6)
    return list(family.iter_window(window))


def sample_elements(family, count, seed=0):
    rng = random.Random(seed)
    pool = window_elements(family)
    return [rng.choice(pool) for _ in range(count)]


class TestGroupAxioms:
    @pytest.mark.parametrize("family", ALL, ids=lambda f: f.name)
    def test_axioms_on_window(self, family):
        e = family.identity()
        elems = sample_elements(family, 25, seed=1)
        for h in elems:
            assert family.multiply(h, e) == h == family.multiply(e, h)
            assert family.multiply(h, family.invert(h)) == e
            assert family.alpha(family.alpha_inv(h)) == h
            assert family.alpha_inv(family.alpha(h)) == h
        rng = random.Random(2)
        for _ in range(60):
            a, b, c = (rng.choice(elems) for _ in range(3))
            assert family.multiply(family.multiply(a, b), c) == family.multiply(a, family.multiply(b, c))
            assert family.alpha(family.multiply(a, b)) == family.multiply(family.alpha(a), family.alpha(b))

    @pytest.mark.parametrize("family", ALL, ids=lambda f: f.name)
    def test_canonical_bytes_injective(self, family):
        seen = {}
        for h in window_elements(family):
            key = family.canonical_bytes(h)
            assert key not in seen or seen[key] == h
            seen[key] = h

    @pytest.mark.parametrize("family", ALL, ids=lambda f: f.name)
    def test_a_length_basics(self, family):
        assert family.a_length(family.identity()) == 0
        for h in sample_elements(family, 30, seed=3):
            la = family.a_length(h)
            if h != family.identity():
                assert (la == 1) == family.in_A(h)

    @pytest.mark.parametrize("family", ALL, ids=lambda f: f.name)
    def test_a_length_subadditive_and_alpha_monotone(self, family):
        rng = random.Random(4)
        elems = sample_elements(family, 40, seed=5)
        for _ in range(80):
            h1, h2 = rng.choice(elems), rng.choice(elems)
            l1, l2 = family.a_length(h1), family.a_length(h2)
            if l1 is not INF and l2 is not INF:
                assert family.a_length(family.multiply(h1, h2)) <= l1 + l2
            la = family.a_length(h1)
            if la is not INF:
                assert family.a_length(family.alpha(h1)) <= la

    @pytest.mark.parametrize("family", ALL, ids=lambda f: f.name)
    def test_a_factorize_round_trip(self, family):
        for h in sample_elements(family, 20, seed=6):
            la = family.a_length(h)
            if la is INF:
                continue
            parts = family.a_factorize(h)
            assert len(parts) == la
            prod = family.identity()
            for a in parts:
                assert family.in_A(a)
                prod = family.multiply(prod, a)
            assert prod == h


class TestConfining:
    def test_lamplighter_passes_with_n0_zero(self):
        window = LamplighterWindow(-3, 3, 6)
        report = verify_confining(L2, window)
        assert report.passed and report.complete
        assert L2.n0 == 0

    def test_nadic_passes_with_n0_one(self):
        report = verify_confining(N2, NadicWindow(2, 3, 6))
        assert report.passed
        assert N2.n0 == 1
        # interval arithmetic: alpha(A.A) = [-1, 1] stays inside A
        assert N2.in_A(N2.alpha(Fraction(2)))
        assert not N2.in_A(Fraction(2))

    def test_product_passes(self):
        # The radius-4 window (10,400 elements, under the product cap) has
        # 1,304 A-letters, so 1,700,416 pairs; max_elements covers all of
        # them, and the report is complete.
        report = verify_confining(PROD, PROD.default_window(4), max_elements=2_000_000)
        assert report.passed and report.complete

    def test_identity_alpha_fails(self):
        report = verify_confining(SpoofIdentityFamily(2))
        assert not report.passed
        assert report.strict_witness is None  # alpha(A) = A is not strict

    def test_report_dict_has_scope(self):
        d = verify_confining(L2).as_dict()
        assert {"family", "window", "exhaust_depth", "passed"} <= set(d)


class ShortNadic(NadicFamily):
    """Z[1/n] with n0 = 0: A.A = [-2, 2] leaves A, so axiom (c) fails on
    the family's own basis."""

    n0 = 0


class ExpandingNadic(NadicFamily):
    """alpha(x) = n x: A is not mapped into itself and no element outside A
    is pulled in, so axioms (a)-(c) all fail.  Its kernel is ScalarBasis."""

    def alpha(self, h):
        return h * self.n

    def alpha_inv(self, h):
        return h / self.n

    def alpha_pow(self, h, k):
        return h * Fraction(self.n) ** k

    def basis(self, hs, factors, shift):
        return ScalarBasis(self)


class ScalarBasis:
    """The pair kernel in a family's own operations, one pair at a time.

    settle is the least k >= 0 with alpha^k(g) in A (ARRAY_INF when k <= 64
    has none): the exponents axiom (b) asks about, whether or not
    membership stays once reached."""

    def __init__(self, family):
        self.family = family

    def encode(self, hs):
        return list(hs)

    def take(self, enc, rows):
        return enc[rows]

    def pair_a_lengths(self, R, row_ms, C):
        f = self.family
        g = [[f.alpha_pow(f.multiply(f.invert(r), c), -int(m)) for c in C] for r, m in zip(R, row_ms)]

        def length(h, k):
            la = f.a_length(f.alpha_pow(h, k))
            return ARRAY_INF if la == INF else la

        def settle(h):
            return next((k for k in range(65) if length(h, k) <= 1), ARRAY_INF)

        def lengths(k):
            return np.array([[length(h, int(kk)) for h, kk in zip(row, ks)] for row, ks in zip(g, k)], dtype=np.int64)

        return np.array([[settle(h) for h in row] for row in g], dtype=np.int64), lengths


CONFINING_FAMILIES = {
    "lamplighter:2": L2,
    "lamplighter:3": L3,
    "nadic:2": N2,
    "nadic:3": N3,
    "product(lamplighter:2,nadic:2)": ProductFamily(L2, N2),
    "spoof-identity:2": SpoofIdentityFamily(2),
}


def confining_cases():
    for (spec, family), radius in itertools.product(CONFINING_FAMILIES.items(), (4, 6)):
        window = family.default_window(radius)
        # A negative depth (verify --horizon -1) absorbs nothing, not even 1.
        depths_and_caps = [(8, 100000), (0, 5), (1, 40), (2, 5), (8, 40), (-1, 40)]
        if not spec.startswith("product"):
            # The product's scalar loop takes seconds at the full cap.
            depths_and_caps += [(0, 100000), (1, 100000), (2, 100000)]
        for depth, cap in depths_and_caps:
            yield pytest.param(family, window, depth, cap, id=f"{spec}-r{radius}-d{depth}-cap{cap}")
    # dpow 6 is above every default window's.
    for depth, cap in [(0, 100000), (2, 100000), (8, 40)]:
        yield pytest.param(N2, NadicWindow(2, 6, 6), depth, cap, id=f"nadic:2-dpow6-d{depth}-cap{cap}")
    # Numerators over 10^17 take the object-dtype basis.
    yield pytest.param(NadicFamily(10), NadicWindow(2, 17, 6), 8, 40, id="nadic:10-dpow17-cap40")


class TestConfiningArrays:
    @pytest.mark.parametrize("family, window, depth, cap", confining_cases())
    def test_matches_scalar_loop(self, family, window, depth, cap):
        got = verify_confining(family, window, exhaust_depth=depth, max_elements=cap)
        assert got.as_dict() == ref.verify_confining(family, window, depth, cap).as_dict()

    @pytest.mark.parametrize("block", [1, 7, 20, words.PAIRS_PER_BLOCK])
    @pytest.mark.parametrize("cap", [3, 8, 10, 11, 12, 40, 100])
    def test_product_failures_across_row_blocks(self, block, cap, monkeypatch):
        # 9 A-letters, 81 pairs; the sixth failure is pair 10, and caps
        # around it cut a row or stop first.
        monkeypatch.setattr(words, "PAIRS_PER_BLOCK", block)
        family, window = ShortNadic(2), NadicWindow(2, 2, 6)
        got = verify_confining(family, window, max_elements=cap)
        want = ref.verify_confining(family, window, max_elements=cap)
        assert got.as_dict() == want.as_dict()
        assert not got.product_absorbed and len(got.product_failures) == {3: 3, 8: 4, 10: 5}.get(cap, 6)

    @pytest.mark.parametrize("depth", [0, 1, 8])
    @pytest.mark.parametrize("cap", [5, 12, 40, 100000])
    def test_every_axiom_failing(self, depth, cap):
        # alpha(A) leaves A, which takes one of absorption_failures' six
        # entries, and the window's elements outside A are never absorbed.
        family, window = ExpandingNadic(2), NadicWindow(2, 2, 6)
        got = verify_confining(family, window, exhaust_depth=depth, max_elements=cap)
        assert got.as_dict() == ref.verify_confining(family, window, depth, cap).as_dict()
        assert not (got.alpha_into_A or got.absorbed or got.product_absorbed)
        assert got.strict_witness is None
        assert got.absorption_failures[0]["axiom"] == "alpha(A) in A"

    def test_spoof_stops_at_sixth_failure_before_the_cut(self):
        # 32 elements, 4 A-letters: the walk stops at its sixth failure
        # (element 9) before the cut at 20, so the report stays complete.
        family, window = SpoofIdentityFamily(2), LamplighterWindow(-3, 1, 6)
        got = verify_confining(family, window, max_elements=20)
        assert got.as_dict() == ref.verify_confining(family, window, max_elements=20).as_dict()
        assert got.complete and len(got.absorption_failures) == 6

    def test_a_window_drawn_up_to_the_cap(self, monkeypatch):
        # lamplighter:30's default A-window has 810,000 letters.
        family, drawn = LamplighterFamily(30), []

        def counted(window):
            for a in LamplighterFamily.iter_A_window(family, window):
                drawn.append(a)
                yield a

        want = ref.verify_confining(family, max_elements=1000).as_dict()
        monkeypatch.setattr(family, "iter_A_window", counted)
        report = verify_confining(family, max_elements=1000)
        assert len(drawn) == 1001
        assert report.as_dict() == want and not report.complete


class TestALengthOracle:
    def test_lamplighter_values(self):
        assert L2.a_length(L2.lamp(0)) == 1
        assert L2.a_length(L2.lamp(-1)) is INF
        # A is a subgroup: the windowed closure of A.A is A itself
        window = LamplighterWindow(-3, 3, 6)
        a_win = set(L2.iter_A_window(window))
        products = {L2.multiply(a, b) for a in a_win for b in a_win}
        assert products == a_win
        assert brute_force_a_length(L2, L2.lamp(-1), window, max_k=4) is INF

    def test_nadic_ceiling_matches_brute_force(self):
        window = NadicWindow(3, 2, 6)
        assert N2.a_length(Fraction(5)) == 5
        assert validate_a_length(N2, window, max_k=5) == []

    def test_lamplighter_closed_form_matches_brute_force(self):
        assert validate_a_length(L2, LamplighterWindow(-2, 2, 4), max_k=4) == []

    def test_product_a_length_is_max(self):
        h = (L2.lamp(0), Fraction(5, 2))
        assert PROD.a_length(h) == max(1, N3.a_length(Fraction(5, 2)))


class TestCompactionIndex:
    def test_lamplighter_index(self):
        assert L3.compaction_index() == 3
        assert L2.compaction_index() == 2

    def test_lamplighter_index_by_coset_enumeration(self):
        # independent oracle: count cosets of the shift image inside the
        # windowed subgroup A
        for family in (L2, L3):
            window = LamplighterWindow(0, 2, 4)
            a_win = list(family.iter_window(window))  # supports in [0, 2]
            image = {family.alpha(h) for h in family._iter_configs(0, 1)}  # supports in [1, 2]
            reps = {frozenset(family.multiply(h, g) for g in image) for h in a_win}
            assert len(reps) * len(image) == len(a_win)
            assert len(reps) == family.compaction_index()

    def test_spoof_index_is_trivial(self):
        assert SpoofIdentityFamily(2).compaction_index() == 1

    def test_nadic_index_symbolic_and_lattice(self):
        assert N2.compaction_index() == 2
        # windowed lattice counts converge to the symbolic ratio
        assert abs(N2.lattice_count_ratio(8) - 2) < Fraction(1, 100)
        assert N3.compaction_index() == 3

    def test_product_multiplicative(self):
        assert ProductFamily(L2, N3).compaction_index() == 6


class TestWindows:
    def test_degenerate_bounds_allowed(self):
        # Single-position, zero-size and zero-level windows stay valid.
        assert list(L2.iter_window(LamplighterWindow(0, 0, 0))) == [(), ((0, 1),)]
        assert list(N2.iter_window(NadicWindow(0, 0, 0))) == [Fraction(0)]

    @given(
        n=st.sampled_from([2, 3, 10]),
        num=st.integers(-5000, 5000),
        k=st.integers(0, 6),
        xmax=st.integers(0, 6),
        dpow=st.integers(0, 6),
    )
    def test_nadic_in_window_matches_scaled_fraction(self, n, num, k, xmax, dpow):
        # Fraction(num, n**k) reduces, so n = 10 also gives denominators such as 4 or 25.
        h = Fraction(num, n**k)
        want = abs(h) <= xmax and (h * n**dpow).denominator == 1
        assert NadicFamily(n).in_window(h, NadicWindow(xmax, dpow, 1)) == want

    def test_product_window_yields_every_element_up_to_its_cap(self):
        prod = ProductFamily(L2, N2)
        window = prod.default_window(6)
        elements = list(prod.iter_window(window))
        assert len(elements) == len(set(elements)) == 16512 <= window.cap
        left = list(L2.iter_window(window.left))
        right = list(N2.iter_window(window.right))
        assert len(elements) == len(left) * len(right)

    def test_product_window_above_its_cap_raises(self):
        prod = ProductFamily(L2, N2)
        window = prod.default_window(7)
        with pytest.raises(FamilyError, match="20608 elements, above its cap of 20000"):
            prod.iter_window(window)
        with pytest.raises(FamilyError, match="above its cap of 3"):
            prod.iter_A_window(dataclasses.replace(window, cap=3))


class TestSerialization:
    @pytest.mark.parametrize("family", ALL, ids=lambda f: f.name)
    def test_json_round_trip(self, family):
        for h in sample_elements(family, 15, seed=8):
            assert family.h_from_json(family.h_to_json(h)) == h

    @pytest.mark.parametrize("n, value", [(10, Fraction(1, 4)), (10, Fraction(-3, 8)), (6, Fraction(5, 9)), (4, Fraction(1, 8))])
    def test_json_round_trip_composite_n(self, n, value):
        # The denominator divides a power of n without being one.
        family = NadicFamily(n)
        h = family.element(value)
        assert family.h_from_json(family.h_to_json(h)) == h

    def test_config_round_trip(self):
        for family in ALL:
            assert family_from_config(family.config()) == family

    def test_shorthand(self):
        assert family_from_config("lamplighter:5").q == 5
        assert family_from_config("nadic:3").n == 3
        prod = family_from_config("product(lamplighter:2,nadic:3)")
        assert isinstance(prod, ProductFamily)
        with pytest.raises(FamilyError):
            family_from_config("nonsense:1")

    def test_shorthand_inside_a_mapping(self):
        config = {"family": "product", "left": "lamplighter:2", "right": {"family": "nadic", "n": "3"}}
        assert family_from_config(config) == ProductFamily(LamplighterFamily(2), NadicFamily(3))
        with pytest.raises(FamilyError):
            family_from_config({"family": "product", "left": 5, "right": "nadic:2"})

    def test_nadic_rejects_foreign_denominators(self):
        with pytest.raises(FamilyError):
            N2.element(Fraction(1, 3))
