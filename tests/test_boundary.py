import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scalar_reference import axis_distances, lineal_or_focal
from test_words import H_STRATEGIES, PROD, group_points, point_lists

from focalgroups.boundary import (
    BOUNDED,
    ELLIPTIC,
    FOCAL,
    HOROCYCLIC,
    HYPERBOLIC,
    LINEAL,
    PARABOLIC,
    StabilizationError,
    action_type,
    axis_distance,
    busemann_quasicharacter,
    horokernel,
    isometry_type,
    schottky_semigroup_check,
    translation_number,
)
from focalgroups.families import FamilyError, LamplighterFamily, NadicFamily, SpoofIdentityFamily
from focalgroups.words import GroupPoint, UnvalidatedFamilyError, alpha_point, h_point, identity_point, sample_points

L2 = LamplighterFamily(2)
N2 = NadicFamily(2)


class TestTranslationNumber:
    def test_alpha(self):
        rep = translation_number(alpha_point(L2, 1), N=16)
        assert rep.estimate == rep.upper_bound == rep.value == 1
        assert rep.exact

    def test_identity(self):
        rep = translation_number(identity_point(L2), N=8)
        assert rep.estimate == 0 and rep.value == 0

    def test_alpha_powers_exact(self):
        for k in range(-8, 9):
            rep = translation_number(alpha_point(L2, k), N=12)
            assert rep.upper_bound == abs(k)
            assert rep.estimate == abs(k)

    def test_nadic_logarithmic_orbit(self):
        rep = translation_number(h_point(N2, N2.element(1)), N=64)
        assert rep.value == 0
        assert rep.upper_bound <= Fraction(1, 4)

    @pytest.mark.parametrize("family", [L2, N2], ids=lambda f: f.name)
    def test_linear_growth_certificate(self, family):
        # excess d(1, g^n) - n|m| stabilizes: brute force for |m| <= 3
        from focalgroups.boundary import orbit_lengths

        gens = sample_points(family, 8, max_len=4, seed=21)
        for g in gens:
            for m in (1, 2, 3):
                gm = g * alpha_point(family, m - g.m)  # force the exponent
                lengths = orbit_lengths(gm, 64)
                excess = [dn - (i + 1) * abs(gm.m) for i, dn in enumerate(lengths)]
                assert min(excess) >= 0
                assert excess[63] == excess[31]


class TestIsometryType:
    def test_lamp_is_elliptic(self):
        t = isometry_type(h_point(L2, L2.lamp(0)))
        assert t.kind == ELLIPTIC and t.exact and t.witness["order"] == 2

    def test_nadic_unit_is_parabolic(self):
        t = isometry_type(h_point(N2, N2.element(1)))
        assert t.kind == PARABOLIC and t.exact

    def test_nonzero_exponent_is_hyperbolic(self):
        for m in (-3, -1, 1, 2, 3):
            t = isometry_type(h_point(L2, L2.lamp(0)) * alpha_point(L2, m))
            assert t.kind == HYPERBOLIC and t.exact
            assert t.witness["translation_number"] == abs(m)

    def test_identity_elliptic(self):
        t = isometry_type(identity_point(N2))
        assert t.kind == ELLIPTIC and t.witness["order"] == 1

    def test_element_without_a_certificate_is_refused(self):
        # A family that leaves an element of infinite order uncertified gets
        # an error naming both, not a verdict guessed from orbit growth.
        class Uncertified(NadicFamily):
            def h_unbounded(self, h):
                return False

        family = Uncertified(2)
        g = h_point(family, family.element(1))
        with pytest.raises(FamilyError, match=re.escape(f"{family.name}: no isometry-type certificate for {g}")):
            isometry_type(g)
        assert isometry_type(g * alpha_point(family, 1)).kind == HYPERBOLIC

    def test_busatt_consistency(self):
        # hyperbolic iff the quasicharacter does not vanish
        for family in (L2, N2):
            for g in sample_points(family, 40, max_len=6, seed=22):
                beta = busemann_quasicharacter(g, N=8).value
                hyp = isometry_type(g).kind == HYPERBOLIC
                assert hyp == (beta != 0)


class TestHorokernel:
    def test_alpha_increment(self):
        assert horokernel(identity_point(L2), alpha_point(L2, 1)) == 1

    def test_self_is_zero(self):
        x = h_point(L2, L2.lamp(1)) * alpha_point(L2, 2)
        assert horokernel(x, x) == 0

    def test_A_elements_small(self):
        one = identity_point(L2)
        window = L2.default_window(4)
        for a in L2.iter_A_window(window):
            if a != L2.identity():
                assert abs(horokernel(one, h_point(L2, a))) <= 1

    def test_antisymmetry(self):
        x = h_point(L2, L2.lamp(-1))
        y = alpha_point(L2, 2)
        assert horokernel(x, y) == -horokernel(y, x)

    def test_non_stabilization_raises(self):
        one = identity_point(L2)
        with pytest.raises(StabilizationError):
            horokernel(one, h_point(L2, L2.lamp(-40)), N=10, stable_window=6)


class TestBusemannQuasicharacter:
    def test_alpha_is_one(self):
        est = busemann_quasicharacter(alpha_point(L2, 1))
        assert est.value == 1 and est.defect_bound == 0
        assert est.estimate == 1

    def test_vanishes_on_H(self):
        for h in (L2.lamp(0), L2.lamp(-2), L2.multiply(L2.lamp(1), L2.lamp(3))):
            est = busemann_quasicharacter(h_point(L2, h))
            assert est.value == 0
            assert est.estimate == 0

    def test_homomorphism_value(self):
        g = h_point(L2, L2.lamp(0)) * alpha_point(L2, -2)
        assert busemann_quasicharacter(g).value == -2

    @pytest.mark.parametrize("N", [0, -1, -2])
    def test_horizon_below_one_raises(self, N):
        with pytest.raises(ValueError, match="< 1"):
            busemann_quasicharacter(alpha_point(L2, 1), N=N)

    def test_homogeneity_exact(self):
        g = h_point(L2, L2.lamp(1)) * alpha_point(L2, 2)
        beta_g = busemann_quasicharacter(g).value
        for n in range(-8, 9):
            assert busemann_quasicharacter(g**n).value == n * beta_g

    @pytest.mark.parametrize("family", [L2, N2], ids=lambda f: f.name)
    def test_increment_tracks_value(self, family):
        # |beta(g) - h(1, g)| stays uniformly small on samples
        for g in sample_points(family, 30, max_len=6, seed=23):
            est = busemann_quasicharacter(g, N=8)
            assert abs(est.value - est.increment) <= 2

    @pytest.mark.parametrize("family", [L2, N2], ids=lambda f: f.name)
    def test_quasicharacter_sandwich(self, family):
        # C^-1|f1| - C <= |f2| <= C|f1| + C with matching signs, C = 2,
        # for f1 the exponent projection and f2 the numeric estimate.
        C = Fraction(2)
        for g in sample_points(family, 25, max_len=6, seed=24):
            f1 = Fraction(g.m)
            f2 = busemann_quasicharacter(g, N=16).estimate
            assert abs(f1) / C - C <= abs(f2) <= C * abs(f1) + C
            if f1 != 0:
                assert f1 * f2 > 0 or abs(f2) <= Fraction(1, 4)
            assert abs(f2 - f1) <= Fraction(1, 4)


class TestActionType:
    def test_alpha_is_lineal(self):
        v = action_type([alpha_point(L2, 1)])
        assert v.kind == LINEAL

    def test_full_group_is_focal(self):
        v = action_type([alpha_point(L2, 1), h_point(L2, L2.lamp(0))])
        assert v.kind == FOCAL
        v2 = action_type([alpha_point(N2, 1), h_point(N2, N2.element(1))])
        assert v2.kind == FOCAL

    def test_finite_lamp_subgroup_is_bounded(self):
        gens = [h_point(L2, L2.lamp(i)) for i in (0, 1, 2)]
        v = action_type(gens)
        assert v.kind == BOUNDED and v.exact
        assert v.witnesses == {"subgroup_order": 8, "orbit_diameter": 1}

    def test_unclosed_lamp_orbit_is_horocyclic(self):
        # Lamp -3 lies outside A: reaching it takes 2*3 + 1 letters.
        gens = [h_point(L2, L2.lamp(i)) for i in (0, 1, 2, -3)]
        v = action_type(gens, L=2)
        assert v.kind == HOROCYCLIC and not v.exact
        assert v.witnesses == {"elements_seen": 11, "orbit_diameter": 7}

    def test_nadic_A_generators_horocyclic(self):
        v = action_type([h_point(N2, N2.element(1))])
        assert v.kind == HOROCYCLIC and v.exact
        v2 = action_type([h_point(N2, N2.element(1)), h_point(N2, N2.element(Fraction(1, 2)))])
        assert v2.kind == HOROCYCLIC

    def test_axis_distance(self):
        assert axis_distance(alpha_point(L2, 5)) == 0
        assert axis_distance(h_point(L2, L2.lamp(-3))) > 2

    def test_empty_generators_rejected(self):
        with pytest.raises(ValueError):
            action_type([])


class TestAxisDistances:
    @pytest.mark.parametrize("spec", sorted(H_STRATEGIES))
    @given(data=st.data())
    def test_matches_scalar_axis_distance(self, spec, data):
        family, hs = H_STRATEGIES[spec]
        xs = data.draw(point_lists(family, hs), label="xs")
        got = axis_distances(xs)
        assert got.dtype == np.int64
        assert got.tolist() == [axis_distance(x) for x in xs]

    def test_empty(self):
        assert axis_distances([]).shape == (0,)

    @pytest.mark.parametrize(
        "gens, kind, witnesses",
        [
            (
                [alpha_point(L2, 1), h_point(L2, L2.lamp(0))],
                FOCAL,
                {"fixed_point_of": "({}, 1)", "moves_it": "({0:1}, 0)"},
            ),
            (
                [alpha_point(N2, 1), h_point(N2, N2.element(1))],
                FOCAL,
                {"fixed_point_of": "({0}, 1)", "moves_it": "({1}, 0)"},
            ),
            ([alpha_point(L2, 1)], LINEAL, {"fixed_point_of": "({}, 1)"}),
            ([alpha_point(N2, 2)], LINEAL, {"fixed_point_of": "({0}, 2)"}),
        ],
        ids=["focal-lamplighter", "focal-nadic", "lineal-lamplighter", "lineal-nadic"],
    )
    def test_verdict_witnesses_pinned(self, gens, kind, witnesses):
        # The first hyperbolic generator names the fixed point, and a focal
        # verdict adds the first generator that does not fix it.
        v = action_type(gens, L=8)
        assert v.kind == kind and v.witnesses == witnesses
        assert v.exact and v.complete and not v.low_confidence and v.horizon == 8

    def test_unvalidated_family_refused(self):
        spoof = SpoofIdentityFamily(2)
        xs = [alpha_point(spoof, 1), h_point(spoof, spoof.lamp(0))]
        with pytest.raises(UnvalidatedFamilyError):
            axis_distances(xs)
        with pytest.raises(UnvalidatedFamilyError):
            action_type(xs)
        trusted = [alpha_point(spoof.unchecked(), 1), h_point(spoof.unchecked(), spoof.lamp(0))]
        assert axis_distances(trusted).tolist() == [axis_distance(x) for x in trusted]
        # alpha = id: every pair commutes, so the spoof verdict is lineal, not exact.
        v = action_type(trusted)
        assert v.kind == LINEAL and not v.exact


def delta0(family):
    """The lamp at 0, g{1} on an n-adic family, and both on the product."""
    if isinstance(family, LamplighterFamily):
        return h_point(family, family.lamp(0))
    if isinstance(family, NadicFamily):
        return h_point(family, family.element(1))
    return h_point(family, (delta0(family.left).h, delta0(family.right).h))


def verdict_table(family):
    a, d = alpha_point(family, 1), delta0(family)
    ad = a * d
    return {
        "<a d>": ([ad], LINEAL),
        "<a>": ([a], LINEAL),
        "<a d, (a d)^2>": ([ad, ad**2], LINEAL),
        "<a d, (a d)^-3>": ([ad, ad**-3], LINEAL),
        "<a, d>": ([a, d], FOCAL),
        "<a, d a d^-1>": ([a, d * a * d.inverse()], FOCAL),
        "<a^2, d a^2 d^-1>": ([a**2, d * a**2 * d.inverse()], FOCAL),
    }


class TestFixedPointVerdict:
    @pytest.mark.parametrize("family", [L2, N2, PROD], ids=lambda f: f.name)
    def test_table_same_at_every_horizon(self, family):
        for name, (gens, kind) in verdict_table(family).items():
            for L in (4, 8, 12, 16):
                v = action_type(gens, L=L)
                assert (name, L, v.kind, v.exact, v.horizon) == (name, L, kind, True, L)
                assert v.complete and not v.low_confidence

    @pytest.mark.parametrize("spec", sorted(H_STRATEGIES))
    @given(data=st.data())
    def test_matches_fixed_point_identity(self, spec, data):
        family, hs = H_STRATEGIES[spec]
        g0 = data.draw(st.builds(GroupPoint, st.just(family), hs, st.integers(-7, 7).filter(bool)), label="g0")
        # Powers of g0 share its fixed points; other points mostly move them.
        powers = [g0**k for k in data.draw(st.lists(st.integers(-3, 3), max_size=3), label="powers")]
        others = data.draw(st.lists(group_points(family, hs), max_size=3), label="others")
        gens = data.draw(st.permutations([g0] + powers + others), label="gens")
        v = action_type(gens)
        assert v.kind == lineal_or_focal(gens)
        assert v.exact
        if not others:
            assert v.kind == LINEAL

    @pytest.mark.parametrize("family", [L2, N2, PROD], ids=lambda f: f.name)
    def test_schottky_agrees(self, family):
        # Distinct fixed points give a free subsemigroup; a shared one does not.
        a, d = alpha_point(family, 1), delta0(family)
        assert schottky_semigroup_check(a, d * a * d.inverse(), L=10).injective
        assert schottky_semigroup_check(a, a * d, L=10).injective
        ad = a * d
        assert schottky_semigroup_check(ad, ad**2, L=10).collision == ("b", "aa")
        assert action_type([a, d * a * d.inverse()]).kind == action_type([a, a * d]).kind == FOCAL
        assert action_type([ad, ad**2]).kind == LINEAL


class TestSchottky:
    def test_alpha_pair_injective(self):
        a = alpha_point(L2, 1)
        b = a * h_point(L2, L2.lamp(0))
        rep = schottky_semigroup_check(a, b, L=10)
        assert rep.injective and rep.report.injective
        assert rep.words_checked == 2**11 - 2
        assert rep.report.multiplicative_constant < 4
        assert rep.report.additive_constant <= 4

    def test_equal_pair_rejected(self):
        rep = schottky_semigroup_check(alpha_point(L2, 1), alpha_point(L2, 1), L=6)
        assert not rep.injective

    def test_lamp_pair_rejected(self):
        rep = schottky_semigroup_check(h_point(L2, L2.lamp(0)), h_point(L2, L2.lamp(1)), L=8)
        assert not rep.injective
        assert rep.collision is not None

    def test_depth_guard(self):
        with pytest.raises(ValueError):
            schottky_semigroup_check(alpha_point(L2, 1), alpha_point(L2, 2), L=15)
