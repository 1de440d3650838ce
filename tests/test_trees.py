import pickle
import random

import numpy as np
import pytest
import scalar_reference as ref
from hypothesis import given
from hypothesis import strategies as st

from focalgroups import trees
from focalgroups.families import LamplighterFamily, NadicFamily, SpoofIdentityFamily
from focalgroups.metric import four_point_delta
from focalgroups.trees import (
    BASEPOINT,
    BusemannGraph,
    TreeError,
    TreeVertex,
    basepoint_distances,
    lamplighter_tree_ball,
    line_fiber_isomorphic,
    millefeuille,
    regular_tree_ball,
    tree_act,
    tree_distance,
    tree_qi_probe,
    tree_transitivity_witness,
    vertex_level,
)
from focalgroups.words import GroupPoint, UnvalidatedFamilyError, alpha_point, h_point, sample_points, word_length

L2 = LamplighterFamily(2)
L3 = LamplighterFamily(3)


class TestTreeVertex:
    def test_fields_equality_and_hash(self):
        v = TreeVertex(-1, ((-1, 2), (3, 1)))
        assert (v.n, v.c) == (-1, ((-1, 2), (3, 1)))
        assert v == TreeVertex(-1, ((-1, 2), (3, 1))) and hash(v) == hash(TreeVertex(-1, ((-1, 2), (3, 1))))
        assert v != TreeVertex(-1, ((-1, 1), (3, 1)))
        assert len({v, TreeVertex(-1, ((-1, 2), (3, 1))), BASEPOINT}) == 2
        assert repr(v) == v.id() == "-1|-1:2,3:1"
        assert pickle.loads(pickle.dumps(v)) == v

    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
    def test_children_are_checked_vertices_of_their_parent(self, q):
        for v in (BASEPOINT, TreeVertex(2, ((2, 1), (4, 3))), TreeVertex(-3, ((0, 1),))):
            kids = v.children(q)
            assert len(set(kids)) == q
            for kid in kids:
                assert kid == TreeVertex(kid.n, kid.c)
                assert kid.parent() == v
            assert v.parent() == TreeVertex(v.parent().n, v.parent().c)

    def test_parent_forgets_lowest_position(self):
        v = TreeVertex(0, ((0, 1), (2, 1)))
        assert v.parent() == TreeVertex(1, ((2, 1),))

    def test_children_round_trip(self):
        v = TreeVertex(1, ((3, 1),))
        kids = v.children(3)
        assert len(kids) == 3
        assert all(k.parent() == v for k in kids)
        assert len(set(kids)) == 3

    def test_config_below_level_rejected(self):
        with pytest.raises(TreeError):
            TreeVertex(2, ((0, 1),))

    def test_distance(self):
        v = TreeVertex(0, ())
        w = TreeVertex(0, ((1, 1),))
        assert tree_distance(v, w) == 4  # meet at level 2
        assert tree_distance(v, v) == 0
        assert tree_distance(v, TreeVertex(3, ())) == 3


class TestTreeAction:
    def test_alpha_moves_to_child(self):
        w = tree_act(alpha_point(L2, 1), BASEPOINT)
        assert w.parent() == BASEPOINT
        assert vertex_level(w) == -1

    def test_A_stabilizes_basepoint(self):
        for a in L2.iter_A_window(L2.default_window(4)):
            assert tree_act(h_point(L2, a), BASEPOINT) == BASEPOINT

    def test_action_is_homomorphism(self):
        pts = sample_points(L2, 40, max_len=6, seed=3)
        rng = random.Random(4)
        for _ in range(150):
            g1, g2, g3 = (rng.choice(pts) for _ in range(3))
            v = tree_act(g3, BASEPOINT)
            assert tree_act(g1 * g2, v) == tree_act(g1, tree_act(g2, v))

    def test_equivariant_level(self):
        pts = sample_points(L2, 40, max_len=6, seed=5)
        rng = random.Random(6)
        for _ in range(150):
            g, gv = rng.choice(pts), rng.choice(pts)
            v = tree_act(gv, BASEPOINT)
            assert vertex_level(tree_act(g, v)) == vertex_level(v) - g.m

    def test_parent_commutes_with_action(self):
        pts = sample_points(L2, 30, max_len=6, seed=7)
        rng = random.Random(8)
        for _ in range(100):
            g, gv = rng.choice(pts), rng.choice(pts)
            v = tree_act(gv, BASEPOINT)
            assert tree_act(g, v.parent()) == tree_act(g, v).parent()

    def test_unsupported_family(self):
        with pytest.raises(TreeError):
            tree_act(alpha_point(NadicFamily(2), 1), BASEPOINT)


class TestTransitivity:
    def test_identity_witness(self):
        g = tree_transitivity_witness(L2, BASEPOINT, BASEPOINT)
        assert tree_act(g, BASEPOINT) == BASEPOINT

    def test_random_pairs(self):
        pts = sample_points(L2, 30, max_len=6, seed=9)
        rng = random.Random(10)
        for _ in range(100):
            v = tree_act(rng.choice(pts), BASEPOINT)
            w = tree_act(rng.choice(pts), BASEPOINT)
            g = tree_transitivity_witness(L2, v, w)
            assert tree_act(g, v) == w

    def test_edge_transport(self):
        pts = sample_points(L2, 25, max_len=5, seed=11)
        rng = random.Random(12)
        for _ in range(50):
            v = tree_act(rng.choice(pts), BASEPOINT)
            w = tree_act(rng.choice(pts), BASEPOINT)
            g = tree_transitivity_witness(L2, v, w)
            # edges map to edges: the parent edge at v lands on the parent edge at w
            assert tree_act(g, v.parent()) == w.parent()

    def test_wrong_action_raises(self, monkeypatch):
        # The check acts with the witness, so it holds under python -O too.
        v = TreeVertex(-1, ((-1, 1),))
        monkeypatch.setattr(trees, "tree_act", lambda g, u: u.parent())
        with pytest.raises(TreeError, match="not to"):
            tree_transitivity_witness(L2, BASEPOINT, v)


class TestQiProbe:
    def test_alpha_orbit_matches(self):
        for n in (1, 3, 5):
            v = tree_act(alpha_point(L2, n), BASEPOINT)
            assert tree_distance(BASEPOINT, v) == n

    def test_A_orbit_is_small(self):
        for a in L2.iter_A_window(L2.default_window(3)):
            v = tree_act(h_point(L2, a), BASEPOINT)
            assert tree_distance(BASEPOINT, v) <= 2

    def test_constants_finite_and_stable(self):
        r4 = tree_qi_probe(L2, count=120, max_len=4, seed=0)
        r8 = tree_qi_probe(L2, count=120, max_len=8, seed=0)
        assert r8.multiplicative_constant <= 3
        assert r8.additive_constant <= 4
        assert r8.multiplicative_constant >= r4.multiplicative_constant

    @pytest.mark.parametrize("family, count, max_len, seed", [(L2, 200, 8, 0), (L2, 120, 4, 5), (L3, 100, 4, 0)])
    def test_matches_scalar_word_lengths(self, family, count, max_len, seed):
        samples = {
            (word_length(g), tree_distance(BASEPOINT, tree_act(g, BASEPOINT)))
            for g in sample_points(family, count, max_len=max_len, seed=seed)
        }
        assert tree_qi_probe(family, count=count, max_len=max_len, seed=seed) == ref.qi_embedding_check(sorted(samples))

    @given(
        q=st.sampled_from([2, 3, 5]),
        lamps=st.dictionaries(st.integers(-6, 6), st.integers(1, 4), max_size=6),
        m=st.integers(-8, 8),
    )
    def test_closed_form_distance_matches_tree_act(self, q, lamps, m):
        family = LamplighterFamily(q)
        h = tuple(sorted((pos, val % q) for pos, val in lamps.items() if val % q))
        basis = family.basis([h], 1, 0)
        got = basepoint_distances(basis, basis.encode([h]), np.array([m], dtype=np.int64))
        assert got.tolist() == [tree_distance(BASEPOINT, tree_act(GroupPoint(family, h, m), BASEPOINT))]

    def test_unvalidated_family_refused(self):
        with pytest.raises(UnvalidatedFamilyError):
            tree_qi_probe(SpoofIdentityFamily(2), count=10, max_len=4)

    def test_non_lamplighter_family_refused_before_sampling(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("sampled before the family was checked")

        monkeypatch.setattr(trees, "_sample_encoded", refuse)
        with pytest.raises(TreeError):
            tree_qi_probe(NadicFamily(2), count=10, max_len=4)


class TestRegularTreeBall:
    def test_line_case(self):
        line = regular_tree_ball(1, 4).validate()
        assert sorted(line.b.values()) == list(range(-4, 5))
        assert all(line.degree(v) == 2 for v in line.interior)

    def test_trivalent_ball(self):
        T = regular_tree_ball(2, 4).validate()
        assert {T.degree(v) for v in T.interior} == {3}
        assert four_point_delta(T.distance_matrix()).delta == 0

    def test_distance_matrix_is_tree_distance(self):
        D = regular_tree_ball(2, 3).distance_matrix()
        ball = {BASEPOINT}
        for _ in range(3):
            ball |= {w for v in ball for w in [v.parent()] + v.children(2)}
        by_id = {v.id(): v for v in ball}
        assert sorted(by_id) == sorted(D.points)
        for u in D.points:
            for w in D.points:
                assert D.distance(u, w) == tree_distance(by_id[u], by_id[w])

    def test_single_vertex(self):
        T = regular_tree_ball(2, 0)
        assert len(T.vertices) == 1 and not T.edges

    def test_lamplighter_tree_regularity(self):
        for family, deg in ((L2, 3), (L3, 4)):
            ball = lamplighter_tree_ball(family, 4).validate()
            assert {ball.degree(v) for v in ball.interior} == {deg}


class TestMillefeuille:
    def test_line_identity_case(self):
        T = regular_tree_ball(2, 4)
        line = regular_tree_ball(1, 4)
        product = millefeuille(line, T)
        product.validate()
        assert line_fiber_isomorphic(product, T)

    def test_tree_times_tree_degree_and_delta(self):
        for p, q in ((1, 2), (2, 2), (2, 3)):
            X = regular_tree_ball(p, 3)
            T = regular_tree_ball(q, 3)
            product = millefeuille(X, T).validate()
            assert {product.degree(v) for v in product.interior} == {p * q + 1}
            assert four_point_delta(product.distance_matrix(), seed=0).delta == 0

    def test_level_invariant_holds(self):
        product = millefeuille(regular_tree_ball(2, 3), regular_tree_ball(2, 3))
        for u, v in product.edges:
            assert abs(product.b[u] - product.b[v]) == 1

    def test_empty_fiber_rejected(self):
        X = regular_tree_ball(1, 2)
        shifted = BusemannGraph(X.vertices, X.edges, {v: X.b[v] + 100 for v in X.vertices}, X.interior)
        with pytest.raises(TreeError):
            millefeuille(X, shifted)

    def test_fiber_level_transitivity(self):
        # within one level set of the coset tree, witnesses have m = 0 and
        # therefore act on every matched fiber product level set
        pts = sample_points(L2, 30, max_len=5, seed=13)
        rng = random.Random(14)
        for _ in range(40):
            v = tree_act(rng.choice(pts), BASEPOINT)
            w = tree_act(rng.choice(pts), BASEPOINT)
            if vertex_level(v) != vertex_level(w):
                continue
            g = tree_transitivity_witness(L2, v, w)
            assert g.m == 0


class TestExports:
    def test_dot_and_csv(self):
        T = regular_tree_ball(2, 2)
        dot = T.to_dot()
        assert dot.startswith("graph") and "--" in dot
        csv_text = T.to_adjacency_csv()
        assert csv_text.splitlines()[0] == "u,v,b_u,b_v"
        assert len(csv_text.splitlines()) == len(T.edges) + 1
