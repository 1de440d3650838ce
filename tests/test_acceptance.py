"""Acceptance battery: one criterion per test, each printing a PASS/FAIL
line (run with -s to see them inline).  Tolerances are pinned here and
nowhere else; metric comparisons are exact integer arithmetic.

Run:  pytest tests/test_acceptance.py -v -s
"""

import hashlib
import random
import time
from fractions import Fraction

import pytest

from focalgroups.boundary import (
    ELLIPTIC,
    FOCAL,
    HOROCYCLIC,
    HYPERBOLIC,
    LINEAL,
    PARABOLIC,
    action_type,
    busemann_quasicharacter,
    horokernel,
    isometry_type,
    orbit_lengths,
    schottky_semigroup_check,
)
from focalgroups.families import (
    LamplighterFamily,
    LamplighterWindow,
    NadicFamily,
    NadicWindow,
    ProductFamily,
)
from focalgroups.metric import delta_within_bound, four_point_delta
from focalgroups.trees import (
    BASEPOINT,
    lamplighter_tree_ball,
    line_fiber_isomorphic,
    millefeuille,
    regular_tree_ball,
    tree_act,
    tree_transitivity_witness,
    vertex_level,
)
from focalgroups.words import (
    alpha_point,
    ball_points,
    bfs_oracle,
    distortion_check,
    evaluate,
    geodesic_witness,
    h_point,
    identity_point,
    k0_bound,
    random_word,
    rewrite_to_normal_form,
    sample_points,
    window_a_letters,
    word_length,
)

L2 = LamplighterFamily(2)
L3 = LamplighterFamily(3)
N2 = NadicFamily(2)
N3 = NadicFamily(3)

BALL_WINDOWS = {
    L2: LamplighterWindow(-3, 3, 6),
    N2: NadicWindow(4, 4, 6),
}


# Point count and sha256 digests of the radius-6 balls: the matrix over
# D.d as little-endian int64 bytes, the ids over "\n".join(D.points).
RADIUS6_DIGESTS = {
    L2: (
        866,
        "3d84ef2ad854520d7a98b23156a0f911ae4f13423aedaac1b5089928af6b2677",
        "ed49e345ed430890d642486646b585d916ad6564513d65e1f077ab5d531d09c7",
    ),
    N2: (
        1229,
        "19e656385eb035bc43d6832c0cb00a3ef39df36399dd2b9d5c2866ac7eee7684",
        "d7807cbee09a5f920d705594b6f90a7d500f4cbe8cabebe89b47c47a1062d7dd",
    ),
}


def report(number, ok, detail):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def radius6():
    """Radius-6 windowed balls and their four-point constants."""
    out = {}
    for family in (L2, N2):
        t0 = time.monotonic()
        _, D = ball_points(family, 6, window=BALL_WINDOWS[family])
        delta = four_point_delta(D, seed=0)
        out[family] = {"D": D, "delta": delta, "elapsed": time.monotonic() - t0}
    return out


def test_criterion_1_delta_bound(radius6):
    details = []
    ok = True
    for family, bound_text in ((L2, "16"), (N2, "16*log2(3)")):
        entry = radius6[family]
        within = delta_within_bound(entry["delta"].upper, family.n0)
        in_time = entry["elapsed"] < 120.0
        ok = ok and within and in_time
        details.append(
            f"{family.name}: delta in [{entry['delta'].delta}, {entry['delta'].upper}] <= {bound_text} on "
            f"{entry['delta'].n_points} points in {entry['elapsed']:.1f}s"
        )
    report(1, ok, "; ".join(details))


def test_radius6_balls_pinned(radius6):
    for family, (n_points, matrix, ids) in RADIUS6_DIGESTS.items():
        D = radius6[family]["D"]
        assert len(D) == n_points
        assert hashlib.sha256(D.d.astype("<i8").tobytes()).hexdigest() == matrix
        assert hashlib.sha256("\n".join(D.points).encode()).hexdigest() == ids


def test_criterion_2_oracle_equivalence():
    specs = [
        (L2, LamplighterWindow(-3, 3, 5), 5),
        (N2, NadicWindow(4, 4, 6), 6),
    ]
    details = []
    ok = True
    for family, window, radius in specs:
        res = bfs_oracle(family, window, radius=radius)
        mismatches = [k for k in res.trusted if res.dist[k] != word_length(res.points[k])]
        ok = ok and res.trusted and not mismatches
        details.append(f"{family.name}: {len(res.trusted)}/{len(res.points)} trusted, {len(mismatches)} mismatches")
    report(2, ok, "; ".join(details))


def test_criterion_3_normal_form_suite():
    details = []
    ok = True
    for family in (L2, N2, ProductFamily(L2, N2)):
        rng = random.Random(33)
        letters = window_a_letters(family, family.default_window(4))
        k0 = k0_bound(family.n0)
        bad_eval = bad_len = bad_k = 0
        for _ in range(10_000):
            w = random_word(family, rng, 10, letters)
            nf = rewrite_to_normal_form(family, w)
            x = evaluate(family, w)
            if nf.evaluate() != x:
                bad_eval += 1
            if nf.length() > len(w):
                bad_len += 1
            witness = geodesic_witness(x)
            if rewrite_to_normal_form(family, witness).k > k0:
                bad_k += 1
        ok = ok and not (bad_eval or bad_len or bad_k)
        details.append(f"{family.name}: eval={bad_eval} len={bad_len} k>{k0}={bad_k} violations")
    report(3, ok, "; ".join(details))


def test_criterion_4_distortion_inclusion():
    lamp = distortion_check(L2, m_max=3, window=LamplighterWindow(-3, 3, 6))
    nadic = distortion_check(N2, m_max=3, window=NadicWindow(2, 3, 6), samples=1000, seed=0)
    ok = lamp.passed and lamp.complete and nadic.passed
    report(
        4,
        ok,
        f"lamplighter exhaustive ({lamp.checked} products), nadic sampled ({nadic.checked} products); "
        f"violations: {len(lamp.violations) + len(nadic.violations)}",
    )


def test_criterion_5_busemann_character(radius6):
    details = []
    ok = True
    for family in (L2, N2):
        delta = radius6[family]["delta"].delta
        bound = 2 * delta + 2
        one = identity_point(family)

        beta_alpha = busemann_quasicharacter(alpha_point(family, 1))
        ok_alpha = beta_alpha.value == 1 and beta_alpha.estimate == 1

        ok_H = True
        for a in list(family.iter_A_window(family.default_window(4)))[:20]:
            est = busemann_quasicharacter(h_point(family, a), N=8)
            # exact value vanishes on H; the numeric estimate h(1, g^N)/N
            # carries the bounded increment divided by the horizon
            if est.value != 0 or abs(est.estimate) > Fraction(1, 8):
                ok_H = False

        worst = Fraction(0)
        for g in sample_points(family, 1000, max_len=8, seed=55):
            gap = abs(busemann_quasicharacter(g, N=4).value - horokernel(one, g))
            worst = max(worst, gap)
        ok_gap = worst <= bound

        g = h_point(family, next(iter(window_a_letters(family, family.default_window(3))))) * alpha_point(family, 2)
        ok_hom = all(busemann_quasicharacter(g**n, N=4).value == n * g.m for n in range(-8, 9))

        ok = ok and ok_alpha and ok_H and ok_gap and ok_hom
        details.append(
            f"{family.name}: beta(alpha)=1:{ok_alpha} beta|H=0:{ok_H} "
            f"max|beta-h(1,g)|={worst}<= {bound}:{ok_gap} homogeneity:{ok_hom}"
        )
    report(5, ok, "; ".join(details))


def test_criterion_6_classification():
    checks = []

    t = isometry_type(h_point(L2, L2.lamp(0)))
    checks.append(("lamp elliptic", t.kind == ELLIPTIC and t.exact))

    t = isometry_type(h_point(N2, N2.element(1)))
    checks.append(("nadic unit parabolic", t.kind == PARABOLIC and t.exact))

    # hyperbolic with tau = |m|, brute-forced over 64 powers for |m| <= 3
    ok_hyp = True
    for family in (L2, N2):
        for base in sample_points(family, 4, max_len=3, seed=66):
            for m in (-3, -2, -1, 1, 2, 3):
                g = base * alpha_point(family, m - base.m)
                if isometry_type(g).kind != HYPERBOLIC:
                    ok_hyp = False
                lengths = orbit_lengths(g, 64)
                excess = [dn - (i + 1) * abs(m) for i, dn in enumerate(lengths)]
                if min(excess) < 0 or excess[63] != excess[31]:
                    ok_hyp = False
    checks.append(("m!=0 hyperbolic, tau=|m| certified to n=64", ok_hyp))

    v = action_type([h_point(N2, N2.element(1)), h_point(N2, N2.element(Fraction(1, 2)))], L=8)
    checks.append(("A-generators horocyclic", v.kind == HOROCYCLIC))

    checks.append(("<alpha> lineal", action_type([alpha_point(L2, 1)], L=8).kind == LINEAL))

    focal_l = action_type([alpha_point(L2, 1), h_point(L2, L2.lamp(0))], L=8).kind == FOCAL
    focal_n = action_type([alpha_point(N2, 1), h_point(N2, N2.element(1))], L=8).kind == FOCAL
    checks.append(("full group focal", focal_l and focal_n))

    ok = all(passed for _, passed in checks)
    report(6, ok, "; ".join(f"{name}:{passed}" for name, passed in checks))


def test_criterion_7_tree_suite():
    rng = random.Random(77)
    details = []

    ok_regular = True
    for family, deg in ((L2, 3), (L3, 4)):
        ball = lamplighter_tree_ball(family, 4).validate()
        if {ball.degree(v) for v in ball.interior} != {deg}:
            ok_regular = False
    details.append(f"(q+1)-regular balls:{ok_regular}")

    pts = sample_points(L2, 200, max_len=6, seed=7)
    ok_equi = True
    for _ in range(1000):
        g = rng.choice(pts)
        v = tree_act(rng.choice(pts), BASEPOINT)
        if vertex_level(tree_act(g, v)) != vertex_level(v) - g.m:
            ok_equi = False
    details.append(f"equivariance 10^3 pairs:{ok_equi}")

    ok_trans = True
    for _ in range(100):
        v = tree_act(rng.choice(pts), BASEPOINT)
        w = tree_act(rng.choice(pts), BASEPOINT)
        g = tree_transitivity_witness(L2, v, w)
        if tree_act(g, v) != w:
            ok_trans = False
    details.append(f"transitivity 10^2 pairs:{ok_trans}")

    ok_index = (
        L2.compaction_index() == 2
        and L3.compaction_index() == 3
        and LamplighterFamily(5).compaction_index() == 5
        and N2.compaction_index() == 2
        and N3.compaction_index() == 3
        and ProductFamily(L2, N3).compaction_index() == 6
    )
    details.append(f"compaction indices:{ok_index}")

    ok = ok_regular and ok_equi and ok_trans and ok_index
    report(7, ok, "; ".join(details))


def test_criterion_8_millefeuille():
    details = []

    T = regular_tree_ball(2, 4)
    line = regular_tree_ball(1, 4)
    iso = line_fiber_isomorphic(millefeuille(line, T).validate(), T)
    details.append(f"line x T == T:{iso}")

    ok_deg = True
    for p, q in ((1, 2), (2, 2), (2, 3)):
        product = millefeuille(regular_tree_ball(p, 3), regular_tree_ball(q, 3)).validate()
        degrees = {product.degree(v) for v in product.interior}
        delta = four_point_delta(product.distance_matrix(), seed=0).delta
        if degrees != {p * q + 1} or delta != 0:
            ok_deg = False
        details.append(f"T{p+1}xT{q+1}: degrees={sorted(degrees)} delta={delta}")

    ok = iso and ok_deg
    report(8, ok, "; ".join(details))


def test_criterion_9_schottky():
    a = alpha_point(L2, 1)
    b = a * h_point(L2, L2.lamp(0))
    good = schottky_semigroup_check(a, b, L=10)
    ok_good = (
        good.injective
        and good.words_checked == 2**11 - 2
        and good.report.multiplicative_constant >= 1
        and good.report.additive_constant >= 0
    )

    bad = schottky_semigroup_check(h_point(L2, L2.lamp(0)), h_point(L2, L2.lamp(1)), L=10)
    ok_bad = not bad.injective

    ok = ok_good and ok_bad
    report(
        9,
        ok,
        f"(alpha, alpha.lamp): injective on {good.words_checked} words, "
        f"lambda={good.report.multiplicative_constant}, c={good.report.additive_constant}; "
        f"(lamp0, lamp1) rejected:{ok_bad}",
    )
