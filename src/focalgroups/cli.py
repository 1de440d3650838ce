"""Batch front-end: family selection, computations, reports, exports.

Every report embeds the config, seed, window and horizon that scope its
claims, and output is deterministic given (config, seed).  Exit codes:
0 success, 1 configuration error, 2 counterexample / bound violation.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import boundary, families, metric, trees, words


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _family(args):
    try:
        return families.family_from_config(args.family)
    except (KeyError, ValueError) as exc:
        raise CliError(f"bad family spec {args.family!r}: {exc}") from exc


def _window(family, args, radius):
    spec = getattr(args, "window", None)
    if not spec:
        return family.default_window(radius)
    parts = [int(p) for p in spec.split(",")]
    if isinstance(family, families.LamplighterFamily):
        lo, hi = parts[0], parts[1]
        levels = parts[2] if len(parts) > 2 else radius
        return families.LamplighterWindow(lo, hi, levels)
    if isinstance(family, families.NadicFamily):
        xmax, dpow = parts[0], parts[1]
        levels = parts[2] if len(parts) > 2 else radius
        return families.NadicWindow(xmax, dpow, levels)
    raise CliError(f"--window not supported for {family.name}; use the default")


def _emit(args, payload, text=None):
    if text is None:
        text = json.dumps(payload, sort_keys=True, indent=2, default=str)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _parse_point(family, text):
    text = text.strip()
    if text.startswith("{"):
        return words.point_from_json(family, json.loads(text))
    return words.evaluate(family, words.parse_word(family, text))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_verify(args):
    family = _family(args)
    window = _window(family, args, args.radius)
    report = families.verify_confining(family, window, exhaust_depth=args.horizon)
    payload = {"seed": args.seed, "confining": report.as_dict()}
    if report.passed and family.a_length_validated:
        distortion = words.distortion_check(family, m_max=3, window=window, seed=args.seed)
        payload["distortion"] = distortion.as_dict()
        ok = distortion.passed
    else:
        ok = False
    _emit(args, payload)
    return 0 if (report.passed and ok) else 2


def cmd_ball(args):
    family = _family(args)
    window = _window(family, args, args.radius)
    pts, D = words.ball_points(family, args.radius, window=window, sample=args.samples, seed=args.seed)
    if args.format == "csv":
        _emit(args, None, text=D.csv_string().rstrip("\n"))
    elif args.format == "dot":
        lines = ["graph ball {"]
        for p in D.points:
            lines.append(f'  "{p}";')
        for i in range(len(D)):
            for j in range(i + 1, len(D)):
                if D.d[i, j] == 1:
                    lines.append(f'  "{D.points[i]}" -- "{D.points[j]}";')
        lines.append("}")
        _emit(args, None, text="\n".join(lines))
    else:
        _emit(
            args,
            {
                "family": family.config(),
                "window": window.as_dict(),
                "radius": args.radius,
                "seed": args.seed,
                "n_points": len(D),
                "points": [p.to_json() for p in pts],
            },
        )
    return 0


def cmd_delta(args):
    family = _family(args)
    window = _window(family, args, args.radius)
    _, D = words.ball_points(family, args.radius, window=window, seed=args.seed)
    report = metric.four_point_delta(D, samples=args.samples or metric.DEFAULT_SAMPLES, seed=args.seed)
    within = metric.delta_within_bound(report.delta, family.n0)
    payload = report.as_dict()
    payload.update(
        {
            "family": family.config(),
            "window": window.as_dict(),
            "radius": args.radius,
            "bound": metric.hyperbolicity_bound(family.n0),
            "within_bound": within,
        }
    )
    _emit(args, payload)
    return 0 if within else 2


def cmd_nf(args):
    family = _family(args)
    letters = words.parse_word(family, args.word)
    nf = words.rewrite_to_normal_form(family, letters)
    x = nf.evaluate()
    _emit(
        args,
        {
            "family": family.config(),
            "input": args.word,
            "input_length": len(letters),
            "normal_form": words.format_word(family, nf.to_word()),
            "i": nf.i,
            "k": nf.k,
            "j": nf.j,
            "length": nf.length(),
            "element": x.to_json(),
        },
    )
    return 0


def cmd_dist(args):
    family = _family(args)
    x = _parse_point(family, args.element)
    length = words.word_length(x, unchecked=args.unchecked)
    witness = words.geodesic_witness(x, unchecked=args.unchecked)
    _emit(
        args,
        {
            "family": family.config(),
            "element": x.to_json(),
            "length": length,
            "witness": words.format_word(family, witness),
        },
    )
    return 0


def cmd_classify(args):
    family = _family(args)
    gens = [_parse_point(family, g) for g in args.generators] or [
        words.alpha_point(family, 1)
    ]
    verdict = boundary.action_type(gens, L=args.horizon, unchecked=args.unchecked)
    isometries = [boundary.isometry_type(g, N=args.horizon * 4) for g in gens]
    payload = {
        "family": family.config(),
        "horizon": args.horizon,
        "seed": args.seed,
        "action": verdict.as_dict(),
        "generators": [
            {"element": g.to_json(), "isometry": t.as_dict()} for g, t in zip(gens, isometries)
        ],
    }
    _emit(args, payload)
    if args.exact_only and not (verdict.exact and all(t.exact for t in isometries)):
        return 2
    return 0


def cmd_beta(args):
    family = _family(args)
    x = _parse_point(family, args.element)
    est = boundary.busemann_quasicharacter(x, N=args.horizon, unchecked=args.unchecked)
    payload = {"family": family.config(), "element": x.to_json(), "horizon": args.horizon}
    payload.update(est.as_dict())
    _emit(args, payload)
    return 0


def cmd_tree(args):
    family = _family(args)
    ball = trees.lamplighter_tree_ball(family, args.radius)
    if args.format == "dot":
        _emit(args, None, text=ball.to_dot())
        return 0
    if args.format == "csv":
        _emit(args, None, text=ball.to_adjacency_csv().rstrip("\n"))
        return 0
    probe = trees.tree_qi_probe(family, count=100, max_len=args.radius, seed=args.seed)
    degrees = sorted({ball.degree(v) for v in ball.interior})
    _emit(
        args,
        {
            "family": family.config(),
            "radius": args.radius,
            "seed": args.seed,
            "n_vertices": len(ball.vertices),
            "interior_degrees": degrees,
            "orbit_probe": probe.as_dict(),
        },
    )
    return 0


def _tree_spec(spec, levels):
    spec = spec.strip()
    name, _, lv = spec.partition(":")
    levels = int(lv) if lv else levels
    if name == "line":
        return trees.regular_tree_ball(1, levels)
    if name.startswith("T"):
        degree = int(name[1:])
        if degree < 2:
            raise CliError(f"tree spec {spec!r}: degree must be >= 2")
        return trees.regular_tree_ball(degree - 1, levels)
    raise CliError(f"bad tree spec {spec!r} (use line, T3, T4:5, ...)")


def cmd_millefeuille(args):
    X = _tree_spec(args.left, args.radius)
    T = _tree_spec(args.right, args.radius)
    product = trees.millefeuille(X, T)
    product.validate()
    if args.format == "dot":
        _emit(args, None, text=product.to_dot())
        return 0
    if args.format == "csv":
        _emit(args, None, text=product.to_adjacency_csv().rstrip("\n"))
        return 0
    D = product.distance_matrix()
    report = metric.four_point_delta(D, seed=args.seed)
    payload = report.as_dict()
    payload.update(
        {
            "left": args.left,
            "right": args.right,
            "radius": args.radius,
            "n_vertices": len(product.vertices),
            "interior_degrees": sorted({product.degree(v) for v in product.interior}),
        }
    )
    _emit(args, payload)
    return 0


def cmd_schottky(args):
    family = _family(args)
    a = _parse_point(family, args.a)
    b = _parse_point(family, args.b)
    report = boundary.schottky_semigroup_check(a, b, L=args.horizon)
    payload = {
        "family": family.config(),
        "a": a.to_json(),
        "b": b.to_json(),
        "horizon": args.horizon,
    }
    payload.update(report.as_dict())
    _emit(args, payload)
    return 0


def cmd_report(args):
    family = _family(args)
    window = _window(family, args, args.radius)
    confining = families.verify_confining(family, window)
    payload = {
        "family": family.config(),
        "window": window.as_dict(),
        "radius": args.radius,
        "horizon": args.horizon,
        "seed": args.seed,
        "confining": confining.as_dict(),
    }
    if confining.passed and family.a_length_validated:
        payload["distortion"] = words.distortion_check(family, window=window, seed=args.seed).as_dict()
        _, D = words.ball_points(family, args.radius, window=window, seed=args.seed)
        delta = metric.four_point_delta(D, seed=args.seed)
        payload["delta"] = delta.as_dict()
        payload["delta"]["bound"] = metric.hyperbolicity_bound(family.n0)
        payload["delta"]["within_bound"] = metric.delta_within_bound(delta.delta, family.n0)
        payload["compaction_index"] = family.compaction_index()
        alpha = words.alpha_point(family, 1)
        payload["beta_alpha"] = boundary.busemann_quasicharacter(alpha, N=args.horizon).as_dict()
        gens = [alpha] + [
            words.h_point(family, a)
            for a in list(family.iter_A_window(window))[:2]
            if a != family.identity()
        ]
        payload["action"] = boundary.action_type(gens, L=args.horizon, delta=delta.delta).as_dict()
    _emit(args, payload)
    return 0


# ---------------------------------------------------------------------------


def build_parser():
    parser = _Parser(prog="focalgroups", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, radius=6):
        p.add_argument("--family", default="lamplighter:2", help="family spec, e.g. lamplighter:2, nadic:3, product(lamplighter:2,nadic:2), or JSON")
        p.add_argument("--radius", type=int, default=radius)
        p.add_argument("--window", default=None, help="family window, e.g. '-3,3' (lamplighter) or '4,4' (nadic)")
        p.add_argument("--horizon", type=int, default=8)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=["json", "csv", "dot"], default="json")
        p.add_argument("--out", default=None, help="write the report to this path")
        p.add_argument("--unchecked", action="store_true", help="trust unvalidated a_length oracles")
        p.add_argument("--exact-only", dest="exact_only", action="store_true", help="exit 2 unless every emitted verdict is exact")

    p = sub.add_parser("verify", help="confining axioms and distortion inclusions")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("ball", help="windowed ball with exact pairwise distances")
    common(p)
    p.add_argument("--samples", type=int, default=None, help="sample this many points instead of exhausting the window")
    p.set_defaults(func=cmd_ball, format="csv")

    p = sub.add_parser("delta", help="four-point hyperbolicity constant of a ball")
    common(p)
    p.add_argument("--samples", type=int, default=None, help="quadruple sample count beyond the exhaustive cutoff")
    p.set_defaults(func=cmd_delta)

    p = sub.add_parser("nf", help="rewrite a word to normal form")
    common(p)
    p.add_argument("word", help="word like 'a- g{0:1} a+'")
    p.set_defaults(func=cmd_nf)

    p = sub.add_parser("dist", help="exact word length and geodesic witness")
    common(p)
    p.add_argument("element", help="word or element JSON")
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("classify", help="action type of a generated subgroup")
    common(p)
    p.add_argument("generators", nargs="*", help="generator words, e.g. a+ 'g{0:1}'")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("beta", help="Busemann quasicharacter of an element")
    common(p)
    p.add_argument("element")
    p.set_defaults(func=cmd_beta, horizon=16)

    p = sub.add_parser("tree", help="coset tree ball, action probe, exports")
    common(p, radius=4)
    p.set_defaults(func=cmd_tree)

    p = sub.add_parser("millefeuille", help="fiber product of two levelled trees")
    common(p, radius=3)
    p.add_argument("left", help="tree spec: line, T3, T4:5, ...")
    p.add_argument("right")
    p.set_defaults(func=cmd_millefeuille)

    p = sub.add_parser("schottky", help="free subsemigroup probe for a pair")
    common(p)
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=cmd_schottky, horizon=10)

    p = sub.add_parser("report", help="full battery for one family")
    common(p)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (families.FamilyError, words.WordError, words.UnvalidatedFamilyError, trees.TreeError, metric.MetricError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
