"""Batch front-end: family selection, computations, reports, exports.

Every report embeds the config, seed, window and horizon that scope its
claims, and output is deterministic given (config, seed).  Exit codes:
0 success, 1 configuration error, 2 counterexample / bound violation.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import re
import sys

import numpy as np

from . import boundary, families, metric, trees, words


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads an argument that starts with "-" as a flag unless it
        # looks like a negative number; a window such as -1,1;1,1 is a value.
        self._negative_number_matcher = re.compile(r"^-\d[\d,;-]*$")

    def error(self, message):
        raise CliError(message)


def _family(args):
    try:
        family = families.family_from_config(args.family)
    except (KeyError, ValueError) as exc:
        raise CliError(f"bad family spec {args.family!r}: {exc}") from exc
    return family.unchecked() if getattr(args, "unchecked", False) else family


def _window(family, args):
    """--window for family, or its default window for --radius.

    A lamplighter window is 'lo,hi' and an n-adic one 'xmax,dpow', with an
    optional ',levels'; a product's is 'LEFT;RIGHT' with an optional
    ';levels', each side in its factor's two-integer form.  Levels
    default to --radius."""
    if not args.window:
        return family.default_window(args.radius)
    product = isinstance(family, families.ProductFamily)
    parts = args.window.split(";" if product else ",")
    if len(parts) not in (2, 3):
        form = "'LEFT;RIGHT' or 'LEFT;RIGHT;LEVELS'" if product else "2 or 3 comma-separated integers"
        raise CliError(f"--window {args.window!r}: give {form}")
    levels = int(parts[2]) if len(parts) == 3 else args.radius
    if product:
        return families.ProductWindow(
            _factor_window(family.left, parts[0], levels), _factor_window(family.right, parts[1], levels), levels
        )
    return _factor_window(family, ",".join(parts[:2]), levels)


def _factor_window(family, text, levels):
    """The window 'lo,hi' of a lamplighter family or 'xmax,dpow' of an
    n-adic one, with the given levels."""
    pair = [int(p) for p in text.split(",")]
    if len(pair) != 2:
        raise CliError(f"--window side {text!r}: give 2 comma-separated integers")
    if isinstance(family, families.LamplighterFamily):
        return families.LamplighterWindow(*pair, levels)
    if isinstance(family, families.NadicFamily):
        return families.NadicWindow(*pair, levels)
    raise CliError(f"--window not supported for {family.name}; use the default")


def _emit(args, payload, text=None):
    if text is None:
        text = json.dumps(payload, sort_keys=True, indent=2, default=str)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _parse_point(family, text):
    text = text.strip()
    if text.startswith("{"):
        return words.point_from_json(family, json.loads(text))
    return words.evaluate(family, words.parse_word(family, text))


def _delta_verdict(family, D, seed):
    """The four-point constant of D against the thin-triangle bound for
    family: (report, payload with `bound` and `within_bound` added).  The
    verdict rests on the report's upper bound, so it holds for the exact
    constant."""
    report = metric.four_point_delta(D, seed=seed)
    payload = report.as_dict()
    payload["bound"] = metric.hyperbolicity_bound(family.n0)
    payload["within_bound"] = metric.delta_within_bound(report.upper, family.n0)
    return report, payload


def _export_graph(args, graph):
    """Emit graph as DOT or adjacency CSV when --format asks for one;
    return whether it did."""
    if args.format == "dot":
        _emit(args, None, text=graph.to_dot())
    elif args.format == "csv":
        _emit(args, None, text=graph.to_adjacency_csv().rstrip("\n"))
    else:
        return False
    return True


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_verify(args):
    family = _family(args)
    window = _window(family, args)
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
    if args.samples is not None and args.samples < 0:
        raise CliError(f"--samples {args.samples}: must be >= 0")
    family = _family(args)
    window = _window(family, args)
    pts, D = words.ball_points(family, args.radius, window=window, sample=args.samples, seed=args.seed)
    if args.format == "csv":
        _emit(args, None, text=D.csv_string().rstrip("\n"))
    elif args.format == "dot":
        lines = ["graph ball {"]
        lines += [f'  "{p}";' for p in D.points]
        rows, cols = np.nonzero(np.triu(D.d == 1, 1))  # row-major: the order of a loop over i < j
        lines += [f'  "{D.points[i]}" -- "{D.points[j]}";' for i, j in zip(rows.tolist(), cols.tolist())]
        lines.append("}")
        _emit(args, None, text="\n".join(lines))
    else:
        payload = {
            "family": family.config(),
            "window": window.as_dict(),
            "radius": args.radius,
            "seed": args.seed,
            "n_points": len(D),
            "points": [p.to_json() for p in pts],
        }
        if args.samples is not None:
            # Sampled words have at most `radius` letters, so the radius
            # filter keeps every sampled point: a short ball means the
            # sampler's attempt limit stopped it.
            payload["samples_requested"] = args.samples
            payload["complete"] = len(pts) == args.samples
        _emit(args, payload)
    return 0


def cmd_delta(args):
    family = _family(args)
    window = _window(family, args)
    _, D = words.ball_points(family, args.radius, window=window, seed=args.seed)
    delta, payload = _delta_verdict(family, D, args.seed)
    payload.update({"family": family.config(), "window": window.as_dict(), "radius": args.radius})
    _emit(args, payload)
    if args.exact_only and not delta.exhaustive:
        return 2
    return 0 if payload["within_bound"] else 2


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
    length = words.word_length(x)
    witness = words.geodesic_witness(x)
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
    verdict = boundary.action_type(gens, L=args.horizon)
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
    est = boundary.busemann_quasicharacter(x, N=args.horizon)
    payload = {"family": family.config(), "element": x.to_json(), "horizon": args.horizon}
    payload.update(est.as_dict())
    _emit(args, payload)
    return 0


def cmd_tree(args):
    family = _family(args)
    ball = trees.lamplighter_tree_ball(family, args.radius)
    if _export_graph(args, ball):
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
    if _export_graph(args, product):
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
    window = _window(family, args)
    confining = families.verify_confining(family, window)
    payload = {
        "family": family.config(),
        "window": window.as_dict(),
        "radius": args.radius,
        "horizon": args.horizon,
        "seed": args.seed,
        "confining": confining.as_dict(),
    }
    if not (confining.passed and family.a_length_validated):
        # Nothing below holds without the axioms and a validated a_length.
        _emit(args, payload)
        return 2
    distortion = words.distortion_check(family, window=window, seed=args.seed)
    payload["distortion"] = distortion.as_dict()
    _, D = words.ball_points(family, args.radius, window=window, seed=args.seed)
    delta, payload["delta"] = _delta_verdict(family, D, args.seed)
    payload["compaction_index"] = family.compaction_index()
    alpha = words.alpha_point(family, 1)
    payload["beta_alpha"] = boundary.busemann_quasicharacter(alpha, N=args.horizon).as_dict()
    # <alpha, a> for the first windowed A-letter a other than the identity.
    gens = [alpha] + [words.h_point(family, a) for a in itertools.islice(words.window_a_letters(family, window), 1)]
    action = boundary.action_type(gens, L=args.horizon)
    payload["action"] = action.as_dict()
    _emit(args, payload)
    if not (distortion.passed and payload["delta"]["within_bound"]):
        return 2
    if args.exact_only and not (delta.exhaustive and action.exact):
        return 2
    return 0


# ---------------------------------------------------------------------------


def positive_int(text):
    """An integer >= 1, as an argparse type."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value}: must be >= 1")
    return value


# Every option a subcommand can declare: flag name -> add_argument keywords.
# Each subcommand declares only the flags its handler reads, plus --out.
OPTIONS = {
    "family": dict(default="lamplighter:2", help="family spec, e.g. lamplighter:2, nadic:3, product(lamplighter:2,nadic:2), or JSON"),
    "radius": dict(type=int, default=6),
    "window": dict(
        default=None,
        help="family window, e.g. '-3,3' (lamplighter), '4,4' (nadic) or '-1,1;1,1' (product), with an optional last part for levels",
    ),
    "horizon": dict(type=positive_int, default=8),
    "seed": dict(type=int, default=0),
    "format": dict(choices=["json", "csv", "dot"], default="json"),
    "samples": dict(type=int, default=None, help="sample this many ball points instead of exhausting the window"),
    "unchecked": dict(action="store_true", help="trust unvalidated a_length oracles"),
    "exact-only": dict(action="store_true", help="exit 2 unless every emitted verdict is exact"),
    "out": dict(default=None, help="write the report to this path"),
}


@functools.cache
def build_parser():
    """The argparse tree, built once and shared by every main() call."""
    parser = _Parser(prog="focalgroups", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help, flags, **defaults):
        p = sub.add_parser(name, help=help)
        for flag in flags + ("out",):
            p.add_argument(f"--{flag}", **OPTIONS[flag])
        p.set_defaults(func=func, **defaults)
        return p

    add("verify", cmd_verify, "confining axioms and distortion inclusions", ("family", "radius", "window", "horizon", "seed"))
    add("ball", cmd_ball, "windowed ball with exact pairwise distances", ("family", "radius", "window", "seed", "format", "samples"), format="csv")
    add("delta", cmd_delta, "four-point hyperbolicity constant of a ball", ("family", "radius", "window", "seed", "exact-only"))

    p = add("nf", cmd_nf, "rewrite a word to normal form", ("family",))
    p.add_argument("word", help="word like 'a- g{0:1} a+'")

    p = add("dist", cmd_dist, "exact word length and geodesic witness", ("family", "unchecked"))
    p.add_argument("element", help="word or element JSON")

    p = add("classify", cmd_classify, "action type of a generated subgroup", ("family", "horizon", "seed", "unchecked", "exact-only"))
    p.add_argument("generators", nargs="*", help="generator words, e.g. a+ 'g{0:1}'")

    p = add("beta", cmd_beta, "Busemann quasicharacter of an element", ("family", "horizon", "unchecked"), horizon=16)
    p.add_argument("element")

    add("tree", cmd_tree, "coset tree ball, action probe, exports", ("family", "radius", "seed", "format"), radius=4)

    p = add("millefeuille", cmd_millefeuille, "fiber product of two levelled trees", ("radius", "seed", "format"), radius=3)
    p.add_argument("left", help="tree spec: line, T3, T4:5, ...")
    p.add_argument("right")

    p = add("schottky", cmd_schottky, "free subsemigroup probe for a pair", ("family", "horizon", "unchecked"), horizon=10)
    p.add_argument("a")
    p.add_argument("b")

    add("report", cmd_report, "full battery for one family", ("family", "radius", "window", "horizon", "seed", "exact-only"))
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (CliError, ValueError, OSError, words.UnvalidatedFamilyError) as exc:
        # FamilyError, WordError, TreeError, MetricError and JSONDecodeError are ValueErrors.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
