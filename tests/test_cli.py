import argparse
import hashlib
import json
import pathlib
import shlex
from fractions import Fraction
from unittest import mock

import pytest

from focalgroups import boundary, words
from focalgroups.cli import _delta_verdict, _emit, build_parser, main
from focalgroups.families import LamplighterFamily
from focalgroups.metric import graph_distance_matrix


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_lamplighter_defaults_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "lamplighter:2")
        assert code == 0
        payload = json.loads(out)
        assert payload["confining"]["passed"]
        assert payload["distortion"]["passed"]
        assert payload["confining"]["window"] == {"lo": -3, "hi": 3, "levels": 6}

    def test_spoof_family_fails_with_witness(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "spoof-identity:2")
        assert code == 2
        payload = json.loads(out)
        assert not payload["confining"]["passed"]
        assert payload["confining"]["strict_witness"] is None

    def test_malformed_family_is_config_error(self, capsys):
        code, _, err = run(capsys, "verify", "--family", "no-such-family")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize(
        "spec",
        [
            '{"family":"lamplighter","q":[2]}',
            '{"family":"nadic","n":null}',
            '{"family":"product","left":5,"right":"nadic:2"}',
            '{"family":"lamplighter","q":2.7}',
        ],
        ids=["q-list", "n-null", "left-number", "q-float"],
    )
    def test_malformed_family_json_is_config_error(self, capsys, spec):
        code, out, err = run(capsys, "verify", "--family", spec)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestDelta:
    def test_within_bound(self, capsys):
        code, out, _ = run(capsys, "delta", "--family", "lamplighter:2", "--radius", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["within_bound"]
        assert payload["bound"] == 16.0
        assert {"delta", "upper", "method", "witness", "n_points", "exhaustive", "samples", "seed"} <= set(payload)
        # 146 points, above the exact cutoff: the centre reaches the ceiling.
        assert payload["method"] == "ceiling" and payload["delta"] == payload["upper"] == 1.0

    def test_nadic_bound_value(self, capsys):
        code, out, _ = run(capsys, "delta", "--family", "nadic:2", "--radius", "4", "--window", "2,3")
        payload = json.loads(out)
        assert code == 0
        assert abs(payload["bound"] - 25.359) < 0.01

    def test_deterministic_bytes(self, capsys):
        _, out1, _ = run(capsys, "delta", "--family", "lamplighter:2", "--radius", "5", "--seed", "7")
        _, out2, _ = run(capsys, "delta", "--family", "lamplighter:2", "--radius", "5", "--seed", "7")
        assert out1 == out2

    def test_verdict_rests_on_the_upper_bound(self):
        # A 48-cycle with a 20-vertex tail: above the exact cutoff, its interval
        # [12, 24] straddles lamplighter:2's bound of 16, so only the lower end fits.
        n, tail = 48, 20
        adjacency = [[(i - 1) % n, (i + 1) % n] for i in range(n)] + [[] for _ in range(tail)]
        for j in range(n, n + tail):
            adjacency[j].append(j - 1 if j > n else 0)
            adjacency[j - 1 if j > n else 0].append(j)
        D = graph_distance_matrix(list(range(n + tail)), adjacency)
        report, payload = _delta_verdict(LamplighterFamily(2), D, seed=0)
        assert (report.delta, report.upper, payload["bound"]) == (12, 24, 16.0)
        assert not payload["within_bound"]

    def test_no_samples_flag(self, capsys):
        code, out, err = run(capsys, "delta", "--family", "lamplighter:2", "--radius", "2", "--samples", "10")
        assert code == 1 and out == ""
        assert err.startswith("error: unrecognized arguments")

    def test_exact_only(self, capsys):
        # 18 points take the exact interval; nadic:2 r4 (425 points) the
        # basepoint one, [3/2, 3], which no proof closes.
        code, out, _ = run(capsys, "delta", "--family", "lamplighter:2", "--radius", "2", "--exact-only")
        assert code == 0 and json.loads(out)["method"] == "exact"
        code, out, _ = run(capsys, "delta", "--family", "nadic:2", "--radius", "4", "--exact-only")
        payload = json.loads(out)
        assert code == 2 and payload["method"] == "basepoints" and payload["within_bound"]
        assert (payload["delta"], payload["upper"]) == (1.5, 3.0)

    @pytest.mark.parametrize("seed, code, interval", [("0", 2, (1.5, 2.0)), ("1", 0, (2.0, 2.0)), ("2", 0, (2.0, 2.0))])
    def test_exact_only_when_the_bounds_meet(self, capsys, seed, code, interval):
        # Bounds that meet are exact, whatever the method: at seeds 1 and 2
        # the seeded basepoint of this 1,431-point ball attains twice the
        # centre's constant.
        argv = ["delta", "--family", "product(nadic:2,nadic:3)", "--radius", "2", "--exact-only", "--seed", seed]
        got, out, _ = run(capsys, *argv)
        payload = json.loads(out)
        assert got == code and payload["method"] == "basepoints"
        assert (payload["delta"], payload["upper"]) == interval and payload["exhaustive"] == (code == 0)

    def test_product_window(self, capsys):
        # Above radius 4 the product's default window passes its cap.
        argv = ["delta", "--family", "product(lamplighter:2,nadic:3)", "--radius", "5", "--window", "-1,1;1,1"]
        code, out, _ = run(capsys, *argv)
        payload = json.loads(out)
        assert code == 0 and payload["n_points"] == 450
        assert payload["window"] == {
            "left": {"lo": -1, "hi": 1, "levels": 5},
            "right": {"xmax": 1, "dpow": 1, "levels": 5},
            "levels": 5,
        }

    def test_product_window_above_cap_is_config_error(self, capsys):
        code, out, err = run(capsys, "delta", "--family", "product(lamplighter:2,nadic:2)", "--radius", "7")
        assert code == 1 and out == ""
        assert err == "error: product window has 20608 elements, above its cap of 20000\n"

    def test_ball_above_the_point_limit_is_config_error(self, capsys):
        with mock.patch.object(words, "BALL_POINT_LIMIT", 17):
            code, out, err = run(capsys, "delta", "--family", "lamplighter:2", "--radius", "2")
        assert code == 1 and out == ""
        assert err == "error: the ball has 18 points, above the limit of 17\n"


class TestBall:
    def test_csv_output(self, capsys):
        import csv
        import io

        code, out, _ = run(capsys, "ball", "--family", "lamplighter:2", "--radius", "2")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == len(rows[0]) + 1
        assert rows[1][0].isdigit()

    def test_dot_output(self, capsys):
        code, out, _ = run(capsys, "ball", "--family", "lamplighter:2", "--radius", "2", "--format", "dot")
        assert code == 0 and out.startswith("graph")

    def test_negative_samples_is_config_error(self, capsys):
        code, out, err = run(capsys, "ball", "--family", "lamplighter:2", "--radius", "2", "--samples", "-5", "--format", "json")
        assert code == 1 and out == ""
        assert err.startswith("error: --samples -5")

    def test_short_sample_is_incomplete(self, capsys):
        # Words of at most 2 letters over one lamp and alpha+- reach fewer than 50 points.
        argv = ["ball", "--family", "lamplighter:2", "--radius", "2", "--window", "0,0,1", "--format", "json"]
        code, out, _ = run(capsys, *argv, "--samples", "50")
        payload = json.loads(out)
        assert code == 0 and payload["n_points"] < 50
        assert payload["samples_requested"] == 50 and payload["complete"] is False
        code, out, _ = run(capsys, *argv, "--samples", "3")
        payload = json.loads(out)
        assert code == 0 and payload["n_points"] == 3
        assert payload["samples_requested"] == 3 and payload["complete"] is True
        _, out, _ = run(capsys, *argv)
        assert "samples_requested" not in json.loads(out) and "complete" not in json.loads(out)

    @pytest.mark.parametrize(
        "family, window",
        [("lamplighter:2", "-3,-1"), ("nadic:2", "0,2"), ("product(lamplighter:2,nadic:2)", "-2,-1;0,1")],
        ids=["lamplighter-hi-below-0", "nadic-xmax-0", "product"],
    )
    def test_window_whose_A_is_the_identity(self, capsys, family, window):
        # No A-letter to sample, and no strictness witness inside the window.
        code, out, err = run(capsys, "ball", "--family", family, f"--window={window}", "--radius", "2", "--samples", "3")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        code, out, _ = run(capsys, "verify", "--family", family, f"--window={window}")
        assert code == 2 and json.loads(out)["confining"]["strict_witness"] is None


class TestWordsAndElements:
    def test_nf_echo(self, capsys):
        code, out, _ = run(capsys, "nf", "--family", "lamplighter:2", "a- g{0:1} a+")
        assert code == 0
        payload = json.loads(out)
        assert payload["normal_form"] == "a- g{0:1} a+"
        assert payload["length"] == 3 and payload["i"] == 1 and payload["j"] == 1

    def test_nf_rewrites(self, capsys):
        _, out, _ = run(capsys, "nf", "--family", "lamplighter:2", "g{0:1} a-")
        payload = json.loads(out)
        assert payload["normal_form"] == "a- g{1:1}"
        assert payload["length"] == payload["input_length"] == 2

    def test_dist(self, capsys):
        code, out, _ = run(capsys, "dist", "--family", "nadic:2", '{"num": "5", "den_pow": 0, "m": 0}')
        payload = json.loads(out)
        assert code == 0 and payload["length"] == 5

    def test_dist_rejects_non_A_letter(self, capsys):
        code, _, err = run(capsys, "dist", "--family", "nadic:2", "g{5}")
        assert code == 1 and "not in A" in err

    def test_dist_element_json(self, capsys):
        code, out, _ = run(capsys, "dist", "--family", "lamplighter:2", '{"lamps": {"-2": 1}, "m": 0}')
        payload = json.loads(out)
        assert code == 0 and payload["length"] == 5

    def test_beta(self, capsys):
        code, out, _ = run(capsys, "beta", "--family", "lamplighter:2", "a+")
        payload = json.loads(out)
        assert code == 0 and payload["value"] == 1.0

    def test_bad_word_is_config_error(self, capsys):
        table = [
            ["nf", "--family", "lamplighter:2", "oops"],
            ["nf", "--family", "nadic:2", "g{1/0}"],
            ["dist", "--family", "nadic:2", "g{1/0}"],
            ["classify", "--family", "nadic:2", "g{1/0}"],
            ["beta", "--family", "nadic:2", "g{1/0}"],
            ["schottky", "--family", "nadic:2", "a+", "g{1/0}"],
            ["nf", "--family", "product(lamplighter:2,nadic:2)", "g{0:1|1/0}"],
        ]
        for argv in table:
            code, out, err = run(capsys, *argv)
            assert code == 1 and out == "", argv
            assert err.startswith("error: ") and err.count("\n") == 1, argv


class TestClassify:
    def test_alpha_lineal(self, capsys):
        code, out, _ = run(capsys, "classify", "--family", "lamplighter:2", "a+")
        payload = json.loads(out)
        assert code == 0 and payload["action"]["type"] == "lineal"

    def test_full_focal(self, capsys):
        _, out, _ = run(capsys, "classify", "--family", "lamplighter:2", "a+", "g{0:1}")
        assert json.loads(out)["action"]["type"] == "focal"

    def test_horizon_recorded(self, capsys):
        _, out, _ = run(capsys, "classify", "--family", "nadic:2", "g{1}", "--horizon", "6")
        payload = json.loads(out)
        assert payload["horizon"] == 6
        assert payload["action"]["type"] == "horocyclic"

    def test_exact_only_gate(self, capsys):
        # A hyperbolic generator set gets an exact lineal/focal verdict.
        code, _, _ = run(capsys, "classify", "--family", "lamplighter:2", "a+", "--exact-only")
        assert code == 0
        code, _, _ = run(capsys, "classify", "--family", "nadic:2", "g{1}", "--exact-only")
        assert code == 0
        # A lamp orbit that has not closed at the horizon is not exact.
        lamp = '{"lamps": {"-3": 1}}'
        code, out, _ = run(capsys, "classify", "--family", "lamplighter:2", "--horizon", "2", "g{0:1}", lamp, "--exact-only")
        assert code == 2 and json.loads(out)["action"]["type"] == "horocyclic"
        code, _, _ = run(capsys, "classify", "--family", "spoof-identity:2", "--unchecked", "a+", "--exact-only")
        assert code == 2

    def test_spoof_unchecked_matches_scalar_scan(self, capsys):
        # alpha = id: every generator commutes with a+, so the verdict is
        # lineal, and not exact on an unvalidated family.
        code, out, _ = run(capsys, "classify", "--family", "spoof-identity:2", "--unchecked", "a+", "g{0:1}")
        assert code == 0
        assert json.loads(out)["action"] == {
            "complete": True,
            "exact": False,
            "horizon": 8,
            "low_confidence": False,
            "type": "lineal",
            "witnesses": {"fixed_point_of": "({}, 1)"},
        }

    def test_long_lamp_token(self, capsys):
        code, out, _ = run(capsys, "nf", "--family", "lamplighter:2", "g{lamps:{0:1}} a-")
        payload = json.loads(out)
        assert code == 0 and payload["normal_form"] == "a- g{1:1}"


class TestTreeAndMillefeuille:
    def test_tree_stats(self, capsys):
        code, out, _ = run(capsys, "tree", "--family", "lamplighter:2", "--radius", "3")
        payload = json.loads(out)
        assert code == 0 and payload["interior_degrees"] == [3]

    def test_tree_orbit_probe_counts_samples(self, capsys):
        _, out, _ = run(capsys, "tree", "--family", "lamplighter:2", "--radius", "3")
        probe = json.loads(out)["orbit_probe"]
        assert "horizon" not in probe and probe["samples"] > 0

    def test_tree_dot(self, capsys):
        code, out, _ = run(capsys, "tree", "--family", "lamplighter:3", "--radius", "2", "--format", "dot")
        assert code == 0 and out.startswith("graph")

    def test_millefeuille_stats(self, capsys):
        code, out, _ = run(capsys, "millefeuille", "T3", "T3", "--radius", "3")
        payload = json.loads(out)
        assert code == 0
        assert payload["interior_degrees"] == [5]
        assert payload["delta"] == 0.0
        # 106 vertices is above the exhaustive cutoff: two basepoints bound
        # delta, and their bounds meet, so the interval is exact.
        assert payload["exhaustive"] is True and payload["method"] == "basepoints"
        assert payload["upper"] == 0.0
        assert payload["samples"] == 2 * 106**3

    def test_bad_tree_spec(self, capsys):
        code, _, err = run(capsys, "millefeuille", "Q9", "T3")
        assert code == 1 and "error" in err


class TestSchottky:
    def test_injective_pair(self, capsys):
        code, out, _ = run(capsys, "schottky", "--family", "lamplighter:2", "a+", "a+ g{0:1}", "--horizon", "8")
        payload = json.loads(out)
        assert code == 0 and payload["injective"]

    def test_rejected_pair(self, capsys):
        _, out, _ = run(capsys, "schottky", "--family", "lamplighter:2", "g{0:1}", "g{1:1}", "--horizon", "6")
        payload = json.loads(out)
        assert not payload["injective"] and payload["collision"]

    def test_horizon_is_the_flag(self, capsys):
        _, out, _ = run(capsys, "schottky", "--family", "lamplighter:2", "a+", "a+ g{0:1}", "--horizon", "3")
        payload = json.loads(out)
        assert payload["horizon"] == 3
        # distinct (word length, d(1, value)) pairs behind the QI constants
        assert payload["samples"] == 6


class TestReport:
    def test_full_report_scoped_and_deterministic(self, capsys):
        code, out1, _ = run(capsys, "report", "--family", "nadic:2", "--radius", "4", "--seed", "3")
        assert code == 0
        payload = json.loads(out1)
        assert {"family", "window", "radius", "horizon", "seed"} <= set(payload)
        assert payload["compaction_index"] == 2
        assert payload["beta_alpha"]["value"] == 1.0
        code2, out2, _ = run(capsys, "report", "--family", "nadic:2", "--radius", "4", "--seed", "3")
        assert out1 == out2

    def test_axis_radius_from_upper_bound(self, capsys):
        code, out, _ = run(capsys, "report", "--family", "lamplighter:2", "--radius", "3")
        payload = json.loads(out)
        assert code == 0
        assert (payload["delta"]["delta"], payload["delta"]["upper"]) == (1.0, 1.0)
        # The verdict no longer rests on delta: the first windowed lamp moves
        # the fixed point of a+.
        assert payload["action"]["witnesses"] == {"fixed_point_of": "({}, 1)", "moves_it": "({2:1}, 0)"}
        assert payload["action"]["type"] == "focal" and payload["action"]["exact"]

    @pytest.mark.parametrize(
        "argv, witnesses",
        [
            (("lamplighter:2", "--radius", "3"), {"fixed_point_of": "({}, 1)", "moves_it": "({2:1}, 0)"}),
            (("nadic:2", "--radius", "2", "--horizon", "6"), {"fixed_point_of": "({0}, 1)", "moves_it": "({-1}, 0)"}),
            (
                ("product(lamplighter:2,nadic:2)", "--radius", "2", "--horizon", "4"),
                {"fixed_point_of": "(({}|{0}), 1)", "moves_it": "(({}|{-1}), 0)"},
            ),
        ],
    )
    def test_classifies_alpha_and_one_letter(self, capsys, argv, witnesses):
        # <alpha, a> for the first windowed A-letter a other than the
        # identity, which leads the window only in lamplighter order.
        with mock.patch.object(boundary, "action_type", wraps=boundary.action_type) as spy:
            code, out, _ = run(capsys, "report", "--family", *argv)
        assert code == 0
        assert [repr(g) for g in spy.call_args.args[0]] == [witnesses["fixed_point_of"], witnesses["moves_it"]]
        action = json.loads(out)["action"]
        assert action["type"] == "focal" and action["witnesses"] == witnesses

    def test_focal_at_every_horizon(self, capsys):
        # The axis-distance test called this report lineal at horizon 4.
        for horizon in ("4", "8"):
            code, out, _ = run(capsys, "report", "--family", "lamplighter:2", "--radius", "3", "--horizon", horizon)
            assert code == 0 and json.loads(out)["action"]["type"] == "focal"

    def test_uncertified_family_exits_2(self, capsys):
        code, out, _ = run(capsys, "report", "--family", "spoof-identity:2", "--radius", "2")
        payload = json.loads(out)
        assert code == 2
        assert not payload["confining"]["passed"] and "action" not in payload

    def test_exact_only(self, capsys):
        # 18 points take the exact delta interval; nadic:2 r4 (425 points)
        # the basepoint one, [3/2, 3], which no proof closes.
        code, out, _ = run(capsys, "report", "--family", "lamplighter:2", "--radius", "2", "--exact-only")
        payload = json.loads(out)
        assert code == 0 and payload["delta"]["exhaustive"] and payload["action"]["exact"]
        code, out, _ = run(capsys, "report", "--family", "nadic:2", "--radius", "4", "--exact-only")
        assert code == 2 and not json.loads(out)["delta"]["exhaustive"]
        code, _, _ = run(capsys, "report", "--family", "spoof-identity:2", "--radius", "2", "--exact-only")
        assert code == 2

    def test_exact_only_on_the_default_lamplighter_ball(self, capsys):
        # 866 points at radius 6: the ceiling closes the delta interval.
        code, out, _ = run(capsys, "report", "--family", "lamplighter:2", "--exact-only")
        delta = json.loads(out)["delta"]
        assert code == 0 and delta["method"] == "ceiling" and delta["delta"] == delta["upper"] == 1.0

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "delta", "--family", "lamplighter:2", "--radius", "3", "--out", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["within_bound"]


# The flags each subcommand's handler reads; every subcommand also has --out.
SUBCOMMAND_FLAGS = {
    "verify": {"family", "radius", "window", "horizon", "seed"},
    "ball": {"family", "radius", "window", "seed", "format", "samples"},
    "delta": {"family", "radius", "window", "seed", "exact-only"},
    "nf": {"family"},
    "dist": {"family", "unchecked"},
    "classify": {"family", "horizon", "seed", "unchecked", "exact-only"},
    "beta": {"family", "horizon", "unchecked"},
    "tree": {"family", "radius", "seed", "format"},
    "millefeuille": {"radius", "seed", "format"},
    "schottky": {"family", "horizon", "unchecked"},
    "report": {"family", "radius", "window", "horizon", "seed", "exact-only"},
}


class TestFlags:
    def test_each_subcommand_declares_only_the_flags_it_reads(self):
        (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        declared = {
            name: {opt[2:] for action in p._actions for opt in action.option_strings if opt.startswith("--")} - {"help"}
            for name, p in sub.choices.items()
        }
        assert declared == {name: flags | {"out"} for name, flags in SUBCOMMAND_FLAGS.items()}
        assert sum(map(len, declared.values())) == 54

    def test_per_subcommand_defaults(self):
        parse = build_parser().parse_args
        assert parse(["report"]).radius == 6
        assert parse(["tree"]).radius == 4
        assert parse(["millefeuille", "T3", "T3"]).radius == 3
        assert parse(["classify"]).horizon == 8
        assert parse(["beta", "a+"]).horizon == 16
        assert parse(["schottky", "a+", "a+"]).horizon == 10
        assert parse(["ball"]).format == "csv"
        assert parse(["tree"]).format == "json"

    @pytest.mark.parametrize(
        "argv",
        [
            ["nf", "--family", "lamplighter:2", "--seed", "1", "a+"],
            ["delta", "--family", "lamplighter:2", "--radius", "2", "--format", "csv"],
            ["report", "--family", "lamplighter:2", "--radius", "2", "--unchecked"],
            ["millefeuille", "--family", "nadic:2", "T3", "T3"],
            ["dist", "--family", "nadic:2", "--radius", "3", "a+"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_undeclared_flag_is_config_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: unrecognized arguments")

    def test_shared_parser_keeps_no_state(self):
        parse = build_parser().parse_args
        assert build_parser() is build_parser()
        assert parse(["report", "--radius", "2", "--seed", "5"]).radius == 2
        assert (parse(["report"]).radius, parse(["report"]).seed) == (6, 0)
        assert not hasattr(parse(["tree"]), "horizon")

    @pytest.mark.parametrize(
        "argv",
        [
            ["dist", "--family", "nadic:2", '{"num":"5","den_pow":-1,"m":0}'],
            ["dist", "--family", "nadic:2", '{"m":0}'],
            ["dist", "--family", "lamplighter:2", '{"lamps":[1],"m":0}'],
            ["dist", "--family", "product(lamplighter:2,nadic:2)", '{"left":{"lamps":{}},"m":0}'],
        ],
        ids=["nadic-negative-den-pow", "nadic-no-num", "lamplighter-lamps-list", "product-no-right"],
    )
    def test_malformed_element_json_is_config_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["delta", "--family", "lamplighter:2", "--window", "3"],
            ["ball", "--family", "nadic:2", "--window", "2"],
            ["ball", "--family", "lamplighter:2", "--radius", "2", "--window", "1,2,3,4"],
            ["ball", "--family", "product(lamplighter:2,nadic:2)", "--radius", "2", "--window", "-1,1"],
            ["ball", "--family", "product(lamplighter:2,nadic:2)", "--radius", "2", "--window", "-1,1;1"],
            ["ball", "--family", "product(lamplighter:2,nadic:2)", "--radius", "2", "--window", "-1,1,2;1,1"],
            ["ball", "--family", "product(lamplighter:2,nadic:2)", "--radius", "2", "--window", "-1,1;1,1;2;3"],
        ],
        ids=[
            "one-part",
            "one-part-nadic",
            "four-parts",
            "product-one-side",
            "product-one-part-side",
            "product-three-part-side",
            "product-four-parts",
        ],
    )
    def test_window_needs_two_or_three_parts(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: --window")

    @pytest.mark.parametrize(
        "argv",
        [
            ["delta", "--family", "nadic:2", "--radius", "2", "--window=-1,-1"],
            ["ball", "--family", "nadic:2", "--radius", "2", "--window=2,-1"],
            ["ball", "--family", "lamplighter:2", "--radius", "2", "--window", "3,-3"],
            ["ball", "--family", "lamplighter:2", "--radius", "-1"],
            ["ball", "--family", "product(lamplighter:2,nadic:2)", "--radius", "-1"],
            ["ball", "--family", "product(lamplighter:2,nadic:2)", "--radius", "2", "--window", "1,0;1,1"],
            ["ball", "--family", "product(lamplighter:2,nadic:2)", "--radius", "2", "--window", "-1,1;-1,1"],
        ],
        ids=[
            "nadic-xmax",
            "nadic-dpow",
            "lamplighter-lo-above-hi",
            "negative-radius",
            "product-negative-radius",
            "product-lamplighter-lo-above-hi",
            "product-nadic-xmax",
        ],
    )
    def test_window_out_of_range(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "window" in err

    def test_product_window_third_part_sets_levels(self, capsys):
        argv = ["ball", "--family", "product(lamplighter:2,nadic:2)", "--radius", "2", "--window", "0,1;1,0;1", "--format", "json"]
        code, out, _ = run(capsys, *argv)
        payload = json.loads(out)
        assert code == 0 and payload["window"]["levels"] == 1
        assert payload["window"]["left"] == {"lo": 0, "hi": 1, "levels": 1}

    def test_window_third_part_sets_levels(self, capsys):
        code, out, _ = run(capsys, "ball", "--family", "lamplighter:2", "--radius", "2", "--window=-1,1,2", "--format", "json")
        assert code == 0 and json.loads(out)["window"] == {"lo": -1, "hi": 1, "levels": 2}

    @pytest.mark.parametrize("horizon", ["0", "-1"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--family", "lamplighter:2"],
            ["classify", "--family", "lamplighter:2", "a+"],
            ["beta", "--family", "nadic:2", "a+"],
            ["schottky", "--family", "lamplighter:2", "a+", "a+ g{0:1}"],
            ["report", "--family", "lamplighter:2", "--radius", "2"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_horizon_below_one_is_config_error(self, capsys, argv, horizon):
        code, out, err = run(capsys, *argv, "--horizon", horizon)
        assert code == 1 and out == ""
        assert err == f"error: argument --horizon: {horizon}: must be >= 1\n"

    def test_schottky_passes_unchecked(self, capsys):
        argv = ["schottky", "--family", "spoof-identity:2", "a+", "a+ g{0:1}", "--horizon", "4"]
        code, _, err = run(capsys, *argv)
        assert code == 1 and "unchecked" in err
        code, out, _ = run(capsys, *argv, "--unchecked")
        assert code == 0 and json.loads(out)["injective"] is False



# sha256 of stdout, recorded before the δ kernel skipped finished basepoints
# and the tree report read its sample encoded: output stays byte-identical
# across changes of speed.  The first ten are the perfbench `reports` pool.
# Two were re-recorded when their δ claims grew: the lamplighter report's
# interval closes at the proven ceiling of 1, and the T3 x T4 interval
# [0, 0] is exhaustive, since its bounds meet.
STDOUT_SHA256 = [
    (["report", "--family", "nadic:2", "--radius", "2", "--horizon", "6"], "a1eca95dc2e9f4da06933621bb9f72ff3aa50b411c59b6795e44b245538d0758"),
    (["report", "--family", "lamplighter:2", "--radius", "3"], "5448e293faf792e00a9c7c650b3ff5706b116601e38244b82f3287d9cbb3542f"),
    (["verify", "--family", "lamplighter:2"], "f418cfd144743aa3bf83514101ef9c72ccf71dc67e52452f8afd8533a3417912"),
    (["verify", "--family", "nadic:2"], "83639572d753f06480610f3e8f3e737058ac0e8e1e6f2e84429a4289fcd52df7"),
    (["classify", "--family", "nadic:2", "--horizon", "6", "a+", "g{1/2}"], "b3f83bb5d57d39137027f74e0ff7b2b138e761f63d6107a2f1b91475331f15c7"),
    (["classify", "--family", "lamplighter:2", "a+", "g{0:1}"], "b21a612fbe88de20e4c3b50bcf23fe1e9c2750ce931baf9c2df231b8db70404c"),
    (["schottky", "--family", "lamplighter:2", "a+", "a+ g{0:1}"], "cf49f0a2e24d4cb8823d80aafd01494322346a34abe2a3a5bf14994d1b1493d6"),
    (["schottky", "--family", "nadic:2", "a+", "a+ g{1}"], "30c0ed12ab4b6006d9348f416944ea2e4134008637506a063b822c5191306fc9"),
    (["tree", "--family", "lamplighter:3", "--radius", "4"], "968804ab791e10be9370f77fa5e8521e918de9c60662eb0d4d34c310ec92447c"),
    (["millefeuille", "T3", "T4", "--radius", "3"], "901cced8eb7d8fedc69af65339845db51676249d2b34bbbb8addcbcc0d6fdf3c"),
    (["tree", "--family", "lamplighter:2", "--radius", "6", "--seed", "3"], "fb3742bdf6a62e86fb317777529c5bdf49502c879b31afe5dfb61e04ed479372"),
    (["tree", "--family", "lamplighter:5", "--radius", "3", "--seed", "1"], "fb3431ff3fc52aaa40d83c54569c549ac536afc230516fb389326fee920ef21c"),
    (["millefeuille", "line", "T3", "--radius", "4"], "8353e6b0cad0e04529860e4accfaeb100bcfce10ef1bf7353ab49f71f65ea780"),
    (["millefeuille", "T4", "T5", "--radius", "2", "--format", "csv"], "092a6c7427a75424f3ccfa42228ce208a93b494112529271a8b75aa9e5e46a96"),
    (["delta", "--family", "nadic:2", "--radius", "2"], "e1c9bb7c783b5dc4ee83d7b052140c73d381c61a25f7443134df97b49eef8a69"),
    (
        ["ball", "--family", "lamplighter:2", "--radius", "4", "--samples", "50", "--format", "json"],
        "85292b7d0a23823aefc474b7fcf94ace13ed24cb7092671ba23037f64bbd1b2b",
    ),
    (["ball", "--family", "lamplighter:2", "--radius", "3", "--format", "dot"], "dc60f59ce679e6ea421a46536abcbc92234748185fc84e9a1790313933d23280"),
    (["dist", "--family", "spoof-identity:2", "--unchecked", "g{0:1}"], "32e0aac787ca3bd3ce3f7e46e92e6288909abe610b068bf6312ac64312d413fc"),
    (["beta", "--family", "spoof-identity:2", "--unchecked", "g{0:1}"], "677e4107593d3a7f805a24d33ffb15f16d9873b158cebff72543de4b82ab2322"),
    (["classify", "--family", "spoof-identity:2", "--unchecked", "a+", "g{0:1}"], "7a37b6947dccaa3b5d238509f5f790301fe4525fa4debd09df0abd291b3701b8"),
    (["classify", "--family", "spoof-identity:2", "--unchecked", "g{0:1}"], "341066ff0f57ab6647b8fd95bce76071bc04f01c01777c10c07b16b11899b1c9"),
    (
        ["schottky", "--family", "spoof-identity:2", "--unchecked", "a+", "a+ g{0:1}", "--horizon", "4"],
        "abc62e2726e8ea81a56a60f79e2479ad3e74f8fdf331d37460be51ad12d735b8",
    ),
]


@pytest.mark.parametrize("argv, sha256", STDOUT_SHA256, ids=[" ".join(argv) for argv, _ in STDOUT_SHA256])
def test_stdout_is_pinned(capsys, argv, sha256):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_emit_refuses_values_json_cannot_hold():
    # Every payload is JSON-native; a Fraction that slipped through would
    # otherwise print as "1/2".
    with pytest.raises(TypeError):
        _emit(argparse.Namespace(out=None), {"delta": Fraction(1, 2)})


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def readme_commands():
    block = README.read_text().split("## CLI\n\n```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.startswith("focalgroups ")]


def test_readme_commands_run(capsys):
    commands = readme_commands()
    assert len(commands) == 11
    for argv in commands:
        assert run(capsys, *argv)[0] == 0, argv
