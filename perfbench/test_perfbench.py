"""Self-tests of the benchmark: seeded inputs, the correctness gate, the
tracer and the metric names.

    python3 -m pytest perfbench
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys

import pytest

import run as bench
import tracer as tr
import workloads as W

BENCHMARK = json.loads((W.ROOT / "BENCHMARK.json").read_text())


def op_keys(ops):
    return [repr(op) for op in ops]


def test_equal_seeds_give_identical_ops():
    for name in W.WORKLOADS:
        a, b = W.Workload(name, 7).rounds(), W.Workload(name, 7).rounds()
        for _ in range(2):
            assert op_keys(next(a)) == op_keys(next(b))
    assert op_keys(W.Workload("queries", 7).pool) != op_keys(W.Workload("queries", 8).pool)
    assert op_keys(next(W.Workload("balls", 7).rounds())) != op_keys(next(W.Workload("balls", 8).rounds()))


def test_query_mix_does_not_depend_on_the_seed():
    def shape(op):
        return op.kind, op.name, len(op.args[1]), op.args[2].m

    assert [shape(op) for op in W.Workload("queries", 1).pool] == [shape(op) for op in W.Workload("queries", 2).pool]


@pytest.fixture(scope="module")
def small_ball():
    wl = W.Workload("balls", 0)
    return wl, next(op for op in wl.pool if op.name == "ball:lamplighter:2:r4")


def test_corrupted_distance_or_delta_is_counted_as_failed(small_ball):
    wl, op = small_ball

    def corrupt_distance(op):
        result = W.run_op(op)
        result["D"].d[0, 1] += 1
        return result

    def corrupt_delta(op):
        result = W.run_op(op)
        result["delta"] += 1
        return result

    def raises(op):
        raise ZeroDivisionError

    assert bench.run_pass([[op]], wl.reference).failed == 0
    for run in (corrupt_distance, corrupt_delta, raises):
        outcome = bench.run_pass([[op, op]], wl.reference, run=run)
        assert (len(outcome.ops), outcome.failed) == (2, 2)


def test_corrupted_query_distance_is_counted_as_failed():
    wl = W.Workload("queries", 5)
    ops = [op for op in wl.pool if op.kind == "dist"][:20]

    def corrupt(op):
        length, witness = W.run_op(op)
        return length + 1, witness

    assert bench.run_pass([ops], wl.reference).failed == 0
    assert bench.run_pass([ops], wl.reference, run=corrupt).failed == len(ops)


def _bindings():
    owners = set(tr.MODULES) | {owner for owner, *_ in tr.SPANS + tr.TALLIES}
    return {(owner, k): v for owner in owners for k, v in vars(owner).items()}


def test_tracer_leaves_results_unchanged_and_restores_originals(small_ball):
    wl, ball = small_ball
    queries = W.Workload("queries", 3).pool[:80]
    verify = W.Op("cli", "verify:lamplighter:2", tuple(W.REPORT_POOL["verify:lamplighter:2"]))
    before = _bindings()
    plain = [W.summarize(ball, W.run_op(ball)), [W.run_op(op) for op in queries], W.summarize(verify, W.run_op(verify))]
    with tr.Tracer() as tracer:
        assert W.words.word_length is not before[(W.words, "word_length")]
        assert W.boundary.word_length is W.words.word_length
        traced = [W.summarize(ball, W.run_op(ball)), [W.run_op(op) for op in queries], W.summarize(verify, W.run_op(verify))]
    assert traced == plain
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert tracer.calls["words.word_length"] > 0 and tracer.calls["families.ops"] > 0
    names = {span[2] for span in tracer.spans}
    assert {"words.ball_points", "metric.four_point_delta", "cli.main", "families.verify_confining"} <= names


def _last_json(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert bench.main(argv) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_those_of_benchmark_json(trace, section):
    result = _last_json(["--workload", "queries", "--seed", "1", "--seconds", "0.1", "--trace", str(trace)])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared


def test_layer_table_matches_benchmark_json():
    declared = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]}
    assert declared == {name: row[:2] for name, row in tr.LAYER_METRICS.items()}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(W.WORKLOADS)


def test_fails_without_the_package(tmp_path):
    shutil.copy(W.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(W.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "balls", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
