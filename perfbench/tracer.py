"""Per-layer tracing of the focalgroups package from outside it.

`Tracer` replaces the public entry points of each module with wrappers and
puts the originals back on exit.  Layer-entry calls record spans (name,
start, end, parent span, op index); per-element functions such as
`word_length`, `GroupPoint.__mul__` and the family arithmetic only bump
counters (and, where a per-layer metric needs it, an aggregate time), since
a span per call would hold millions of spans.  Every module attribute that
holds a wrapped function is replaced, so names other modules imported by
value (`boundary.word_length`, the package re-exports) are traced too.
"""

from __future__ import annotations

import time
from collections import defaultdict

from workloads import boundary, cli, families, focalgroups, metric, trees, words

MODULES = (focalgroups, families, words, metric, boundary, trees, cli)

# (owner, attribute, layer-qualified span name)
SPANS = (
    (families, "verify_confining", "families.verify_confining"),
    (words, "ball_points", "words.ball_points"),
    (words, "bfs_oracle", "words.bfs_oracle"),
    (words.BfsResult, "distance_matrix", "words.bfs_distance_matrix"),
    (words, "distortion_check", "words.distortion_check"),
    (words, "rewrite_to_normal_form", "words.rewrite_to_normal_form"),
    (words.NormalForm, "evaluate", "words.normal_form_evaluate"),
    (metric, "four_point_delta", "metric.four_point_delta"),
    (metric, "delta_within_bound", "metric.delta_within_bound"),
    (boundary, "busemann_quasicharacter", "boundary.busemann"),
    (boundary, "horokernel", "boundary.horokernel"),
    (boundary, "isometry_type", "boundary.isometry_type"),
    (boundary, "translation_number", "boundary.translation_number"),
    (boundary, "action_type", "boundary.action_type"),
    (boundary, "schottky_semigroup_check", "boundary.schottky"),
    (trees, "regular_tree_ball", "trees.regular_tree_ball"),
    (trees, "lamplighter_tree_ball", "trees.lamplighter_tree_ball"),
    (trees, "tree_qi_probe", "trees.tree_qi_probe"),
    (trees, "millefeuille", "trees.millefeuille"),
    (trees.BusemannGraph, "validate", "trees.validate"),
    (trees.BusemannGraph, "distance_matrix", "trees.distance_matrix"),
    (cli, "main", "cli.main"),
)

# (owner, attribute, tally name, timed): counted on every call, no span.
FAMILY_OPS = ("multiply", "invert", "alpha", "alpha_inv", "alpha_pow", "a_length")
FAMILY_CLASSES = (
    families.GroupFamily,
    families.LamplighterFamily,
    families.SpoofIdentityFamily,
    families.NadicFamily,
    families.ProductFamily,
)
TALLIES = (
    (words, "word_length", "words.word_length", True),
    (words, "geodesic_witness", "words.geodesic_witness", True),
    (words.GroupPoint, "__mul__", "words.point_mul", False),
    (families.GroupFamily, "__eq__", "families.eq", False),
    (boundary, "axis_distance", "boundary.axis_distance", False),
    (boundary, "_subgroup_closure", "boundary.closure", False),
) + tuple((cls, op, "families.ops", False) for cls in FAMILY_CLASSES for op in FAMILY_OPS if op in vars(cls))

# Per-layer metrics: name -> (unit, better, end-to-end metric it moves, workloads).
# Times and counts are per op of the traced pass; ratios are over the whole
# pass; a layer a workload never enters reads 0.  `.s` times are inclusive
# span times, except cli.self_s; words.bfs_oracle.s covers the oracle and its
# all-pairs BFS matrix, and words.normal_form.s the rewrite and its evaluation.
LAYER_METRICS = {
    "words.ball_points.s": ("s/op", "lower", "ops_per_s, op_p50_ms", "balls; reports (lamplighter:2 report)"),
    "words.point_mul.calls": ("calls/op", "lower", "ops_per_s", "balls"),
    "families.ops": ("calls/op", "lower", "ops_per_s", "balls"),
    "words.ball.pairs": ("pairs/op", "lower", "ops_per_s", "balls"),
    "words.ball.points": ("points/op", "lower", "ops_per_s", "balls"),
    "words.ball.kept_ratio": ("ratio", "higher", "ops_per_s", "balls"),
    "words.bfs_oracle.s": ("s/op", "lower", "ops_per_s", "balls"),
    "words.bfs.trusted_ratio": ("ratio", "higher", "ops_per_s", "balls"),
    "metric.four_point_delta.s": ("s/op", "lower", "ops_per_s", "balls, reports"),
    "metric.quadruples": ("count/op", "lower", "ops_per_s", "balls, reports"),
    "metric.delta.exhaustive_ratio": ("ratio", "higher", "ops_per_s", "balls, reports"),
    "metric.matrix_bytes": ("bytes", "lower", "peak_rss_mb", "balls"),
    "words.word_length.calls": ("calls/op", "lower", "op_p50_ms", "queries"),
    "words.word_length.s": ("s/op", "lower", "op_p50_ms", "queries"),
    "families.eq_calls": ("calls/op", "lower", "op_p50_ms; ops_per_s", "queries; reports"),
    "words.normal_form.s": ("s/op", "lower", "op_p50_ms", "queries"),
    "words.geodesic_witness.s": ("s/op", "lower", "op_p50_ms", "queries"),
    "boundary.busemann.s": ("s/op", "lower", "op_tail_ms", "queries"),
    "boundary.horokernel.s": ("s/op", "lower", "op_tail_ms", "queries"),
    "boundary.action_type.s": ("s/op", "lower", "ops_per_s", "reports"),
    "boundary.axis_distance.calls": ("calls/op", "lower", "ops_per_s", "reports"),
    "boundary.closure.elements": ("elements/op", "lower", "ops_per_s", "reports"),
    "boundary.schottky.s": ("s/op", "lower", "ops_per_s", "reports"),
    "trees.millefeuille.s": ("s/op", "lower", "ops_per_s", "reports"),
    "trees.distance_matrix.s": ("s/op", "lower", "ops_per_s", "reports"),
    "trees.vertices": ("vertices/op", "lower", "ops_per_s", "reports"),
    "families.verify_confining.s": ("s/op", "lower", "ops_per_s", "reports"),
    "words.distortion_check.s": ("s/op", "lower", "ops_per_s", "reports"),
    "cli.self_s": ("s/op", "lower", "ops_per_s", "reports"),
    "cli.bytes_out": ("bytes/op", "lower", "ops_per_s", "reports"),
    "trace.overhead_ratio": ("ratio", "lower", "-", "every workload"),
}


class Tracer:
    """Context manager that traces the package while it is entered."""

    def __init__(self):
        self.spans = []  # (span id, parent id, name, start, end, op index)
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.extra = defaultdict(float)
        self.matrix_bytes = 0
        self.op_index = -1
        self.paused = False
        self._stack = []
        self._saved = []

    # -- installing and removing wrappers ---------------------------------

    def __enter__(self):
        for owner, attr, name in SPANS:
            self._replace(owner, attr, self._span_wrapper(name, getattr(owner, attr)))
        for owner, attr, name, timed in TALLIES:
            self._replace(owner, attr, self._tally_wrapper(name, vars(owner)[attr], timed))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    def _replace(self, owner, attr, wrapper):
        original = vars(owner)[attr]
        if isinstance(owner, type):
            targets = [(owner, attr)]
        else:
            # Every module-level name bound to this function, under any alias.
            targets = [(m, a) for m in MODULES for a, v in vars(m).items() if v is original]
        for target, name in targets:
            self._saved.append((target, name, original))
            setattr(target, name, wrapper)

    def _span_wrapper(self, name, fn):
        tracer, stack, spans = self, self._stack, self.spans

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[span_id] = (span_id, parent, name, start, end, tracer.op_index)
            tracer._observe(name, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _tally_wrapper(self, name, fn, timed):
        tracer, calls, seconds = self, self.calls, self.seconds

        if timed:

            def wrapper(*args, **kwargs):
                if tracer.paused:
                    return fn(*args, **kwargs)
                calls[name] += 1
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    seconds[name] += time.perf_counter() - start

        elif name == "boundary.closure":

            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                if not tracer.paused:
                    calls[name] += 1
                    tracer.extra["closure.elements"] += len(result[0])
                return result

        else:

            def wrapper(*args, **kwargs):
                if not tracer.paused:
                    calls[name] += 1
                return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _observe(self, name, args, kwargs, result):
        """Counts taken from a layer call's arguments and result."""
        extra = self.extra
        if name == "words.ball_points":
            family, radius = args[0], args[1]
            window = kwargs.get("window") or (args[2] if len(args) > 2 else None) or family.default_window(radius)
            n = len(result[0])
            extra["ball.points"] += n
            extra["ball.pairs"] += n * (n - 1) // 2
            self.paused = True
            try:
                extra["ball.candidates"] += sum(1 for _ in family.iter_window(window)) * (2 * window.levels + 1)
            finally:
                self.paused = False
        elif name == "words.bfs_oracle":
            extra["bfs.points"] += len(result.points)
            extra["bfs.trusted"] += len(result.trusted)
        elif name == "metric.four_point_delta":
            extra["delta.calls"] += 1
            extra["delta.exhaustive"] += result.exhaustive
            extra["delta.quadruples"] += result.samples
            self.matrix_bytes = max(self.matrix_bytes, result.n_points**2 * 8)
        elif name in ("trees.regular_tree_ball", "trees.millefeuille"):
            extra["tree.vertices"] += len(result.vertices)

    # -- summaries -----------------------------------------------------------

    def span_times(self):
        """Inclusive and self seconds per span name."""
        inclusive, child = defaultdict(float), defaultdict(float)
        for span_id, parent, name, start, end, _ in self.spans:
            inclusive[name] += end - start
            if parent is not None:
                child[parent] += end - start
        own = defaultdict(float)
        for span_id, parent, name, start, end, _ in self.spans:
            own[name] += end - start - child[span_id]
        return inclusive, own

    def by_op(self, op_names, op_seconds):
        """Per pool entry: op time and each span's inclusive share of it."""
        out = {}
        for name, seconds in zip(op_names, op_seconds):
            entry = out.setdefault(name, {"ops": 0, "seconds": 0.0, "spans": defaultdict(float)})
            entry["ops"] += 1
            entry["seconds"] += seconds
        for _, _, span, start, end, op in self.spans:
            out[op_names[op]]["spans"][span] += end - start
        for entry in out.values():
            entry["spans"] = {
                k: round(v / entry["seconds"], 4) for k, v in sorted(entry["spans"].items(), key=lambda kv: -kv[1])
            }
        return out

    def layer_metrics(self, n_ops, overhead_ratio, bytes_out):
        inclusive, own = self.span_times()
        e = self.extra

        def per_op(value):
            return value / n_ops

        def ratio(num, den):
            return num / den if den else 0.0

        return {
            "words.ball_points.s": per_op(inclusive["words.ball_points"]),
            "words.point_mul.calls": per_op(self.calls["words.point_mul"]),
            "families.ops": per_op(self.calls["families.ops"]),
            "words.ball.pairs": per_op(e["ball.pairs"]),
            "words.ball.points": per_op(e["ball.points"]),
            "words.ball.kept_ratio": ratio(e["ball.points"], e["ball.candidates"]),
            "words.bfs_oracle.s": per_op(inclusive["words.bfs_oracle"] + inclusive["words.bfs_distance_matrix"]),
            "words.bfs.trusted_ratio": ratio(e["bfs.trusted"], e["bfs.points"]),
            "metric.four_point_delta.s": per_op(inclusive["metric.four_point_delta"]),
            "metric.quadruples": per_op(e["delta.quadruples"]),
            "metric.delta.exhaustive_ratio": ratio(e["delta.exhaustive"], e["delta.calls"]),
            "metric.matrix_bytes": self.matrix_bytes,
            "words.word_length.calls": per_op(self.calls["words.word_length"]),
            "words.word_length.s": per_op(self.seconds["words.word_length"]),
            "families.eq_calls": per_op(self.calls["families.eq"]),
            "words.normal_form.s": per_op(inclusive["words.rewrite_to_normal_form"] + inclusive["words.normal_form_evaluate"]),
            "words.geodesic_witness.s": per_op(self.seconds["words.geodesic_witness"]),
            "boundary.busemann.s": per_op(inclusive["boundary.busemann"]),
            "boundary.horokernel.s": per_op(inclusive["boundary.horokernel"]),
            "boundary.action_type.s": per_op(inclusive["boundary.action_type"]),
            "boundary.axis_distance.calls": per_op(self.calls["boundary.axis_distance"]),
            "boundary.closure.elements": per_op(e["closure.elements"]),
            "boundary.schottky.s": per_op(inclusive["boundary.schottky"]),
            "trees.millefeuille.s": per_op(inclusive["trees.millefeuille"]),
            "trees.distance_matrix.s": per_op(inclusive["trees.distance_matrix"]),
            "trees.vertices": per_op(e["tree.vertices"]),
            "families.verify_confining.s": per_op(inclusive["families.verify_confining"]),
            "words.distortion_check.s": per_op(inclusive["words.distortion_check"]),
            "cli.self_s": per_op(own["cli.main"]),
            "cli.bytes_out": per_op(bytes_out),
            "trace.overhead_ratio": overhead_ratio,
        }
