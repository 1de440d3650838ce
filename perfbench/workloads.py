"""Workload pools, seeded op generation, op execution and correctness checks.

An op is one closed-loop request: the benchmark sends the next op only after
the previous one has returned.  `run_op` is the timed part and touches the
package only through its public module functions; `check_op` runs outside the
timed region and compares the result with the reference values recorded in
`reference.json` (fixed pools) or with invariants (seeded query elements).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
OUT_DIR = ROOT / ".bench_out"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import focalgroups  # noqa: E402

if not Path(focalgroups.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"focalgroups was imported from {focalgroups.__file__}, not from {SRC}")

from focalgroups import boundary, cli, families, metric, trees, words  # noqa: E402,F401

WORKLOADS = ("balls", "queries", "reports")

# ---------------------------------------------------------------------------
# Fixed pools.  Their reference values do not depend on the workload seed.
# ---------------------------------------------------------------------------

# name -> (kind, family spec, radius, window args or None); a product
# window is (left args, right args, levels).  Every entry takes at most about
# 0.3 s on a 2.1 GHz core and a round about 1 s, so a 40 s run times each
# entry thirty times or more (see run.Pass).  The balls and oracle windows
# are narrower than the acceptance-test ones for that reason.
BALL_POOL = {
    "ball:lamplighter:2:r4": ("ball", "lamplighter:2", 4, None),
    "ball:lamplighter:2:r5": ("ball", "lamplighter:2", 5, (-2, 2, 5)),
    "ball:nadic:2:r3": ("ball", "nadic:2", 3, None),
    "ball:product:r2": ("ball", "product(lamplighter:2,nadic:2)", 2, ((-1, 1, 2), (1, 1, 2), 2)),
    "oracle:lamplighter:2:r5": ("oracle", "lamplighter:2", 5, (-2, 2, 5)),
    "oracle:nadic:2:r5": ("oracle", "nadic:2", 5, (2, 2, 5)),
}

# name -> CLI argv (the benchmark appends --out).  A round takes about 1 s,
# so a 40 s run times each entry thirty times or more; the reports, the
# nadic classify and the millefeuille run at radii and horizons below the
# CLI defaults for that reason.
REPORT_POOL = {
    "report:nadic:2:r2": ["report", "--family", "nadic:2", "--radius", "2", "--horizon", "6"],
    "report:lamplighter:2:r3": ["report", "--family", "lamplighter:2", "--radius", "3"],
    "verify:lamplighter:2": ["verify", "--family", "lamplighter:2"],
    "verify:nadic:2": ["verify", "--family", "nadic:2"],
    "classify:nadic:2": ["classify", "--family", "nadic:2", "--horizon", "6", "a+", "g{1/2}"],
    "classify:lamplighter:2": ["classify", "--family", "lamplighter:2", "a+", "g{0:1}"],
    "schottky:lamplighter:2": ["schottky", "--family", "lamplighter:2", "a+", "a+ g{0:1}"],
    "schottky:nadic:2": ["schottky", "--family", "nadic:2", "a+", "a+ g{1}"],
    "tree:lamplighter:3:r4": ["tree", "--family", "lamplighter:3", "--radius", "4"],
    "millefeuille:T3xT4:r3": ["millefeuille", "T3", "T4", "--radius", "3"],
}

# Named report fields compared with the reference; fields a report lacks are
# skipped, and fields added by later versions are ignored.
REPORT_FIELDS = (
    "delta",
    "delta.delta",
    "delta.within_bound",
    "confining.passed",
    "action.type",
    "n_vertices",
    "interior_degrees",
    "injective",
)

QUERY_FAMILIES = (
    "lamplighter:2",
    "lamplighter:3",
    "nadic:2",
    "nadic:3",
    "product(lamplighter:2,nadic:2)",
)
QUERY_KINDS = ("dist", "nf", "beta", "classify")
QUERY_POOL_SIZE = 2000
QUERY_MAX_WORD = 10
BETA_HORIZON = 16
CLASSIFY_HORIZON = 32


@dataclass(frozen=True)
class Op:
    kind: str  # ball, oracle, cli, dist, nf, beta, classify
    name: str  # pool entry, or the family spec of a query
    args: tuple


class Workload:
    """One workload's inputs and the code that runs and checks its ops.

    `rounds()` yields the pool forever; a run executes whole rounds until
    its time is up, so the mix of a run does not depend on where the clock
    stopped.
    """

    def __init__(self, name, seed, load_reference=True):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.seed = seed
        self.reference = json.loads(REFERENCE.read_text()) if load_reference else {}
        self._families = {}
        # Pool ops of seconds build large working sets; release memory
        # between them (see run.release_memory).
        self.release_between_ops = name != "queries"
        if name == "balls":
            self.pool = [self._ball_op(key) for key in BALL_POOL]
        elif name == "reports":
            self.pool = [Op("cli", key, tuple(argv)) for key, argv in REPORT_POOL.items()]
        else:
            self.pool = query_ops(self, seed, QUERY_POOL_SIZE)

    def family(self, spec):
        if spec not in self._families:
            self._families[spec] = families.family_from_config(spec)
        return self._families[spec]

    def _ball_op(self, key):
        kind, spec, radius, window = BALL_POOL[key]
        family = self.family(spec)
        if window is not None:
            window = _window(family, window)
        return Op(kind, key, (family, radius, window))

    def rounds(self):
        """Each round is the whole pool in a seeded order."""
        rng = random.Random(f"{self.name}:{self.seed}:order")
        while True:
            batch = list(self.pool)
            rng.shuffle(batch)
            yield batch


def _window(family, args):
    if isinstance(family, families.ProductFamily):
        left, right, levels = args
        return families.ProductWindow(_window(family.left, left), _window(family.right, right), levels)
    cls = families.LamplighterWindow if isinstance(family, families.LamplighterFamily) else families.NadicWindow
    return cls(*args)


def query_ops(workload, seed, count):
    """Single-element ops on elements of seeded words of length <= QUERY_MAX_WORD.

    The family and kind cycle so every (family, kind) cell gets the same
    share, and each op's word length and its numbers of alpha, alpha^-1 and
    A-letters come from a fixed stream.  The seed picks the A-letters and the
    order of the letters, so seeds change the elements but not the mix of
    word shapes, which is what sets an op's cost.
    """
    shapes = random.Random("queries:shapes")
    rng = random.Random(f"queries:{seed}")
    letters = {}
    for spec in QUERY_FAMILIES:
        family = workload.family(spec)
        letters[spec] = [a for a in family.iter_A_window(family.default_window(4)) if a != family.identity()]
    ops = []
    for i in range(count):
        spec = QUERY_FAMILIES[i % len(QUERY_FAMILIES)]
        kind = QUERY_KINDS[i // len(QUERY_FAMILIES) % len(QUERY_KINDS)]
        slots = shapes.choices((words.ALPHA, words.ALPHA_INV, None), weights=(1, 1, 2), k=shapes.randint(0, QUERY_MAX_WORD))
        rng.shuffle(slots)
        word = tuple(words.Gen(rng.choice(letters[spec])) if s is None else s for s in slots)
        family = workload.family(spec)
        ops.append(Op(kind, spec, (family, word, words.evaluate(family, word))))
    return ops


# ---------------------------------------------------------------------------
# Running ops (the timed part)
# ---------------------------------------------------------------------------


def run_op(op):
    kind = op.kind
    if kind == "ball":
        family, radius, window = op.args
        _, D = words.ball_points(family, radius, window=window)
        report = metric.four_point_delta(D)
        return {"D": D, "delta": report.delta, "within_bound": metric.delta_within_bound(report.delta, family.n0)}
    if kind == "oracle":
        family, radius, window = op.args
        res = words.bfs_oracle(family, window, radius=radius)
        D = res.distance_matrix()
        mismatches = sum(res.dist[k] != words.word_length(res.points[k]) for k in res.trusted)
        return {"res": res, "D": D, "mismatches": mismatches}
    if kind == "cli":
        OUT_DIR.mkdir(exist_ok=True)
        fd, path = tempfile.mkstemp(suffix=".json", dir=OUT_DIR)
        os.close(fd)
        try:
            rc = cli.main(list(op.args) + ["--out", path])
            text = Path(path).read_text()
        finally:
            os.unlink(path)
        return {"rc": rc, "text": text}
    family, word, x = op.args
    if kind == "dist":
        return (words.word_length(x), words.geodesic_witness(x))
    if kind == "nf":
        nf = words.rewrite_to_normal_form(family, list(word))
        return (nf, nf.evaluate())
    if kind == "beta":
        return boundary.busemann_quasicharacter(x, N=BETA_HORIZON)
    if kind == "classify":
        return boundary.isometry_type(x, N=CLASSIFY_HORIZON)
    raise ValueError(f"unknown op kind {kind!r}")


# ---------------------------------------------------------------------------
# Checking results (outside the timed region)
# ---------------------------------------------------------------------------


def matrix_digest(D):
    h = hashlib.sha256()
    h.update("\n".join(D.points).encode())
    h.update(D.d.astype("<i8").tobytes())
    return h.hexdigest()


def _field(payload, path):
    value = payload
    for part in path.split("."):
        if not isinstance(value, dict) or part not in value:
            return None
        value = value[part]
    return None if isinstance(value, dict) else value


def summarize(op, result):
    """The named values of a pool op's result that the reference pins."""
    if op.kind == "ball":
        D = result["D"]
        return {
            "n": len(D),
            "digest": matrix_digest(D),
            "delta": str(result["delta"]),
            "within_bound": result["within_bound"],
        }
    if op.kind == "oracle":
        res = result["res"]
        return {
            "n": len(res.points),
            "trusted": len(res.trusted),
            "mismatches": result["mismatches"],
            "digest": matrix_digest(result["D"]),
        }
    if op.kind == "cli":
        payload = json.loads(result["text"])
        fields = {p: _field(payload, p) for p in REPORT_FIELDS}
        return {"rc": result["rc"], "fields": {p: v for p, v in fields.items() if v is not None}}
    raise ValueError(f"{op.kind} ops have no reference summary")


def _oracle_rows_agree(result):
    """The BFS matrix row of the identity equals the oracle's distances."""
    res, D = result["res"], result["D"]
    e = D.index(words.identity_point(res.family).key().decode())
    return all(int(D.d[e, D.index(k.decode())]) == dist for k, dist in res.dist.items())


def check_op(op, result, reference):
    kind = op.kind
    if kind in ("ball", "oracle", "cli"):
        got = summarize(op, result)
        want = reference[op.name]
        if kind == "cli":
            return got["rc"] == want["rc"] and all(got["fields"].get(p) == v for p, v in want["fields"].items())
        if got != want:
            return False
        return kind != "oracle" or _oracle_rows_agree(result)
    family, word, x = op.args
    if kind == "dist":
        length, witness = result
        return len(witness) == length <= len(word) and words.evaluate(family, witness) == x
    if kind == "nf":
        nf, y = result
        return y == x and nf.length() <= len(word)
    if kind == "beta":
        return result.value == Fraction(x.m)
    if kind == "classify":
        if x.m != 0:
            expected = boundary.HYPERBOLIC
        elif family.element_order(x.h) is not None:
            expected = boundary.ELLIPTIC
        else:
            expected = boundary.PARABOLIC
        return result.kind == expected
    raise ValueError(f"unknown op kind {kind!r}")
