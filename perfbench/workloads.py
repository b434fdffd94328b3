"""The benchmark's workloads: seeded inputs, the timed operations, and the
checks on their outputs.

A workload runs in rounds.  Round r of a workload is a fixed batch of
operations whose inputs are a pure function of (seed, r), so two runs with
one seed see the same inputs, and every round has the same mix of sizes.
A traced run replays the first `traced_rounds` rounds.
Checks never run inside the timed region.

girycheck is reached through module attributes at call time (`gc.full_report`),
never through names bound at import, so that traced runs see the wrappers.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import string
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import girycheck as gc
import girycheck.cli  # noqa: F401  (binds gc.cli)

HERE = Path(__file__).resolve().parent


def _ptext(p) -> str:
    """Canonical text of a raw payload: a Fraction, a tuple of them, or None for inf."""
    if p is None:
        return "inf"
    if isinstance(p, tuple):
        return ",".join(str(c) for c in p)
    return str(p)


# ---------------------------------------------------------------------------
# transport-mix


TRANSPORT_SPACES = ("box2", "simplex3", "rinf-grid", "unit_interval")


def _raw_point(rng, space_id):
    if space_id == "box2":
        return (Fraction(rng.randint(0, 64), 64), Fraction(rng.randint(0, 64), 64))
    if space_id == "simplex3":
        cuts = [rng.randint(1, 9) for _ in range(3)]
        return tuple(Fraction(c, sum(cuts)) for c in cuts)
    if space_id == "rinf-grid":
        k = rng.randint(-16, 17)  # quarter steps on [-4, 4], plus inf
        return None if k == 17 else Fraction(k, 4)
    if space_id == "unit_interval":
        return Fraction(rng.randint(0, 64), 64)
    raise ValueError(space_id)


def raw_measure(rng, space_id, k):
    """k distinct raw points with positive rational weights summing to 1."""
    points = {}
    while len(points) < k:
        points.setdefault(_raw_point(rng, space_id), None)
    ws = [rng.randint(1, 9) for _ in range(k)]
    return [(p, Fraction(w, sum(ws))) for p, w in zip(points, ws)]


def to_measure(reg, space_id, raw):
    space = reg.space(space_id)
    wrap = (lambda p: gc.INF if p is None else gc.ExtValue(p)) if space_id == "rinf-grid" else None
    pairs = [(space.element(wrap(p) if wrap else p), w) for p, w in raw]
    return gc.FinMeasure.from_pairs(space_id, pairs)


def raw_text(space_id, raw) -> str:
    return space_id + ":" + " ".join(f"{_ptext(p)}@{w}" for p, w in raw)


class TransportMix:
    """wasserstein(P, Q, metric) on four spaces; each round solves every
    (space, support size) cell once, in a seeded order.

    Supports take every size from 4 to 16 atoms.  The time of one solve
    varies several-fold between random inputs of one size (pivot counts,
    denominators, infinite atoms), and more so the larger the support:
    with 18-24 atoms a run holds only a few of the slowest solves, and its
    figures spread more between seeds than a regression bound allows.
    Every size rather than every other one spreads the per-solve times
    evenly, so that the median and 90th percentile do not jump between
    clusters.  Larger box2 solves are timed by the traced size ladder."""

    name = "transport-mix"
    traced_rounds = 8

    def __init__(self, reg, seed, tiny, workdir):
        self.reg, self.seed = reg, seed
        self.sizes = (4, 6) if tiny else tuple(range(4, 17))
        self.spool = workdir / f"transport-{seed}.jsonl"
        self.spool.unlink(missing_ok=True)

    def inputs(self, r):
        rng = random.Random(f"transport-mix/{self.seed}/{r}")
        cells = [(sid, k) for sid in TRANSPORT_SPACES for k in self.sizes]
        rng.shuffle(cells)
        ops, text = [], []
        for sid, k in cells:
            p_raw, q_raw = raw_measure(rng, sid, k), raw_measure(rng, sid, k)
            text += [raw_text(sid, p_raw), raw_text(sid, q_raw)]
            ops.append((sid, p_raw, q_raw))
        return ops, "\n".join(text)

    def prepare(self, op):
        sid, p_raw, q_raw = op
        return (to_measure(self.reg, sid, p_raw), to_measure(self.reg, sid, q_raw),
                self.reg.metric(sid))

    @staticmethod
    def run(prepared):
        P, Q, metric = prepared
        return gc.wasserstein(P, Q, metric)

    def check(self, op, prepared, result):
        """In-process checks now; the cost goes to the flow oracle at finish()."""
        _, _, metric = prepared
        sid, p_raw, q_raw = op
        with self.spool.open("a") as fh:
            fh.write(json.dumps({
                "space": sid,
                "p": [[_ptext(p), str(w)] for p, w in p_raw],
                "q": [[_ptext(p), str(w)] for p, w in q_raw],
                "cost": str(result.cost),
            }) + "\n")
        return result.plan.marginals_ok() and result.plan.cost(metric) == result.cost

    def finish(self):
        """Failures found by the networkx oracle, run in its own process so
        that its imports stay out of this process's peak memory."""
        if not self.spool.exists():
            return 0
        with self.spool.open() as fh:
            out = subprocess.run(
                [sys.executable, str(HERE / "flow_oracle.py")],
                stdin=fh, capture_output=True, text=True, timeout=170, check=False,
            )
        self.spool.unlink()
        sys.stderr.write(out.stderr)
        if out.returncode != 0:
            raise RuntimeError(f"flow oracle failed: {out.stderr.strip()}")
        return int(out.stdout.split()[-1])


def ladder_inputs(seed, sizes=(8, 16, 24, 32)):
    """box2 solves of growing support, for the traced solver size ladder."""
    rng = random.Random(f"ladder/{seed}")
    return [(k, raw_measure(rng, "box2", k), raw_measure(rng, "box2", k)) for k in sizes]


# ---------------------------------------------------------------------------
# finite-small


RULES = ("min", "max", "collapse")


def _combine_rule(labels, rule, center):
    """The carrier rule for two points, written out independently of girycheck."""

    def comb(a, b):
        if a == b:
            return a
        if rule == "collapse":
            return center
        first = min(a, b, key=labels.index)
        return first if rule == "min" else max(a, b, key=labels.index)

    return comb


class FiniteSmall:
    """Many small label spaces, each checked once: full_report, equiv_check,
    then enumerate_ideals and coseparates on the characteristic maps."""

    name = "finite-small"
    traced_rounds = 5

    def __init__(self, reg, seed, tiny, workdir):
        self.seed = seed
        self.sizes = (2, 3) if tiny else (2, 3, 4, 5, 6)

    def inputs(self, r):
        rng = random.Random(f"finite-small/{self.seed}/{r}")
        cells = [(n, rule) for n in self.sizes for rule in RULES]
        rng.shuffle(cells)
        ops, text = [], []
        for i, (n, rule) in enumerate(cells):
            labels = []
            while len(labels) < n:
                lab = "".join(rng.choice(string.ascii_lowercase) for _ in range(3))
                if lab not in labels:
                    labels.append(lab)
            center = rng.choice(labels) if rule == "collapse" else None
            stream = rng.randrange(2**30)
            ops.append((f"fs{r}-{i}", tuple(labels), rule, center, stream))
            text.append(f"{rule}:{center}:{','.join(labels)}:{stream}")
        return ops, "\n".join(text)

    @staticmethod
    def prepare(op):
        space_id, labels, rule, center, stream = op
        space = gc.labels_space(space_id, labels, rule, center=center)
        return space, gc.default_metric(space), stream

    @staticmethod
    def run(prepared):
        space, metric, stream = prepared
        report = gc.full_report(space, metric, 300, random.Random(stream))
        equiv = gc.equiv_check(space, metric, 500, random.Random(stream + 1))
        ideals = gc.enumerate_ideals(space)
        cosep = gc.coseparates([gc.char_map(space, ideal) for ideal in ideals], space)
        return report, equiv, ideals, cosep

    @staticmethod
    def check(op, prepared, result):
        _, labels, rule, center, _ = op
        report, equiv, ideals, cosep = result
        comb = _combine_rule(labels, rule, center)
        brute = {
            frozenset(s)
            for size in range(1, len(labels))
            for s in itertools.combinations(labels, size)
            if all(comb(a, b) in s for a in s for b in labels)
        }
        got = [frozenset(e.payload for e in ideal.members) for ideal in ideals]
        pairs = list(itertools.combinations(labels, 2))
        separated = all(any((x in s) != (y in s) for s in brute) for x, y in pairs)
        total = all(comb(x, y) in (x, y) for x, y in pairs)
        if total:
            verdict_ok = isinstance(report, gc.AlgebraReport) and report.ok
        else:
            verdict_ok = isinstance(report, gc.Rejection)
        return (
            len(got) == len(set(got))
            and set(got) == brute
            and cosep.ok == separated
            and equiv.ok
            and verdict_ok
        )

    def finish(self):
        return 0


# ---------------------------------------------------------------------------
# report-all


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "girycheck").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class ReportAll:
    """The `girycheck report-all` command, once per run (per interpreter)."""

    name = "report-all"
    traced_rounds = 1

    def __init__(self, reg, seed, tiny, workdir):
        self.seed = seed
        self.out = workdir / f"report-all-{seed}.json"
        self.budget = 20 if tiny else None
        self.hashes = workdir / "report-all-sha256.json"
        self.key = f"{seed}/{self.budget}/{source_digest(workdir.parent)}"

    def inputs(self, r):
        argv = ["report-all", "--format", "json", "--seed", str(self.seed), "--out", str(self.out)]
        if self.budget is not None:
            argv += ["--budget", str(self.budget)]
        return [argv], " ".join(argv[:5] + argv[7:])

    @staticmethod
    def prepare(op):
        return op

    @staticmethod
    def run(argv):
        return gc.cli.main(argv)

    def check(self, op, prepared, result):
        """The report is ok, and byte-identical to every earlier run of this
        seed on this source tree (each run is a fresh interpreter)."""
        data = self.out.read_bytes()
        ok = result == 0 and json.loads(data)["ok"] is True
        digest = hashlib.sha256(data).hexdigest()
        seen = json.loads(self.hashes.read_text()) if self.hashes.exists() else {}
        first = seen.setdefault(self.key, digest)
        self.hashes.write_text(json.dumps(seen, indent=1, sort_keys=True))
        return ok and first == digest

    def finish(self):
        return 0


WORKLOADS = {w.name: w for w in (ReportAll, TransportMix, FiniteSmall)}
