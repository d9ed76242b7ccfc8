"""The five workloads: inputs drawn from the seed, the operation, the oracle.

Each workload is a closed loop with one caller.  ``prepare(i)`` builds the
i-th input from the seed (untimed), ``call(inp)`` is the timed operation and
returns its result or the ``StarcongError`` it raised, and ``check`` judges
the result with the reference answers of ``oracle.py``.

The first ``block`` operations of a run are the same for every run with a
given seed; counts and the output digest are taken over them, so they repeat
exactly whatever the run length.  Later operations continue the same
deterministic input stream, so no input repeats within a run and a cache in
the package could not turn repeats into a speed-up (``cli-process`` repeats
its rotation on purpose: each call is a fresh process).

"Served" inputs are the regime the package's tests cover: conditioning
c <= 20, and arrow queries between vertices away from any boundary.  The
timed stream holds served inputs only, and any failure there counts in the
result's ``failed`` and, with a wrong answer or any broken invariant, makes
the run incorrect.  Inputs outside the served regime, where the package has
known defects (c > 20, near-boundary vertices), form a fixed probe set drawn
from the seed.  The traced run judges every probe input once after the
traced block, untimed, and reports how many were refused, wrong or failed as
per-layer counts: they repeat exactly for a seed whatever the run length, and
they stay visible without making the number of failed timed operations
depend on how many operations a run manages.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import resource
import subprocess
import sys
from collections import Counter
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy as np

import oracle
from starcong import canonical, cli, closure, forms, perturb, stratify
from starcong.errors import AmbiguousClassification, CertificateNotFound, StarcongError

def form_of(ref: tuple):
    """The package's form for a reference tuple (public constructors only)."""
    kind = ref[0]
    if kind == "zero":
        return forms.Zero()
    if kind == "udz":
        return forms.UnitDirectZero(ref[1])
    if kind == "pair":
        return forms.UnitPair(ref[1], ref[2])
    if kind == "hyp":
        return forms.Hyperbolic(ref[1])
    return forms.DeltaTau(ref[1])


def form_text(ref: tuple) -> str:
    if ref[0] == "zero":
        return "zero"
    return f"{ref[0]}({','.join(oracle.format_complex(p) for p in ref[1:])})"


def random_unit(rng) -> complex:
    return oracle.unit(rng.uniform(0.0, 2.0 * math.pi))


def random_hyp(rng) -> complex:
    return 0.9 * math.sqrt(rng.uniform()) * random_unit(rng)


class Workload:
    """Shared bookkeeping: failures, violations, block counts and digest."""

    name = ""
    block = 1
    tail = 95.0  # percentile of op_ms_tail
    # stop only after whole blocks, when the block is a rotation of operations
    # of unequal cost, so every run has the same mix
    whole_blocks = False
    warm_ops = 16
    speed_kernel = ("interpreter", 1)  # SpeedProbe(kind, reps), see speed.py

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.root = root
        self.tracer = None
        self.reset()

    def reset(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.probed = 0
        self.violations: list[str] = []
        self.counts: Counter = Counter()
        self.digest = hashlib.sha256()

    def record(self, i: int, text: str, failed: bool, counts: dict | None = None) -> None:
        """Account for operation ``i`` of the timed stream, or for a probe input when ``i < 0``.

        Counts are kept over the block and the probe set; the digest over the block.
        """
        if i >= 0:
            self.attempted += 1
            self.failed += bool(failed)
            if i >= self.block:
                return
            self.digest.update(text.encode("utf-8") + b"\n")
        self.counts["failed"] += bool(failed)
        if counts:
            self.counts.update(counts)

    def probe_inputs(self) -> list:
        """Inputs outside the served regime, judged once by ``probe`` (none by default)."""
        return []

    def probe(self) -> None:
        """Call and check every probe input, untimed; input k is recorded as operation -1 - k."""
        inputs = self.probe_inputs()
        for k, inp in enumerate(inputs):
            self.check(-1 - k, inp, self.call(inp))
        self.probed = len(inputs)

    def recording(self, name: str | None = None):
        """Spans for calls the checks make on purpose (traced run only)."""
        return nullcontext() if self.tracer is None else self.tracer.recording(name)

    def warm_up(self) -> None:
        for i in range(min(self.block, self.warm_ops)):
            self.call(self.prepare(i))

    def per_layer(self, spans, latencies) -> dict:
        """Workload-specific per-layer metrics beyond the span statistics.

        ``spans`` are those of the traced block, ``latencies`` the unscaled
        latencies of the untraced phase.
        """
        return {}

    def finish(self) -> None:
        """Checks made once after the loop (untimed)."""

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- classify-stream ------------------------------------------------------------

CLASSIFY_FAMILIES = ("zero", "udz", "pair-generic", "pair-equal", "pair-antipodal", "hyp", "delta")
HIGH_COND = 1e3  # the probe set; ROADMAP item 2 reproduces wrong answers here
SERVED_COND = 20.0


class ClassifyStream(Workload):
    """``starcong classify`` in process: text -> parse_matrix -> classify -> codimension -> format_form.

    The timed stream has c = 20**u, u uniform in [0, 1).  The probe set has
    2048 inputs at c = 1e3: one in four of the 8192 inputs of block and probe.
    """

    name = "classify-stream"
    block = 6144
    tail = 90.0
    chunk = 1024
    probe_chunks = 2

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self._chunks: dict[int, list] = {}
        for j in range(self.block // self.chunk):
            self._chunk(j)

    def _chunk(self, j: int) -> list:
        if j not in self._chunks:
            self._chunks = {k: v for k, v in self._chunks.items() if k < self.block // self.chunk}
            self._chunks[j] = self._generate(j)
        return self._chunks[j]

    def _generate(self, j: int, stream: int = 0) -> list:
        """Chunk ``j`` of the timed stream (``stream`` 0) or of the probe set (``stream`` 5)."""
        rng = np.random.default_rng([self.seed, stream, j])
        n = self.chunk
        U = oracle.haar_unitaries(rng, n)
        V = oracle.haar_unitaries(rng, n)
        out = []
        for k in range(n):
            i = j * n + k
            family = CLASSIFY_FAMILIES[i % 7]
            c = HIGH_COND if stream else SERVED_COND ** rng.uniform()
            m, v = random_unit(rng), random_unit(rng)
            ref = {
                "zero": ("zero",),
                "udz": ("udz", m),
                "pair-generic": ("pair", m, v),
                "pair-equal": ("pair", m, m),
                "pair-antipodal": ("pair", m, -m),
                "hyp": ("hyp", random_hyp(rng)),
                "delta": ("delta", m),
            }[family]
            S = U[k] @ np.diag([1.0, 1.0 / c]) @ V[k]
            A = S.conj().T @ oracle.representative(ref) @ S
            out.append((oracle.format_matrix(A), ref, c))
        return out

    def prepare(self, i):
        return self._chunk(i // self.chunk)[i % self.chunk]

    def probe_inputs(self):
        return [inp for j in range(self.probe_chunks) for inp in self._generate(j, stream=5)]

    def call(self, inp):
        try:
            M = cli.parse_matrix(inp[0])
            rep = canonical.classify(M)
            cd = stratify.codimension(rep.form)
            return rep, cd, forms.format_form(rep.form)
        except StarcongError as exc:
            return exc

    def check(self, i, inp, out):
        _, ref, c = inp
        regime = "c_le_20" if c <= SERVED_COND else "c_gt_20"
        if isinstance(out, StarcongError):
            kind = "refused" if isinstance(out, AmbiguousClassification) else "error"
            self.record(i, f"{kind} {type(out).__name__}", True, {f"{kind}.{regime}": 1})
            if kind == "error" and c <= SERVED_COND:
                self.violations.append(f"classify input {i}: {type(out).__name__}: {out}")
            return
        rep, cd, text = out
        got = oracle.as_ref(rep.form)
        right = oracle.matches(ref, got, 1e-10 * max(c, 1.0) ** 2)
        codim_ok = cd == oracle.codim(got)
        counts = {f"wrong.{regime}": int(not right), "codim_mismatch": int(not codim_ok)}
        self.record(i, f"{text} {cd} {rep.margin!r}", not (right and codim_ok), counts)
        if c <= SERVED_COND and not (right and codim_ok):
            self.violations.append(
                f"classify input {i} (c={c:.3g}): got {text} codim {cd}, expected {form_text(ref)}")

    def per_layer(self, spans, latencies):
        n = self.counts
        wrong = n["wrong.c_le_20"] + n["wrong.c_gt_20"]
        return {
            "canonical.classify.refused.c_le_20": n["refused.c_le_20"],
            "canonical.classify.refused.c_gt_20": n["refused.c_gt_20"],
            "canonical.classify.wrong.c_le_20": n["wrong.c_le_20"],
            "canonical.classify.wrong.c_gt_20": n["wrong.c_gt_20"],
            "canonical.classify.wrong_frac": wrong / (self.block + self.probed),
            "stratify.codimension.mismatch": n["codim_mismatch"],
        }


# --- closure-arrow ----------------------------------------------------------------

WITNESS_DELTA = 1e-4
LADDER = tuple(range(3, 16))  # near-boundary vertices sit 10^-k off, k = 3..15


def closure_vertices(rng) -> list[tuple[tuple, bool]]:
    """(reference form, near-boundary?) for one vertex set of closure-arrow.

    28 vertices away from any boundary (23 of all families plus 5 anchors)
    and 52 near-boundary vertices: for each k, a pair 10^-k off antipodal, a
    pair 10^-k off equal, a udz 10^-k outside a cone edge and a udz 10^-k
    outside a half-plane edge.  The anchors are the targets those vertices
    are near: delta(+-m) of the near-antipodal pairs, udz(m) of the
    near-equal pairs, the cone's pair and the half-plane's delta.
    """
    u = lambda: random_unit(rng)  # noqa: E731
    ma, me, mc, th = u(), u(), u(), u()
    nc = mc * oracle.unit(rng.uniform(0.3, 2.8))  # counter-clockwise of mc
    far = [("zero",), ("hyp", 0j)]
    far += [("udz", u()) for _ in range(4)]
    far += [("pair", u(), u()) for _ in range(5)]
    far += [("pair", m, m) for m in (u(), u(), u())]
    far += [("pair", m, -m) for m in (u(), u(), u())]
    far += [("hyp", random_hyp(rng)) for _ in range(3)]
    far += [("delta", u()) for _ in range(3)]
    far += [("delta", ma), ("delta", -ma), ("udz", me), ("pair", mc, nc), ("delta", th)]
    near = []
    for k in LADDER:
        eps = 10.0 ** -k
        near += [
            ("pair", ma, -ma * oracle.unit(eps)),
            ("pair", me, me * oracle.unit(eps)),
            ("udz", mc * oracle.unit(-eps)),
            ("udz", th * oracle.unit(-eps)),
        ]
    return [(r, False) for r in far] + [(r, True) for r in near]


class ClosureArrow(Workload):
    """``starcong arrow`` in process: ordered pairs of vertex sets.

    reachable, then witness(delta=1e-4) when true, no_arrow_certificate when
    false.  The timed stream runs every ordered pair of the 28 vertices of a
    set that are away from any boundary, with a fresh set for each pass.  The
    probe set is every ordered pair of the first set with at least one of its
    52 near-boundary vertices (5564 of its 6320 pairs).
    """

    name = "closure-arrow"

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self._sets: dict[int, list] = {}
        n = len(self._vertex_set(0))
        self.pairs = [(s, t) for s in range(n) for t in range(n) if s != t]
        self.block = len(self.pairs)

    def _vertex_set(self, p: int, near: bool = False) -> list:
        """(form, reference, near?) of set ``p``: all 80 vertices if ``near``, else the 28 far ones."""
        verts = closure_vertices(np.random.default_rng([self.seed, 1, p]))
        if near:
            return [(form_of(r), r, n) for r, n in verts]
        if p not in self._sets:
            self._sets = {k: v for k, v in self._sets.items() if k == 0}
            self._sets[p] = [(form_of(r), r, n) for r, n in verts if not n]
        return self._sets[p]

    def probe_inputs(self):
        verts = self._vertex_set(0, near=True)
        return [(s, t) for s in verts for t in verts if s is not t and (s[2] or t[2])]

    def prepare(self, i):
        verts = self._vertex_set(i // len(self.pairs))
        s, t = self.pairs[i % len(self.pairs)]
        return verts[s], verts[t]

    def call(self, inp):
        (src, _, _), (dst, _, _) = inp
        try:
            ok = closure.reachable(src, dst)
        except StarcongError as exc:
            return None, exc
        try:
            if ok:
                return ok, perturb.witness(src, dst, WITNESS_DELTA)
            return ok, perturb.no_arrow_certificate(src, dst)
        except StarcongError as exc:
            return ok, exc

    def check(self, i, inp, out):
        (src, rs, near_s), (dst, rt, near_t) = inp
        ok, res = out
        served = not (near_s or near_t)
        counts = {"reachable.true": int(bool(ok))}
        step = "witness" if ok else "certificate"
        if isinstance(res, StarcongError):
            counts[f"{step}.failed"] = 1
            if isinstance(res, CertificateNotFound):
                counts["certificate.not_found"] = 1
            self.record(i, f"{ok} error {type(res).__name__}", True, counts)
            if served:
                self.violations.append(
                    f"arrow {form_text(rs)} -> {form_text(rt)}: {type(res).__name__}: {res}")
            return
        if ok:
            problem = self._check_witness(src, dst, res)
            text = f"True witness {res.norm_E!r} {oracle.format_matrix(res.E)}"
        else:
            counts[f"kind.{res.kind}"] = 1
            problem = None if res.margin > 0 else f"certificate {res.kind} margin {res.margin!r} <= 0"
            text = f"False {res.kind} {res.margin!r}"
        if problem:
            counts[f"{step}.failed"] = 1
            self.violations.append(f"arrow {form_text(rs)} -> {form_text(rt)}: {problem}")
        self.record(i, text, problem is not None, counts)

    @staticmethod
    def _check_witness(src, dst, w):
        """||E|| <= delta, and S carries the target representative onto source + E.

        The representatives are built from the forms' stored parameters (a
        pair keeps its two parameters in its own order).
        """
        norm = float(np.linalg.norm(w.E))
        if not (norm <= WITNESS_DELTA * (1.0 + 1e-12) and w.norm_E <= WITNESS_DELTA * (1.0 + 1e-12)):
            return f"witness norm {norm!r} exceeds delta {WITNESS_DELTA}"
        if w.S is not None:
            perturbed = oracle.representative(oracle.as_ref(src)) + w.E
            carried = w.S.conj().T @ oracle.representative(oracle.as_ref(dst)) @ w.S
            scale = max(1.0, float(np.linalg.norm(w.S)) ** 2)
            if np.linalg.norm(carried - perturbed) > 1e-9 * scale:
                return "witness congruence S* N S != M + E"
        return None

    def per_layer(self, spans, latencies):
        n = self.counts
        out = {
            "closure.reachable.true": n["reachable.true"],
            "perturb.witness.failed": n["witness.failed"],
            "perturb.no_arrow_certificate.failed": n["certificate.failed"],
            "perturb.no_arrow_certificate.not_found": n["certificate.not_found"],
        }
        for kind in perturb.CERTIFICATE_KINDS:
            out[f"perturb.no_arrow_certificate.kind.{kind}"] = n[f"kind.{kind}"]
        return out


# --- closure-graph -------------------------------------------------------------------

GRAPH_VERTICES = 240
SEVEN_CLASS = (
    "zero", "udz(1)", "pair(1,1)", "pair(1,-1)",
    "pair(0.70710678118654746+0.70710678118654746i,0.70710678118654746-0.70710678118654746i)",
    "hyp(0.3)", "delta(1)",
)


def graph_vertices(rng, n: int) -> list[tuple]:
    """``n`` distinct random forms of all families.

    A tenth of them are antipodal pairs, each with its delta(+-m) targets, so
    the graph has chains of length 3 (zero -> udz -> pair(l,-l) -> delta).
    """
    refs = [("zero",), ("hyp", 0j)]
    for _ in range(n // 10):
        m = random_unit(rng)
        refs += [("pair", m, -m), ("delta", m), ("delta", -m)]
    while len(refs) < n:
        family = rng.integers(5)
        m = random_unit(rng)
        refs.append([("udz", m), ("pair", m, random_unit(rng)), ("pair", m, m), ("hyp", random_hyp(rng)),
                     ("delta", m)][family])
    return refs


class ClosureGraph(Workload):
    """``starcong graph`` in process: hasse_subgraph then to_dot on a fresh vertex set."""

    name = "closure-graph"
    block = 4
    tail = 75.0
    warm_ops = 1

    def prepare(self, i):
        refs = graph_vertices(np.random.default_rng([self.seed, 2, i]), GRAPH_VERTICES)
        return refs, [form_of(r) for r in refs]

    def call(self, inp):
        try:
            graph = closure.hasse_subgraph(inp[1])
            return graph, closure.to_dot(graph)
        except StarcongError as exc:
            return exc

    def check(self, i, inp, out):
        if isinstance(out, StarcongError):
            self.record(i, f"error {type(out).__name__}", True)
            self.violations.append(f"graph {i}: {type(out).__name__}: {out}")
            return
        graph, dot = out
        problem = self._check_dot(inp[0], graph, dot)
        if problem:
            self.violations.append(f"graph {i}: {problem}")
        self.record(i, dot, problem is not None, {"edges": len(graph.edges), "bytes": len(dot.encode())})

    @staticmethod
    def _check_dot(refs, graph, dot):
        """Every vertex labelled with its codimension from the paper's table, one line per edge."""
        lines = dot.splitlines()
        labels = {}
        for line in lines:
            if "[label=" in line:
                name, _, rest = line.strip().partition(" [label=")
                labels[name.strip('"')] = int(rest.rsplit("codim ", 1)[1].rstrip('"];'))
        if len(labels) != len(refs):
            return f"{len(labels)} labelled vertices, expected {len(refs)}"
        for ref, form in zip(refs, graph.vertices):
            name = forms.format_form(form)
            if labels.get(name) != oracle.codim(ref):
                return f"vertex {name} labelled codim {labels.get(name)}, table says {oracle.codim(ref)}"
        n_edges = sum(1 for line in lines if " -> " in line)
        if n_edges != len(graph.edges):
            return f"{n_edges} edge lines for {len(graph.edges)} edges"
        return None

    def finish(self):
        golden = self.root / "tests" / "data" / "golden_7class.dot"
        graph = closure.hasse_subgraph([forms.parse_form(t) for t in SEVEN_CLASS])
        if closure.to_dot(graph) != golden.read_text(encoding="utf-8"):
            self.violations.append("7-class DOT output differs from tests/data/golden_7class.dot")

    def per_layer(self, spans, latencies):
        return {
            "closure.hasse_subgraph.edges": self.counts["edges"],
            "closure.to_dot.bytes": self.counts["bytes"],
        }


# --- neighborhood-sample -------------------------------------------------------------

SAMPLES = 100_000
SAMPLE_ROTATION = (
    ("pair(1,-1)", 1e-3), ("udz(1)", 1e-4), ("zero", 1e-3), ("hyp(0.3)", 1e-4), ("delta(1)", 1e-3),
    ("pair(1,-1)", 1e-4), ("udz(1)", 1e-3), ("zero", 1e-4), ("hyp(0.3)", 1e-3), ("delta(1)", 1e-4),
)


class NeighborhoodSample(Workload):
    """``starcong sample`` in process: sample_neighborhood with 10^5 samples per call.

    In the traced run each call is followed by classify_many on a stack of
    the same size drawn by the benchmark, which prices the package's private
    ball sampler from outside: sampler share = 1 - classify_many / sample_neighborhood.
    """

    name = "neighborhood-sample"
    block = 5
    tail = 75.0
    # one tick per call of about 1.6 s: the median of 9 kernel runs per tick
    # (3 runs let ops_per_s spread 0.08 over ten seeds, 9 runs 0.04)
    speed_kernel = ("array", 9)

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self.rotation = [(forms.parse_form(text), delta) for text, delta in SAMPLE_ROTATION]
        self.reps = [oracle.representative(oracle.as_ref(f)) for f, _ in self.rotation]

    def warm_up(self):
        perturb.sample_neighborhood(self.rotation[0][0], 1e-3, 2000, self.seed)

    def prepare(self, i):
        form, delta = self.rotation[i % len(self.rotation)]
        return i, form, delta, (self.seed << 20) + i

    def call(self, inp):
        _, form, delta, sample_seed = inp
        try:
            return perturb.sample_neighborhood(form, delta, SAMPLES, sample_seed)
        except StarcongError as exc:
            return exc

    def check(self, i, inp, out):
        if isinstance(out, StarcongError):
            self.record(i, f"error {type(out).__name__}", True)
            self.violations.append(f"sample {i}: {type(out).__name__}: {out}")
            return
        total = sum(out.histogram.values())
        if total != SAMPLES:
            self.violations.append(f"sample {i}: histogram counts sum to {total}, not {SAMPLES}")
        self.record(i, json.dumps(out.to_json_dict(), sort_keys=True), total != SAMPLES,
                    {"samples": SAMPLES, "boundary": out.histogram.get("boundary", 0)})
        if self.tracer is not None:
            k = i % len(self.rotation)
            rng = np.random.default_rng([self.seed, 3, i])
            stack = self.reps[k][None, :, :] + oracle.ball_perturbations(rng, SAMPLES, inp[2])
            with self.recording():
                family = canonical.classify_many(stack)["family"]
            if family.shape != (SAMPLES,) or family.min() < 0 or family.max() > 5:
                self.violations.append(f"classify_many probe {i}: bad family codes")

    def per_layer(self, spans, latencies):
        def top_level(name):
            return [e - s for n, s, e, parent, _ in spans if n == name and parent < 0]

        sample_s = top_level("perturb.sample_neighborhood")
        probe_s = top_level("canonical.classify_many")
        out = {"perturb.sample_neighborhood.boundary_frac": self.counts["boundary"] / self.counts["samples"]}
        if sample_s:
            out["perturb.sample_neighborhood.us_per_sample"] = 1e6 * float(np.median(sample_s)) / SAMPLES
        if probe_s:
            out["canonical.classify_many.us_per_sample"] = 1e6 * float(np.median(probe_s)) / SAMPLES
        if sample_s and probe_s:
            out["perturb.sampler_share"] = 1.0 - sum(probe_s[: len(sample_s)]) / sum(sample_s[: len(probe_s)])
        return out


# --- cli-process ------------------------------------------------------------------------


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_process(argv: list[str], root: Path) -> tuple[int, str, float]:
    """Run a fresh process to completion: (exit code, stdout, peak RSS in MB)."""
    proc = subprocess.Popen(argv, cwd=root, env=child_env(root), stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, stdin=subprocess.DEVNULL)
    with proc.stdout:
        out = proc.stdout.read().decode("utf-8")
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss / 1024.0


def _parses(text: str) -> bool:
    try:
        json.loads(text)
    except ValueError:
        return False
    return True


class CliProcess(Workload):
    """A user at the shell: fresh ``python -m starcong`` processes in a fixed rotation.

    Every output is compared byte for byte with ``cli.main`` run in process
    on the same arguments, JSON output must parse, and every call must exit 0.
    """

    name = "cli-process"
    tail = 75.0
    whole_blocks = True
    # the first kernel run after a process exits runs on cold caches, and one
    # tick per 0.3 s process leaves few ticks to average: the median of 15
    # runs keeps both out of the scaling (5 runs let op_ms_p50 spread 0.13)
    speed_kernel = ("interpreter", 15)

    def __init__(self, seed, root):
        super().__init__(seed, root)
        rng = np.random.default_rng([self.seed, 4])
        m, n, l = random_unit(rng), random_unit(rng), random_unit(rng)
        sigma = random_hyp(rng)
        S = oracle.haar_unitaries(rng, 1)[0] @ np.diag([1.0, 0.2]) @ oracle.haar_unitaries(rng, 1)[0]
        matrix = oracle.format_matrix(S.conj().T @ oracle.representative(("pair", m, n)) @ S)
        pair, hyp = form_text(("pair", m, n)), form_text(("hyp", sigma))
        self.rotation = [
            ["classify", "--format", "json", "--", matrix],
            ["codim", form_text(("udz", l)), "--format", "json"],
            ["arrow", form_text(("udz", m)), pair, "--format", "json"],
            ["arrow", pair, hyp, "--format", "json"],
            ["witness", "zero", hyp, "--delta", "1e-3", "--format", "json"],
            ["sample", form_text(("pair", l, -l)), "--delta", "1e-3", "--samples", "10000",
             "--seed", str(seed), "--format", "json"],
            ["graph", "zero", form_text(("udz", m)), pair, form_text(("pair", l, -l)), hyp,
             form_text(("delta", l)), form_text(("delta", n))],
            ["selftest", "--seed", str(seed)],
        ]
        self.block = len(self.rotation)

    def reset(self):
        super().reset()
        self.expected: dict[int, str] = {}
        self.rss_mb = 0.0

    def peak_rss_mb(self) -> float:
        """The largest CLI process, not the benchmark driving them."""
        return self.rss_mb

    def warm_up(self):
        run_process([sys.executable, "-m", "starcong", "--version"], self.root)

    def prepare(self, i):
        return i % len(self.rotation), self.rotation[i % len(self.rotation)]

    def call(self, inp):
        return run_process([sys.executable, "-m", "starcong", *inp[1]], self.root)

    def in_process(self, args: list[str]) -> tuple[int, str]:
        buf = io.StringIO()
        with redirect_stdout(buf), redirect_stderr(io.StringIO()), self.recording(f"cli.main.{args[0]}"):
            code = cli.main(args)
        return code, buf.getvalue()

    def check(self, i, inp, out):
        k, args = inp
        code, stdout, rss = out
        self.rss_mb = max(self.rss_mb, rss)
        problem = None
        if code != 0:
            problem = f"exit code {code}, expected 0"
        elif k not in self.expected:
            want_code, want = self.in_process(args)
            if want_code != 0 or stdout != want:
                problem = "process output differs from cli.main in process"
            elif "json" in args and not _parses(stdout):
                problem = "JSON output does not parse"
            elif args[0] == "selftest" and not stdout.endswith("ok  all selftest suites passed\n"):
                problem = "selftest did not pass"
            self.expected[k] = stdout
        elif stdout != self.expected[k]:
            problem = "output differs from the same command earlier in the run"
        if problem:
            self.violations.append(f"starcong {args[0]}: {problem}")
        self.record(i, f"{code} {stdout}", problem is not None)

    def per_layer(self, spans, latencies):
        out = {}
        for sub in {args[0] for args in self.rotation}:
            main_s = [e - s for name, s, e, _, _ in spans if name == f"cli.main.{sub}"]
            if main_s:
                out[f"cli.main.{sub}_us"] = 1e6 * float(np.median(main_s))
            proc_s = [t for i, t in enumerate(latencies) if self.rotation[i % self.block][0] == sub]
            out[f"cli.{sub}_ms"] = 1e3 * float(np.median(proc_s))
        for name, argv in (("interpreter", ["-c", "pass"]), ("import", ["-c", "import starcong"])):
            times = []
            for _ in range(5):
                t0 = perf_counter()
                run_process([sys.executable, *argv], self.root)
                times.append(perf_counter() - t0)
            out[f"cli.{name}_ms"] = 1e3 * float(np.median(times))
        return out


WORKLOADS = {w.name: w for w in (ClassifyStream, ClosureArrow, ClosureGraph, NeighborhoodSample, CliProcess)}
