"""The benchmark's workloads: seeded inputs, the timed request, the answer check.

Every workload is a closed loop with one client.  `setup` gets freshly
imported orbitope modules, builds the groups and warms up; `prepare` starts
the seeded input streams; `cycle` returns the next block of requests.  A run
is a whole number of cycles, so every run sees the same request mix and the
median and tail fall on the same cost class from run to run.  `check` runs
after the timed loop.
"""

from __future__ import annotations

import importlib
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SHIM = os.path.join(HERE, "cli_shim.py")
CHILD_TIMEOUT_S = 60


def _rng(seed: int, label: str) -> random.Random:
    return random.Random(f"{label}:{seed}")


def sample_lambda(o, g, rng: random.Random):
    """A strictly holomorphic orbit parameter, drawn as in the acceptance
    suite's geometry criterion: sorted half-integers in [0, 12], shifted to
    trace zero where the group needs it."""
    RatVec = o["exactmath"].RatVec
    for _ in range(400):
        vals = sorted(
            (Fraction(rng.randint(0, 12), rng.choice((1, 2))) for _ in range(g.dim)),
            reverse=True,
        )
        if g.trace_zero:
            shift = sum(vals) / g.dim
            vals = [v - shift for v in vals]
        cand = RatVec(vals)
        if o["rootdata"].in_hol_chamber(g, cand):
            return cand
    raise RuntimeError(f"no strictly holomorphic Lambda sampled for {g.label()}")


def fresh_lambda(o, g, rng: random.Random, used: set):
    """sample_lambda, never returning a (group, Lambda) seen before."""
    while True:
        Lambda = sample_lambda(o, g, rng)
        key = (g.label(), Lambda.entries)
        if key not in used:
            used.add(key)
            return Lambda


def grid_points(o, g, Lambda, rng: random.Random, want: int, radius: int = 2,
                tries: int = 20000) -> list:
    """Up to `want` distinct dominant points of the half-integer grid
    Lambda + [-radius, radius]^dim (trace-preserving where the group is
    trace-zero), in random order."""
    RatVec = o["exactmath"].RatVec
    steps = [Fraction(k, 2) for k in range(-2 * radius, 2 * radius + 1)]
    seen, out = set(), []
    for _ in range(tries):
        delta = [rng.choice(steps) for _ in range(g.dim)]
        if g.trace_zero:
            delta[-1] = -sum(delta[:-1])
            if abs(delta[-1]) > radius:
                continue
        mu = RatVec([a + d for a, d in zip(Lambda, delta)])
        if mu.entries in seen or not g.chamber.contains(mu):
            continue
        seen.add(mu.entries)
        out.append(mu)
        if len(out) == want:
            break
    return out


def build_groups(o, specs) -> dict:
    rd = o["rootdata"]
    return {spec: rd.build(rd.GroupFamily.parse(spec)) for spec in specs}


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.tracer = None
        self.o = None

    def setup(self, o: dict):
        raise NotImplementedError

    def prepare(self):
        raise NotImplementedError

    def cycle(self) -> list:
        raise NotImplementedError

    def call(self, req):
        raise NotImplementedError

    def check(self, req, answer) -> bool:
        raise NotImplementedError


class AssembleMix(Workload):
    """polytope.assemble(g, Lambda) with a fresh Lambda per request."""

    name = "assemble-mix"
    # Requests per cycle.  The 24 requests of the three ~50 ms groups put
    # the median well inside that class; the three sp:n=5 requests (~0.7 s,
    # dominated by admissible enumeration) make the tail.
    MIX = (
        ("sp:n=4", 8), ("su:p=4,q=1", 8), ("su:p=2,q=2", 8),
        ("so_star:n=4", 1), ("su:p=3,q=2", 1), ("sp:n=5", 3),
    )
    PROBES = 4  # grid points where the su(3, 2) answers are cross-checked

    def setup(self, o):
        self.o = o
        self.groups = build_groups(o, [spec for spec, _ in self.MIX])
        self.used = set()
        rng = _rng(0, "warm-up")  # the same for every seed: set-up cost must not depend on it
        for g in self.groups.values():
            o["polytope"].assemble(g, fresh_lambda(o, g, rng, self.used))

    def prepare(self):
        self.rng = _rng(self.seed, self.name)
        self.probe_rng = _rng(self.seed, "probes")

    def cycle(self):
        reqs = [
            (spec, fresh_lambda(self.o, self.groups[spec], self.rng, self.used))
            for spec, count in self.MIX
            for _ in range(count)
        ]
        self.rng.shuffle(reqs)
        return reqs

    def call(self, req):
        spec, Lambda = req
        return self.o["polytope"].assemble(self.groups[spec], Lambda)

    def check(self, req, pol) -> bool:
        spec, Lambda = req
        g, P = self.groups[spec], self.o["polytope"]
        if spec == "su:p=3,q=2":  # no closed form: compare with the Horn route
            probes = [Lambda] + grid_points(self.o, g, Lambda, self.probe_rng, self.PROBES)
            return P.member(pol, Lambda) and all(
                P.member(pol, mu) == P.horn_oracle_member(g, Lambda, mu) for mu in probes
            )
        return self.o["exactmath"].poly_equal(pol.system, P.closed_form(g, Lambda).system)


def _vec_arg(v) -> str:
    return ",".join(str(x) for x in v)


class CliCold(Workload):
    """A fresh `python -m orbitope.cli` process per request."""

    name = "cli-cold"
    ADM = {  # group -> golden table of its admissible set
        "so:p=5": "Thm7.2.16", "so:p=7": "Thm7.2.16", "su:p=3,q=3": "Thm7.2.10",
        "sp:n=5": "Thm7.2.5",
    }
    PAIRS = ("su:p=2,q=2", "su:p=3,q=3", "so_star:n=5")
    INEQS = ("so_star:n=4", "su:p=3,q=2")
    ORACLE = ("sp:n=4", "su:p=6,q=1")
    CHECK = "su:p=2,q=2"
    CHECKS = 2  # `check` requests per cycle, each with its own Lambda
    WARM_UP = ("adm", "--group", "so:p=5")

    def __init__(self, seed):
        super().__init__(seed)
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.env.pop("ORBITOPE_THREADS", None)
        self.spans_path = os.path.join(OUT_DIR, "child-spans.json")

    def setup(self, o):
        self.o = o
        specs = [*self.ADM, *self.PAIRS, *self.INEQS, *self.ORACLE, self.CHECK]
        self.groups = build_groups(o, dict.fromkeys(specs))
        proc = self.call(("warm-up", list(self.WARM_UP), None))
        if proc.returncode != 0:
            raise RuntimeError(f"warm-up command failed: {proc.stderr.decode()}")

    def prepare(self):
        self.rng = _rng(self.seed, self.name)
        self.pairs = {}  # group -> pairs enumerated in this process

    def cycle(self):
        """The fixed verb list; the Lambda and mu arguments are drawn afresh
        for every cycle, so no run rests on a single orbit parameter."""
        o, rng = self.o, self.rng
        reqs = [("adm", ["adm", "--group", spec], spec) for spec in self.ADM]
        reqs += [("pairs", ["pairs", "--group", spec, "--format", "json"], spec)
                 for spec in self.PAIRS]
        for spec in self.INEQS:
            L = sample_lambda(o, self.groups[spec], rng)
            reqs.append(("ineqs", ["ineqs", "--group", spec, "--lambda", _vec_arg(L),
                                   "--format", "json"], (spec, L)))
        for spec in self.ORACLE:
            g = self.groups[spec]
            L = sample_lambda(o, g, rng)
            mu = grid_points(o, g, L, rng, 1)[0]
            reqs.append(("oracle", ["oracle", "--group", spec, "--lambda", _vec_arg(L),
                                    "--mu", _vec_arg(mu), "--format", "json"], (spec, L, mu)))
        for _ in range(self.CHECKS):
            L = sample_lambda(o, self.groups[self.CHECK], rng)
            reqs.append(("check", ["check", "--group", self.CHECK, "--lambda", _vec_arg(L),
                                   "--radius", "2"], None))
        rng.shuffle(reqs)
        return reqs

    def call(self, req):
        argv = req[1]
        if self.tracer is None:
            cmd = [sys.executable, "-m", "orbitope.cli", *argv]
        else:
            os.makedirs(OUT_DIR, exist_ok=True)
            if os.path.exists(self.spans_path):
                os.remove(self.spans_path)
            cmd = [sys.executable, SHIM, self.spans_path, *argv]
        t0 = time.perf_counter_ns()
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                              timeout=CHILD_TIMEOUT_S)
        wall = time.perf_counter_ns() - t0
        if self.tracer is not None:
            self._adopt(wall, len(proc.stdout))
        return proc

    def _adopt(self, wall_ns: int, output_bytes: int):
        """Hang the child's spans under the open request span; the rest of
        the process wall time is interpreter start-up and import."""
        if not os.path.exists(self.spans_path):
            return
        with open(self.spans_path) as f:
            child = json.load(f)
        main_ns = sum(s[3] - s[2] for s in child["spans"] if s[1] is None)
        counters = dict(child["counters"])
        counters["cli.startup_ns"] = wall_ns - main_ns
        counters["cli.output_bytes"] = output_bytes
        self.tracer.adopt(child["spans"], counters)

    def check(self, req, proc) -> bool:
        verb, _, detail = req
        if proc.returncode != 0:
            return False
        out = proc.stdout.decode()
        o = self.o
        P, X = o["polytope"], o["exactmath"]
        if verb == "adm":
            got = {tuple(int(c) for c in line.split(",")) for line in out.split()}
            goldens = importlib.import_module("orbitope.goldens")
            return got == goldens.admissible_vectors(goldens.load(self.ADM[detail]), detail)
        if verb == "pairs":
            g = self.groups[detail]
            A, W = o["admissible"], o["wellcover"]
            if detail not in self.pairs:
                self.pairs[detail] = [
                    pair.to_json_obj()
                    for lam in A.sorted_admissible(A.enumerate_admissible(g))
                    for pair in W.enumerate_m0(g, lam)
                ]
            return json.loads(out) == self.pairs[detail]
        if verb == "ineqs":
            spec, L = detail
            g = self.groups[spec]
            got = X.HPolyhedron.from_json_obj({"dim": g.dim, "ineqs": json.loads(out)["ineqs"]})
            if spec == "su:p=3,q=2":  # no closed form: compare with in-process assembly
                want = P.assemble(g, L).system
            else:
                want = P.closed_form(g, L).system
            return X.poly_equal(got, want)
        if verb == "oracle":
            spec, L, mu = detail
            pol = P.assemble(self.groups[spec], L)
            return json.loads(out)["member"] == P.member(pol, mu)
        if verb == "check":
            return out.rstrip().endswith(" 0 disagreements")
        raise ValueError(f"unknown verb {verb!r}")


WORKLOADS = {w.name: w for w in (AssembleMix, CliCold)}
