"""Spans and counters recorded around calls into the orbitope layers.

Nothing here edits the package.  `Tracer.install` replaces each traced
function in its defining module and at every name another orbitope module
bound to it with `from ... import`; `uninstall` puts the originals back.
Spans are kept in memory as

    [name, parent index or None, start ns, end ns, request id]

and a span's self time is its duration minus the durations of its direct
children, so the self times of one request's spans sum exactly to the
duration of its root span.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
from collections import defaultdict

LAYERS = (
    "exactmath", "weyl", "rootdata", "horn", "schubert",
    "admissible", "wellcover", "polytope", "cli",
)

# layer -> traced public functions ("Class.method" for methods).
TRACED = {
    "polytope": ("assemble", "horn_oracle_member"),
    "admissible": ("enumerate_admissible",),
    "wellcover": ("enumerate_m0", "is_well_covering"),
    "schubert": ("SchubertRing.cup", "SchubertRing.chevalley_mult"),
    "horn": ("enum_T",),
    "exactmath": ("remove_redundant", "implies", "lp_feasible", "lp_witness"),
    "rootdata": ("build",),
    "weyl": ("max_coset_reps",),
    "cli": ("main",),
}

# Spans whose call count and self time are reported.
SPAN_METRICS = (
    "polytope.assemble", "polytope.horn_oracle_member",
    "admissible.enumerate_admissible",
    "wellcover.enumerate_m0", "wellcover.is_well_covering",
    "schubert.cup", "schubert.chevalley_mult",
    "horn.enum_T",
    "exactmath.remove_redundant", "exactmath.implies",
    "exactmath.lp_feasible", "exactmath.lp_witness",
    "weyl.max_coset_reps",
)


def import_orbitope(fresh: bool = False) -> dict:
    """The layer modules by name; fresh=True drops every loaded orbitope
    module first, so the import and all module-level caches start over."""
    if fresh:
        for name in [n for n in sys.modules if n == "orbitope" or n.startswith("orbitope.")]:
            del sys.modules[name]
    return {layer: importlib.import_module(f"orbitope.{layer}") for layer in LAYERS}


def schubert_cache(mods) -> tuple[int, int]:
    info = mods["schubert"].schubert_poly.cache_info()
    return info.hits, info.misses


class Tracer:
    def __init__(self, mods: dict):
        self.mods = mods
        self.enabled = False
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.request = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self._cache_start = (0, 0)

    # -- spans ---------------------------------------------------------

    def begin(self, name: str):
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        self.spans.append([name, parent, time.perf_counter_ns(), 0, self.request])

    def end(self):
        self.spans[self._stack.pop()][3] = time.perf_counter_ns()

    def run(self, name: str, request, fn, *args):
        """fn(*args) inside a root span that opens a new request."""
        self.request = request
        self.begin(name)
        try:
            return fn(*args)
        finally:
            self.end()
            self.request = None

    def adopt(self, spans: list, counters: dict):
        """Attach spans recorded by a child process under the open span."""
        offset = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        for name, p, start, end, _ in spans:
            self.spans.append([name, parent if p is None else p + offset, start, end, self.request])
        for key, value in counters.items():
            self.counters[key] += value

    def dump(self, path: str):
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "counters": self.counters}, f)

    # -- wrappers ------------------------------------------------------

    def _wrap(self, name: str, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(tracer, args, result)
                return result
            finally:
                tracer.end()

        return traced

    def install(self):
        loaded = [m for n, m in list(sys.modules.items())
                  if (n == "orbitope" or n.startswith("orbitope.")) and m is not None]
        for layer, names in TRACED.items():
            mod = self.mods[layer]
            for name in names:
                span_name = f"{layer}.{name.split('.')[-1]}"
                hook = _HOOKS.get(span_name)
                if "." in name:
                    cls_name, attr = name.split(".")
                    owner = getattr(mod, cls_name)
                    original = owner.__dict__[attr]
                    self._patch(owner, attr, self._wrap(span_name, original, hook))
                    continue
                original = getattr(mod, name)
                wrapper = self._wrap(span_name, original, hook)
                for m in loaded:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._patch(m, attr, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def start(self):
        """Install the wrappers and record from now on."""
        self.install()
        self._cache_start = schubert_cache(self.mods)
        self.enabled = True

    def stop(self):
        self.enabled = False
        hits, misses = schubert_cache(self.mods)
        self.counters["schubert.poly_hits"] += hits - self._cache_start[0]
        self.counters["schubert.poly_misses"] += misses - self._cache_start[1]
        self.uninstall()

    # -- results -------------------------------------------------------

    def self_times(self) -> tuple[list[int], list[int]]:
        dur = [s[3] - s[2] for s in self.spans]
        own = list(dur)
        for i, s in enumerate(self.spans):
            if s[1] is not None:
                own[s[1]] -= dur[i]
        return dur, own

    def unbalanced_requests(self) -> tuple[int, int]:
        """(requests checked, requests whose span self times do not sum to
        the duration of their root span)."""
        dur, own = self.self_times()
        total = defaultdict(int)
        root = defaultdict(int)
        for i, s in enumerate(self.spans):
            total[s[4]] += own[i]
            if s[1] is None:
                root[s[4]] += dur[i]
        bad = sum(1 for r in root if total[r] != root[r] or r is None)
        return len(root), bad

    def layer_metrics(self) -> dict:
        _, own = self.self_times()
        calls = defaultdict(int)
        self_ns = defaultdict(int)
        for i, s in enumerate(self.spans):
            calls[s[0]] += 1
            self_ns[s[0]] += own[i]
        c = self.counters
        out = {}
        for name in SPAN_METRICS:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_ms"] = (self_ns[name] / 1e6, "ms")
        out["polytope.assemble.rows_in"] = (c["assemble.rows_in"], "count")
        out["polytope.assemble.rows_kept"] = (c["assemble.rows_kept"], "count")
        out["polytope.assemble.kept_ratio"] = (
            _ratio(c["assemble.rows_kept"], c["assemble.rows_in"]), "ratio")
        out["polytope.oracle.member_ratio"] = (
            _ratio(c["oracle.members"], calls["polytope.horn_oracle_member"]), "ratio")
        out["admissible.enumerate_admissible.subsets"] = (c["admissible.subsets"], "count")
        out["admissible.enumerate_admissible.found"] = (c["admissible.found"], "count")
        out["admissible.yield_ratio"] = (
            _ratio(c["admissible.found"], c["admissible.subsets"]), "ratio")
        out["wellcover.enumerate_m0.candidates"] = (c["wellcover.candidates"], "count")
        out["wellcover.enumerate_m0.pairs"] = (c["wellcover.pairs"], "count")
        out["wellcover.pair_ratio"] = (
            _ratio(c["wellcover.pairs"], c["wellcover.candidates"]), "ratio")
        out["schubert.schubert_poly.hit_ratio"] = (
            _ratio(c["schubert.poly_hits"], c["schubert.poly_hits"] + c["schubert.poly_misses"]),
            "ratio")
        out["horn.enum_T.triples"] = (c["horn.triples"], "count")
        out["exactmath.lp.rows_mean"] = (_ratio(c["lp.rows"], c["lp.calls"]), "rows")
        out["exactmath.lp.vars_mean"] = (_ratio(c["lp.vars"], c["lp.calls"]), "vars")
        out["rootdata.build.self_ms"] = (self_ns["rootdata.build"] / 1e6, "ms")
        out["cli.main.self_ms"] = (self_ns["cli.main"] / 1e6, "ms")
        out["cli.startup_ms"] = (c["cli.startup_ns"] / 1e6, "ms")
        out["cli.output_bytes"] = (c["cli.output_bytes"], "bytes")
        return out


def _ratio(a, b) -> float:
    return a / b if b else 0.0


# -- counters taken at the layer boundary ---------------------------------


def _count_assemble(t: Tracer, args, result):
    t.counters["assemble.rows_in"] += len(result.provenance)
    t.counters["assemble.rows_kept"] += sum(1 for p in result.provenance if p.kept)


def _count_oracle(t: Tracer, args, result):
    member = result[0] if isinstance(result, tuple) else result
    t.counters["oracle.members"] += bool(member)


def _count_admissible(t: Tracer, args, result):
    g = args[0]
    torus_rank = g.dim - (1 if g.trace_zero else 0)
    t.counters["admissible.subsets"] += math.comb(len(g.noncompact_pos), torus_rank - 1)
    t.counters["admissible.found"] += len(result)


def _count_m0(t: Tracer, args, result):
    ctx = t.mods["wellcover"].context(*args[:2])
    t.counters["wellcover.candidates"] += len(ctx.reps) ** 2
    t.counters["wellcover.pairs"] += len(result)


def _count_triples(t: Tracer, args, result):
    t.counters["horn.triples"] += len(result)


def _count_lp(t: Tracer, args, result):
    system = args[0]
    t.counters["lp.calls"] += 1
    t.counters["lp.rows"] += len(system.ineqs)
    t.counters["lp.vars"] += system.dim


_HOOKS = {
    "polytope.assemble": _count_assemble,
    "polytope.horn_oracle_member": _count_oracle,
    "admissible.enumerate_admissible": _count_admissible,
    "wellcover.enumerate_m0": _count_m0,
    "horn.enum_T": _count_triples,
    "exactmath.implies": _count_lp,
    "exactmath.lp_feasible": _count_lp,
    "exactmath.lp_witness": _count_lp,
}
