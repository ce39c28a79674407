"""The names the benchmark reaches for still exist.

perfbench/tracer.py wraps package functions by name, from outside the
package; a rename would make traced runs fail or silently record nothing.
The tracer is loaded from its path, unedited.  perfbench/workloads.py
calls the package's public names and reads two golden readers to check
its answers; a move out of the package would fail every benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

from orbitope import admissible, goldens, rootdata

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# layer -> the orbitope names perfbench/workloads.py reads ("Class.method"
# for methods).
WORKLOAD_NAMES = {
    "goldens": ("load", "admissible_vectors"),
    "exactmath": ("RatVec", "poly_equal", "HPolyhedron.from_json_obj"),
    "polytope": ("assemble", "closed_form", "member", "horn_oracle_member"),
    "admissible": ("enumerate_admissible", "sorted_admissible"),
    "wellcover": ("enumerate_m0",),
    "rootdata": ("build", "GroupFamily.parse", "in_hol_chamber"),
}


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def mods(tracer):
    return tracer.import_orbitope()


def _resolve(owner, name: str):
    for part in name.split("."):
        owner = getattr(owner, part)
    return owner


def test_traced_names_resolve(tracer, mods):
    assert set(tracer.TRACED) <= set(tracer.LAYERS)
    for layer, names in tracer.TRACED.items():
        for name in names:
            assert callable(_resolve(mods[layer], name)), f"{layer}.{name}"


def test_counter_hooks_resolve(tracer, mods):
    assert callable(mods["wellcover"].context)
    hits, misses = tracer.schubert_cache(mods)
    assert hits >= 0 and misses >= 0


def test_m0_counters_read_the_context(tracer, mods):
    # The enumerate_m0 hook reads context(g, lam).reps; a context that lost
    # them would fail the traced run or count nothing.
    t = tracer.Tracer(mods)
    rd, wc = mods["rootdata"], mods["wellcover"]
    g = rd.build(rd.GroupFamily.parse("sp:n=2"))
    lams = mods["admissible"].enumerate_admissible(g)
    t.start()
    try:
        for lam in lams:
            t.run("bench.request", 0, wc.enumerate_m0, g, lam)
    finally:
        t.stop()
    metrics = t.layer_metrics()
    assert metrics["wellcover.enumerate_m0.candidates"][0] > 0
    assert metrics["wellcover.enumerate_m0.pairs"][0] > 0


def test_assemble_records_redundancy_spans(tracer, mods):
    # The tracer wraps the names polytope bound with `from ... import`; a
    # call that bypassed them would drop the layer from traced runs silently.
    t = tracer.Tracer(mods)
    rd = mods["rootdata"]
    g = rd.build(rd.GroupFamily.parse("sp:n=2"))
    t.start()
    try:
        t.run("bench.request", 0, mods["polytope"].assemble, g, [3, 1])
    finally:
        t.stop()
    names = [span[0] for span in t.spans]
    assert "polytope.assemble" in names
    assert "exactmath.remove_redundant" in names


def test_workload_names_resolve():
    for layer, names in WORKLOAD_NAMES.items():
        module = importlib.import_module(f"orbitope.{layer}")
        for name in names:
            assert callable(_resolve(module, name)), f"{layer}.{name}"


def test_adm_check_reads_the_admissible_set():
    # cli-cold checks `adm --group sp:n=5` against this golden table.
    g = rootdata.build(rootdata.GroupFamily.parse("sp:n=5"))
    want = {lam.coords for lam in admissible.enumerate_admissible(g)}
    assert goldens.admissible_vectors(goldens.load("Thm7.2.5"), "sp:n=5") == want
