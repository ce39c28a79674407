"""The names the benchmark tracer reaches for still exist.

perfbench/tracer.py wraps package functions by name, from outside the
package; a rename would make traced runs fail or silently record nothing.
The tracer is loaded from its path, unedited.
"""

import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def mods(tracer):
    return tracer.import_orbitope()


def test_traced_names_resolve(tracer, mods):
    assert set(tracer.TRACED) <= set(tracer.LAYERS)
    for layer, names in tracer.TRACED.items():
        for name in names:
            owner = mods[layer]
            for part in name.split("."):
                owner = getattr(owner, part)
            assert callable(owner), f"{layer}.{name}"


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
