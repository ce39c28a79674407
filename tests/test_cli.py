"""Command line interface: verbs, formats, determinism, exit codes.

`TestByteIdentity` pins stdout and the exit code of a fixed command list
(every verb, text and json, two usage errors and one domain error) to
tests/data/cli_bytes.json.  Regenerate the file (only when the output is
meant to change) with

    PYTHONPATH=src python tests/test_cli.py
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import orbitope
from orbitope import admissible, cli, polytope
from orbitope.cli import main
from orbitope.exactmath import RatVec
from reference import closed_form_admissible

CLI_BYTES = Path(__file__).parent / "data" / "cli_bytes.json"
COMMANDS = [
    ["adm", "--group", "so_star:n=3"],
    ["adm", "--group", "sp:n=3", "--format", "json"],
    ["pairs", "--group", "su:p=2,q=1"],
    ["pairs", "--group", "so_star:n=3", "--format", "json"],
    ["ineqs", "--group", "su:p=2,q=2", "--lambda", "3,1,-1,-3"],
    ["ineqs", "--group", "so_star:n=4", "--lambda", "7,5,3,1"],
    ["ineqs", "--group", "su:p=3,q=2", "--lambda", "5,3,1,-4,-5", "--format", "json"],
    ["ineqs", "--group", "sp:n=2", "--lambda", "7/2,1", "--format", "json"],
    ["member", "--group", "sp:n=2", "--lambda", "3,1", "--xi", "2,1"],
    ["member", "--group", "so_star:n=4", "--lambda", "7,5,3,1", "--xi", "8,6,4,2",
     "--format", "json"],
    ["oracle", "--group", "sp:n=4", "--lambda", "4,3,2,1", "--mu", "5,4,3,2"],
    ["oracle", "--group", "su:p=2,q=2", "--lambda", "3,1,-1,-3", "--mu", "4,2,-2,-4",
     "--format", "json"],
    ["oracle", "--group", "so_star:n=4", "--lambda", "7,5,3,1", "--mu", "7,5,3,-1",
     "--format", "json"],
    ["check", "--group", "su:p=2,q=2", "--lambda", "3,1,-1,-3", "--radius", "1"],
    ["check", "--group", "so_star:n=3", "--lambda", "3,2,1", "--radius", "1",
     "--format", "json"],
    ["horn", "--n", "3", "--r", "2"],
    ["horn", "--n", "4", "--r", "2", "--format", "text"],
    ["plot", "--group", "sp:n=2", "--lambda", "3,1"],
    ["plot", "--group", "su:p=2,q=1", "--lambda", "2,0", "--format", "json"],
    ["ineqs", "--group", "bogus", "--lambda", "1"],
    ["ineqs", "--group", "sp:n=2", "--lambda", "1,3", "--format", "json"],
    ["pairs", "--group", "su:p=2,q=2", "--format", "json"],
    ["pairs", "--group", "su:p=3,q=3"],
    ["check", "--group", "su:p=2,q=2", "--lambda", "2,1,-1,-2", "--radius", "2"],
    ["ineqs", "--group", "sp:n=2", "--lambda", "1,x"],
    ["plot", "--group", "sp:n=2", "--lambda", "3,1", "--window", "3"],
    ["member", "--group", "sp:n=2", "--lambda", "3,1", "--xi", "2,1", "--format", "json"],
    ["adm", "--group", "su:p=3,q=2", "--format", "json"],
    ["adm", "--group", "so:p=5"],
    ["ineqs", "--group", "su:p=3,q=2", "--lambda", "9/2,5/2,1/2,-7/2,-4"],
    ["member", "--group", "su:p=3,q=2", "--lambda", "9/2,5/2,1/2,-7/2,-4",
     "--xi", "0,0,0,0,0"],
    ["oracle", "--group", "su:p=3,q=1", "--lambda", "3,2,1", "--mu", "4,5/2,3/2"],
    ["oracle", "--group", "so_star:n=5", "--lambda", "9,7,5,3,1", "--mu", "19/2,15/2,5,3,1",
     "--format", "json"],
    ["adm", "--group", "su:p=4,q=1"],
    ["pairs", "--group", "so_star:n=5", "--format", "json"],
    ["pairs", "--group", "sp:n=5"],
    ["horn", "--n", "5", "--r", "2"],
    ["horn", "--n", "6", "--r", "3", "--format", "text"],
    ["pairs", "--group", "su:p=4,q=2"],
]


def _capture(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return {"argv": list(argv), "code": code, "stdout": out.getvalue()}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestByteIdentity:
    @pytest.mark.parametrize("index", range(len(COMMANDS)),
                             ids=[" ".join(argv) for argv in COMMANDS])
    def test_stdout_and_exit_code(self, index):
        pinned = json.loads(CLI_BYTES.read_text())
        assert len(pinned) == len(COMMANDS)
        assert _capture(COMMANDS[index]) == pinned[index]

    def test_covers_every_verb_and_exit_code(self):
        pinned = json.loads(CLI_BYTES.read_text())
        verbs = {"adm", "pairs", "ineqs", "member", "oracle", "check", "horn", "plot"}
        assert {case["argv"][0] for case in pinned} == verbs
        assert {case["code"] for case in pinned} == {0, 1, 2}


class TestIneqs:
    def test_sp4_text(self, capsys):
        code, out, _ = run(capsys, "ineqs", "--group", "sp:n=2",
                           "--lambda", "3,1", "--format", "text")
        assert code == 0
        assert out.strip() == "xi1 - xi2 >= 0; xi1 >= 3; xi2 >= 1"

    def test_json_round_trips_through_serialization(self, capsys):
        code, out, _ = run(capsys, "ineqs", "--group", "su:p=2,q=2",
                           "--lambda", "3,1,-1,-3", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        from orbitope.exactmath import HPolyhedron
        sys = HPolyhedron.from_json_obj({"dim": 4, "ineqs": obj["ineqs"]})
        assert sys.to_json_obj()["ineqs"] == obj["ineqs"]

    def test_deterministic(self, capsys):
        argv = ("ineqs", "--group", "so_star:n=3", "--lambda", "3,2,1",
                "--format", "json")
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    def test_rational_lambda(self, capsys):
        # a row prints as its integer row: xi1 >= 7/2 prints doubled
        code, out, _ = run(capsys, "ineqs", "--group", "sp:n=2",
                           "--lambda", "7/2,1")
        assert code == 0 and "2*xi1 >= 7" in out


class TestMemberOracle:
    def test_member_false_reports_row(self, capsys):
        code, out, _ = run(capsys, "member", "--group", "sp:n=2",
                           "--lambda", "3,1", "--xi", "2,1")
        assert code == 0
        assert "member: false" in out and "violated:" in out

    def test_member_true(self, capsys):
        code, out, _ = run(capsys, "member", "--group", "sp:n=2",
                           "--lambda", "3,1", "--xi", "5,1")
        assert code == 0 and "member: true" in out

    def test_oracle_witness(self, capsys):
        code, out, _ = run(capsys, "oracle", "--group", "sp:n=2",
                           "--lambda", "3,1", "--mu", "4,2", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["member"] is True and "cone_witness" in obj


class TestCheck:
    def test_zero_disagreements(self, capsys):
        code, out, _ = run(capsys, "check", "--group", "su:n=2,q=1",
                           "--lambda", "2,0", "--radius", "4")
        assert code == 0
        assert "0 disagreements" in out

    def test_disagreement_exits_3(self, capsys, monkeypatch):
        # P(3, 1) = {xi1 >= xi2, xi1 >= 3, xi2 >= 1} has the vertices (3, 1)
        # and (3, 3); an oracle that flips its answer at (3, 3)
        real = polytope.horn_oracle_member

        def flipped(g, Lambda, mu, witness=False):
            answer = real(g, Lambda, mu, witness)
            return not answer if mu == RatVec([3, 3]) else answer

        monkeypatch.setattr(polytope, "horn_oracle_member", flipped)
        code, out, _ = run(capsys, "check", "--group", "sp:n=2", "--lambda", "3,1",
                           "--format", "json")
        assert code == cli.DISAGREE_EXIT == 3
        assert json.loads(out)["disagreements"] == [{"kind": "vertex", "at": "3,3"}]
        code, out, _ = run(capsys, "check", "--group", "sp:n=2", "--lambda", "3,1")
        assert code == 3
        assert out.splitlines()[0] == "vertex 3,3 fails the Horn oracle"
        assert out.rstrip().endswith(" 1 disagreements")

    def test_radius_has_no_effect(self, capsys):
        argv = ["check", "--group", "su:p=2,q=2", "--lambda", "3,1,-1,-3"]
        assert run(capsys, *argv) == run(capsys, *argv, "--radius", "2")


class TestAdmHornPairs:
    def test_adm_text(self, capsys):
        code, out, _ = run(capsys, "adm", "--group", "so_star:n=3")
        assert code == 0
        assert out.splitlines() == ["1,-1,-1", "1,1,-1"]

    def test_horn_six_triples(self, capsys):
        code, out, _ = run(capsys, "horn", "--n", "3", "--r", "2")
        assert code == 0
        assert len(json.loads(out)) == 6

    def test_pairs_json(self, capsys):
        code, out, _ = run(capsys, "pairs", "--group", "su:p=2,q=1",
                           "--format", "json")
        assert code == 0
        records = json.loads(out)
        assert all({"w", "w_prime", "m", "lambda"} <= set(r) for r in records)
        assert all(r["m"] == 0 for r in records)


class TestPlot:
    def test_svg_emission(self, tmp_path, capsys):
        out_file = tmp_path / "fig.svg"
        code, _, _ = run(capsys, "plot", "--group", "sp:n=2",
                         "--lambda", "3,1", "--out", str(out_file))
        assert code == 0
        svg = out_file.read_text()
        assert svg.startswith("<svg") and "polygon" in svg and "</svg>" in svg

    def test_su21_plot(self, capsys):
        code, out, _ = run(capsys, "plot", "--group", "su:p=2,q=1",
                           "--lambda", "2,0")
        assert code == 0 and "<svg" in out

    def test_rank_cap(self, capsys):
        code, _, err = run(capsys, "plot", "--group", "sp:n=3",
                           "--lambda", "4,2,1")
        assert code == 1 and "rank-2" in err


class TestExitCodes:
    def test_domain_error(self, capsys):
        code, _, err = run(capsys, "ineqs", "--group", "sp:n=2", "--lambda", "1,3")
        assert code == 1 and "error:" in err

    def test_lambda_dimension(self, capsys):
        code, out, err = run(capsys, "ineqs", "--group", "sp:n=2", "--lambda", "1,2,3")
        assert (code, out, err) == (1, "", "error: Lambda dimension 3 != 2\n")

    def test_unsupported_family(self, capsys):
        code, _, err = run(capsys, "ineqs", "--group", "so:p=5",
                           "--lambda", "2,1,0")
        assert code == 1

    def test_oversized_weyl_group(self, capsys):
        # |W| = 8! 2! = 80640 is past the enumeration cap: exit 1, fast.
        start = time.perf_counter()
        code, out, err = run(capsys, "pairs", "--group", "su:p=8,q=2")
        assert time.perf_counter() - start < 1
        assert code == 1 and out == "" and "too large" in err

    @pytest.mark.parametrize("spec", ["sp:n=33", "sp:n=1000000", "so:p=1000"])
    def test_oversized_torus(self, capsys, spec):
        # past DIM_CAP no root is made: exit 1, fast, before any verb runs
        start = time.perf_counter()
        code, out, err = run(capsys, "adm", "--group", spec)
        assert time.perf_counter() - start < 1
        assert code == 1 and out == "" and "torus dimension" in err
        assert err.startswith("error:")

    def test_oversized_weyl_group_skips_the_scan(self, capsys, monkeypatch):
        # the cap is checked before the admissible scan, which never runs
        def scan(g):
            raise AssertionError("admissible scan ran")

        monkeypatch.setattr(admissible, "enumerate_admissible", scan)
        code, out, err = run(capsys, "pairs", "--group", "su:p=8,q=2")
        assert code == 1 and out == "" and "too large" in err

    def test_adm_needs_no_cosets(self, capsys, monkeypatch):
        # adm lists cocharacters only, so the Weyl order cap does not apply;
        # the closed form stands in for the scan (about 3 s for su(8, 2))
        monkeypatch.setattr(admissible, "enumerate_admissible", closed_form_admissible)
        code, out, err = run(capsys, "adm", "--group", "su:p=8,q=2", "--format", "json")
        assert code == 0 and err == "" and len(json.loads(out)) == 11

    @pytest.mark.parametrize("argv, message", [
        (["member", "--xi", "1,2"], "error: point dim 2 vs system dim 6\n"),
        (["plot"], "error: plot supports rank-2 groups only (sp:n=2, su:p=2,q=1)\n"),
    ], ids=["member", "plot"])
    def test_bad_request_skips_the_assembly(self, capsys, monkeypatch, argv, message):
        # a point of the wrong dimension, or a plot past rank 2, exits 1
        # before the assembly (about 3.5 s for sp:n=6), which never runs
        def assembly(g, Lambda):
            raise AssertionError("assembly ran")

        monkeypatch.setattr(polytope, "assemble", assembly)
        code, out, err = run(capsys, argv[0], "--group", "sp:n=6",
                             "--lambda", "7,6,5,4,3,2", *argv[1:])
        assert (code, out, err) == (1, "", message)

    def test_zero_window(self, capsys):
        # a window of minus the largest |coordinate| left a zero-width box
        code, out, err = run(capsys, "plot", "--group", "sp:n=2",
                             "--lambda", "3,1", "--window", "-3")
        assert code == 2 and out == "" and "error:" in err
        assert "Traceback" not in err

    def test_negative_window(self, capsys):
        # a wider negative window mirrored the viewport
        code, out, err = run(capsys, "plot", "--group", "sp:n=2",
                             "--lambda", "3,1", "--window", "-5")
        assert code == 2 and out == "" and "window" in err

    def test_non_integer_window(self, capsys):
        code, out, err = run(capsys, "plot", "--group", "sp:n=2",
                             "--lambda", "3,1", "--window", "abc")
        assert code == 2 and out == "" and "error:" in err

    def test_unwritable_out(self, capsys):
        code, out, err = run(capsys, "ineqs", "--group", "sp:n=2", "--lambda", "3,1",
                             "--out", "/nonexistent/x")
        assert code == 2 and out == "" and err.startswith("error:")

    @pytest.mark.parametrize("verb, flag", [
        ("ineqs", "--lambda"), ("member", "--xi"), ("oracle", "--mu"),
    ])
    @pytest.mark.parametrize("number", ["1e999999999", "1e-999999999", "2.5E4300"])
    def test_huge_exponent_fails_fast(self, capsys, verb, flag, number):
        # Fraction builds 10**exponent before anything reads the vector:
        # --lambda 1e8000000,1 ran 5 s, then exited 1 with the integer print
        # limit's error.
        lam = f"{number},1" if flag == "--lambda" else "3,1"
        argv = ["--group", "sp:n=2", "--lambda", lam]
        if flag != "--lambda":
            argv += [flag, f"{number},1"]
        start = time.perf_counter()
        code, out, err = run(capsys, verb, *argv)
        assert time.perf_counter() - start < 1
        assert code == 2 and out == "" and "bad vector" in err

    @pytest.mark.parametrize("verb, extra", [
        ("ineqs", []), ("member", ["--xi", "1,0,0,-1"]), ("oracle", ["--mu", "1,0,0,-1"]),
    ])
    def test_wide_vector_fails_fast(self, capsys, verb, extra):
        # Each entry fits the digits Python prints, but a bound over their
        # common denominator does not: this vector ran the assembly, then
        # exited 1 with the integer print limit's error.
        argv = ["--group", "su:p=2,q=2", "--lambda", "1e4299,1/997,-1/997,-1e4299", *extra]
        start = time.perf_counter()
        code, out, err = run(capsys, verb, *argv)
        assert time.perf_counter() - start < 1
        assert code == 2 and out == "" and "bad vector" in err

    def test_vector_inside_the_bound_prints_its_rows(self, capsys):
        # 10**k and 1 have k + 4 digits as numerators and denominators.
        k = sys.int_info.default_max_str_digits - cli._ROW_DIGITS - 4
        code, out, _ = run(capsys, "ineqs", "--group", "sp:n=2", "--lambda", f"1e{k},1")
        assert code == 0 and out == f"xi1 - xi2 >= 0; xi1 >= {10**k}; xi2 >= 1\n"
        code, out, err = run(capsys, "ineqs", "--group", "sp:n=2", "--lambda", f"1e{k + 1},1")
        assert code == 2 and out == "" and "bad vector" in err

    @pytest.mark.parametrize("lam", ["7/2,1", "3.5,1", "35e-1,1", "0.035E2,1"])
    def test_rational_forms_parse(self, capsys, lam):
        code, out, _ = run(capsys, "ineqs", "--group", "sp:n=2", "--lambda", lam)
        assert code == 0 and "2*xi1 >= 7" in out

    def test_usage_error(self, capsys):
        assert run(capsys, "ineqs", "--group", "bogus", "--lambda", "1")[0] == 2
        assert run(capsys, "adm", "--group", "sp:n=2,foo=3")[:2] == (2, "")
        assert run(capsys, "nonsense")[0] == 2

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "out.json"
        code, _, _ = run(capsys, "adm", "--group", "sp:n=2",
                         "--format", "json", "--out", str(path))
        assert code == 0
        assert json.loads(path.read_text()) == [[0, -1], [1, -1], [1, 0]]


class TestLeanImports:
    """Each verb imports only the layers it runs, so a cold process compiles
    no other module; a layer imported at the top of cli or polytope would
    load for every verb.  No verb loads `dataclasses` or the `inspect` it
    pulls in."""

    STDLIB = ("dataclasses", "inspect")

    # verb: (argv, a layer it runs, the layers it must not load)
    CASES = {
        "adm": (["adm", "--group", "sp:n=3"], "admissible",
                {"polytope", "wellcover", "schubert", "horn", "certificates", "cones"}),
        "pairs": (["pairs", "--group", "su:p=2,q=1"], "wellcover",
                  {"polytope", "horn", "certificates", "cones"}),
        "oracle": (["oracle", "--group", "sp:n=4", "--lambda", "4,3,2,1", "--mu", "5,4,3,2"],
                   "horn", {"admissible", "wellcover", "schubert", "certificates", "cones"}),
        "ineqs": (["ineqs", "--group", "sp:n=2", "--lambda", "3,1"], "certificates", {"cones"}),
        "horn": (["horn", "--n", "4", "--r", "2"], "horn",
                 {"polytope", "admissible", "wellcover", "schubert", "certificates", "cones"}),
        "check": (["check", "--group", "su:p=2,q=1", "--lambda", "2,0"], "cones", set()),
        "member": (["member", "--group", "sp:n=2", "--lambda", "3,1", "--xi", "2,1"],
                   "certificates", {"cones"}),
        "plot": (["plot", "--group", "sp:n=2", "--lambda", "3,1"], "certificates", {"cones"}),
    }
    SCRIPT = ("import contextlib, io, sys\n"
              "from orbitope import cli\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    code = cli.main(sys.argv[1:])\n"
              f"print(code, *sorted(m for m in sys.modules if m.startswith('orbitope.') or m in {STDLIB}))\n")

    @pytest.mark.parametrize("verb", sorted(CASES))
    def test_verb_skips_other_layers(self, verb):
        argv, ran, skipped = self.CASES[verb]
        env = {**os.environ, "PYTHONPATH": str(Path(orbitope.__file__).parent.parent)}
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT, *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        code, *loaded = proc.stdout.split()
        assert code == "0" and f"orbitope.{ran}" in loaded
        assert not {f"orbitope.{m}" for m in skipped} & set(loaded), loaded
        assert not set(self.STDLIB) & set(loaded), loaded


if __name__ == "__main__":
    records = [_capture(argv) for argv in COMMANDS]
    CLI_BYTES.write_text(json.dumps(records, indent=0) + "\n")
    print(f"wrote {len(records)} commands to {CLI_BYTES}")
