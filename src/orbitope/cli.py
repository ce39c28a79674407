"""Command line front end.

Verbs:

  ineqs    assembled inequality system of the moment polyhedron
  member   membership of a point, with the violated row on failure
  oracle   membership by the Horn route, with a cone witness
  check    grid cross-check of the two routes (exit 3 on disagreement)
  adm      dominant indivisible admissible one-parameter subgroups
  horn     the triple set T_r^n
  pairs    m = 0 well-covering pairs per admissible cocharacter
  plot     SVG of a rank-2 polyhedron with cone rays and chamber wall

`--group` parses to a family, and `main` builds its root data right after
parsing, so an oversized family exits 1 before any work.  Each verb computes
its answer once and returns it as two renderings, JSON and text; one
writer, `_write`, emits the one --format asks for to stdout or --out.
`plot` has no JSON form and writes SVG in both formats.

Exit codes: 0 ok, 1 domain error, 2 usage error (an output that cannot be
written among them), 3 cross-check disagreement.  Output is deterministic:
identical inputs give identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from .exactmath import DomainError, HPolyhedron, RatVec, check_dim, rat_str
from .rootdata import GroupFamily, build

if TYPE_CHECKING:
    from .polytope import OrbitPolytope

USAGE_EXIT = 2
DOMAIN_EXIT = 1
DISAGREE_EXIT = 3


def _parse_vec(text: str) -> RatVec:
    try:
        return RatVec([Fraction(part.strip()) for part in text.split(",")])
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad vector {text!r}: {exc}") from exc


def _parse_window(text: str) -> int:
    try:
        window = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad window {text!r}") from exc
    if window < 0:
        raise argparse.ArgumentTypeError(f"window must be >= 0, got {window}")
    return window


def _parse_group(text: str) -> GroupFamily:
    try:
        return GroupFamily.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _write(args, to_json, to_text) -> None:
    """The one writer of a verb's answer: JSON through `_json_dumps` for
    --format json, else the verb's text, newline-terminated, to --out or
    stdout.  A verb with no JSON form (plot) passes to_json=None, and its
    text is written in either format."""
    text = _json_dumps(to_json()) if args.format == "json" and to_json else to_text()
    if not text.endswith("\n"):
        text += "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=1, sort_keys=False)


# Each verb returns its answer as (to_json, to_text, exit code), two
# callables that render it; `main` hands them to `_write`.  Each imports the
# layers it runs, so a process loads only its verb's modules.


def cmd_ineqs(args):
    from .polytope import assemble

    pol = assemble(args.group, args.lam)
    return pol.to_json_obj, pol.pretty, 0


def cmd_member(args):
    from .polytope import assemble, display_ineq, member

    check_dim(args.xi, args.group.dim)  # before the assembly, which can take seconds
    pol = assemble(args.group, args.lam)
    obj = {"member": member(pol, args.xi)}
    lines = [f"member: {str(obj['member']).lower()}"]
    if not obj["member"]:
        obj["violated"] = next(
            display_ineq(row) for row in pol.system.ineqs if not row.satisfied_by(args.xi)
        )
        lines.append(f"violated: {obj['violated']}")
    return lambda: obj, lambda: "\n".join(lines), 0


def cmd_oracle(args):
    from .polytope import horn_oracle_member

    ok, gamma = horn_oracle_member(args.group, args.lam, args.mu, witness=True)
    obj = {"member": ok}
    lines = [f"member: {str(ok).lower()}"]
    if gamma is not None:
        obj["cone_witness"] = [rat_str(x) for x in gamma]
        lines.append("cone witness: " + ",".join(obj["cone_witness"]))
    return lambda: obj, lambda: "\n".join(lines), 0


def cmd_check(args):
    from .polytope import cross_check

    report = cross_check(args.group, args.lam, args.radius)
    return report.to_json_obj, report.summary, 0 if report.ok else DISAGREE_EXIT


def cmd_adm(args):
    from .admissible import enumerate_admissible, sorted_admissible

    lams = [l.coords for l in sorted_admissible(enumerate_admissible(args.group))]
    return (lambda: [list(l) for l in lams],
            lambda: "\n".join(",".join(str(c) for c in l) for l in lams), 0)


def cmd_horn(args):
    from .horn import enum_T

    triples = enum_T(args.r, args.n)
    return (lambda: [t.to_json_obj() for t in triples],
            lambda: "\n".join(f"I={list(t.I)} J={list(t.J)} L={list(t.L)}" for t in triples), 0)


def cmd_pairs(args):
    from .admissible import enumerate_admissible, sorted_admissible
    from .wellcover import enumerate_m0, require_pairs

    g = args.group
    require_pairs(g)
    records = [pair.to_json_obj() for lam in sorted_admissible(enumerate_admissible(g))
               for pair in enumerate_m0(g, lam)]
    return (lambda: records,
            lambda: "\n".join("lambda={} w={} w'={} m={}".format(
                r["lambda"], r["w"], r["w_prime"], r["m"]) for r in records), 0)


# ---------------------------------------------------------------------------
# Rank-2 SVG plots
# ---------------------------------------------------------------------------


def _clip_polygon(points, normal, bound):
    """Sutherland-Hodgman clip of a polygon by <normal, x> <= bound."""
    out = []
    k = len(points)
    for i in range(k):
        cur, nxt = points[i], points[(i + 1) % k]
        c_in = normal.dot(cur) <= bound
        n_in = normal.dot(nxt) <= bound
        if c_in:
            out.append(cur)
        if c_in != n_in:
            d = RatVec([nxt[0] - cur[0], nxt[1] - cur[1]])
            denom = normal.dot(d)
            t = (bound - normal.dot(cur)) / denom
            out.append(RatVec([cur[0] + t * d[0], cur[1] + t * d[1]]))
    return out


def _clip_to_box(system: HPolyhedron, lo: Fraction, hi: Fraction):
    pts = [RatVec([lo, lo]), RatVec([hi, lo]), RatVec([hi, hi]), RatVec([lo, hi])]
    for row in system.ineqs:
        if row.kind != "le":
            return []
        pts = _clip_polygon(pts, RatVec(row.normal), row.bound)
        if not pts:
            return []
    return pts


def render_svg(pol: OrbitPolytope, window: int = 0) -> str:
    """Static SVG of a rank-2 moment polyhedron (`cmd_plot` checks the
    rank): shaded feasible region clipped to a viewport, facet lines,
    chamber wall and the cone rays from Lambda along the noncompact
    positive roots."""
    g, Lambda = pol.group, pol.Lambda
    coords = [abs(x) for x in Lambda] + [Fraction(1)]
    span = max(coords) + (window if window else max(coords) + 4)
    lo, hi = -span, span
    size = 560
    pad = 30

    def sx(x: Fraction) -> float:
        return pad + float((x - lo) / (hi - lo)) * (size - 2 * pad)

    def sy(y: Fraction) -> float:
        return size - pad - float((y - lo) / (hi - lo)) * (size - 2 * pad)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    # axes
    parts.append(
        f'<line x1="{sx(lo)}" y1="{sy(0)}" x2="{sx(hi)}" y2="{sy(0)}" '
        'stroke="#999" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{sx(0)}" y1="{sy(lo)}" x2="{sx(0)}" y2="{sy(hi)}" '
        'stroke="#999" stroke-width="1"/>'
    )
    # shaded feasible region
    poly = _clip_to_box(pol.system, lo, hi)
    if poly:
        pts = " ".join(f"{sx(p[0]):.2f},{sy(p[1]):.2f}" for p in poly)
        parts.append(f'<polygon points="{pts}" fill="#9ecae1" fill-opacity="0.55" '
                     'stroke="#3182bd" stroke-width="2"/>')
    # chamber wall xi1 = xi2
    parts.append(
        f'<line x1="{sx(lo)}" y1="{sy(lo)}" x2="{sx(hi)}" y2="{sy(hi)}" '
        'stroke="#555" stroke-width="1" stroke-dasharray="6,4"/>'
    )
    # cone rays Lambda + R+ . beta
    for beta in g.noncompact_pos:
        end = RatVec([Lambda[0] + beta[0] * span, Lambda[1] + beta[1] * span])
        parts.append(
            f'<line x1="{sx(Lambda[0])}" y1="{sy(Lambda[1])}" '
            f'x2="{sx(end[0])}" y2="{sy(end[1])}" '
            'stroke="#31a354" stroke-width="1" stroke-dasharray="2,3"/>'
        )
    # Lambda marker
    parts.append(
        f'<circle cx="{sx(Lambda[0])}" cy="{sy(Lambda[1])}" r="4" fill="#e6550d"/>'
    )
    parts.append(
        f'<text x="{sx(Lambda[0]) + 7:.2f}" y="{sy(Lambda[1]) - 7:.2f}" '
        f'font-size="13" fill="#e6550d">Lambda=({",".join(rat_str(x) for x in Lambda)})'
        "</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts)


def cmd_plot(args):
    from .polytope import assemble

    if args.group.dim != 2:  # before the assembly, which can take seconds
        raise DomainError("plot supports rank-2 groups only (sp:n=2, su:p=2,q=1)")
    svg = render_svg(assemble(args.group, args.lam), window=args.window)
    return None, lambda: svg, 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="orbitope",
        description="Exact moment polyhedra of holomorphic orbit projections.",
    )
    sub = top.add_subparsers(dest="verb", required=True)

    def common(p, lam=True):
        p.add_argument("--group", type=_parse_group, required=True,
                       help="e.g. sp:n=2, su:p=2,q=2, so_star:n=3, so:p=5")
        if lam:
            p.add_argument("--lambda", dest="lam", type=_parse_vec, required=True,
                           help="comma-separated rationals, e.g. 3,1 or 5/2,1")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", default=None, help="output file (default stdout)")

    p = sub.add_parser("ineqs", help="assembled inequality system")
    common(p)
    p.set_defaults(func=cmd_ineqs)

    p = sub.add_parser("member", help="polyhedron membership of a point")
    common(p)
    p.add_argument("--xi", type=_parse_vec, required=True)
    p.set_defaults(func=cmd_member)

    p = sub.add_parser("oracle", help="membership by the Horn route")
    common(p)
    p.add_argument("--mu", type=_parse_vec, required=True)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("check", help="grid cross-check of both routes")
    common(p)
    p.add_argument("--radius", type=int, default=2)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("adm", help="admissible one-parameter subgroups")
    common(p, lam=False)
    p.set_defaults(func=cmd_adm)

    p = sub.add_parser("horn", help="the triple set T_r^n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_horn)

    p = sub.add_parser("pairs", help="m = 0 well-covering pairs")
    common(p, lam=False)
    p.set_defaults(func=cmd_pairs)

    p = sub.add_parser("plot", help="SVG of a rank-2 polyhedron")
    common(p)
    p.add_argument("--window", type=_parse_window, default=0,
                   help="half-width of the viewport (0 = auto)")
    p.set_defaults(func=cmd_plot)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize others.
        return USAGE_EXIT if exc.code not in (0,) else 0
    try:
        if getattr(args, "group", None) is not None:
            args.group = build(args.group)
        to_json, to_text, code = args.func(args)
        _write(args, to_json, to_text)
        return code
    except ValueError as exc:  # DomainError, UnsupportedFamilyError among them
        print(f"error: {exc}", file=sys.stderr)
        return DOMAIN_EXIT
    except OSError as exc:
        # The only files touched are the output (--out or stdout).
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
