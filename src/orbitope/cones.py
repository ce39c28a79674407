"""The generators of a polyhedral cone, by the double description method.

`cone_rays` turns a cone's rows into its lineality basis and extreme rays,
in integers.  Its one engine user is `polytope.cross_check`, which imports
it when it runs, so that no other verb loads the module.
"""

from __future__ import annotations

from math import gcd

from .exactmath import LE, DomainError, HPolyhedron, RatVec


def _idot(a: list, x: list) -> int:
    return sum(p * q for p, q in zip(a, x))


def _combine(s: int, p: list, t: int, q: list) -> list:
    """The integer vector s*p + t*q divided by its content."""
    v = [s * a + t * b for a, b in zip(p, q)]
    g = gcd(*v)
    return v if g <= 1 else [a // g for a in v]


def cone_rays(sys: HPolyhedron) -> tuple:
    """V-representation of a cone: (lineality, rays), a basis of the
    lineality space of `sys` and its extreme rays modulo that space, each a
    primitive integer RatVec.  Every row of `sys` must have bound 0.

    The double description method (Motzkin, Raiffa, Thompson and Thrall
    1953; Fukuda and Prodon 1996) starts from the whole space and adds the
    rows one at a time, an equality as two <= rows.  A row that cuts the
    lineality space turns the first lineality vector it cuts into a ray.
    Otherwise the rays the row violates go, and each adjacent pair on
    opposite sides of it gives one ray on its hyperplane.  Two rays are
    adjacent when no third ray is tight on every row both are tight on; the
    rows a ray is tight on, its zero set, are an int bitmask.  All
    arithmetic is on integers, the rows' integer normals among them.  The
    lineality vectors start as the unit vectors, and each stays nonzero in
    the coordinate it started with, where every other lineality vector and
    every ray is 0; so the rays come out reduced modulo the lineality
    space.
    """
    if any(r.bound != 0 for r in sys.ineqs):
        raise DomainError("cone_rays needs every bound to be 0")
    rows = []
    for r in sys.ineqs:
        a = list(r.normal)
        rows += [a] if r.kind == LE else [a, [-c for c in a]]
    n = sys.dim
    lineality = [[int(i == j) for j in range(n)] for i in range(n)]
    rays: list = []  # (vector, zero set of the rows added so far)
    for i, a in enumerate(rows):
        bit = 1 << i
        k = next((k for k, l in enumerate(lineality) if _idot(a, l)), None)
        if k is not None:
            v = lineality.pop(k)
            if _idot(a, v) > 0:
                v = [-c for c in v]
            # a.v = -d < 0; adding multiples of v puts the rest on a.x = 0
            d = -_idot(a, v)
            lineality = [_combine(d, l, _idot(a, l), v) for l in lineality]
            rays = [(_combine(d, r, _idot(a, r), v), z | bit) for r, z in rays]
            rays.append((v, bit - 1))
            continue
        sides = [_idot(a, r) for r, _ in rays]
        kept = [(r, z | bit if s == 0 else z) for (r, z), s in zip(rays, sides) if s <= 0]
        for p, (rp, zp) in enumerate(rays):
            if sides[p] <= 0:
                continue
            for q, (rq, zq) in enumerate(rays):
                if sides[q] >= 0:
                    continue
                common = zp & zq
                if all(z & common != common for o, (_, z) in enumerate(rays) if o != p and o != q):
                    kept.append((_combine(sides[p], rq, -sides[q], rp), common | bit))
        rays = kept
    return [RatVec(l) for l in lineality], [RatVec(r) for r, _ in rays]
