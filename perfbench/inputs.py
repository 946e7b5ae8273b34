"""Seeded input generators owned by the benchmark.

Every generator takes a ``random.Random`` built from the run's seed, so
the same seed gives the same inputs.  The library only ever receives
the generated objects; nothing here is shared with the test suite, so
editing a test helper cannot change what the benchmark measures.
"""

from __future__ import annotations

from itertools import combinations

# -- matroids -----------------------------------------------------------------


def library_matroids(mt):
    """The named rank-3 matroids whose fans serve the Bezout queries.

    U_{3,3} is left out: its fan is the whole plane and has no corners.
    """
    return {
        "u34": mt.uniform(3, 4),
        "u35": mt.uniform(3, 5),
        "braid": mt.from_lines(6, [[0, 1, 3], [1, 2, 4], [0, 2, 5], [3, 4, 5]]),
        "pc22": mt.parallel_connection(2, 2),
        "pc23": mt.parallel_connection(2, 3),
        "line_times_r": mt.direct_sum(mt.uniform(2, 4), mt.uniform(1, 1)),
        "star7": mt.from_lines(7, [[0, 1, 2], [0, 3, 4], [0, 5, 6], [1, 3, 5]]),
    }


def matroid_sample(mt, rng, max_n=7):
    """Every labeled simple rank-3 matroid on at most max_n elements, in a
    seeded random order."""
    out = []
    for n in range(3, max_n + 1):
        out.extend(mt.enumerate_simple_rank3(n))
    rng.shuffle(out)
    return out


def random_matroid(mt, rng, n):
    """A simple rank-3 matroid on n elements with up to four random big
    lines, added greedily while they meet earlier lines in <= 1 element."""
    cands = [frozenset(c) for k in (3, 4) if k < n for c in combinations(range(n), k)]
    rng.shuffle(cands)
    lines = []
    target = rng.randint(0, 4)
    for c in cands:
        if len(lines) == target:
            break
        if all(len(c & f) <= 1 for f in lines):
            lines.append(c)
    return mt.from_lines(n, lines)


def big_lines(m):
    """The rank-2 flats of size >= 3, as sorted lists: the ``lines`` that
    ``from_lines`` and the CLI's matroid files take."""
    return [sorted(f) for f in m.flats(2) if len(f) >= 3]


# -- balanced 1-cycles in a fan plane -----------------------------------------


def cycle_generators(fc, plane):
    """Balanced generators that lie in the plane: the standard line, one
    point difference per rank-2 flat, and sector rays balanced against
    their two boundary rays.  Sector rays at a point I only use the faces
    of the two smallest elements of I, so the corner charts resolve."""
    basis = plane.basis
    m = plane.matroid
    gens = [fc.standard_line(basis)]
    for f in m.flats(2):
        rays = [(basis.direction(f), 1)]
        rays += [(basis.direction([i]), -1) for i in sorted(f)]
        gens.append(fc.FanCycle(basis.dim, tuple(rays)))
    for f in m.flats(2):
        u_f = basis.direction(f)
        for x in sorted(f)[:2]:
            u_x = basis.direction([x])
            for a, b in ((1, 1), (2, 1), (1, 2)):
                v = tuple(a * p + b * q for p, q in zip(u_x, u_f))
                gens.append(fc.FanCycle(basis.dim, ((v, 1), (u_x, -a), (u_f, -b))))
    return gens


def random_cycle(fc, plane, rng, gens, max_parts=3):
    """An integer combination of 1 to max_parts random generators."""
    cycle = fc.FanCycle(plane.basis.dim, ())
    for _ in range(rng.randint(1, max_parts)):
        g = gens[rng.randrange(len(gens))]
        cycle = cycle + g.scale(rng.choice((-2, -1, 1, 1, 2)))
    return cycle


def cycle_to_json(c):
    return {"dim": c.dim, "rays": [{"dir": list(d), "weight": w} for d, w in c.rays]}


# -- subdivided torus and Klein-bottle grids ----------------------------------


def _identity(r):
    return [[int(i == j) for j in range(r)] for i in range(r)]


def _flip(r):
    """Transport across the orientation-reversing seam: (x, y) -> (x, -y),
    extended by the identity when r > 2."""
    m = _identity(r)
    m[1][1] = -1
    return m


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def _random_unimodular(rng, r):
    """A random integer matrix of determinant +-1 and its integer inverse,
    from two elementary row operations and a sign change."""
    g, h = _identity(r), _identity(r)
    for _ in range(2):
        i, j = rng.sample(range(r), 2)
        c = rng.choice((-1, 1))
        e, e_inv = _identity(r), _identity(r)
        e[i][j], e_inv[i][j] = c, -c
        g, h = _matmul(e, g), _matmul(h, e_inv)
    s = rng.randrange(r)
    g[s] = [-x for x in g[s]]
    for row in h:
        row[s] = -row[s]
    return g, h


def grid_complex(rng, kind, k, r):
    """A k x k square grid on the torus or the Klein bottle, with a rank-r
    coefficient lattice in every cell, as a ``parse_complex`` object.

    The square [0, k]^2 is glued by (x, k) ~ (x, 0) and, for the torus,
    (k, y) ~ (0, y); for the Klein bottle (k, y) ~ (0, k - y), across which
    the coefficients are transported by ``_flip``.  To make every input
    distinct the cells get seeded random ids, random orientations, a
    random order and a random unimodular change of lattice basis; none
    of these changes the homology.
    """
    if kind not in ("torus", "klein_bottle"):
        raise ValueError(f"unknown surface {kind!r}")
    klein = kind == "klein_bottle"

    def vertex(x, y):
        """Canonical vertex of the point (x, y) and the transport into it."""
        t = _identity(r)
        if y == k:
            y = 0
        if x == k:
            x = 0
            if klein:
                y = (k - y) % k
                t = _flip(r)
        return ("v", x, y), t

    incidences = []  # (big, small, sign, iota1 as nested lists)
    for x in range(k):
        for y in range(k):
            # horizontal edge (x, y) -> (x + 1, y), vertical edge (x, y) -> (x, y + 1)
            head, t = vertex(x + 1, y)
            incidences.append((("h", x, y), head, 1, t))
            incidences.append((("h", x, y), ("v", x, y), -1, _identity(r)))
            head, t = vertex(x, y + 1)
            incidences.append((("e", x, y), head, 1, t))
            incidences.append((("e", x, y), ("v", x, y), -1, _identity(r)))
            face = ("f", x, y)
            top = ("h", x, (y + 1) % k)
            incidences.append((face, ("h", x, y), 1, _identity(r)))
            incidences.append((face, top, -1, _identity(r)))
            incidences.append((face, ("e", x, y), -1, _identity(r)))
            if x + 1 < k:
                incidences.append((face, ("e", x + 1, y), 1, _identity(r)))
            elif not klein:
                incidences.append((face, ("e", 0, y), 1, _identity(r)))
            else:
                # the right side (k, y) -> (k, y + 1) is the seam edge
                # (0, k - y - 1) -> (0, k - y) run backwards
                incidences.append((face, ("e", 0, k - y - 1), -1, _flip(r)))

    cells = [(("v", x, y), 0) for x in range(k) for y in range(k)]
    cells += [((t, x, y), 1) for t in "he" for x in range(k) for y in range(k)]
    cells += [(("f", x, y), 2) for x in range(k) for y in range(k)]

    labels = rng.sample(range(10 * len(cells)), len(cells))
    name = {c: f"c{labels[i]}" for i, (c, _) in enumerate(cells)}
    orient = {c: rng.choice((-1, 1)) for c, _ in cells}
    chart = {c: _random_unimodular(rng, r) for c, _ in cells}
    rng.shuffle(cells)
    rng.shuffle(incidences)

    out = []
    for big, small, sign, iota in incidences:
        # new coordinates: x_new = g x_old in every cell, so the transport
        # becomes g_small iota g_big^-1
        g_small, _ = chart[small]
        _, h_big = chart[big]
        out.append({
            "big": name[big],
            "small": name[small],
            "sign": sign * orient[big] * orient[small],
            "iota1": _matmul(_matmul(g_small, iota), h_big),
        })
    return {
        "cells": [{"id": name[c], "dim": d} for c, d in cells],
        "f1_rank": r,
        "incidences": out,
    }


# -- surface expression trees -------------------------------------------------


def _toric_rays(sc, rng):
    fan = sc.tp2_fan() if rng.random() < 0.3 else sc.hirzebruch_fan(rng.randint(0, 3))
    for _ in range(rng.randint(0, 4)):
        fan = fan.star_subdivide(rng.randrange(fan.n))
    return fan


def random_surface_expr(sc, rng, ops=4):
    """A random surface expression tree and its (chi, K^2, c2).

    The tree starts from a subdivided toric surface and applies up to
    ``ops`` random operations.  The library's surfaces are consulted only
    to pick operations whose preconditions hold; the expected invariants
    are tracked here by the closed-form gluing rules:

      toric n rays   (1, 12 - n, n)
      sum along C    chi1 + chi2 - (1 - b1), K1 + K2 + 4 k, c1 + c2 + 2 k
      self-sum       chi - (1 - b1), K + 4 k, c + 2 k        (k = 2 b1 - 2)
      modify         unchanged
      contract       (chi, K + 1, c - 1)
    """
    fan = _toric_rays(sc, rng)
    expr = {"toric": {"rays": [list(v) for v in fan.rays]}}
    x = sc.toric_surface(fan)
    triple = (1, 12 - fan.n, fan.n)
    for _ in range(ops):
        op = rng.choice(["modify", "sum", "selfsum", "contract"])
        if op == "modify":
            new_id = f"M{rng.randrange(10**6)}"
            if any(i == new_id for i, _ in x.ledger):
                continue
            s = rng.randint(-2, 2)
            x = sc.modify(x, sc.SEGMENT, s, new_id)
            expr = {"modify": {"base": expr, "curve": {"b1": 0, "valencies": [1, 1]},
                               "self_intersection": s, "id": new_id}}
        elif op == "sum":
            ids = [i for i, e in x.ledger if e.curve.isomorphic(sc.SEGMENT)]
            if not ids:
                continue
            i = rng.choice(ids)
            s = x.entry(i).self_intersection
            other_fan = sc.hirzebruch_fan(abs(s))
            other = sc.toric_surface(other_fan)
            oid = next(j for j, e in other.ledger if e.self_intersection == -s)
            x = sc.tropical_sum(x, i, other, oid)
            b1, kc = 0, -2  # a segment is a rational curve
            triple = (triple[0] + 1 - (1 - b1), triple[1] + 12 - other_fan.n + 4 * kc,
                      triple[2] + other_fan.n + 2 * kc)
            expr = {"sum": {"left": expr, "left_curve": i,
                            "right": {"toric": {"rays": [list(v) for v in other_fan.rays]}},
                            "right_curve": oid}}
        elif op == "selfsum":
            pairs = [
                (i, j)
                for (i, e), (j, f) in combinations(x.ledger, 2)
                if e.curve.isomorphic(f.curve)
                and e.self_intersection == -f.self_intersection
                and j not in e.crossings
                and i not in f.crossings
            ]
            if not pairs:
                continue
            i, j = rng.choice(pairs)
            b1 = x.entry(i).curve.b1
            kc = 2 * b1 - 2
            x = sc.self_sum(x, i, j)
            triple = (triple[0] - (1 - b1), triple[1] + 4 * kc, triple[2] + 2 * kc)
            expr = {"selfsum": {"base": expr, "curve1": i, "curve2": j}}
        else:
            ids = [i for i, e in x.ledger if e.curve.b1 == 0 and e.self_intersection == -1]
            if not ids:
                continue
            i = rng.choice(ids)
            x = sc.contract(x, i)
            triple = (triple[0], triple[1] + 1, triple[2] - 1)
            expr = {"contract": {"base": expr, "curve": i}}
    return expr, triple
