"""Random balanced 1-cycles inside a fan tropical plane, for randomized
intersection checks.

Cycles are integer combinations of three kinds of balanced generators
that all lie in the plane:

* the standard line u_0 + ... + u_N,
* point differences u_I - sum of u_i over i in I, one per rank-2 flat,
* sector rays a u_x + b u_I balanced against their two boundary rays.

Sector generators at a big point I only ever use the faces of the two
smallest elements of I, so the corner charts of the intersection theory
always resolve.
"""

from tropsurf import fan_cycles as fc


def generators(plane):
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
                gens.append(
                    fc.FanCycle(
                        basis.dim, ((v, 1), (u_x, -a), (u_f, -b))
                    )
                )
    return gens


def random_cycle(plane, rng, gens, max_parts=3):
    """A sum of a few scaled draws from gens, the plane's generators
    (computed once per plane by the caller)."""
    cycle = fc.FanCycle(plane.basis.dim, ())
    for _ in range(rng.randint(1, max_parts)):
        g = gens[rng.randrange(len(gens))]
        cycle = cycle + g.scale(rng.choice((-2, -1, 1, 1, 2)))
    return cycle
