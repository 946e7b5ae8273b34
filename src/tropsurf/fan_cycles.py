"""Weighted balanced fan 1-cycles in R^N and their degree and boundary
behaviour inside a fan tropical plane.

A cycle is a finite set of rays with integer weights whose weighted
primitive directions sum to zero.  Relative to a unimodular basis
u_1, ..., u_N (with u_0 closing the sum to zero), every direction has a
unique positive decomposition v = sum r(i) u_i with all r(i) >= 0 and at
least one r(i) = 0; the numbers sum_e w_e r_e(i) are independent of i and
give the degree of the cycle.
"""

from __future__ import annotations

from ._frozen import frozen
from .errors import CycleError
from .intlinalg import primitive


@frozen
class FanCycle:
    """rays: tuple of (direction, weight); directions primitive, distinct.

    The normal form: rays sorted by direction, each direction a primitive
    tuple of ints of length ``dim``, each weight a nonzero int.  The
    constructor checks and normalizes any input to it.  ``+`` and
    ``scale`` by an int keep it without normalizing again: a sum merges
    the two sorted ray tuples and a scale multiplies the weights.

    A direction given as a primitive tuple of ints is kept as that very
    tuple, so cycles built from one another (``scale``, ``+``) share their
    direction tuples; any other integral direction is converted.
    """

    dim: int
    rays: tuple

    def __post_init__(self):
        if self.dim < 0:
            raise CycleError(f"cycle dim must be >= 0, got {self.dim!r}")
        merged = {}
        for direction, weight in self.rays:
            if type(direction) is tuple and all(type(x) is int for x in direction):
                d = direction
            else:
                d = tuple(map(int, direction))
            w = int(weight)
            if d != tuple(direction) or w != weight:
                raise CycleError(f"ray {direction!r} of weight {weight!r} is not integral")
            if len(d) != self.dim:
                raise CycleError("ray dimension mismatch")
            if not any(d):
                raise CycleError("zero direction in a cycle")
            prim, mult = primitive(d)
            merged[prim] = merged.get(prim, 0) + w * mult
        rays = tuple(
            (d, w) for d, w in sorted(merged.items()) if w != 0
        )
        object.__setattr__(self, "rays", rays)

    def __add__(self, other):
        if other.__class__ is not FanCycle:
            return NotImplemented
        if self.dim != other.dim:
            raise CycleError("cannot add cycles in different ambients")
        # merge the two sorted ray tuples, adding the weights of equal
        # directions and dropping those that cancel
        a, b = self.rays, other.rays
        rays = []
        i = j = 0
        while i < len(a) and j < len(b):
            (da, wa), (db, wb) = a[i], b[j]
            if da < db:
                rays.append(a[i])
                i += 1
            elif db < da:
                rays.append(b[j])
                j += 1
            else:
                if wa + wb:
                    rays.append((da, wa + wb))
                i += 1
                j += 1
        rays += a[i:] + b[j:]
        return _from_normal_form(self.dim, tuple(rays))

    def scale(self, c):
        """c times the cycle; a factor other than an int goes through the
        constructor, which accepts it only if every weight stays integral."""
        rays = tuple((d, c * w) for d, w in self.rays)
        if type(c) is not int:
            return FanCycle(self.dim, rays)
        return _from_normal_form(self.dim, rays if c else ())


def _from_normal_form(dim, rays):
    """The cycle on rays already in normal form, stored as they are."""
    cycle = object.__new__(FanCycle)
    object.__setattr__(cycle, "dim", dim)
    object.__setattr__(cycle, "rays", rays)
    return cycle


def is_balanced(cycle):
    return all(
        sum(w * d[k] for d, w in cycle.rays) == 0 for k in range(cycle.dim)
    )


def require_balanced(cycle):
    if not is_balanced(cycle):
        raise CycleError("cycle is not balanced")


def positive_decomposition(basis, v):
    """r(0), ..., r(N) with v = sum r(i) u_i, r >= 0, min r = 0."""
    a = basis.decompose(v)
    m = min(0, min(a))
    return (-m,) + tuple(x - m for x in a)


def degree(cycle, basis):
    """deg(C) = sum_e w_e r_e(i); checked to be the same for every i."""
    require_balanced(cycle)
    if not cycle.rays:
        return 0
    totals = [0] * (cycle.dim + 1)
    for d, w in cycle.rays:
        r = positive_decomposition(basis, d)
        for i in range(cycle.dim + 1):
            totals[i] += w * r[i]
    if len(set(totals)) != 1:
        raise CycleError(f"degree depends on the coordinate: {totals}")
    return totals[0]


def lies_in(cycle, plane):
    if cycle.dim != plane.ambient_dim:
        raise CycleError(
            f"cycle has dim {cycle.dim}, but the plane lies in R^{plane.ambient_dim}"
        )
    return all(plane.contains_direction(d) for d, _ in cycle.rays)


def canonical_cycle(plane):
    """K_P: each coarse ray weighted by (number of incident cones) - 2."""
    rays = []
    for k, ray in enumerate(plane.rays):
        val = sum(1 for c in plane.cones if k in (c.i, c.j))
        w = val - 2
        if w != 0:
            rays.append((ray.direction, w))
    return FanCycle(plane.ambient_dim, tuple(rays))


def boundary_point(basis, m, v):
    """Where the ray in direction v leaves a fan plane of the matroid m.

    Returns ("line", i) when the ray ends in the interior of the boundary
    line of element i, or ("point", I) for the intersection point of the
    rank-2 flat I.
    """
    r = positive_decomposition(basis, v)
    support = frozenset(i for i, x in enumerate(r) if x > 0)
    if not support:
        raise CycleError("zero direction has no boundary point")
    if len(support) == 1:
        return ("line", next(iter(support)))
    if support not in m.flats(2):
        raise CycleError(
            f"ray exits through {sorted(support)}, which is not a rank-2 flat"
        )
    return ("point", support)


def standard_line(basis):
    """The tropical line: rays u_0, ..., u_N with weight 1."""
    dirs = [basis.u0] + list(basis.vectors)
    return FanCycle(basis.dim, tuple((d, 1) for d in dirs))
