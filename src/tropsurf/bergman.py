"""Fan tropical planes: the two-dimensional fan attached to a simple
rank-3 matroid, with its coarse polyhedral structure.

Elements of the matroid correspond to the boundary lines of the plane,
rank-2 flats to intersection points of those lines.  The fine fan is the
cone over the flag graph (Ardila-Klivans): a ray u_F for every vertex, an
element {i} or a rank-2 flat I, and one 2-cone for every edge {i} < I.
The coarse structure is that graph with its degree-2 vertices suppressed,
since the support is locally linear along their rays:

* two-element flats I = {i, j} (u_I = u_i + u_j subdivides the cone
  spanned by u_i and u_j), and
* elements b lying on exactly 2 rank-2 flats K, L (then u_b = -u_K - u_L
  and the two adjacent cones close up to a flat piece).

A coarse cone is a walk from a kept vertex through degree-2 vertices to
the next one; its fine directions are kept as the cone's sectors, so
membership tests still resolve the fine structure.
"""

from __future__ import annotations

from itertools import combinations

from . import matroid as mt
from ._frozen import frozen
from .errors import FanError, MatroidError
from .intlinalg import solve, unimodular_inverse


@frozen
class Basis:
    """A unimodular basis u_1, ..., u_N of ZZ^N; u_0 = -(u_1 + ... + u_N).

    Element i of a matroid on {0, ..., N} gets the direction u_i, a flat I
    the direction u_I = sum over i in I of u_i.

    The integer inverse of the matrix with columns u_i and the vector u0 are
    computed once, here; they are not fields, so equality and hashing see
    only the vectors.
    """

    vectors: tuple

    def __post_init__(self):
        vecs = tuple(tuple(int(x) for x in v) for v in self.vectors)
        object.__setattr__(self, "vectors", vecs)
        n = len(vecs)
        if n == 0 or any(len(v) != n for v in vecs):
            raise FanError("basis must be square")
        # A has the u_i as columns; its inverse is integral exactly when
        # |det A| = 1, since det A * det A^-1 = 1 in ZZ
        inverse = unimodular_inverse([[v[k] for v in vecs] for k in range(n)])
        if inverse is None:
            raise FanError("basis must be unimodular")
        object.__setattr__(self, "_inverse", inverse)
        object.__setattr__(
            self, "u0", tuple(-sum(v[k] for v in vecs) for k in range(n))
        )

    @property
    def dim(self):
        return len(self.vectors)

    def direction(self, flat):
        """u_I = sum of u_i over i in the flat (element 0 contributes u0)."""
        out = [0] * self.dim
        for i in flat:
            u = self.u0 if i == 0 else self.vectors[i - 1]
            for k in range(self.dim):
                out[k] += u[k]
        return tuple(out)

    def decompose(self, v):
        """Integer coordinates a with v = sum a_i u_i (i = 1..N)."""
        w = tuple(int(x) for x in v)
        # the inverse is integral, so a is integral exactly when v is
        if len(w) != self.dim or w != tuple(v):
            raise FanError("vector does not decompose integrally in the basis")
        return tuple(sum(c * x for c, x in zip(row, w)) for row in self._inverse)


_STANDARD_BASES = {}


def standard_basis(n):
    """u_i = -e_i, so u_0 = (1, ..., 1).  One shared (frozen) instance per n."""
    basis = _STANDARD_BASES.get(n)
    if basis is None:
        basis = Basis(tuple(tuple(-1 if k == i else 0 for k in range(n)) for i in range(n)))
        _STANDARD_BASES[n] = basis
    return basis


@frozen
class Ray:
    flat: frozenset
    direction: tuple


@frozen
class Cone:
    """Coarse 2-cone: endpoints are coarse ray indices; sectors is the path
    of fine directions from one endpoint to the other (length >= 2)."""

    i: int
    j: int
    sectors: tuple


@frozen
class FanPlane:
    matroid: mt.Matroid
    basis: Basis
    rays: tuple
    cones: tuple
    degenerate_plane: bool = False

    @property
    def ambient_dim(self):
        return self.basis.dim

    def contains_direction(self, v):
        """Is the ray through v inside the support of the fan?"""
        v = tuple(v)
        if all(x == 0 for x in v):
            return True
        if self.degenerate_plane:
            return True
        for cone in self.cones:
            for d1, d2 in zip(cone.sectors, cone.sectors[1:]):
                if _in_sector(v, d1, d2):
                    return True
        return False


def _in_sector(v, d1, d2):
    """Is v a nonnegative combination a d1 + b d2?

    A coordinate where v is nonzero and d1 and d2 both vanish puts v
    outside the span of d1 and d2, so such a sector is ruled out on the
    integers; every other sector goes to the exact solve.
    """
    for x, a, b in zip(v, d1, d2):
        if x and not a and not b:
            return False
    n = len(v)
    cols = [[d1[k], d2[k]] for k in range(n)]
    ab = solve(cols, list(v))
    return ab is not None and ab[0] >= 0 and ab[1] >= 0


def build_fan(m, basis=None):
    """Coarse fan tropical plane of a simple rank-3 matroid."""
    if m.rank != 3 or not m.is_simple():
        raise FanError("fan planes come from simple rank-3 matroids")
    if basis is None:
        basis = standard_basis(m.n - 1)
    if basis.dim != m.n - 1:
        raise FanError("basis dimension must be n - 1")

    # the flag graph: {i} is joined to each rank-2 flat I through i
    adjacent = {}
    for flat in m.flats(2):
        adjacent[flat] = [frozenset([i]) for i in sorted(flat)]
        for point in adjacent[flat]:
            adjacent.setdefault(point, []).append(flat)
    flats = sorted((f for f, near in adjacent.items() if len(near) != 2),
                   key=lambda f: (len(f), sorted(f)))
    if not flats:
        # the flag graph is one 6-cycle: the support is a plane (U_{3,3})
        return FanPlane(m, basis, (), (), degenerate_plane=True)

    rays = tuple(Ray(f, basis.direction(f)) for f in flats)
    index = {f: k for k, f in enumerate(flats)}
    cones = []
    for start in flats:
        for step in adjacent[start]:
            # A simple rank-3 matroid's flag graph is connected, so a walk
            # along degree-2 vertices always reaches a kept vertex unless
            # the whole graph is one cycle (ruled out above).
            walk = [start, step]
            while walk[-1] not in index:
                a, b = adjacent[walk[-1]]
                walk.append(b if a == walk[-2] else a)
            # the walk from the other end finds the same cone
            i, j = index[start], index[walk[-1]]
            if i < j:
                cones.append(Cone(i, j, tuple(map(basis.direction, walk))))
    cones.sort(key=lambda c: (c.i, c.j, c.sectors))
    return FanPlane(m, basis, rays, tuple(cones))


def counts(plane):
    """(|Edge|, |Face|) of the coarse structure."""
    return len(plane.rays), len(plane.cones)


def sigma(plane, ray_index):
    """The integer s with s * v_E = -(sum of the rays adjacent to E)."""
    if plane.degenerate_plane:
        raise FanError("degenerate plane has no rays")
    v = plane.rays[ray_index].direction
    n = len(v)
    s = [0] * n
    for cone in plane.cones:
        if cone.i == ray_index:
            w = plane.rays[cone.j].direction
        elif cone.j == ray_index:
            w = plane.rays[cone.i].direction
        else:
            continue
        for k in range(n):
            s[k] -= w[k]
    k0 = next((k for k in range(n) if v[k] != 0), None)
    if k0 is None:
        raise FanError("zero ray direction")  # pragma: no cover
    c, r = divmod(s[k0], v[k0])
    if r or any(s[k] != c * v[k] for k in range(n)):
        raise FanError("adjacent ray sum is not a multiple of the ray")
    return c


# -- classification of missing rays ----------------------------------------


@frozen
class MissingRayClass:
    """Which elements have no ray in the coarse structure, and why.

    kind is one of:
      "none"           -- every element contributes a ray
      "full_plane"     -- U_{3,3}; the support is all of R^2
      "line_times_r"   -- U_{2,N} plus a free element; support is R x (line)
      "bipartite_cone" -- parallel connection of two lines; the support is
                          the cone over a complete bipartite graph
    """

    kind: str
    missing: tuple = ()
    parts: tuple = ()


def classify_missing_ray(m):
    if m.rank != 3 or not m.is_simple():
        raise FanError("classification applies to simple rank-3 matroids")
    missing = tuple(b for b in range(m.n) if m.point_count(b) == 2)
    if not missing:
        return MissingRayClass("none")
    if m.n == 3:
        return MissingRayClass("full_plane", missing)
    big = [f for f in m.flats(2) if len(f) == m.n - 1]
    if big:
        return MissingRayClass("line_times_r", missing, (tuple(sorted(big[0])),))
    b = missing[0]
    k_flat, l_flat = sorted(
        (f for f in m.flats(2) if b in f), key=lambda f: (len(f), sorted(f))
    )
    if (k_flat | l_flat) != frozenset(range(m.n)) or len(k_flat & l_flat) != 1:
        raise FanError("element on two points but not a parallel connection")
    return MissingRayClass(
        "bipartite_cone", missing, (tuple(sorted(k_flat)), tuple(sorted(l_flat)))
    )


# -- reconstruction ----------------------------------------------------------


def _decode_flat(basis, v):
    """Invert u_I: which flat I (subset of {0..N}) has direction v?"""
    a = basis.decompose(v)
    if all(x in (0, 1) for x in a) and any(a):
        return frozenset(i + 1 for i, x in enumerate(a) if x == 1)
    if all(x in (0, -1) for x in a):
        return frozenset([0]) | frozenset(i + 1 for i, x in enumerate(a) if x == 0)
    raise FanError(f"direction {tuple(v)} is not a flat direction")


def reconstruct_matroid(rays, cones, dim, basis=None):
    """Recover the matroid from the coarse rays and cones of its fan.

    rays: ray directions (integer vectors of length dim)
    cones: pairs of ray indices
    The ground set is {0, ..., dim}; missing line rays are resolved via the
    parallel-connection classification.  The result is verified by
    rebuilding the fan.
    """
    if basis is not None and basis.dim != dim:
        raise FanError("basis dimension mismatch")
    for k, v in enumerate(rays):
        if len(v) != dim:
            raise FanError(f"rays[{k}] has {len(v)} entries, expected dim = {dim}")
    if not rays:
        if dim != 2:
            raise FanError("an empty fan is a plane only in dimension 2")
        return mt.uniform(3, 3)
    if basis is None:
        basis = standard_basis(dim)
    flats = [_decode_flat(basis, v) for v in rays]
    if len(set(flats)) != len(flats):
        raise FanError("repeated ray directions")
    lines = [f for f in flats if len(f) >= 2]
    for i, j in cones:
        fi, fj = flats[i], flats[j]
        if len(fi) == 1 and len(fj) == 1:
            lines.append(fi | fj)
        # other combinations also occur: line ray inside a point flat, and
        # merged faces joining two point rays or a point ray to a line ray
        # it does not contain (line-times-R); the rebuild check below
        # validates those.
    try:
        m = mt.from_lines(dim + 1, list(dict.fromkeys(lines)))
    except MatroidError as exc:
        raise FanError(f"ray data is not a fan tropical plane: {exc}") from exc
    # a ray's decoded flat F is the one flat whose direction u_F it has, so
    # comparing flats compares directions; input indexing may differ
    rebuilt = build_fan(m, basis)
    ray_pos = {f: k for k, f in enumerate(flats)}
    if ray_pos.keys() != {r.flat for r in rebuilt.rays}:
        raise FanError("reconstructed matroid does not reproduce the rays")
    relabel = [ray_pos[r.flat] for r in rebuilt.rays]
    pairs = sorted(tuple(sorted((relabel[c.i], relabel[c.j]))) for c in rebuilt.cones)
    given = sorted(tuple(sorted((int(i), int(j)))) for i, j in cones)
    if pairs != given:
        raise FanError("reconstructed matroid does not reproduce the cones")
    return m


def has_saturated_triangle(m):
    """Three lines i, j, k and three points I, J, K with k in I&J,
    j in I&K, i in J&K and I | J | K the whole ground set.

    The points are forced, I = cl{j, k}, J = cl{i, k} and K = cl{i, j}, and
    they are distinct exactly when i, j, k are not collinear; so one pass
    over the element triples, with each point as a bitmask, decides it."""
    if m.rank != 3 or not m.is_simple():
        raise FanError("saturated triangles live in simple rank-3 matroids")
    cl = {}
    for f in m.flats(2):
        mask = sum(1 << e for e in f)
        cl.update(dict.fromkeys(combinations(sorted(f), 2), mask))
    ground = (1 << m.n) - 1
    for i, j, k in combinations(range(m.n), 3):
        pk = cl[i, j]
        if not pk >> k & 1 and pk | cl[i, k] | cl[j, k] == ground:
            return True
    return False
