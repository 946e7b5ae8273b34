"""Matroids presented by their lattice of flats, specialised to the
simple rank-3 case that underlies fan tropical planes.

A rank-3 simple matroid on elements 0..n-1 is the same data as a point
configuration: elements play the role of lines of an arrangement, rank-2
flats the role of intersection points.  ``from_lines`` builds the matroid
from the collection of "big" rank-2 flats (size >= 3); every uncovered
pair of elements closes up to a two-element flat automatically.
"""

from __future__ import annotations

from itertools import combinations

from ._frozen import frozen
from .errors import MatroidError


def _canon(flats):
    return tuple(sorted(flats, key=lambda f: (len(f), sorted(f))))


@frozen
class Matroid:
    """A matroid given by its flats, listed rank by rank.

    n: number of elements, ground set is range(n)
    flats_by_rank: flats_by_rank[r] is the tuple of rank-r flats
    """

    n: int
    flats_by_rank: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "flats_by_rank", tuple(_canon(level) for level in self.flats_by_rank)
        )
        self._validate()

    # -- structure ---------------------------------------------------------

    @property
    def rank(self):
        return len(self.flats_by_rank) - 1

    def flats(self, r):
        return self.flats_by_rank[r]

    def all_flats(self):
        for level in self.flats_by_rank:
            yield from level

    def _validate(self):
        ground = frozenset(range(self.n))
        if self.n < 1:
            raise MatroidError("ground set must be nonempty")
        if not self.flats_by_rank or self.flats_by_rank[0] != (frozenset(),):
            raise MatroidError("unique rank-0 flat must be the empty set (loopless)")
        if self.flats_by_rank[-1] != (ground,):
            raise MatroidError("unique top flat must be the whole ground set")
        seen = set()
        for r, level in enumerate(self.flats_by_rank):
            if not level:
                raise MatroidError(f"no flats of rank {r}")
            for f in level:
                if not f <= ground:
                    raise MatroidError(f"flat {sorted(f)} outside ground set")
                if f in seen:
                    raise MatroidError(f"flat {sorted(f)} listed twice")
                seen.add(f)
        flatset = seen
        for f, g in combinations(flatset, 2):
            if f & g not in flatset:
                raise MatroidError(
                    f"flats not closed under intersection: {sorted(f)}, {sorted(g)}"
                )
        # covering axiom: flats of rank r+1 over F partition E \ F
        for r in range(self.rank):
            for f in self.flats_by_rank[r]:
                covers = [g for g in self.flats_by_rank[r + 1] if f < g]
                rest = ground - f
                covered = set()
                for g in covers:
                    extra = g - f
                    if covered & extra:
                        raise MatroidError(
                            f"covers of {sorted(f)} overlap outside the flat"
                        )
                    covered |= extra
                if covered != rest:
                    raise MatroidError(f"covers of {sorted(f)} do not partition the rest")
        # ranks must be strict: each rank-(r+1) flat properly contains a rank-r flat
        for r in range(1, self.rank + 1):
            for g in self.flats_by_rank[r]:
                if not any(f < g for f in self.flats_by_rank[r - 1]):
                    raise MatroidError(f"flat {sorted(g)} has no subflat of rank {r-1}")

    # -- queries -----------------------------------------------------------

    def closure(self, subset):
        s = frozenset(subset)
        best = None
        for f in self.all_flats():
            if s <= f and (best is None or f < best):
                best = f
        return best

    def rank_of(self, subset):
        s = frozenset(subset)
        for r, level in enumerate(self.flats_by_rank):
            if any(s <= f for f in level):
                return r
        raise MatroidError("subset not contained in any flat")  # pragma: no cover

    def is_simple(self):
        return self.n >= 1 and all(
            len(f) == 1 for f in self.flats_by_rank[1]
        ) and len(self.flats_by_rank[1]) == self.n

    def point_count(self, element):
        """Number of rank-2 flats containing a given element."""
        if self.rank < 2:
            raise MatroidError("rank too small")
        return sum(1 for f in self.flats_by_rank[2] if element in f)


def uniform(r, n):
    """Uniform matroid U_{r,n}."""
    if not 1 <= r <= n:
        raise MatroidError("need 1 <= r <= n")
    levels = [(frozenset(),)]
    for i in range(1, r):
        levels.append(tuple(frozenset(c) for c in combinations(range(n), i)))
    levels.append((frozenset(range(n)),))
    return Matroid(n, tuple(levels))


def from_lines(n, lines):
    """Simple rank-3 matroid from its big rank-2 flats ("lines").

    Each line must have size >= 2 and two lines may share at most one
    element; pairs of elements not on a common line become two-element
    flats.  The full ground set is not allowed as a line (rank would drop).
    """
    ground = frozenset(range(n))
    if n < 3:
        raise MatroidError("rank 3 needs at least 3 elements")
    big = []
    for line in lines:
        f = frozenset(line)
        if not f <= ground:
            raise MatroidError(f"line {sorted(f)} outside ground set")
        if len(f) < 2:
            raise MatroidError(f"line {sorted(f)} too small")
        if f == ground:
            raise MatroidError("a line equal to the ground set drops the rank")
        big.append(f)
    for a, b in combinations(big, 2):
        if len(a & b) > 1:
            raise MatroidError(f"lines {sorted(a)} and {sorted(b)} share two elements")
    covered = {pair for f in big for pair in combinations(sorted(f), 2)}
    rank2 = list(big)
    for pair in combinations(range(n), 2):
        if pair not in covered:
            rank2.append(frozenset(pair))
    return Matroid(
        n,
        (
            (frozenset(),),
            tuple(frozenset([i]) for i in range(n)),
            tuple(rank2),
            (ground,),
        ),
    )


def direct_sum(m1, m2):
    """Direct sum; elements of m2 are shifted up by m1.n."""
    shift = m1.n

    def sh(f):
        return frozenset(x + shift for x in f)

    r1, r2 = m1.rank, m2.rank
    levels = []
    for r in range(r1 + r2 + 1):
        level = set()
        for a in range(max(0, r - r2), min(r, r1) + 1):
            for f in m1.flats(a):
                for g in m2.flats(r - a):
                    level.add(f | sh(g))
        levels.append(tuple(level))
    return Matroid(m1.n + m2.n, tuple(levels))


def parallel_connection(k, l):
    """Parallel connection of two lines U_{2,k+1} and U_{2,l+1}.

    Element 0 is the base point; the two lines are K = {0,...,k} and
    L = {0, k+1, ..., k+l}.  For k = l = 1 this degenerates to U_{3,3}.
    """
    if k < 1 or l < 1:
        raise MatroidError("need k, l >= 1")
    n = k + l + 1
    kline = frozenset(range(k + 1))
    lline = frozenset([0]) | frozenset(range(k + 1, n))
    lines = [f for f in (kline, lline) if len(f) >= 3]
    return from_lines(n, lines)


def extend_by_line(m, through=()):
    """Add a new element to a simple rank-3 matroid, lying on the chosen
    rank-2 flats.  The chosen flats must be pairwise disjoint (two lines
    meet in at most one point).  The new element gets index m.n.

    through = () is the principal/free extension: the new element forms a
    two-element flat with every old element.
    """
    if m.rank != 3 or not m.is_simple():
        raise MatroidError("extension implemented for simple rank-3 matroids")
    chosen = []
    for f in through:
        f = frozenset(f)
        if f not in m.flats(2):
            raise MatroidError(f"{sorted(f)} is not a rank-2 flat")
        chosen.append(f)
    for a, b in combinations(chosen, 2):
        if a & b:
            raise MatroidError("chosen flats must be pairwise disjoint")
    e = m.n
    lines = [f | {e} for f in chosen]
    lines += [f for f in m.flats(2) if len(f) >= 3 and f not in chosen]
    return from_lines(m.n + 1, lines)


def delete(m, e):
    """Delete one element from a simple rank-3 matroid.

    Elements above e are shifted down.  The result must still have rank 3
    (deleting from U_{3,3} is rejected).
    """
    if m.rank != 3 or not m.is_simple():
        raise MatroidError("deletion implemented for simple rank-3 matroids")
    if not 0 <= e < m.n:
        raise MatroidError("no such element")
    if m.n <= 3:
        raise MatroidError("deletion would drop the rank")

    def relabel(f):
        return frozenset(x if x < e else x - 1 for x in f if x != e)

    lines = [relabel(f) for f in m.flats(2) if len(f - {e}) >= 3]
    return from_lines(m.n - 1, lines)


# -- characteristic polynomial --------------------------------------------


def characteristic_polynomial(m):
    """Coefficients of the characteristic polynomial, highest degree first.

    chi_M(t) = sum over flats F of mu(empty, F) t^(rank M - rank F).
    """
    flats = []
    for r, level in enumerate(m.flats_by_rank):
        for f in level:
            flats.append((r, f))
    flats.sort(key=lambda rf: len(rf[1]))
    mu = {}
    for r, f in flats:
        mu[f] = 1 if not f else -sum(mu[g] for rg, g in flats if g < f)
    coeffs = [0] * (m.rank + 1)
    for r, f in flats:
        coeffs[r] += mu[f]  # degree rank - r, index r in descending order
    return tuple(coeffs)


def reduced_characteristic_polynomial(m):
    """chi_M(t) / (t - 1), highest degree first.  Exact division."""
    coeffs = characteristic_polynomial(m)
    # synthetic division by (t - 1)
    out = []
    carry = 0
    for c in coeffs[:-1]:
        carry = c + carry
        out.append(carry)
    if coeffs[-1] + carry != 0:
        raise MatroidError("t = 1 is not a root of the characteristic polynomial")
    return tuple(out)


def poly_eval(coeffs, t):
    v = 0
    for c in coeffs:
        v = v * t + c
    return v


def chi_bar_at_one(m):
    """Reduced characteristic polynomial evaluated at 1 (beta invariant)."""
    return poly_eval(reduced_characteristic_polynomial(m), 1)


def chi_bar_at_one_from_lines(m):
    """Same number by the planar count 1 - 2N + sum over rank-2 flats of
    (|I| - 1), where the ground set is {0, ..., N}.  Simple rank 3 only."""
    if m.rank != 3 or not m.is_simple():
        raise MatroidError("line count formula needs a simple rank-3 matroid")
    nn = m.n - 1
    return 1 - 2 * nn + sum(len(f) - 1 for f in m.flats(2))


# -- isomorphism -----------------------------------------------------------


def _element_fingerprint(m):
    fps = []
    for e in range(m.n):
        fp = tuple(
            tuple(sorted(len(f) for f in level if e in f))
            for level in m.flats_by_rank[1:-1]
        )
        fps.append(fp)
    return fps


def is_isomorphic(m1, m2):
    """Backtracking search for a flat-preserving bijection of ground sets."""
    if m1.n != m2.n or m1.rank != m2.rank:
        return False
    sizes1 = [sorted(len(f) for f in lv) for lv in m1.flats_by_rank]
    sizes2 = [sorted(len(f) for f in lv) for lv in m2.flats_by_rank]
    if sizes1 != sizes2:
        return False
    fp1, fp2 = _element_fingerprint(m1), _element_fingerprint(m2)
    if sorted(fp1) != sorted(fp2):
        return False
    flats2 = set(m2.all_flats())
    # match elements in order, checking completed flats incrementally
    relevant = [f for lv in m1.flats_by_rank[1:-1] for f in lv]

    def extend(img, used):
        e = len(img)
        if e == m1.n:
            return True
        for t in range(m2.n):
            if t in used or fp2[t] != fp1[e]:
                continue
            img.append(t)
            used.add(t)
            ok = True
            for f in relevant:
                if max(f) == e:  # flat just completed
                    if frozenset(img[x] for x in f) not in flats2:
                        ok = False
                        break
            if ok and extend(img, used):
                return True
            img.pop()
            used.remove(t)
        return False

    return extend([], set())


# -- exhaustive generation -------------------------------------------------


def enumerate_simple_rank3(n):
    """All simple rank-3 matroids on range(n), one per family of big lines.

    Generates every set of subsets of size >= 3 (never the full ground set)
    that pairwise meet in at most one element, i.e. every labeled rank-3
    simple matroid, including U_{3,n} for the empty family.
    """
    if n < 3:
        raise MatroidError("rank 3 needs at least 3 elements")
    cands = []
    for k in range(3, n):
        cands += [frozenset(c) for c in combinations(range(n), k)]
    cands.sort(key=sorted)
    compat = [
        [len(a & b) <= 1 for b in cands]
        for a in cands
    ]
    out = []

    def bt(start, fam):
        out.append(from_lines(n, fam))
        for i in range(start, len(cands)):
            if all(compat[i][j] for j in fam_idx):
                fam.append(cands[i])
                fam_idx.append(i)
                bt(i + 1, fam)
                fam.pop()
                fam_idx.pop()

    fam_idx = []
    bt(0, [])
    return out
