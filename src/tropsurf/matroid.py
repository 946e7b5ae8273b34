"""Matroids presented by their lattice of flats, specialised to the
simple rank-3 case that underlies fan tropical planes.

A rank-3 simple matroid on elements 0..n-1 is the same data as a point
configuration: elements play the role of lines of an arrangement, rank-2
flats the role of intersection points.  It is a linear space: every pair of
elements lies on exactly one rank-2 flat (Oxley, *Matroid Theory*, 1.5).  So
the "big" rank-2 flats (size >= 3, the "lines") fix it, every pair of
elements on no line is a two-element flat, and one count checks the axioms:
the rank-2 flats hold n(n-1)/2 pairs between them.  ``from_lines``,
``enumerate_simple_rank3`` and ``Matroid`` itself build every simple rank-3
lattice through that count (``_rank3``); any other lattice is checked
against the axioms one by one.
"""

from __future__ import annotations

from itertools import combinations, starmap
from operator import and_

from ._frozen import frozen
from .errors import MatroidError


def _bits(n):
    """Element i of range(n) -> 1 << i: sum(map(_bits(n), s)) is s as a bitmask."""
    return {i: 1 << i for i in range(n)}.__getitem__


_FIXED = {}


def _fixed(n):
    """``(bit, levels)`` for range(n): ``bit`` is ``_bits(n)`` and ``levels``
    the rank-0, rank-1 and top levels of every simple rank-3 matroid on
    range(n), one shared instance per n."""
    fixed = _FIXED.get(n)
    if fixed is None:
        levels = (frozenset(),), tuple(frozenset((i,)) for i in range(n)), (frozenset(range(n)),)
        fixed = _FIXED[n] = _bits(n), levels
    return fixed


def _canon(flats):
    """The flats in canonical order: by size, then by sorted elements (sort
    by elements, then stably by size)."""
    return tuple(sorted(sorted(flats, key=sorted), key=len))


def _covers_and_ranks(levels, masks, full):
    """The covering axiom and strict ranks, on the levels' bitmasks."""
    # covering axiom: flats of rank r+1 over F partition E \ F.  The top flat alone
    # covers, and contains, each flat of the rank below, so both loops stop short of it
    above = set()
    for r in range(len(levels) - 2):
        for f, fm in zip(levels[r], masks[r]):
            # F < G exactly when F | G == G, as no flat is listed twice
            covers = [g for g in masks[r + 1] if fm | g == g]
            covered = fm
            for g in covers:
                if covered & g != fm:
                    raise MatroidError(f"covers of {sorted(f)} overlap outside the flat")
                covered |= g
            if covered != full:
                raise MatroidError(f"covers of {sorted(f)} do not partition the rest")
            above.update(covers)
    # ranks must be strict: each rank-(r+1) flat properly contains a rank-r flat
    for r in range(1, len(levels) - 1):
        for g, gm in zip(levels[r], masks[r]):
            if gm not in above:
                raise MatroidError(f"flat {sorted(g)} has no subflat of rank {r-1}")


@frozen
class Matroid:
    """A matroid given by its flats, listed rank by rank.

    n: number of elements, ground set is range(n)
    flats_by_rank: flats_by_rank[r] is the tuple of rank-r flats
    """

    n: int
    flats_by_rank: tuple

    def __post_init__(self):
        n = self.n
        if n < 1:
            raise MatroidError("ground set must be nonempty")
        levels = tuple(map(tuple, self.flats_by_rank))
        # four levels on three or more elements are a simple rank-3 lattice
        # exactly when they hold the flats ``_rank3`` builds from their lines
        if n >= 3 and len(levels) == 4:
            bit, ground = _fixed(n)[0], frozenset(range(n))
            lines = sorted((f for f in levels[2] if 2 < len(f) < n and f <= ground), key=sorted)
            masks = [sum(map(bit, f)) for f in lines]
            try:
                built = _rank3(n, lines, masks, frozenset).flats_by_rank
            except MatroidError:
                built = ()
            if built and all(len(a) == len(b) and set(a) == set(b) for a, b in zip(levels, built)):
                object.__setattr__(self, "flats_by_rank", built)
                return
        object.__setattr__(self, "flats_by_rank", tuple(map(_canon, levels)))
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
        """The axioms one by one, naming the first violation in canonical order."""
        n, levels = self.n, self.flats_by_rank
        bit, (bottom, _, top) = _fixed(n)
        if not levels or levels[0] != bottom:
            raise MatroidError("unique rank-0 flat must be the empty set (loopless)")
        if levels[-1] != top:
            raise MatroidError("unique top flat must be the whole ground set")
        # each flat's bitmask; None for a flat outside the ground set
        masks = [[sum(map(bit, f)) if f <= top[0] else None for f in level] for level in levels]
        listed = [m for lm in masks for m in lm]
        seen = set(listed)
        if len(seen) < len(listed) or None in seen or not all(levels):
            # name the first empty level, or flat outside the ground set or listed twice
            seen = set()
            for r, (level, lm) in enumerate(zip(levels, masks)):
                if not level:
                    raise MatroidError(f"no flats of rank {r}")
                for f, m in zip(level, lm):
                    if m is None:
                        raise MatroidError(f"flat {sorted(f)} outside ground set")
                    if m in seen:
                        raise MatroidError(f"flat {sorted(f)} listed twice")
                    seen.add(m)
        # closure under intersection: the bottom and top flats meet any flat in a
        # flat, so pairs of the ranks between are tested, up to the first failure
        pairs = combinations([m for row in masks[1:-1] for m in row], 2)
        if not all(map(seen.__contains__, starmap(and_, pairs))):
            mid = [f for level in levels[1:-1] for f in level]
            f, g = next(p for p in combinations(mid, 2) if sum(map(bit, p[0] & p[1])) not in seen)
            raise MatroidError(f"flats not closed under intersection: {sorted(f)}, {sorted(g)}")
        _covers_and_ranks(levels, masks, (1 << n) - 1)

    # -- queries -----------------------------------------------------------

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
    given = []
    for line in lines:
        f = frozenset(line)
        if not f <= ground:
            raise MatroidError(f"line {sorted(f)} outside ground set")
        if len(f) < 2:
            raise MatroidError(f"line {sorted(f)} too small")
        if f == ground:
            raise MatroidError("a line equal to the ground set drops the rank")
        given.append(f)
    bit = _fixed(n)[0]
    big = sorted(given, key=sorted)
    try:
        return _rank3(n, big, [sum(map(bit, f)) for f in big], frozenset)
    except MatroidError:
        # name the first two lines, in the order given, that share two elements
        a, b = next(p for p in combinations(given, 2) if len(p[0] & p[1]) > 1)
        raise MatroidError(f"lines {sorted(a)} and {sorted(b)} share two elements") from None


def _rank3(n, lines, masks, pair):
    """The simple rank-3 matroid on range(n) whose rank-2 flats are the lines
    and the pairs of elements on none of them, built without
    ``Matroid.__post_init__``.

    ``lines`` are listed by sorted elements, each a frozenset of 2..n-1
    elements of range(n) (repeats allowed), ``masks`` are their bitmasks and
    ``pair`` makes the frozenset of a pair of elements.  Every pair of
    elements lies on a rank-2 flat, so the lattice axioms hold exactly when
    none lies on two, that is when the rank-2 flats hold n(n-1)/2 pairs
    between them; otherwise ``MatroidError`` is raised.  The levels are in
    canonical order, and the rank-0, rank-1 and top levels are ``_fixed``'s."""
    near = [0] * n  # near[i]: the elements on a common line with i
    for f, m in zip(lines, masks):
        for i in f:
            near[i] |= m
    pairs = [pair(p) for p in combinations(range(n), 2) if not near[p[0]] >> p[1] & 1]
    if len(pairs) + sum(len(f) * (len(f) - 1) // 2 for f in lines) != n * (n - 1) // 2:
        raise MatroidError("the rank-2 flats do not partition the pairs")
    lines = sorted(lines, key=len)
    level = pairs + lines
    if lines and len(lines[0]) == 2:  # two-element lines go among the pairs
        level = _canon(level)
    bottom, points, top = _fixed(n)[1]
    m = object.__new__(Matroid)
    object.__setattr__(m, "n", n)
    object.__setattr__(m, "flats_by_rank", (bottom, points, tuple(level), top))
    return m


def direct_sum(m1, m2):
    """Direct sum; elements of m2 are shifted up by m1.n."""
    shift = m1.n
    r1, r2 = m1.rank, m2.rank
    levels = []
    for r in range(r1 + r2 + 1):
        level = set()
        for a in range(max(0, r - r2), min(r, r1) + 1):
            for f in m1.flats(a):
                for g in m2.flats(r - a):
                    level.add(f | {x + shift for x in g})
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


def divide_by_t_minus_one(coeffs):
    """chi(t) / (t - 1) from the coefficients of chi(t), highest degree
    first, by synthetic division.  Exact division."""
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
    return poly_eval(divide_by_t_minus_one(characteristic_polynomial(m)), 1)


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
    simple matroid, including U_{3,n} for the empty family.  The matroids
    share their immutable rank-0, rank-1 and top levels with each other and
    with every other simple rank-3 matroid on range(n), and their
    two-element flats with each other.

    Each lattice is built and checked by ``_rank3``, the one builder of
    simple rank-3 matroids: its rank-2 flats must hold every pair of
    elements once.  The families are listed by sorted elements, so no level
    is sorted.
    """
    if n < 3:
        raise MatroidError("rank 3 needs at least 3 elements")
    cands = [frozenset(c) for k in range(3, n) for c in combinations(range(n), k)]
    cands.sort(key=sorted)
    bit = _fixed(n)[0]
    masks = [sum(map(bit, f)) for f in cands]
    # bit j of clash[i]: candidates i and j share two elements
    clash = [sum(1 << j for j, b in enumerate(masks) if (a & b).bit_count() > 1) for a in masks]
    # one frozenset per pair, shared by all matroids of this enumeration
    pair = {p: frozenset(p) for p in combinations(range(n), 2)}.__getitem__
    out = []

    def bt(start, fam, fam_masks, banned):
        out.append(_rank3(n, fam, fam_masks, pair))
        for i in range(start, len(cands)):
            if not banned >> i & 1:
                bt(i + 1, fam + [cands[i]], fam_masks + [masks[i]], banned | clash[i])

    bt(0, [], [], 0)
    return out
