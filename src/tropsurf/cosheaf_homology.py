"""Cellular chain complexes with multiplicative (cosheaf) coefficients,
their homology over ZZ, and the intersection pairing of (1,1)-cycles.

A cell complex is a list of cells with attachments: each attachment
records an incidence sign and the integral transport map
iota_1 : F_1(big) -> F_1(small) between the rank-f1 coefficient lattices
of the two cells.  A cell may attach to the same smaller cell several
times (both ends of a loop edge), each time with its own sign and
transport; the boundary map adds all of them.  The coefficient functor in
degree p is the p-th exterior power of iota_1 (p = 0 is the constant
functor), and squared boundaries are checked to vanish for every p.

Homology groups are computed exactly from one Smith reduction of each
boundary matrix: the number of nonzero invariant factors is the rank, and
those of the incoming boundary greater than 1 are the torsion.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from ._frozen import frozen
from .errors import ComplexError, field, integer, integers, integral, items
from .intlinalg import (
    exterior_power,
    matmul,
    smith_invariants,
    symmetric_signature,
)


# The largest F_1 rank a cell may have.  Coefficients in degree p have rank
# comb(r, p), so a 64-byte file naming r = 26 asks for millions of boundary
# rows (at r = 30 the rows alone exhaust memory); a larger rank is refused
# before any matrix is built.  The bound is measured (one process on a
# 2-vCPU Xeon VM): with one edge on one vertex and a dense iota1 with
# 31-digit entries, `homology diamond` answers in 0.18-0.20 s at rank 6,
# but takes 1.4-2.1 s at rank 7, nearly all of it in the Smith reduction
# of the 35 x 35 middle exterior power.
# The bundled complexes have rank at most 3.
MAX_F1_RANK = 6


@frozen
class Cell:
    id: str
    dim: int


@frozen
class Attachment:
    big: str
    small: str
    sign: int
    iota1: tuple  # rows: f1_rank(small) x f1_rank(big)


@frozen
class CellComplex:
    """Errors name a cell or an attachment by its place in the file that
    ``parse_complex`` reads, as ``cells[k]`` or ``incidences[k]``."""

    cells: tuple
    attachments: tuple
    f1_rank: tuple  # tuple of (cell id, rank)

    def __post_init__(self):
        dims = {}
        for k, c in enumerate(self.cells):
            if c.id in dims:
                raise ComplexError(f"cells[{k}].id must be unique, got {c.id!r}")
            dims[c.id] = c.dim
        ranks = dict(self.f1_rank)
        for cell_id in dims:
            if cell_id not in ranks:
                raise ComplexError(f"f1_rank: missing key {cell_id!r}")
        for cell_id, r in ranks.items():
            if cell_id not in dims:
                raise ComplexError(f"f1_rank.{cell_id} must name a cell, got {cell_id!r}")
            if r > MAX_F1_RANK:
                raise ComplexError(f"f1_rank.{cell_id} must be at most {MAX_F1_RANK}, got {r}")
        for k, a in enumerate(self.attachments):
            at = f"incidences[{k}]"
            for key, cell_id in (("big", a.big), ("small", a.small)):
                if cell_id not in dims:
                    raise ComplexError(f"{at}.{key} must name a cell, got {cell_id!r}")
            if dims[a.big] != dims[a.small] + 1:
                raise ComplexError(f"{at}: {a.big} -> {a.small} must drop dimension by one")
            if not integral(a.sign) or a.sign not in (1, -1):
                raise ComplexError(f"{at}.sign must be 1 or -1, got {a.sign!r}")
            rows, cols = ranks[a.small], ranks[a.big]
            if len(a.iota1) != rows or any(len(row) != cols for row in a.iota1):
                raise ComplexError(
                    f"{at}.iota1 must have {rows} rows of {cols} entries for "
                    f"{a.big} -> {a.small}, got {[list(row) for row in a.iota1]!r}"
                )
        object.__setattr__(self, "_dims", dims)
        object.__setattr__(self, "_ranks", ranks)
        object.__setattr__(self, "_bounds", {})
        object.__setattr__(self, "_invariants", {})
        for p in range(self.max_rank + 1):
            for q in range(2, self.max_dim + 1):
                dd = matmul(self.boundary_matrix(p, q - 1), self.boundary_matrix(p, q))
                if any(map(any, dd)):
                    raise ComplexError(f"boundary squared nonzero at p={p}, q={q}")

    @property
    def max_dim(self):
        return max(c.dim for c in self.cells)

    @property
    def max_rank(self):
        return max(r for _, r in self.f1_rank)

    def cells_of_dim(self, q):
        return [c for c in self.cells if c.dim == q]

    def chain_rank(self, p, q):
        return sum(comb(self._ranks[c.id], p) for c in self.cells_of_dim(q))

    def boundary_matrix(self, p, q):
        """D_q : C_{p,q} -> C_{p,q-1} as an integer matrix (rows = target),
        built once per complex and returned as a tuple of row tuples."""
        if (p, q) in self._bounds:
            return self._bounds[p, q]
        src = self.cells_of_dim(q)
        dst = self.cells_of_dim(q - 1)
        col_off, off = {}, 0
        for c in src:
            col_off[c.id] = off
            off += comb(self._ranks[c.id], p)
        ncols = off
        row_off, off = {}, 0
        for c in dst:
            row_off[c.id] = off
            off += comb(self._ranks[c.id], p)
        nrows = off
        mat = [[0] * ncols for _ in range(nrows)]
        for a in self.attachments:
            if self._dims[a.big] != q:
                continue
            block = exterior_power(
                a.iota1, p, shape=(self._ranks[a.small], self._ranks[a.big])
            )
            r0, c0 = row_off[a.small], col_off[a.big]
            for i, row in enumerate(block):
                for j, v in enumerate(row):
                    mat[r0 + i][c0 + j] += a.sign * v
        self._bounds[p, q] = tuple(map(tuple, mat))
        return self._bounds[p, q]

    def _smith(self, p, q):
        """The nonzero Smith invariant factors of D_q, reduced once."""
        if (p, q) not in self._invariants:
            self._invariants[p, q] = smith_invariants(self.boundary_matrix(p, q))
        return self._invariants[p, q]


@frozen
class Homology:
    free_rank: int
    torsion: tuple  # invariant factors > 1

    def __str__(self):
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"


def homology(x, p, q):
    """H_{p,q}(X) = ker D_q / im D_{q+1} with F_p coefficients."""
    d_in = x._smith(p, q + 1)
    free = x.chain_rank(p, q) - len(x._smith(p, q)) - len(d_in)
    return Homology(free, tuple(d for d in d_in if d > 1))


def diamond(x):
    """All H_{p,q} for 0 <= p <= max coefficient rank, 0 <= q <= dim."""
    return {
        (p, q): homology(x, p, q)
        for p in range(x.max_rank + 1)
        for q in range(x.max_dim + 1)
    }


def toric_complex(fan):
    """The compact tropical toric surface of a complete fan in R^2 (any
    object with counterclockwise primitive ``rays``) as a cell complex.

    One 2-cell "F" with F_1 = Z^2, one edge "D{i}" per ray with
    F_1 = Z^2/<v_i> = Z (transport w -> det(v_i, w), the row
    (-v_i[1], v_i[0])), and one vertex "P{i}" with F_1 = 0 where D_i meets
    D_{i+1}; D_i runs from P_{i-1} to P_i, so the 2-cell's boundary is the
    sum of all the edges.
    """
    n = len(fan.rays)
    cells = [Cell("F", 2)]
    cells += [Cell(f"D{i}", 1) for i in range(n)]
    cells += [Cell(f"P{i}", 0) for i in range(n)]
    atts = []
    for i, (a, b) in enumerate(fan.rays):
        atts.append(Attachment("F", f"D{i}", 1, ((-b, a),)))
        atts.append(Attachment(f"D{i}", f"P{i}", 1, ()))
        atts.append(Attachment(f"D{i}", f"P{(i - 1) % n}", -1, ()))
    # every cell's F_1 rank equals its dimension
    return CellComplex(tuple(cells), tuple(atts), tuple((c.id, c.dim) for c in cells))


# -- JSON --------------------------------------------------------------------


def parse_complex(obj, where=""):
    """A CellComplex from ``{"cells": [{"id", "dim"}, ...], "f1_rank": r or
    {cell id: r}, "incidences": [{"big", "small", "sign", "iota1"}, ...]}``.
    Input errors name the item, such as ``incidences[3].iota1``, after
    ``where: `` when ``where`` is given."""
    pre = f"{where}: " if where else ""
    cells = []
    listed = items(field(obj, "cells", where, ComplexError), f"{pre}cells", "cells",
                   ComplexError)
    for k, c in enumerate(listed):
        at = f"{pre}cells[{k}]"
        cell_id = str(field(c, "id", at, ComplexError))
        dim = integer(field(c, "dim", at, ComplexError), f"{at}.dim", ComplexError)
        cells.append(Cell(cell_id, dim))
    if not cells:
        raise ComplexError(f"{pre}'cells' is empty")
    ranks = obj.get("f1_rank", 2)
    if integral(ranks):
        f1 = tuple((c.id, integer(ranks, f"{pre}f1_rank", ComplexError, 0)) for c in cells)
    elif isinstance(ranks, dict):
        f1 = tuple(
            (str(k), integer(v, f"{pre}f1_rank.{k}", ComplexError, 0)) for k, v in ranks.items()
        )
    else:
        raise ComplexError(
            f"{pre}f1_rank must be an integer or map cell ids to integers, got {ranks!r}"
        )
    atts = []
    listed = items(field(obj, "incidences", where, ComplexError), f"{pre}incidences",
                   "incidences", ComplexError)
    for k, a in enumerate(listed):
        at = f"{pre}incidences[{k}]"
        big, small, sign, iota1 = (
            field(a, key, at, ComplexError) for key in ("big", "small", "sign", "iota1")
        )
        if not isinstance(iota1, (list, tuple)) or not all(
            isinstance(row, (list, tuple)) and all(map(integral, row)) for row in iota1
        ):
            raise ComplexError(f"{at}.iota1 must be a list of integer rows, got {iota1!r}")
        iota1 = tuple(tuple(int(v) for v in row) for row in iota1)
        sign = int(sign) if integral(sign) else sign  # CellComplex checks it
        atts.append(Attachment(str(big), str(small), sign, iota1))
    try:
        return CellComplex(tuple(cells), tuple(atts), f1)
    except ComplexError as exc:
        raise ComplexError(f"{pre}{exc}") from None


# -- (1,1)-cycles and the intersection pairing -------------------------------


@frozen
class Segment:
    """A straight piece of a (1,1)-cycle inside the chart of one 2-cell.

    start/end are rational points in the cell's lattice chart and coeff is
    the integral coefficient beta in F_1 of that cell.
    """

    face: str
    start: tuple
    end: tuple
    coeff: tuple

    def __post_init__(self):
        object.__setattr__(self, "start", tuple(Fraction(v) for v in self.start))
        object.__setattr__(self, "end", tuple(Fraction(v) for v in self.end))
        object.__setattr__(self, "coeff", tuple(int(v) for v in self.coeff))
        if len(self.start) != 2 or len(self.end) != 2 or len(self.coeff) != 2:
            raise ComplexError("segments live in 2-dimensional charts")
        if self.start == self.end:
            raise ComplexError("degenerate segment")

    @property
    def tangent(self):
        return tuple(e - s for s, e in zip(self.start, self.end))


@frozen
class OneOneCycle:
    segments: tuple


def _det2(a, b):
    return a[0] * b[1] - a[1] * b[0]


def _sign(v):
    return (v > 0) - (v < 0)


def _segment_contribution(s1, s2):
    t1, t2 = s1.tangent, s2.tangent
    cross = _det2(t1, t2)
    dstart = tuple(b - a for a, b in zip(s1.start, s2.start))
    if cross == 0:
        # parallel supports never contribute when the coefficients are
        # parallel too; otherwise an overlap is a failure of transversality
        if _det2(s1.coeff, s2.coeff) == 0:
            return 0
        if _det2(dstart, t1) != 0:
            return 0  # parallel but not collinear: disjoint
        # collinear with independent coefficients: check for real overlap
        axis = 0 if t1[0] != 0 else 1
        a0, a1 = sorted((s1.start[axis], s1.end[axis]))
        b0, b1 = sorted((s2.start[axis], s2.end[axis]))
        if max(a0, b0) < min(a1, b1):
            raise ComplexError("cycles overlap along a segment: not transversal")
        return 0
    s = Fraction(_det2(dstart, t2), cross)
    t = Fraction(_det2(dstart, t1), cross)
    if s <= 0 or s >= 1 or t <= 0 or t >= 1:
        if (0 <= s <= 1) and (0 <= t <= 1):
            raise ComplexError(
                "cycles meet at a segment endpoint: perturb the representative"
            )
        return 0
    return _sign(cross) * _det2(s1.coeff, s2.coeff)


def intersection_pairing(c1, c2):
    """Sum over transversal intersection points in the interiors of shared
    2-cells of sign(det(t1, t2)) * det(beta1, beta2)."""
    total = 0
    for s1 in c1.segments:
        for s2 in c2.segments:
            if s1.face == s2.face:
                total += _segment_contribution(s1, s2)
    return total


def signature_1_1(basis):
    """Signature of the intersection form on the free part of H_{1,1}.

    basis: one entry per class, either a single OneOneCycle or a pair of
    homologous representatives (rep, alt); the diagonal Gram entries are
    computed by pairing rep with alt.  The Gram matrix must come out
    symmetric, otherwise the representatives are inconsistent.
    """
    reps = []
    for b in basis:
        if isinstance(b, OneOneCycle):
            reps.append((b, b))
        else:
            reps.append((b[0], b[1]))
    n = len(reps)
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            a = reps[i][0]
            b = reps[j][1] if j == i else reps[j][0]
            gram[i][j] = intersection_pairing(a, b)
    for i in range(n):
        for j in range(n):
            if gram[i][j] != gram[j][i]:
                raise ComplexError("Gram matrix is not symmetric; bad representatives")
    return symmetric_signature(gram)


def _is_number(v):
    if isinstance(v, bool):
        return False
    try:
        Fraction(v)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        return False
    return True


def parse_cycle(obj, x=None, where="cycle"):
    """A (1,1)-cycle from ``{"segments": [{"face", "start", "end",
    "coeff"}, ...]}``.  Given the complex ``x``, each segment must lie on a
    2-cell of ``x`` and carry a coefficient of that cell's F_1 rank.  Input
    errors name the segment as ``where.segments[k]``."""
    segments = items(field(obj, "segments", where, ComplexError), f"{where}.segments",
                     "segments", ComplexError)
    faces = None if x is None else {c.id for c in x.cells_of_dim(2)}
    out = []
    for k, s in enumerate(segments):
        at = f"{where}.segments[{k}]"
        face, start, end, coeff = (
            field(s, key, at, ComplexError) for key in ("face", "start", "end", "coeff")
        )
        face = str(face)
        if faces is not None and face not in faces:
            raise ComplexError(f"{at}: face {face!r} is not a 2-cell of the complex")
        for key, v in (("start", start), ("end", end)):
            if not isinstance(v, (list, tuple)) or not all(map(_is_number, v)):
                raise ComplexError(f"{at}.{key} must be a list of numbers, got {v!r}")
        coeff = integers(coeff, f"{at}.coeff", ComplexError)
        if x is not None and len(coeff) != x._ranks[face]:
            raise ComplexError(
                f"{at}: coeff must have {x._ranks[face]} entries, the F_1 rank of "
                f"{face}, got {list(coeff)!r}"
            )
        try:
            out.append(Segment(face, tuple(start), tuple(end), coeff))
        except ComplexError as exc:
            raise ComplexError(f"{at}: {exc}") from None
    return OneOneCycle(tuple(out))
