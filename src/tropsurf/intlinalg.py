"""Small exact linear algebra helpers over ZZ and QQ.

Everything in this package works with tiny matrices (ambient dimensions
are single digits, chain groups a few dozen).  Integer row reduction is
one routine, `_echelon`, which brings a matrix to Hermite normal form:
`unimodular_inverse` runs it on [A | I], and `smith_invariants` alternates
it on a matrix and its transpose (Kannan-Bachem), whose nonzero invariant
factors also give the rank.  Determinants stay in the integers by
fraction-free (Bareiss) elimination; `solve` and `symmetric_signature`
use Fraction Gaussian elimination, since their answers or intermediate
pivots are rational.  `solve` now serves fan membership only (the 2-ray
sector test of `bergman`); corner multiplicities are integer formulas.
All arithmetic is exact.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm


def det(rows):
    """Determinant of a square integer matrix.

    Fraction-free (Bareiss) elimination: after step k every entry of the
    trailing block is a (k+1) x (k+1) minor of the input, so each division
    by the previous pivot is exact and all entries stay integers.
    """
    n = len(rows)
    a = [list(row) for row in rows]
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        p = a[k][k]
        for i in range(k + 1, n):
            row, f = a[i], a[i][k]
            for j in range(k + 1, n):
                row[j] = (row[j] * p - f * a[k][j]) // prev
        prev = p
    return sign * a[-1][-1] if n else 1


def solve(rows, rhs):
    """Solve A x = b exactly.  Returns a list of Fractions, or None if the
    system is singular or inconsistent.  A may be rectangular (m x n with
    m >= n, full column rank expected)."""
    m, n = len(rows), len(rows[0]) if rows else 0
    a = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    row = 0
    pivots = []
    for col in range(n):
        piv = next((r for r in range(row, m) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[row], a[piv] = a[piv], a[row]
        pv = a[row][col]
        a[row] = [x / pv for x in a[row]]
        for r in range(m):
            if r != row and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[row])]
        pivots.append(col)
        row += 1
        if row == m:
            break
    if len(pivots) < n:
        return None
    for r in range(row, m):
        if a[r][n] != 0:
            return None
    return [a[i][n] for i in range(n)]


def _echelon(a, width):
    """Hermite normal form, by integer row operations, of the rows `a`
    (reduced in place) on their first `width` columns, without zero rows.

    Euclid's algorithm down each column leaves the gcd of its remaining
    entries as the pivot, which is made positive and reduces the entries
    above it into [0, pivot), so the finished rows stay small.
    """
    top = 0
    for k in range(width):
        while True:
            live = [i for i in range(top, len(a)) if a[i][k]]
            if len(live) < 2:
                break
            p = min(live, key=lambda i: abs(a[i][k]))
            for i in live:
                if i != p:
                    q = a[i][k] // a[p][k]
                    a[i] = [x - q * y for x, y in zip(a[i], a[p])]
        if not live:
            continue
        a[top], a[live[0]] = a[live[0]], a[top]
        if a[top][k] < 0:
            a[top] = [-x for x in a[top]]
        for i in range(top):
            q = a[i][k] // a[top][k]
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[top])]
        top += 1
    return a[:top]


def unimodular_inverse(rows):
    """Inverse of a square integer matrix of determinant +-1, or None when
    the determinant is anything else.

    The Hermite form of [A | I] on its first n columns is [H | U] with
    U A = H.  det A is +-1 times the product of the pivots of H, so A is
    unimodular exactly when all n pivots are 1; then H = I and U = A^-1.
    """
    n = len(rows)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    h = _echelon(a, n)
    if len(h) < n or any(h[k][k] != 1 for k in range(n)):
        return None
    return tuple(tuple(row[n:]) for row in h)


def primitive(vec):
    """(primitive tuple, positive multiplier) of a nonzero int vector."""
    g = gcd(*vec)
    if g == 1:
        return tuple(vec), 1
    if g == 0:
        raise ValueError("zero vector has no primitive direction")
    return tuple(x // g for x in vec), g


def smith_invariants(rows):
    """Nonzero invariant factors d_1 | d_2 | ... of an integer matrix.

    Kannan-Bachem: alternate the Hermite form of the matrix and of its
    transpose until every row has one nonzero entry, then make the
    diagonal a divisor chain by replacing pairs with their gcd and lcm.
    """
    a = [list(map(int, row)) for row in rows]
    while True:
        a = _echelon(a, len(a[0]) if a else 0)
        if all(sum(map(bool, row)) == 1 for row in a):
            break
        a = [list(col) for col in zip(*a)]
    d = [max(row) for row in a]  # each row's one nonzero entry, a positive pivot
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            d[i], d[j] = gcd(d[i], d[j]), lcm(d[i], d[j])
    return d


def exterior_power(rows, p, shape=None):
    """p-th exterior power of a linear map given as an (m x n) matrix.

    Result is C(m,p) x C(n,p), entries the p x p minors, with row/column
    index sets ordered lexicographically.  p = 0 gives the 1 x 1 identity.
    """
    if shape is not None:
        m, n = shape
    else:
        m, n = len(rows), len(rows[0]) if rows else 0
    if p == 0:
        return [[1]]
    rsets = list(combinations(range(m), p))
    csets = list(combinations(range(n), p))
    out = []
    for rs in rsets:
        line = []
        for cs in csets:
            minor = [[rows[i][j] for j in cs] for i in rs]
            line.append(det(minor))
        out.append(line)
    return out


def matmul(a, b):
    """Integer matrix product."""
    if not a or not b:
        return []
    n = len(b)
    return [[sum(row[k] * b[k][j] for k in range(n)) for j in range(len(b[0]))] for row in a]


def symmetric_signature(gram):
    """Signature (n_+ minus n_-) of a rational symmetric matrix.

    Congruence diagonalization; a zero diagonal with a nonzero off-diagonal
    entry is handled by the hyperbolic-plane trick (contributes 0).
    """
    n = len(gram)
    a = [[Fraction(x) for x in row] for row in gram]
    sig = 0
    live = list(range(n))
    while live:
        k = next((i for i in live if a[i][i] != 0), None)
        if k is None:
            pair = None
            for i in live:
                for j in live:
                    if i != j and a[i][j] != 0:
                        pair = (i, j)
                        break
                if pair:
                    break
            if pair is None:
                break  # remaining block is zero: contributes nothing
            i, j = pair
            # replace basis vector e_i by e_i + e_j to expose a nonzero diagonal
            for c in range(n):
                a[i][c] += a[j][c]
            for r in range(n):
                a[r][i] += a[r][j]
            k = i
        sig += 1 if a[k][k] > 0 else -1
        for r in live:
            if r != k and a[r][k] != 0:
                f = a[r][k] / a[k][k]
                for c in range(n):
                    a[r][c] -= f * a[k][c]
                for c in range(n):
                    a[c][r] -= f * a[c][k]
        live.remove(k)
    return sig
