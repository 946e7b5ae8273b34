"""The integer determinant and the unimodular inverse against sympy, and
primitive directions."""

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from tropsurf import intlinalg as il


@st.composite
def square_matrices(draw):
    """(kind, rows) for a random integer n x n matrix, 1 <= n <= 6.

    "zero_pivot" makes the leading k x k minor vanish, so elimination
    meets a zero pivot at step k - 1; "singular" makes the last row a
    combination of the others.
    """
    n = draw(st.integers(1, 6))
    entries = st.integers(-4, 4)
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    kind = draw(st.sampled_from(["random", "zero_pivot", "singular"]))
    if kind == "zero_pivot":
        k = draw(st.integers(1, n))
        c = draw(entries)
        if k == 1:
            rows[0][0] = 0
        else:
            rows[k - 1][:k] = [c * x for x in rows[0][:k]]
    elif kind == "singular":
        c = draw(entries)
        rows[-1] = [c * x + y for x, y in zip(rows[0], rows[-2])] if n > 1 else [0]
    return kind, rows


class TestDet:
    @settings(max_examples=300, deadline=None)
    @given(square_matrices())
    def test_matches_sympy(self, case):
        kind, rows = case
        ours = il.det(rows)
        assert type(ours) is int
        assert ours == sympy.Matrix(rows).det()
        if kind == "singular":
            assert ours == 0

    def test_needs_a_row_swap(self):
        assert il.det([[0, 1], [1, 0]]) == -1
        assert il.det([[1, 2, 3], [2, 4, 7], [1, 3, 3]]) == -1

    def test_input_is_not_modified(self):
        rows = [[0, 2], [3, 1]]
        assert il.det(rows) == -6
        assert rows == [[0, 2], [3, 1]]


@st.composite
def unimodular_matrices(draw):
    """A random product of elementary integer matrices (det +-1), n <= 6."""
    n = draw(st.integers(1, 6))
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 12)) if n > 1 else 0):
        i, j = draw(st.permutations(range(n)))[:2]
        c = draw(st.integers(-3, 3))
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
    if draw(st.booleans()):
        a[0] = [-x for x in a[0]]
    return a


class TestUnimodularInverse:
    @settings(max_examples=300, deadline=None)
    @given(square_matrices())
    def test_inverse_exists_exactly_for_det_one(self, case):
        _, rows = case
        ours = il.unimodular_inverse(rows)
        m = sympy.Matrix(rows)
        if m.det() in (1, -1):
            assert ours == tuple(tuple(int(x) for x in row) for row in m.inv().tolist())
        else:
            assert ours is None

    @settings(max_examples=200, deadline=None)
    @given(unimodular_matrices())
    def test_inverts_unimodular_matrices(self, rows):
        inv = il.unimodular_inverse(rows)
        identity = [[int(i == j) for j in range(len(rows))] for i in range(len(rows))]
        assert all(type(x) is int for row in inv for x in row)
        assert il.matmul(rows, inv) == identity == il.matmul(inv, rows)

    def test_rejects_det_two_and_singular(self):
        assert il.unimodular_inverse([[2, 0], [0, 1]]) is None
        assert il.unimodular_inverse([[1, 2], [2, 4]]) is None
        assert il.unimodular_inverse([[0]]) is None
        assert il.unimodular_inverse([[0, 1], [1, 0]]) == ((0, 1), (1, 0))
        assert il.unimodular_inverse([]) == ()


class TestPrimitive:
    def test_list_input_gives_a_tuple(self):
        assert il.primitive([2, -4, 6]) == ((1, -2, 3), 2)
        prim, mult = il.primitive([3, 5])
        assert type(prim) is tuple and prim == (3, 5) and mult == 1

    def test_negative_entries(self):
        assert il.primitive((-4, -6)) == ((-2, -3), 2)
        assert il.primitive((0, -7, 0)) == ((0, -1, 0), 7)
        assert il.primitive((-1, 0)) == ((-1, 0), 1)

    def test_zero_vector_raises(self):
        with pytest.raises(ValueError):
            il.primitive((0, 0, 0))
