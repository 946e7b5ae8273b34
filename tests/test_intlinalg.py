"""The integer determinant against sympy."""

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
