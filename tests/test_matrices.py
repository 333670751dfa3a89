"""Matrices built from ring arithmetic hold ring elements, as coerced ones do."""

import pytest

from gkgrowth._ratio import QQ
from gkgrowth.algebras import AlgebraPresentation
from gkgrowth.fdalg import close_to_fdalg, decompose_element, wedderburn_complement
from gkgrowth.matrices import Matrix
from gkgrowth.poly import Poly, PolyRing, RatFunc, RatFuncField, RationalField
from gkgrowth.spans import matrix_from_vec, matrix_to_vec

Q = RationalField()
XY = PolyRing(("x1", "x2"))
F = RatFuncField("x")


def is_ring_element(ring, value) -> bool:
    if isinstance(ring, RationalField):
        return type(value) is QQ
    if isinstance(ring, PolyRing):
        return (type(value) is Poly and value.ring == ring
                and all(type(c) is QQ for _, c in value.items_unordered()))
    return (type(value) is RatFunc and value.field == ring
            and all(type(c) is QQ for p in (value.num, value.den) for _, c in p.items_unordered()))


def assert_built_once(mat):
    assert all(is_ring_element(mat.ring, v) for row in mat.rows for v in row), mat
    assert all(type(row) is tuple for row in mat.rows) and type(mat.rows) is tuple
    coerced = Matrix(mat.ring, mat.rows)
    assert mat == coerced and hash(mat) == hash(coerced)


def algebra_cases():
    """A finite-dimensional algebra over each ring kind, with a radical."""
    E = Matrix.elementary
    x1, x2 = XY.gens()
    yield AlgebraPresentation(Q, 3, [E(Q, 3, 0, 0), E(Q, 3, 0, 1, 2) + E(Q, 3, 1, 2, -1),
                                     E(Q, 3, 2, 2, QQ(1, 2))], "QQ")
    yield AlgebraPresentation(XY, 2, [E(XY, 2, 0, 0), E(XY, 2, 0, 1, x1),
                                      E(XY, 2, 0, 1, x2 * XY.constant(3))], "QQ[x1,x2]")
    x = F.gen()
    yield AlgebraPresentation(F, 2, [E(F, 2, 0, 0, x), E(F, 2, 0, 1, 1 / (x + F.one)),
                                     E(F, 2, 1, 1)], "QQ(x)")


@pytest.mark.parametrize("pres", list(algebra_cases()), ids=lambda pres: pres.label)
def test_boundary_matrices_hold_ring_elements_only(pres):
    algebra = close_to_fdalg(pres)
    data = wedderburn_complement(algebra)
    assert data.radical_basis
    mats = list(pres.generators) + list(algebra.basis)
    built = []
    for a in mats:
        built.append(-a)
        for b in mats:
            built += [a + b, a - b, a * b]
    if not isinstance(pres.ring, RatFuncField):
        for m in mats:
            # int values, as the structure theory keeps them, and QQ ones.
            vec = {k: int(c) if c.denominator == 1 else c for k, c in matrix_to_vec(m).items()}
            built.append(matrix_from_vec(pres.ring, m.shape, vec))
            built.append(matrix_from_vec(pres.ring, m.shape, matrix_to_vec(m)))
    dim = algebra.dim
    built += [algebra.from_coords(tuple(1 if k == i else 0 for k in range(dim)))
              for i in range(dim)]
    built += [algebra.from_coords(algebra.core.unit), algebra.from_coords((0,) * dim)]
    for g in pres.generators:
        built += decompose_element(algebra, data, g)
    built += [*data.radical_basis, *data.complement_basis, *data.idempotents]
    for mat in built:
        assert_built_once(mat)


def test_matrix_still_coerces_outside_input():
    with pytest.raises(TypeError):
        Matrix(Q, [[0.5]])
    mat = Matrix(Q, [[1, QQ(1, 2)], [0, -3]])
    assert all(type(v) is QQ for row in mat.rows for v in row)
    assert Matrix(XY, [[2]]).rows[0][0] == XY.constant(2)
