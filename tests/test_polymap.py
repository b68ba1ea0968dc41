"""Polynomial maps and matrices: Jacobians, determinants, ranks, inversion."""

import itertools
import random
from fractions import Fraction

import pytest

from kellerlab.exactfield import QQ, Field
from kellerlab.multipoly import MultiPoly, variables
from kellerlab.polymap import (PolyMap, PolyMatrix, conjugate, hadamard_power_map,
                               invert_triangular, jacobian, map_compose,
                               matrix_det, matrix_is_nilpotent, matrix_rank,
                               nonlinear_part, plus_identity, linear_combinations)
from kellerlab.constructions import FamilySpec, make_family


def test_jacobian_of_cube_map():
    x1, x2 = variables(QQ, 2)
    h = PolyMap([MultiPoly.zero(QQ, 2), x1 ** 3])
    jac = jacobian(h)
    assert jac.entries[0][0].is_zero() and jac.entries[0][1].is_zero()
    assert jac.entries[1][0] == 3 * x1 ** 2
    assert jac.entries[1][1].is_zero()


def test_jacobian_of_identity_plus_h():
    x1, x2 = variables(QQ, 2)
    h = PolyMap([x2 ** 2, x1 * x2])
    f = plus_identity(h)
    expected = jacobian(h) + PolyMatrix.identity(QQ, 2, 2)
    assert jacobian(f) == expected


def test_jacobian_sparsity_of_five_variable_family():
    # rows 1 and 2 vanish; the lower block carries a = x1^{d-1}, b = x2^{d-1}
    d = 2
    h = make_family(FamilySpec("n5", d))
    jac = jacobian(h)
    xs = variables(QQ, 5)
    a = xs[0] ** (d - 1)
    b = xs[1] ** (d - 1)
    for j in range(5):
        assert jac.entries[0][j].is_zero()
        assert jac.entries[1][j].is_zero()
    assert jac.entries[2][3] == b
    assert jac.entries[3][2] == a
    assert jac.entries[3][4] == -b
    assert jac.entries[4][3] == a
    assert jac.entries[2][2].is_zero() and jac.entries[2][4].is_zero()
    assert jac.entries[4][2].is_zero() and jac.entries[4][4].is_zero()


def test_hadamard_power_map_basic():
    a = PolyMatrix.from_scalars(QQ, 2, [[1, 0], [1, 1]])
    x1, x2 = variables(QQ, 2)
    assert hadamard_power_map(a, 2) == PolyMap([x1 ** 2, (x1 + x2) ** 2])
    eye = PolyMatrix.identity(QQ, 3, 3)
    cubes = hadamard_power_map(eye, 3)
    xs = variables(QQ, 3)
    assert cubes == PolyMap([x ** 3 for x in xs])


def _diag_matrix(field, polys):
    n = len(polys)
    zero = MultiPoly.zero(field, polys[0].nvars)
    return PolyMatrix([[polys[i] if i == j else zero for j in range(n)]
                       for i in range(n)])


def test_hadamard_jacobian_chain_rule_randomized():
    # J((Ax)^{*d}) must equal d * diag((Ax)^{*(d-1)}) * A, entrywise
    rng = random.Random(8231)
    for _ in range(200):
        grid = [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
        a = PolyMatrix.from_scalars(QQ, 3, grid)
        d = rng.randint(2, 3)
        power_map = hadamard_power_map(a, d)
        lhs = jacobian(power_map)
        rows = hadamard_power_map(a, d - 1).components
        rhs = _diag_matrix(QQ, [r * d for r in rows]) @ a
        assert lhs == rhs


def test_compose_triangular_pair():
    x1, x2 = variables(QQ, 2)
    f = PolyMap([x1, x2 + x1 ** 2])
    g = PolyMap([x1, x2 - x1 ** 2])
    assert map_compose(f, g) == PolyMap.identity(QQ, 2)
    assert map_compose(f, PolyMap.identity(QQ, 2)) == f


def test_compose_quasi_translation_family():
    h = make_family(FamilySpec("n4", 3))
    f = plus_identity(h)
    g = PolyMap.identity(QQ, 4) - h
    assert map_compose(f, g) == PolyMap.identity(QQ, 4)


def test_conjugate_by_reversal_permutation():
    field = QQ
    x1, x2, x3 = variables(field, 3)
    h = PolyMap([MultiPoly.zero(field, 3), MultiPoly.zero(field, 3), x1 ** 2])
    rev = PolyMatrix.from_scalars(field, 3, [[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    assert conjugate(h, rev) == PolyMap([x3 ** 2, MultiPoly.zero(field, 3),
                                         MultiPoly.zero(field, 3)])


def test_conjugate_identity_fixes_map():
    h = make_family(FamilySpec("n5", 2))
    eye = PolyMatrix.identity(QQ, 5, 5)
    assert conjugate(h, eye) == h


def test_conjugate_jacobian_identity_random():
    # J(T^{-1} F(Tx)) = T^{-1} (JF)|_{x=Tx} T
    rng = random.Random(515)
    field = QQ
    for _ in range(25):
        grid = [[Fraction(rng.randint(-2, 2)) for _ in range(2)] for _ in range(2)]
        t = PolyMatrix.from_scalars(field, 2, grid)
        try:
            conj = None
            f = PolyMap([_rand_poly(rng, 2), _rand_poly(rng, 2)])
            conj = conjugate(f, t)
        except ValueError:
            continue  # singular sample
        n = 2
        linear = [sum((MultiPoly.variable(field, n, j) * grid[i][j] for j in range(n)),
                      MultiPoly.zero(field, n)) for i in range(n)]
        jac_sub = jacobian(f).substitute(linear)
        from kellerlab import linalg
        inv = linalg.invert(t.constant_grid(), field)
        t_inv = PolyMatrix.from_scalars(field, 2, inv)
        assert jacobian(conj) == t_inv @ jac_sub @ t


def _rand_poly(rng, nvars):
    items = []
    for _ in range(rng.randint(1, 4)):
        exps = tuple(rng.randint(0, 2) for _ in range(nvars))
        items.append((exps, Fraction(rng.randint(-4, 4))))
    return MultiPoly.from_terms(QQ, nvars, items)


def test_conjugate_rejects_singular():
    h = make_family(FamilySpec("n5", 2))
    zero_t = PolyMatrix.from_scalars(QQ, 5, [[0] * 5 for _ in range(5)])
    with pytest.raises(ValueError, match="singular"):
        conjugate(h, zero_t)


def test_det_two_by_two_symbols():
    x1, x2, x3, x4 = variables(QQ, 4)
    m = PolyMatrix([[x1, x2], [x3, x4]])
    assert matrix_det(m) == x1 * x4 - x2 * x3


def test_det_keller_triangular():
    x1, x2 = variables(QQ, 2)
    f = plus_identity(PolyMap([MultiPoly.zero(QQ, 2), x1 ** 2]))
    assert matrix_det(jacobian(f)) == MultiPoly.constant(QQ, 2, 1)


def test_trailing_block_determinant_with_witness_scalar():
    # [[2+c, -c^2], [2, 2-c]] has determinant c^2 + 4 at d = 3
    field = Field([4, 0, 1])
    c = field.generator()
    grid = [[field.scalar(2) + c, -(c * c)], [field.scalar(2), field.scalar(2) - c]]
    m = PolyMatrix.from_scalars(field, 1, grid)
    det = matrix_det(m).constant_value()
    assert det == c * c + 4
    assert det == field.zero()


def test_det_multiplicative_randomized():
    rng = random.Random(2718)
    for _ in range(200):
        n = rng.randint(2, 3)
        a = PolyMatrix.from_scalars(
            QQ, n, [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)])
        b = PolyMatrix.from_scalars(
            QQ, n, [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)])
        assert matrix_det(a @ b) == matrix_det(a) * matrix_det(b)
    assert matrix_det(PolyMatrix.identity(QQ, 1, 4)) == MultiPoly.constant(QQ, 1, 1)


def _det_leibniz(m):
    """Sum over permutations of sign * product, with the sign by inversion count."""
    total = MultiPoly.zero(m.field, m.nvars)
    for perm in itertools.permutations(range(m.rows)):
        term = MultiPoly.constant(m.field, m.nvars, 1)
        for i, j in enumerate(perm):
            term = term * m.entries[i][j]
        inversions = sum(1 for a in range(m.rows) for b in range(a) if perm[b] > perm[a])
        total = total - term if inversions % 2 else total + term
    return total


def test_det_matches_leibniz_randomized():
    # sizes 5 and 6 have no other sympy-free check of the cofactor expansion
    rng = random.Random(424243)
    for n, count in ((2, 8), (3, 8), (4, 6), (5, 4), (6, 2)):
        for _ in range(count):
            m = PolyMatrix([[_rand_poly(rng, 2) for _ in range(n)] for _ in range(n)])
            assert matrix_det(m) == _det_leibniz(m)


def test_rank_examples():
    x1, x2, x3 = variables(QQ, 3)
    h = PolyMap([MultiPoly.zero(QQ, 3), MultiPoly.zero(QQ, 3), x1 ** 2])
    assert matrix_rank(jacobian(h)) == 1
    zero = PolyMatrix.from_scalars(QQ, 2, [[0, 0], [0, 0]])
    assert matrix_rank(zero) == 0
    assert matrix_rank(PolyMatrix.identity(QQ, 2, 6)) == 6


def test_rank_transpose_invariant_randomized():
    rng = random.Random(606)
    for _ in range(60):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = PolyMatrix([[_rand_poly(rng, 2) for _ in range(cols)] for _ in range(rows)])
        assert matrix_rank(m) == matrix_rank(PolyMatrix(zip(*m.entries)))


def test_nilpotent_strictly_triangular():
    x1, x2, x3 = variables(QQ, 3)
    zero = MultiPoly.zero(QQ, 3)
    m = PolyMatrix([[zero, zero, zero], [x1, zero, zero], [x2 ** 2, x1 * x3, zero]])
    assert matrix_is_nilpotent(m)


def test_nilpotent_family_jacobian():
    h = make_family(FamilySpec("n4", 3))
    jac = jacobian(h)
    # independent route: explicit fourfold product
    explicit = jac @ jac @ jac @ jac
    assert explicit.is_zero()
    assert matrix_is_nilpotent(jac)


def test_non_nilpotent_with_diagonal():
    x1, x2 = variables(QQ, 2)
    m = PolyMatrix([[x1, x2], [x2, x1]])
    assert not matrix_is_nilpotent(m)


def test_invert_triangular_chain():
    x1, x2, x3 = variables(QQ, 3)
    f = PolyMap([x1, x2 + x1 ** 2, x3 + x2 ** 2])
    g = invert_triangular(f)
    assert g == PolyMap([x1, x2 - x1 ** 2, x3 - (x2 - x1 ** 2) ** 2])
    assert map_compose(f, g) == PolyMap.identity(QQ, 3)
    assert map_compose(g, f) == PolyMap.identity(QQ, 3)


def test_invert_triangular_identity():
    f = PolyMap.identity(QQ, 3)
    assert invert_triangular(f) == f


def test_invert_triangular_family_round_trip():
    h = make_family(FamilySpec("f666", 2, n=6))
    f = plus_identity(h)
    g = invert_triangular(f)
    assert map_compose(f, g) == PolyMap.identity(QQ, 6)
    assert map_compose(g, f) == PolyMap.identity(QQ, 6)


def test_invert_triangular_rejects_non_triangular():
    x1, x2 = variables(QQ, 2)
    with pytest.raises(ValueError):
        invert_triangular(plus_identity(PolyMap([x2 ** 2, x1 ** 2])))


def test_invert_triangular_randomized():
    rng = random.Random(160914)
    for _ in range(40):
        n = rng.randint(2, 4)
        comps = []
        for i in range(n):
            # component i may involve variables strictly before i
            items = []
            for _ in range(rng.randint(0, 3)):
                exps = [0] * n
                for j in range(i):
                    exps[j] = rng.randint(0, 2)
                items.append((tuple(exps), Fraction(rng.randint(-3, 3))))
            poly = MultiPoly.from_terms(QQ, n, items)
            comps.append(poly - poly.constant_term())
        f = plus_identity(PolyMap(comps))
        g = invert_triangular(f)
        assert map_compose(f, g) == PolyMap.identity(QQ, n)
        assert map_compose(g, f) == PolyMap.identity(QQ, n)


def test_nonlinear_part_requires_square():
    x1, x2 = variables(QQ, 2)
    with pytest.raises(ValueError):
        nonlinear_part(PolyMap([x1, x2, x1 * x2]))


def test_hadamard_rejects_nonconstant_entries():
    x1, x2 = variables(QQ, 2)
    m = PolyMatrix([[x1, x2], [x2, x1]])
    with pytest.raises(ValueError, match="constant"):
        hadamard_power_map(m, 2)


def test_compose_dimension_mismatch():
    x1, x2 = variables(QQ, 2)
    f = PolyMap([x1, x2])
    g = PolyMap([x1, x2, x1 * x2])
    with pytest.raises(ValueError):
        map_compose(f, g)


def test_change_basis_conjugates_and_undoes():
    from kellerlab import linalg
    from kellerlab.polymap import change_basis

    # T = I + the superdiagonal, unipotent
    h = make_family(FamilySpec("n5", 2))
    t = PolyMatrix.from_scalars(QQ, 5, [[int(j - i in (0, 1)) for j in range(5)]
                                        for i in range(5)])
    grid = t.constant_grid()
    inv = linalg.invert(grid, QQ)
    hidden = change_basis(h, grid, inv)
    assert hidden == conjugate(h, t) != h
    assert change_basis(hidden, inv, grid) == h


def _dense_linear_combinations(grid, values, zero):
    """The scalar mat-vec loop `linear_combinations` replaced: every column visited."""
    out = []
    for row in grid:
        acc = zero
        for coeff, value in zip(row, values):
            if not coeff.is_zero() and not value.is_zero():
                acc = acc + value * coeff
        out.append(acc)
    return out


def test_sparse_scalar_linear_combinations_match_the_dense_loop():
    rng = random.Random(2400)
    for trial in range(200):
        field = (QQ, Field([1, 1, 1]), Field([Fraction(25, 4), 0, 1]))[trial % 3]
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)

        def scalar(rate):
            if rng.random() < rate:
                return field.zero()
            return field.element([Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                                  for _ in range(field.degree)])

        rate = rng.choice([0, 0.5, 0.9, 1])  # 1: zero rows and a zero vector
        grid = [[scalar(rate) for _ in range(cols)] for _ in range(rows)]
        vector = [scalar(rng.choice([0, 0.5, 1])) for _ in range(cols)]
        got = linear_combinations(grid, vector, field.zero())
        want = _dense_linear_combinations(grid, vector, field.zero())
        assert [(v.nums, v.den) for v in got] == [(v.nums, v.den) for v in want]
        # the transposed grid as an iterator of tuples, as T^t c is formed
        got = linear_combinations(zip(*grid), vector[:rows], field.zero())
        assert got == _dense_linear_combinations(list(zip(*grid)), vector[:rows], field.zero())


def test_rank_without_inverses_matches_the_rref_pivot_count():
    from kellerlab import linalg

    rng = random.Random(2401)
    for trial in range(200):
        field = (QQ, Field([1, 1, 1]), Field([Fraction(25, 4), 0, 1]))[trial % 3]
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        grid = [[field.zero() if rng.random() < 0.4 else field.element(
            [rng.randint(-3, 3) for _ in range(field.degree)]) for _ in range(cols)]
            for _ in range(rows)]
        if rows > 1 and rng.random() < 0.3:  # a row the others span over the field
            c = field.element([rng.randint(-2, 2) for _ in range(field.degree)])
            grid[-1] = [a * c + b for a, b in zip(grid[0], grid[1])]
        assert linalg.rank(grid) == len(linalg.rref(grid)[1])
    assert linalg.rank([]) == 0 and linalg.rank([[]]) == 0
