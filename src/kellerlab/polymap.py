"""Polynomial maps and polynomial matrices.

Covers the symbolic machinery the condition checkers sit on: Jacobians,
composition, changes of basis and conjugation, Hadamard-power maps, the
exact determinant (by cofactor expansion) and rank over the function field,
nilpotency and the forward-substitution inverse for strictly triangular maps.
"""

from __future__ import annotations

from . import linalg
from .exactfield import Field
from .multipoly import MultiPoly, divide_exact, substitute_all, sums_of_products, variables

__all__ = [
    "PolyMap",
    "PolyMatrix",
    "jacobian",
    "hadamard_power_map",
    "linear_combinations",
    "map_compose",
    "change_basis",
    "conjugate",
    "conjugation_grids",
    "matrix_det",
    "matrix_rank",
    "matrix_is_nilpotent",
    "invert_triangular",
]


class PolyMap:
    """A tuple of polynomials sharing one ring, viewed as a map K^n -> K^m."""

    __slots__ = ("field", "nvars", "components")

    def __init__(self, components):
        components = tuple(components)
        if not components:
            raise ValueError("a map needs at least one component")
        field = components[0].field
        nvars = components[0].nvars
        for comp in components:
            if comp.field != field or comp.nvars != nvars:
                raise ValueError("components live in different rings")
        self.field = field
        self.nvars = nvars
        self.components = components

    @classmethod
    def identity(cls, field: Field, n: int) -> "PolyMap":
        return cls([MultiPoly.variable(field, n, i) for i in range(n)])

    @classmethod
    def zero(cls, field: Field, n_out: int, nvars: int) -> "PolyMap":
        return cls([MultiPoly.zero(field, nvars)] * n_out)

    @property
    def n_out(self) -> int:
        return len(self.components)

    @property
    def is_square(self) -> bool:
        return self.n_out == self.nvars

    def degree(self) -> int:
        return max(c.degree() for c in self.components)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def vanishes_at_origin(self) -> bool:
        return all(c.constant_term().is_zero() for c in self.components)

    def evaluate(self, point):
        return tuple(c.constant_term() for c in substitute_all(self.components, point, nvars=0))

    def __add__(self, other):
        if not isinstance(other, PolyMap):
            return NotImplemented
        if other.n_out != self.n_out:
            raise ValueError("maps have different component counts")
        return PolyMap([a + b for a, b in zip(self.components, other.components)])

    def __sub__(self, other):
        if not isinstance(other, PolyMap):
            return NotImplemented
        if other.n_out != self.n_out:
            raise ValueError("maps have different component counts")
        return PolyMap([a - b for a, b in zip(self.components, other.components)])

    def __eq__(self, other):
        if not isinstance(other, PolyMap):
            return NotImplemented
        return (self.field == other.field and self.nvars == other.nvars
                and self.components == other.components)

    def __repr__(self):
        return "PolyMap(" + ", ".join(repr(c) for c in self.components) + ")"


def nonlinear_part(map_: PolyMap) -> PolyMap:
    """H for a square map written as F = x + H."""
    if not map_.is_square:
        raise ValueError("F = x + H requires a square map")
    return map_ - PolyMap.identity(map_.field, map_.nvars)


def plus_identity(map_: PolyMap) -> PolyMap:
    """x + H for a square nonlinear part H."""
    if not map_.is_square:
        raise ValueError("x + H requires a square map")
    return PolyMap.identity(map_.field, map_.nvars) + map_


class PolyMatrix:
    """A rectangular grid of polynomials over one shared ring."""

    __slots__ = ("field", "nvars", "rows", "cols", "entries")

    def __init__(self, entries):
        entries = tuple(tuple(row) for row in entries)
        if not entries or not entries[0]:
            raise ValueError("matrix needs at least one entry")
        field = entries[0][0].field
        nvars = entries[0][0].nvars
        cols = len(entries[0])
        for row in entries:
            if len(row) != cols:
                raise ValueError("matrix rows have uneven lengths")
            for e in row:
                if e.field != field or e.nvars != nvars:
                    raise ValueError("entries live in different rings")
        self.field = field
        self.nvars = nvars
        self.rows = len(entries)
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_scalars(cls, field: Field, nvars: int, grid) -> "PolyMatrix":
        return cls([[MultiPoly.constant(field, nvars, v) for v in row] for row in grid])

    @classmethod
    def identity(cls, field: Field, nvars: int, n: int) -> "PolyMatrix":
        return cls.from_scalars(field, nvars, linalg.identity_grid(field, n))

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    def is_constant(self) -> bool:
        return all(e.is_constant() for row in self.entries for e in row)

    def constant_grid(self):
        if not self.is_constant():
            raise ValueError("matrix has non-constant entries")
        return [[e.constant_value() for e in row] for row in self.entries]

    def submatrix(self, row_idx, col_idx) -> "PolyMatrix":
        return PolyMatrix([[self.entries[i][j] for j in col_idx] for i in row_idx])

    def diagonal(self):
        if not self.is_square:
            raise ValueError("diagonal of a non-square matrix")
        return [self.entries[i][i] for i in range(self.rows)]

    def is_lower_triangular(self, strict: bool = False) -> bool:
        for i in range(self.rows):
            for j in range(i if strict else i + 1, self.cols):
                if not self.entries[i][j].is_zero():
                    return False
        return True

    def scale(self, factor) -> "PolyMatrix":
        return PolyMatrix([[e * factor for e in row] for row in self.entries])

    def __add__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("matrix shapes differ")
        return PolyMatrix([[a + b for a, b in zip(r1, r2)]
                           for r1, r2 in zip(self.entries, other.entries)])

    def __matmul__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("matrix shapes do not compose")
        cols = list(zip(*other.entries))
        sums = [[(1, a, b) for a, b in zip(row, col)] for row in self.entries for col in cols]
        out = sums_of_products(self.field, self.nvars, sums)
        return PolyMatrix([out[i:i + other.cols] for i in range(0, len(out), other.cols)])

    def power(self, k: int) -> "PolyMatrix":
        if not self.is_square:
            raise ValueError("powers of a non-square matrix")
        if k < 0:
            raise ValueError("negative matrix power")
        if k == 0:
            return PolyMatrix.identity(self.field, self.nvars, self.rows)
        result = self
        for _ in range(k - 1):
            if result.is_zero():
                break
            result = result @ self
        return result

    def substitute(self, assignment, nvars: int | None = None) -> "PolyMatrix":
        out = substitute_all([e for row in self.entries for e in row], assignment, nvars)
        return PolyMatrix([out[i:i + self.cols] for i in range(0, len(out), self.cols)])

    def map_entries(self, fn) -> "PolyMatrix":
        return PolyMatrix([[fn(e) for e in row] for row in self.entries])

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self):
        body = "; ".join(", ".join(repr(e) for e in row) for row in self.entries)
        return f"PolyMatrix[{body}]"


def jacobian(map_: PolyMap) -> PolyMatrix:
    """Row i holds the partial derivatives of component i."""
    return PolyMatrix([[comp.partial_derivative(j) for j in range(map_.nvars)]
                       for comp in map_.components])


def hadamard_power_map(matrix: PolyMatrix, d: int) -> PolyMap:
    """The map whose i-th component is (A_i x)^d for the rows A_i of A."""
    if not matrix.is_square:
        raise ValueError("Hadamard-power maps need a square matrix")
    if d < 1:
        raise ValueError("power must be at least 1")
    field, n = matrix.field, matrix.rows
    forms = linear_combinations(matrix.constant_grid(), variables(field, n),
                                MultiPoly.zero(field, n))
    return PolyMap([form ** d for form in forms])


def linear_combinations(grid, polys, zero) -> list:
    """Row i of the result is sum_j grid[i][j] polys[j] for a scalar grid.

    Zero coefficients and zero entries of `polys` are skipped; `zero` is the
    zero of the ring the result lives in.  `polys` may be polynomials or
    scalars: with scalars this is the matrix-vector product grid * polys.
    """
    if isinstance(zero, MultiPoly):
        return sums_of_products(zero.field, zero.nvars,
                                [[(1, p, c) for c, p in zip(row, polys)] for row in grid])
    out = []
    for row in grid:
        acc = zero
        for coeff, poly in zip(row, polys):
            if not coeff.is_zero() and not poly.is_zero():
                acc = acc + poly * coeff
        out.append(acc)
    return out


def map_compose(outer: PolyMap, inner: PolyMap) -> PolyMap:
    """outer after inner, by exact substitution."""
    if inner.n_out != outer.nvars:
        raise ValueError("component count of the inner map must match")
    if inner.field != outer.field:
        raise ValueError("maps live over different fields")
    return PolyMap(substitute_all(outer.components, inner.components, nvars=inner.nvars))


def change_basis(map_: PolyMap, inner, outer) -> PolyMap:
    """outer F(inner x) for a square map F and n x n scalar grids inner, outer.

    No shape or invertibility check: a caller that already holds T and T^{-1}
    conjugates with change_basis(F, T, T^{-1}) and undoes it with
    change_basis(G, T^{-1}, T), inverting nothing.
    """
    field, n = map_.field, map_.nvars
    zero = MultiPoly.zero(field, n)
    linear = linear_combinations(inner, variables(field, n), zero)
    return PolyMap(linear_combinations(outer, substitute_all(map_.components, linear), zero))


def conjugation_grids(t_matrix: PolyMatrix, field: Field, n: int):
    """The scalar grids of a constant n x n matrix T over `field` and of T^{-1}.

    The one place a conjugating T is inverted; raises ValueError when T is not
    n x n or is singular.
    """
    if not t_matrix.is_square or t_matrix.rows != n:
        raise ValueError("conjugation needs matching square shapes")
    grid = t_matrix.constant_grid()
    inv = linalg.invert(grid, field)
    if inv is None:
        raise ValueError("conjugating matrix is singular")
    return grid, inv


def conjugate(map_: PolyMap, t_matrix: PolyMatrix) -> PolyMap:
    """T^{-1} F(Tx) for a constant invertible T: change_basis(F, T, T^{-1})."""
    if not map_.is_square:
        raise ValueError("conjugation needs matching square shapes")
    return change_basis(map_, *conjugation_grids(t_matrix, map_.field, map_.nvars))


def _grid(matrix: PolyMatrix):
    return [list(row) for row in matrix.entries]


def _det_cofactor(grid, field, nvars):
    n = len(grid)
    if n == 1:
        return grid[0][0]
    # expand along the row with the most zeros, after transposing when a
    # column has more
    row_zeros = [sum(1 for e in row if e.is_zero()) for row in grid]
    col_zeros = [sum(1 for row in grid if row[j].is_zero()) for j in range(n)]
    if max(col_zeros) > max(row_zeros):
        grid, row_zeros = [list(col) for col in zip(*grid)], col_zeros
    i = row_zeros.index(max(row_zeros))
    pairs = [(-1 if (i + j) % 2 else 1, e,
              _det_cofactor([[grid[r][c] for c in range(n) if c != j]
                             for r in range(n) if r != i], field, nvars))
             for j, e in enumerate(grid[i]) if not e.is_zero()]
    return sums_of_products(field, nvars, [pairs])[0]


def _pick_pivot(grid, col, start):
    """Row index of a minimal-degree nonzero entry in the column; ties by row."""
    best = None
    best_deg = None
    for i in range(start, len(grid)):
        e = grid[i][col]
        if e.is_zero():
            continue
        deg = e.degree()
        if best is None or deg < best_deg:
            best, best_deg = i, deg
    return best


def matrix_det(matrix: PolyMatrix) -> MultiPoly:
    """Exact determinant by cofactor expansion along the line with the most zeros."""
    if not matrix.is_square:
        raise ValueError("determinant of a non-square matrix")
    return _det_cofactor(_grid(matrix), matrix.field, matrix.nvars)


def matrix_rank(matrix: PolyMatrix) -> int:
    """Rank over the fraction field K(x), by fraction-free elimination.

    Row updates are cross-multiplications, which only rescale rows by
    nonzero polynomials; entries are reduced by the previous pivot whenever
    that division is exact, to keep the growth of intermediate entries down.
    """
    grid = _grid(matrix)
    nrows, ncols = matrix.rows, matrix.cols
    zero = MultiPoly.zero(matrix.field, matrix.nvars)
    r = 0
    prev = None
    for c in range(ncols):
        pivot_row = _pick_pivot(grid, c, r)
        if pivot_row is None:
            continue
        grid[r], grid[pivot_row] = grid[pivot_row], grid[r]
        pivot = grid[r][c]
        for i in range(r + 1, nrows):
            if grid[i][c].is_zero():
                continue
            new_row = sums_of_products(matrix.field, matrix.nvars,
                                       [[(1, pivot, a), (-1, grid[i][c], b)]
                                        for a, b in zip(grid[i], grid[r])])
            if prev is not None:
                reduced = [divide_exact(e, prev) for e in new_row]
                if all(e is not None for e in reduced):
                    new_row = reduced
            new_row[c] = zero
            grid[i] = new_row
        prev = pivot
        r += 1
        if r == nrows:
            break
    return r


def matrix_is_nilpotent(matrix: PolyMatrix) -> bool:
    """True iff M^k = 0 exactly for k = size (a sufficient bound)."""
    if not matrix.is_square:
        raise ValueError("nilpotency of a non-square matrix")
    return matrix.power(matrix.rows).is_zero()


def invert_triangular(map_: PolyMap) -> PolyMap:
    """Exact inverse of F = x + H with strictly lower triangular JH."""
    h = nonlinear_part(map_)
    if not jacobian(h).is_lower_triangular(strict=True):
        raise ValueError("nonlinear part has no strictly lower triangular Jacobian")
    return _forward_substitution(h)


def _forward_substitution(h: PolyMap) -> PolyMap:
    """The inverse of x + H, for H with strictly lower triangular JH (unchecked).

    Forward substitution in batches: G = (x - H)(a), where a_j = G_j once
    component j is solved and a_j = x_j before.  Component i is ready when
    every variable of H_i is solved, and all ready components are substituted
    at once; strict triangularity makes the lowest unsolved one ready.
    """
    n, xs = h.nvars, variables(h.field, h.nvars)
    minus = [x - c for x, c in zip(xs, h.components)]
    used = [{i for e in c.terms for i, k in enumerate(e) if k} for c in h.components]
    out, solved = list(xs), set()
    for _ in range(n):  # n batches at most: each solves at least the lowest unsolved one
        ready = [i for i in range(n) if i not in solved and used[i] <= solved]
        for i, g in zip(ready, substitute_all([minus[i] for i in ready], out)):
            out[i] = g
        solved.update(ready)
    return PolyMap(out)
