"""Exact linear algebra on small matrices of field scalars.

Matrices are plain lists of lists of Scalar.  rref, nullspace and the
inverses run full Gauss-Jordan over the field; matrix sizes stay tiny
throughout the package.

`rank`, the strong-nilpotence flag (`flag`) and its adapted basis
(`adapted_basis`) take and return Scalars too, and work on flat integer
vectors, with no inverse: over K = Q(t) of degree e, a vector of K^n is
(den, n e integers), a matrix acts by its regular representation (sparse
integer triples on Q^{n e}), and K-independence is fraction-free elimination
over Q with the t-multiples of each kept vector.
"""

from __future__ import annotations

import math
import operator

from .exactfield import Field
from .multipoly import _numerators

__all__ = ["rref", "rank", "nullspace", "invert", "right_inverse", "identity_grid",
           "flag", "adapted_basis"]


def identity_grid(field: Field, n: int):
    return [[field.one() if i == j else field.zero() for j in range(n)] for i in range(n)]


def rref(rows):
    """Reduced row echelon form; returns (new rows, pivot column list)."""
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(rows)) if not rows[i][c].is_zero()), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(rows) -> int:
    """The number of rows `_extends` keeps, on their integer numerators: no inverse."""
    basis = []
    return sum([_extends(row[0].field, basis, [x for c in _numerators(row)[1] for x in c])
                for row in rows if row])


def nullspace(rows, ncols: int, field: Field):
    """Canonical basis of {v : rows * v = 0}, normalized by a final rref."""
    reduced, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [field.zero()] * ncols
        vec[f] = field.one()
        for r, p in enumerate(pivots):
            vec[p] = -reduced[r][f]
        basis.append(vec)
    if not basis:
        return []
    normalized, _ = rref(basis)
    return [tuple(v) for v in normalized]


def invert(rows, field: Field):
    """Inverse of a square scalar matrix, or None when singular."""
    n = len(rows)
    aug = [list(r) + list(e) for r, e in zip(rows, identity_grid(field, n))]
    reduced, pivots = rref(aug)
    if pivots != list(range(n)):
        return None
    return [r[n:] for r in reduced]


def right_inverse(rows, field: Field):
    """C with rows * C = I for a full-row-rank m x n matrix.

    For each pivot column p_k of the echelon form, row p_k of C carries the
    corresponding unit response; all free-column rows of C stay zero.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    aug = [list(r) + list(e) for r, e in zip(rows, identity_grid(field, m))]
    reduced, pivots = rref(aug)
    pivots = [p for p in pivots if p < n]
    if len(pivots) != m:
        raise ValueError("matrix does not have full row rank")
    out = [[field.zero()] * m for _ in range(n)]
    for k, p in enumerate(pivots):
        for j in range(m):
            out[p][j] = reduced[k][n + j]
    return out


def flag(field: Field, n: int, entries: dict):
    """(T, None) when the n x n matrices A_m are strongly nilpotent, else
    (None, (word, j, image)) with image = A_{m_1} ... A_{m_n} e_j nonzero.

    `entries` holds by key m the entries (row, col, Scalar) of A_m, keys
    tried in its order.  Level k of the flag keeps, in image order, each image
    of a level k - 1 vector K-independent of those kept (`_extends`), up to
    the size of level k - 1; T, a grid of Scalars, runs through the levels
    deepest last, so every T^{-1} A_m T is strictly lower triangular.  The
    word is re-checked on the entries themselves."""
    e = field.degree
    mats = _regular(field, entries)
    levels = [[((), j, (1, [int(k == j * e) for k in range(n * e)])) for j in range(n)]]
    for _ in range(n):
        images = (((m,) + word, j, _image(mat, v))
                  for word, j, v in levels[-1] for m, mat in mats.items())
        level, basis = [], []
        for word, j, image in images:
            if _extends(field, basis, image[1]):
                level.append((word, j, image))
                if len(level) == len(levels[-1]):
                    break
        if not level:
            deepest_first = [v for step in reversed(levels[1:]) for _, _, v in step]
            return _adapted_basis(field, n, deepest_first), None
        levels.append(level)
    word, j, image = levels[-1][0]
    _recheck_word(field, n, entries, word, j, image)
    return None, (word, j, _scalars(field, image))


def adapted_basis(field: Field, n: int, vectors) -> list:
    """An invertible T, a grid of Scalars, whose last columns span vectors[:k]
    for every k: the vectors, then the unit vectors, are picked in order when
    K-independent of those picked before (`_extends`), and the columns of T are
    the picked unit vectors, ascending, then the picked vectors in reverse."""
    return _adapted_basis(field, n, [(den, [x for c in coords for x in c])
                                     for den, coords in map(_numerators, vectors)])


def _adapted_basis(field: Field, n: int, chain) -> list:
    """`adapted_basis` on flat vectors (den, coords)."""
    e = field.degree
    vectors = chain + [(1, [int(k == j * e) for k in range(n * e)]) for j in range(n)]
    basis, picked = [], []
    for k, (_, coords) in enumerate(vectors):
        if len(picked) < n and _extends(field, basis, coords):
            picked.append(k)
    cols = [_scalars(field, vectors[p]) for p in picked if p >= len(chain)] + \
        [_scalars(field, vectors[p]) for p in reversed(picked) if p < len(chain)]
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def _regular(field: Field, entries: dict) -> dict:
    """By key m, the regular representation (D, [(row, col, a)]) of A_m, its
    Q-linear map on Q^{n e}, as integers a over one denominator D for all m."""
    e, s, mats = field.degree, field.fold_den, {m: [] for m in entries}
    items = [(m, i, j, a) for m, triples in entries.items() for i, j, a in triples]
    den, coords = _numerators([a for *_, a in items])
    for (m, i, j, _), a in zip(items, coords):
        for l in range(e):  # column l of the block is t^l a, over den s^l
            a = _times_t(field, a) if l else a
            mats[m].extend((i * e + r, j * e + l, x * s ** (e - 1 - l))
                           for r, x in enumerate(a) if x)
    return {m: (den * s ** (e - 1), mat) for m, mat in mats.items()}


def _times_t(field: Field, vec) -> list:
    """s t v, block by block, for a flat vector v of e coordinates per entry."""
    e, s, fold = field.degree, field.fold_den, field.fold
    out = []
    for b in range(0, len(vec), e):
        block = [0] + [x * s for x in vec[b:b + e - 1]]
        for i, c in fold:
            block[i] += vec[b + e - 1] * c
        out += block
    return out


def _primitive(coords, den=0):
    """coords / den as (den', coords') over their gcd; den = 0 keeps the direction."""
    g = math.gcd(den, *coords)
    return (den // g, [c // g for c in coords]) if g > 1 else (den, coords)


def _image(mat, vec):
    """A v as (den, flat integer coordinates), for A given as (D, [(row, col, a)]):
    integer entries a / D of its regular representation."""
    (den_a, triples), (den_v, coords) = mat, vec
    out = [0] * len(coords)
    for i, j, a in triples:
        if coords[j]:
            out[i] += a * coords[j]
    return _primitive(out, den_a * den_v)


def _extends(field: Field, basis: list, v) -> bool:
    """Add v, reduced, and s t times each row it adds, e rows in all, to the
    fraction-free echelon `basis` [(pivot, row)] of Q^{n e} when v is K-independent
    of it: with the rows before, they Q-span the K-span, so the test stays exact.
    Each step is row[p] v - v[p] row."""
    v = _primitive(v)[1]
    for k in range(field.degree):
        v = _times_t(field, v) if k else v
        for p, row in basis:
            c = v[p]
            if c:
                v = _primitive([row[p] * x - c * y for x, y in zip(v, row)])[1]
        pivot = next((i for i, x in enumerate(v) if x), None)
        if pivot is None:
            return False
        basis.append((pivot, v))
    return True


def _recheck_word(field: Field, n: int, entries: dict, word, j: int, image):
    """Raise unless A_{m_1} ... A_{m_n} e_j is the nonzero flat `image`, computed
    again from the entries' own integer numerators, one `Field.times` each."""
    (den, flat), e = image, field.degree
    scale, check = 1, [[int(i == j)] + [0] * (e - 1) for i in range(n)]
    for m in reversed(word):
        step, coords = _numerators([a for *_, a in entries[m]])
        out = [[0] * e for _ in range(n)]
        for (row, col, _), a in zip(entries[m], coords):
            out[row] = list(map(operator.add, out[row], field.times(a, check[col])))
        scale, check = scale * step * field.scale, out
    if not any(flat) or any(x * den != y * scale for x, y in zip(sum(check, []), flat)):
        raise ArithmeticError("strong-nilpotence word failed re-verification")


def _scalars(field: Field, vec):
    """The vector (den, flat integer coordinates) as a list of Scalars."""
    (den, coords), e = vec, field.degree
    return [field.fraction(coords[k:k + e], den) for k in range(0, len(coords), e)]
