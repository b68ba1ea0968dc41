"""Exact linear algebra on small matrices of field scalars.

Matrices are plain lists of lists of Scalar.  The public routines run full
Gauss-Jordan over the field; matrix sizes stay tiny throughout the package.

The strong-nilpotence flag and its adapted basis run on flat integer vectors
instead: over K = Q(t) of degree e, a vector of K^n is (den, n e integers), a
matrix acts by its regular representation (sparse integer triples on Q^{n e}),
and K-independence is fraction-free elimination over Q with the t-multiples of
each kept vector.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exactfield import Field, Scalar

__all__ = ["rref", "rank", "nullspace", "invert", "right_inverse", "identity_grid"]


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
    return len(rref(rows)[1])


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


def _ring(field: Field):
    """(e, s, [(i, c_i)]): t^e = sum_i c_i t^i / s in K = Q(t), with integers c_i."""
    s = math.lcm(*(c.denominator for _, c in field.fold))
    return field.degree, s, [(i, int(c * s)) for i, c in field.fold]


def _times_t(ring, vec) -> list:
    """s t v, block by block, for a flat vector v of e coordinates per entry."""
    e, s, fold = ring
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


def _extends(ring, basis: list, v) -> bool:
    """Add v, reduced, and s t times each row it adds, e rows in all, to the
    fraction-free echelon `basis` [(pivot, row)] of Q^{n e} when v is K-independent
    of it: with the rows before, they Q-span the K-span, so the test stays exact.
    Each step is row[p] v - v[p] row."""
    v = _primitive(v)[1]
    for k in range(ring[0]):
        v = _times_t(ring, v) if k else v
        for p, row in basis:
            c = v[p]
            if c:
                v = _primitive([row[p] * x - c * y for x, y in zip(v, row)])[1]
        pivot = next((i for i, x in enumerate(v) if x), None)
        if pivot is None:
            return False
        basis.append((pivot, v))
    return True


def _scalars(field: Field, vec):
    """The vector (den, flat integer coordinates) as a list of Scalars."""
    (den, coords), e, zero = vec, field.degree, Fraction(0)
    fractions = [Fraction(c, den) if c else zero for c in coords]
    return [Scalar(field, tuple(fractions[k:k + e])) for k in range(0, len(coords), e)]
