"""Exact integer matrix algebra: Smith normal form, the Hermite form,
kernels, unimodular inverses.

Everything runs on Python's arbitrary-precision integers.  No floating
point is used anywhere: normal-form intermediates can exceed any fixed
width, and a silent overflow would corrupt every invariant built on top of
this module.  Entries given are checked by ``errors._check_int``.

Both normal forms clear columns with one gcd step, ``_clear_column``, and
carry a row transform as identity columns: reducing the rows of ``[a | I]``
leaves ``[T @ a | T]`` (Cohen, *A Course in Computational Algebraic Number
Theory*, 2.4.3).  So one ``_hermite`` pass gives the inverse.

Ranks and determinants come from fraction-free Bareiss elimination
(``_bareiss``), or for a nonsingular square matrix up to 4 x 4 from a
closed form, which gives the same signed last pivot; a fan runs one per
maximal cone.

Every canonical kernel takes one route: ``_lex_last_basis`` finds the
lex-last basis among the rows by one fraction-free Gauss-Jordan pass, and
``_basis_kernel`` reads the left kernel's Hermite form off it, reducing
modulo the basis determinant (``_relations_mod``) when that is not +-1.
A fan's rays (``spanning_lattice``) and, through ``_kernel_columns``,
``integer_kernel`` and the cone kernels of ``cones`` all use it.  The
Hermite form of a saturated lattice is unique, so the augmented pass over
``[a | I]`` that it replaced, kept in ``tests/slow_paths.py``, is its
differential oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod

from .errors import DomainError, _check_int, _check_iterable, _check_type, _int_item, _trusted

IntVector = tuple[int, ...]


def dot(u, v) -> int:
    if len(u) != len(v):
        raise DomainError("dot product of vectors of unequal length")
    return sum(a * b for a, b in zip(u, v))


def primitive(v) -> IntVector:
    """Divide an integer vector by the gcd of its entries.

    The result generates the same ray (it is ``v / g`` with ``g > 0``) and
    has coprime entries.  The zero vector has no primitive representative.
    """
    vec = _check_iterable(v, "primitive: v must be an iterable of integers, got {}")
    for x in vec:
        _check_int(x, "exact integer expected, got {}")
    if not any(vec):
        raise DomainError("the zero vector has no primitive representative")
    g = gcd(*vec)
    return tuple(x // g for x in vec)


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, stored as a tuple of row tuples.

    ``cols`` is explicit so that matrices with zero rows or zero columns
    (empty kernels, empty constraint systems) stay well defined.
    """

    entries: tuple[tuple[int, ...], ...]
    cols: int

    def __post_init__(self):
        rows = _check_iterable(self.entries, "IntMatrix: entries must be an iterable of rows, "
                               "got {}", item=tuple)
        entries = tuple(tuple(_check_int(x, "exact integer expected, got {}") for x in row)
                        for row in rows)
        object.__setattr__(self, "entries", entries)
        _check_int(self.cols, "column count must be nonnegative", 0)
        for row in self.entries:
            if len(row) != self.cols:
                raise DomainError("ragged rows in matrix")

    @classmethod
    def from_rows(cls, rows, cols: int | None = None) -> "IntMatrix":
        rows = _check_iterable(rows, "IntMatrix.from_rows: rows must be an iterable of rows, "
                               "got {}", item=tuple)
        if cols is None:
            if not rows:
                raise DomainError("cannot infer column count of an empty matrix")
            cols = len(rows[0])
        return cls(rows, cols)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def is_empty(self) -> bool:
        return self.rows == 0 or self.cols == 0

    def row(self, i: int) -> IntVector:
        _check_int(i, f"IntMatrix.row: i must be an integer in [0, {self.rows}), got {{}}", 0,
                   below=self.rows)
        return self.entries[i]

    def column(self, j: int) -> IntVector:
        _check_int(j, f"IntMatrix.column: j must be an integer in [0, {self.cols}), got {{}}", 0,
                   below=self.cols)
        return tuple(row[j] for row in self.entries)

    def columns(self) -> tuple[IntVector, ...]:
        # a matrix with no rows still has cols empty columns
        return tuple(zip(*self.entries)) or ((),) * self.cols

    def transpose(self) -> "IntMatrix":
        return _trusted(IntMatrix, entries=self.columns(), cols=self.rows)

    def mat_vec(self, v) -> IntVector:
        v = _check_iterable(v, "IntMatrix.mat_vec: v must be an iterable of integers, got {}",
                            item=_int_item)
        if len(v) != self.cols:
            raise DomainError("matrix-vector shape mismatch")
        return tuple(dot(row, v) for row in self.entries)

    def rank(self) -> int:
        """Rank over the rationals, by fraction-free Bareiss elimination, or
        by a closed-form determinant for a nonsingular square matrix up to
        4 x 4."""
        return _bareiss(self.entries, self.cols)[0]

    def __str__(self) -> str:
        return "\n".join(" ".join(str(x) for x in row) for row in self.entries)


def _bareiss(rows, cols: int) -> tuple[int, int]:
    """Fraction-free row echelon (Bareiss, Math. Comp. 22 (1968)).

    Returns the rank and the last pivot, negated once per row swap (1 when
    the rank is 0).  After ``r`` pivots every entry below them is an
    ``(r + 1)``-minor of the input, so each division by the previous pivot
    is exact and entries stay the size of minors.  For a square matrix of
    full rank the signed last pivot is the determinant, so a square input
    up to 4 x 4 with a nonzero determinant returns ``(n, det)`` from a
    closed form (cofactors up to 3 x 3, Laplace expansion along the first
    two rows at 4 x 4); any other input is eliminated.  The elimination
    rewrites a row below the pivot only when its entry in the pivot column
    is nonzero or the pivot changed, and only past that column: the input
    rows are never copied or modified.
    """
    m = len(rows)
    if m == cols == 2:
        (a, b), (c, d) = rows
        det = a * d - b * c
        if det:
            return 2, det
    elif m == cols == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
        if det:
            return 3, det
    elif m == cols == 4:
        # Laplace expansion along the first two rows: each 2 x 2 minor of
        # rows 0-1 times its complementary minor of rows 2-3
        (a, b, c, d), (e, f, g, h), (w, x, y, z), (p, q, r, s) = rows
        det = ((a * f - b * e) * (y * s - z * r) - (a * g - c * e) * (x * s - z * q)
               + (a * h - d * e) * (x * r - y * q) + (b * g - c * f) * (w * s - z * p)
               - (b * h - d * f) * (w * r - y * p) + (c * h - d * g) * (w * q - x * p))
        if det:
            return 4, det
    a = list(rows)
    rank, sign, prev = 0, 1, 1
    for c in range(cols):
        if rank == m:
            break
        pivot = rank
        while pivot < m and not a[pivot][c]:
            pivot += 1
        if pivot == m:
            continue
        if pivot != rank:
            a[rank], a[pivot] = a[pivot], a[rank]
            sign = -sign
        top = a[rank]
        p = top[c]
        rank += 1
        for i in range(rank, m):
            row = a[i]
            q = row[c]
            if q or p != prev:
                # columns up to c are never read again
                a[i] = [0] * (c + 1) + [
                    (row[j] * p - q * top[j]) // prev for j in range(c + 1, cols)]
        prev = p
    return rank, sign * prev


def _swap_rows(a, i, j):
    a[i], a[j] = a[j], a[i]


def _row_sub(a, i, t, q):
    # row_i -= q * row_t
    ri, rt = a[i], a[t]
    for j in range(len(ri)):
        ri[j] -= q * rt[j]


def _negate_row(a, i):
    a[i] = [-x for x in a[i]]


def _augmented(rows) -> list[list[int]]:
    """The rows of ``[a | I]``, whose identity columns carry the row transform."""
    m = len(rows)
    return [[*row, *(0,) * i, 1, *(0,) * (m - 1 - i)] for i, row in enumerate(rows)]


def _clear_column(A, t, c):
    """Reduce column c below the nonzero pivot ``A[t][c]`` to remainders by
    row operations.  Swap the least nonzero remainder (lowest row on ties)
    into row t and return its old row, or return ``None`` when the column
    is clear.  Repeated, this is Euclid's algorithm on the column."""
    p = A[t][c]
    least = None
    for i in range(t + 1, len(A)):
        x = A[i][c]
        if x:
            q = x // p
            if q:
                _row_sub(A, i, t, q)
            x = A[i][c]
            if x and (least is None or abs(x) < abs(A[least][c])):
                least = i
    if least is not None:
        _swap_rows(A, t, least)
    return least


def smith_normal_form(a: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return unimodular ``U``, diagonal ``D`` and unimodular ``V`` with
    ``U @ a @ V == D``, the diagonal nonnegative with ``d_i | d_{i+1}``.

    Classic elimination: repeatedly move a least-magnitude entry to the
    pivot, clear its column (``_clear_column``) and its row, and absorb any
    entry the pivot fails to divide.  U rides in the identity columns of
    ``[a | I]``.  Deterministic pivot choice keeps results reproducible.
    """
    if _check_type(a, IntMatrix, "smith_normal_form: a must be an IntMatrix, got {}").is_empty:
        raise DomainError("smith_normal_form requires a nonempty matrix")
    m, n = a.rows, a.cols
    A = _augmented(a.entries)
    # column operations act on V; run them on the rows of its transpose
    Vt = [[int(i == j) for j in range(n)] for i in range(n)]

    def col_swap(j, k):
        for row in A:
            row[j], row[k] = row[k], row[j]
        _swap_rows(Vt, j, k)

    for t in range(min(m, n)):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = A[i][j]
                if v and (best is None or abs(v) < best[0]):
                    best = (abs(v), i, j)
        if best is None:
            break
        _, pi, pj = best
        if pi != t:
            _swap_rows(A, t, pi)
        if pj != t:
            col_swap(t, pj)
        while True:
            while _clear_column(A, t, t) is not None:
                pass
            # clear the pivot row: column t is now zero off the pivot, so
            # col_j -= q * col_t changes A only at (t, j)
            top = A[t]
            p = top[t]
            least = None
            for j in range(t + 1, n):
                if top[j]:
                    q, top[j] = divmod(top[j], p)
                    if q:
                        _row_sub(Vt, j, t, q)
                    if top[j] and (least is None or abs(top[j]) < abs(top[least])):
                        least = j
            if least is not None:
                col_swap(t, least)
                continue
            # pivot must divide the rest of a's block (not U) for the chain
            # to hold; a unit pivot divides everything
            offender = None if p in (1, -1) else next(
                (i for i in range(t + 1, m) for x in A[i][t + 1:n] if x % p), None
            )
            if offender is None:
                break
            _row_sub(A, t, offender, -1)  # row_t += row_offender
        if A[t][t] < 0:
            _negate_row(A, t)

    return (
        _trusted(IntMatrix, entries=tuple([tuple(row[n:]) for row in A]), cols=m),
        _trusted(IntMatrix, entries=tuple([tuple(row[:n]) for row in A]), cols=n),
        _trusted(IntMatrix, entries=tuple(zip(*Vt)), cols=n),
    )


def _hermite(A) -> None:
    """Bring A to canonical row Hermite form in place: echelon with positive
    pivots, entries above each pivot reduced into ``[0, pivot)``, rows past
    the rank zero.  On ``[a | I]`` the rows past a's rank go on to bring
    their transform columns to Hermite form too."""
    m, n = len(A), len(A[0]) if A else 0
    r = 0
    for c in range(n):
        if r == m:
            break
        nonzero = [i for i in range(r, m) if A[i][c]]
        if not nonzero:
            continue
        i0 = min(nonzero, key=lambda i: (abs(A[i][c]), i))
        if i0 != r:
            _swap_rows(A, r, i0)
        while _clear_column(A, r, c) is not None:
            pass
        if A[r][c] < 0:
            _negate_row(A, r)
        for i in range(r):
            q = A[i][c] // A[r][c]
            if q:
                _row_sub(A, i, r, q)
        r += 1


def _lex_last_basis(rows, cols: int) -> tuple[list[int], int, list[list[int]]]:
    """Fraction-free Gauss-Jordan over the rows taken as columns, last row
    first, up to full rank.  A row is a pivot exactly when it is
    independent of the rows after it, so the pivots are the lex-last basis
    B among the rows.  Returns B in pivot order, the last pivot p (+-det of
    B's rows) and the reduced columns: ``a[t][j]`` is p times the
    coefficient of row ``B[t]`` in row j.  As in ``_bareiss`` every division
    by the previous pivot is exact."""
    a = [list(col) for col in zip(*rows)]
    basis, prev = [], 1
    for j in reversed(range(len(rows))):
        t = len(basis)
        if t == cols:
            break
        k = next((k for k in range(t, cols) if a[k][j]), None)
        if k is None:
            continue
        a[t], a[k] = a[k], a[t]
        top = a[t]
        p = top[j]
        for i in range(cols):
            q = a[i][j]
            if i != t and (q or p != prev):
                a[i] = [(x * p - q * y) // prev for x, y in zip(a[i], top)]
        basis.append(j)
        prev = p
    return basis, prev, a


def _relations_mod(vectors: list[list[int]], d: int) -> list[dict]:
    """Row Hermite basis of ``L = {y : sum_j y_j * vectors[j] = 0 mod d}``,
    one sparse row ``{j: y_j}`` per pivot j, in pivot order.

    L contains d Z^k, so it is computed modulo d (Domich, Kannan and
    Trotter, Math. Oper. Res. 12 (1987); Cohen, *A Course in Computational
    Algebraic Number Theory*, 2.4.2), bottom-up: pivot h_j is the order of
    v_j modulo the span S_j of the vectors after it, kept as an echelon
    basis modulo d.  The pivots multiply to the order of S_0, a divisor of
    d, so at most log2(d) exceed 1.  Those v_j are the wide generators:
    each echelon row carries its coefficients on them in extra columns, and
    every other column of the form is zero off its pivot.  A row costs
    O(r (r + log d)) operations on entries below d."""
    r = len(vectors[0]) if vectors else 0
    ech = [[d * (c == i) for c in range(r + d.bit_length())] for i in range(r)]
    wide: list[int] = []
    rows: list[dict] = [{}] * len(vectors)
    for i in reversed(range(len(vectors))):
        v = [x % d for x in vectors[i]] + [0] * d.bit_length()
        slot = r + len(wide)  # v_i's column, kept if its pivot exceeds 1
        v[slot], h = 1, 1
        for c in range(r):
            b = ech[c]
            q = v[c] // b[c]
            if q:
                v = [(x - q * y) % d for x, y in zip(v, b)]
            if v[c]:
                pivot = b[c]
                while v[c]:
                    q = b[c] // v[c]
                    b, v = v, [(x - q * y) % d for x, y in zip(b, v)]
                ech[c] = b
                h *= pivot // b[c]
        # v is zero, so its coefficients are a relation: +-h on v_i (each
        # column whose pivot shrank scaled that coefficient by +- the
        # factor) and the rest on the wide generators after i.  When h = d
        # the slot reads 0 either way, and the rest reduces to zero below.
        sign = 1 if v[slot] == h % d else -1
        y = {i: h, **{j: sign * x for j, x in zip(wide, v[r:]) if x}}
        for j in reversed(wide):
            q = y.get(j, 0) // rows[j][j]
            if q:
                for m, x in rows[j].items():
                    y[m] = y.get(m, 0) - q * x
        rows[i] = {j: x for j, x in y.items() if x}
        if h > 1:
            wide.append(i)
    return rows


def _basis_kernel(n: int, basis: list[int], p: int, a: list[list[int]]) -> list[IntVector]:
    """Canonical basis K of the left kernel ``{x : x @ rows = 0}`` of n rows
    of any rank, in row Hermite form, from their ``_lex_last_basis``.

    A row is a pivot of K exactly when it depends on the rows after it, so
    K's pivot columns are the rows P outside the lex-last basis B, and its
    rows are (y, -y C) for y in the Hermite basis of ``{y : y C integral}``,
    with C = a / p the coordinates of P's rows in B.  When |p| = 1 that
    lattice is all of Z^|P|, so row j of K is e_j minus row j's coordinates
    in B; with no rows in B (no columns, or only zero rows) that is the
    identity.  Otherwise it is ``_relations_mod`` of p C modulo |p|."""
    rank = len(basis)
    chosen = set(basis)
    free = [j for j in range(n) if j not in chosen]
    if abs(p) > 1:
        relations = _relations_mod([[row[j] for row in a[:rank]] for j in free], abs(p))
    else:
        relations = [{j: 1} for j in range(len(free))]
    kernel = []
    for y in relations:
        x, s = [0] * n, [0] * rank
        for j, v in y.items():
            x[free[j]] = v
            s = [u + v * a[t][free[j]] for t, u in enumerate(s)]
        for b, u in zip(basis, s):
            x[b] = -(u // p)
        kernel.append(tuple(x))
    return kernel


def spanning_lattice(rows, cols: int) -> tuple[IntMatrix, IntMatrix] | None:
    """Row Hermite form H of a matrix of rank ``cols`` and the canonical
    basis K of its left kernel, or ``None`` when the rank is lower.

    One ``_lex_last_basis`` pass gives the lex-last basis B among the rows
    and d = |det B|, and ``_basis_kernel`` gives K from it.  K's pivots
    multiply to the index of B's lattice in the rows', which is d exactly
    when the rows span (H = I); any other H is the plain ``_hermite`` of
    the rows."""
    basis, p, a = _lex_last_basis(rows, cols)
    if len(basis) < cols:
        return None
    kernel = _basis_kernel(len(rows), basis, p, a)
    h = [tuple(int(i == j) for j in range(cols)) for i in range(cols)]
    if abs(p) > 1 and prod(next(filter(None, x)) for x in kernel) != abs(p):
        h = [list(row) for row in rows]
        _hermite(h)
        h = [tuple(row) for row in h[:cols]]
    return (_trusted(IntMatrix, entries=tuple(h), cols=cols),
            _trusted(IntMatrix, entries=tuple(kernel), cols=len(rows)))


def _kernel_columns(rows, cols: int) -> list[IntVector]:
    """Canonical saturated basis of ``{c : rows @ c = 0}``: the left kernel
    of the transpose (``_basis_kernel`` of the columns), which is Z^cols
    when there are no rows."""
    columns = list(zip(*rows)) or [()] * cols
    return _basis_kernel(cols, *_lex_last_basis(columns, len(rows)))


def integer_kernel(a: IntMatrix) -> IntMatrix:
    """Saturated integer basis of ``{c : a @ c = 0}``, as matrix columns:
    ``_kernel_columns`` of a's rows, so repeated runs are bit-identical.
    """
    if _check_type(a, IntMatrix, "integer_kernel: a must be an IntMatrix, got {}").is_empty:
        raise DomainError("integer_kernel requires a nonempty matrix")
    kernel = _kernel_columns(a.entries, a.cols)
    return _trusted(IntMatrix, entries=tuple(kernel), cols=a.cols).transpose()


def inverse_unimodular(a: IntMatrix) -> IntMatrix:
    """Exact inverse of an integer matrix with determinant ±1.

    One Hermite pass over ``[a | I]`` leaves ``[H | T]`` with ``T @ a == H``.
    H has a zero on its diagonal exactly when ``a`` is singular; otherwise
    its pivots multiply to ``|det a|``, so ``a`` is unimodular exactly when
    every pivot is 1, and then T is the inverse.
    """
    _check_type(a, IntMatrix, "inverse_unimodular: a must be an IntMatrix, got {}")
    if a.rows != a.cols:
        raise DomainError("inverse of a non-square matrix")
    n = a.rows
    A = _augmented(a.entries)
    _hermite(A)
    if any(A[i][i] == 0 for i in range(n)):
        raise DomainError("matrix is singular")
    if any(A[i][i] != 1 for i in range(n)):
        raise DomainError("matrix is not unimodular")
    return _trusted(IntMatrix, entries=tuple([tuple(row[n:]) for row in A]), cols=n)
