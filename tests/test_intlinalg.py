"""Exact linear algebra: normal forms, kernels, primitivity, and the
Smith and Hermite forms, the Bareiss rank and determinant and the Hermite
inverse against the slow paths they replaced."""

import random
from fractions import Fraction
from itertools import product
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from oracles import leibniz_det, matmul
from slow_paths import (
    hermite_and_left_kernel,
    slow_bareiss,
    slow_inverse_unimodular,
    slow_lineality_basis,
    slow_rank,
    slow_row_hermite_form,
    slow_smith_normal_form,
    solve_integer,
)
from test_cones_fastpaths import corpus_fans
from toriq import cones, intlinalg
from toriq.cones import (
    HilbertBasis,
    RationalCone,
    dual_cone,
    fan_cone,
    hilbert_basis,
    lineality_basis,
)
from toriq.errors import DomainError
from toriq.intlinalg import (
    IntMatrix,
    _trusted,
    integer_kernel,
    inverse_unimodular,
    primitive,
    smith_normal_form,
    spanning_lattice,
)


def column_hermite_form(a: IntMatrix) -> IntMatrix:
    """Canonical form of the column lattice: the Hermite form of the transpose."""
    return hermite_and_left_kernel(a.transpose())[0].transpose()


matrices = st.integers(1, 6).flatmap(
    lambda m: st.integers(1, 6).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
).map(IntMatrix.from_rows)


def _identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _bareiss_det(a):
    """The determinant as ``_bareiss`` gives it: the signed last pivot at
    full rank, else 0."""
    rank, pivot = intlinalg._bareiss(a.entries, a.cols)
    return pivot if rank == a.cols else 0


def snf_invariants(a):
    u, d, v = smith_normal_form(a)
    assert matmul(matmul(u.entries, a.entries), v.entries) == d.entries
    assert leibniz_det(u.entries) in (1, -1)
    assert leibniz_det(v.entries) in (1, -1)
    diag = [d.entries[i][i] for i in range(min(a.rows, a.cols))]
    for i in range(a.rows):
        for j in range(a.cols):
            if i != j:
                assert d.entries[i][j] == 0
    assert all(x >= 0 for x in diag)
    for x, y in zip(diag, diag[1:]):
        if x == 0:
            assert y == 0
        elif y != 0:
            assert y % x == 0
    return diag


def test_snf_identity():
    i2 = IntMatrix.from_rows(_identity(2))
    u, d, v = smith_normal_form(i2)
    assert d.entries == i2.entries
    assert u.entries == i2.entries
    assert v.entries == i2.entries


def test_snf_diag_2_3():
    diag = snf_invariants(IntMatrix.from_rows([[2, 0], [0, 3]]))
    assert diag == [1, 6]


def test_snf_column_vector():
    a = IntMatrix.from_rows([[1], [1], [1]])
    u, d, v = smith_normal_form(a)
    assert d.column(0) == (1, 0, 0)
    assert matmul(matmul(u.entries, a.entries), v.entries) == d.entries
    assert leibniz_det(u.entries) in (1, -1)


@settings(max_examples=300, deadline=None)
@given(matrices)
def test_snf_random(a):
    snf_invariants(a)


def test_kernel_cp2_rays():
    a = IntMatrix.from_rows([[1, 0, -1], [0, 1, -1]])
    k = integer_kernel(a)
    assert k.cols == 1 and k.column(0) == (1, 1, 1)


def test_kernel_cp1_rays():
    k = integer_kernel(IntMatrix.from_rows([[1, -1]]))
    assert k.cols == 1 and k.column(0) == (1, 1)


def test_kernel_invertible_is_trivial():
    k = integer_kernel(IntMatrix.from_rows([[2, 1], [1, 1]]))
    assert k.cols == 0


@settings(max_examples=200, deadline=None)
@given(matrices)
def test_kernel_columns_annihilated_and_saturated(a):
    k = integer_kernel(a)
    assert k.cols == a.cols - a.rank()
    for j in range(k.cols):
        assert a.mat_vec(k.column(j)) == (0,) * a.rows


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(-3, 3), min_size=3, max_size=3),
            min_size=m,
            max_size=m,
        )
    ).map(IntMatrix.from_rows)
)
def test_kernel_box_completeness(a):
    """Every small integer kernel vector lies in the span of the basis."""
    k = integer_kernel(a)
    zero = (0,) * a.rows
    for c in product(range(-3, 4), repeat=a.cols):
        if a.mat_vec(c) == zero:
            if k.cols == 0:
                assert all(x == 0 for x in c)
            else:
                assert solve_integer(k, c) is not None


def test_kernel_determinism():
    a = IntMatrix.from_rows([[6, 10, 15], [2, 4, 8]])
    assert integer_kernel(a).entries == integer_kernel(a).entries
    assert smith_normal_form(a)[1].entries == smith_normal_form(a)[1].entries


def test_column_hermite_is_canonical_under_column_mixes():
    import random

    rng = random.Random(11)
    base = IntMatrix.from_rows([[1, 0], [1, 0], [0, 1], [-3, 1]])
    h0 = column_hermite_form(base)
    for _ in range(25):
        # random unimodular column mix
        w = [[1, 0], [0, 1]]
        for _ in range(4):
            a, b = rng.sample(range(2), 2)
            q = rng.randint(-3, 3)
            for row in w:
                row[a] += q * row[b]
        assert leibniz_det(w) in (1, -1)
        assert column_hermite_form(IntMatrix.from_rows(matmul(base.entries, w))).entries == h0.entries


def test_primitive_examples():
    assert primitive((2, 4)) == (1, 2)
    assert primitive((1, 0)) == (1, 0)
    assert primitive((-2, -4)) == (-1, -2)
    with pytest.raises(DomainError):
        primitive((0, 0))


def test_smith_rejects_empty():
    with pytest.raises(DomainError):
        smith_normal_form(IntMatrix((), 0))


def test_rejects_floats():
    with pytest.raises(DomainError):
        IntMatrix.from_rows([[1.0, 2]])


@pytest.mark.parametrize("rows, cols", [
    ([[True, 0]], 2),
    ([[1, 2.0]], 2),
    ([[Fraction(1), 2]], 2),
    ([[1, 2], [3]], 2),
    ([[1, 2]], 3),
    ([], -1),
])
def test_public_constructors_validate(rows, cols):
    with pytest.raises(DomainError):
        IntMatrix.from_rows(rows, cols)
    with pytest.raises(DomainError):
        IntMatrix(tuple(tuple(r) for r in rows), cols)


def _assert_plain(m):
    """Equal to, and hashing like, the validated rebuild of its entries."""
    assert type(m.entries) is tuple
    assert all(type(row) is tuple and all(type(x) is int for x in row) for row in m.entries)
    rebuilt = IntMatrix.from_rows(list(map(list, m.entries)), m.cols)
    assert m == rebuilt and hash(m) == hash(rebuilt)


def _assert_plain_cone(c):
    """Equal to, hashing and printing like the validated rebuild of its
    generators, whatever lineality basis it carries."""
    _assert_plain(_trusted(IntMatrix, entries=c.generators, cols=c.ambient_rank))
    rebuilt = RationalCone.from_generators(c.ambient_rank, list(map(list, c.generators)))
    assert c == rebuilt and hash(c) == hash(rebuilt) and repr(c) == repr(rebuilt)


def _quotient_cones(cone):
    """The cones ``hilbert_basis(cone)`` recurses on: the body runs
    uncached, and each recursive call records its cone and stops there."""
    quotients = []
    if lineality_basis(cone):
        body = hilbert_basis.__wrapped__
        with patch.object(cones, "hilbert_basis",
                          lambda q: quotients.append(q) or HilbertBasis(q, ())):
            body(cone)
    return quotients


@settings(max_examples=100, deadline=None)
@given(matrices)
def test_internal_results_match_validated_rebuilds(a):
    u, d, v = smith_normal_form(a)
    for m in (u, d, v, integer_kernel(a), a.transpose(), *(spanning_lattice(a.entries, a.cols) or ())):
        _assert_plain(m)
    gens = [row for row in a.entries if any(row)]
    cone = RationalCone.from_generators(a.cols, gens)
    _assert_plain(_trusted(IntMatrix, entries=cone.generators, cols=cone.ambient_rank))
    dual = dual_cone(cone)
    _assert_plain_cone(dual)
    for q in _quotient_cones(cone) + _quotient_cones(dual):
        _assert_plain_cone(q)
        assert lineality_basis(q) == slow_lineality_basis(q) == []


def test_fan_cones_match_validated_rebuilds():
    """``fan_cone`` builds trusted, carrying an empty lineality: every cone
    of the corpus fans is pointed and its rays are primitive."""
    for fan in corpus_fans():
        for indices in fan.cones():
            cone = fan_cone(fan, indices)
            _assert_plain_cone(cone)
            assert lineality_basis(cone) == slow_lineality_basis(cone) == []


def test_solve_integer():
    a = IntMatrix.from_rows([[2, 0], [0, 3]])
    assert solve_integer(a, (4, 9)) == (2, 3)
    assert solve_integer(a, (1, 0)) is None


@settings(max_examples=300, deadline=None)
@given(matrices)
def test_rank_and_det_match_oracles(a):
    assert a.rank() == slow_rank(a)
    if a.rows == a.cols:
        assert _bareiss_det(a) == leibniz_det(a.entries)


def test_rank_and_det_of_products_and_empty_shapes():
    """Products through an inner dimension k have rank at most k, so these
    include rank-deficient and zero matrices of every shape up to 6 x 6."""
    rng = random.Random(5)
    for _ in range(400):
        m, n, k = rng.randint(1, 6), rng.randint(1, 6), rng.randint(0, 6)
        left = IntMatrix.from_rows(
            [[rng.randint(-5, 5) for _ in range(k)] for _ in range(m)], k
        )
        right = IntMatrix.from_rows(
            [[rng.randint(-5, 5) for _ in range(n)] for _ in range(k)], n
        )
        a = IntMatrix.from_rows(matmul(left.entries, right.entries, n), n)
        assert a.rank() == slow_rank(a) <= k
        if m == n:
            assert _bareiss_det(a) == leibniz_det(a.entries)
    for rows in (0, 1, 3):
        assert IntMatrix(((),) * rows, 0).rank() == 0
    assert IntMatrix((), 3).rank() == 0
    assert _bareiss_det(IntMatrix((), 0)) == 1


def test_bareiss_matches_slow_path_on_random_matrices():
    """Rank and signed last pivot against the elimination from before the
    closed form, on seeded k x n matrices with 1 <= k, n <= 5 and entries
    in [-3, 3]: singular ones, and leading zeros that force a row swap.
    The input rows are left as they were."""
    rng = random.Random(2026)
    swapped = singular = square = 0
    for _ in range(3000):
        k, n = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        if rng.random() < 0.3:
            rows[0][0] = 0
        before = [row[:] for row in rows]
        rank, pivot = intlinalg._bareiss(rows, n)
        assert (rank, pivot) == slow_bareiss(before, n), before
        assert rows == before
        swapped += rows[0][0] == 0 and any(row[0] for row in rows[1:])
        singular += rank < min(k, n)
        square += k == n and rank == n
    assert swapped > 100 and singular > 50 and square > 100


def test_bareiss_on_every_small_2x2_and_3x3():
    """Every 2 x 2 with entries in [-2, 2] and every 3 x 3 with entries in
    [-1, 1]: the nonsingular ones return (n, det) from the cofactor formula,
    and the singular ones fall through to the elimination."""
    singular = 0
    for n, box in ((2, range(-2, 3)), (3, range(-1, 2))):
        for entries in product(box, repeat=n * n):
            rows = [entries[i:i + n] for i in range(0, n * n, n)]
            got = intlinalg._bareiss(rows, n)
            assert got == slow_bareiss(rows, n), rows
            det = leibniz_det(rows)
            assert got[1] == det if det else got[0] < n, rows
            singular += not det
    assert singular > 5000


def test_bareiss_on_small_4x4():
    """20,000 seeded 4 x 4s with entries in {0, 1}, {-1, 0, 1} or [-2, 2]
    (one box per matrix, so that over a third are singular), some with a
    zero leading entry: the nonsingular ones return (4, det) from the
    Laplace expansion, and the singular ones fall through to the
    elimination.  (Every {0, 1} matrix, 65,536 of them, takes over 3 s
    against the n! oracle.)"""
    rng = random.Random(4404)
    boxes = [(0, 1), (-1, 0, 1), (-2, -1, 0, 1, 2)]
    singular = 0
    for _ in range(20_000):
        box = rng.choice(boxes)
        rows = [[rng.choice(box) for _ in range(4)] for _ in range(4)]
        if rng.random() < 0.3:
            rows[0][0] = 0
        got = intlinalg._bareiss(rows, 4)
        det = leibniz_det(rows)
        assert got == ((4, det) if det else slow_bareiss(rows, 4)), rows
        singular += not det
    assert singular >= 5000


def test_bareiss_on_large_4x4():
    """Seeded 4 x 4s with entries past 2^64, a third with a zero leading
    entry and a quarter made singular by a repeated combination of rows:
    (4, det) when nonsingular, else the elimination's pair, and the input
    rows left as they were."""
    rng = random.Random(4444)
    singular = leading_zero = 0
    for _ in range(500):
        bound = 1 << rng.choice([8, 65, 100, 200])
        rows = [[rng.randint(-bound, bound) for _ in range(4)] for _ in range(4)]
        if rng.random() < 0.34:
            rows[0][0] = 0
            leading_zero += 1
        if rng.random() < 0.25:
            i, j, k = rng.sample(range(4), 3)
            q = rng.randint(-bound, bound)
            rows[k] = [x + q * y for x, y in zip(rows[i], rows[j])]
        before = [row[:] for row in rows]
        got = intlinalg._bareiss(rows, 4)
        assert rows == before
        det = leibniz_det(before)
        assert got == ((4, det) if det else slow_bareiss(before, 4)), before
        singular += not det
    assert singular > 50 and leading_zero > 100


def _random_matrices(rng, count):
    """Shapes up to 6 x 6 with entries up to +-100; every third matrix is a
    product through a smaller inner dimension (rank-deficient), and some
    rows and columns are zeroed."""
    out = []
    for index in range(count):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        bound = rng.choice([1, 3, 9, 100])
        rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)]
        if index % 3 == 0:
            k = rng.randint(0, min(m, n) - 1)
            left = IntMatrix.from_rows([r[:k] for r in rows], k)
            right = IntMatrix.from_rows(
                [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(k)], n
            )
            rows = [list(r) for r in matmul(left.entries, right.entries, n)]
        if index % 4 == 0:
            rows[rng.randrange(m)] = [0] * n
        if index % 5 == 0:
            j = rng.randrange(n)
            for row in rows:
                row[j] = 0
        out.append(IntMatrix.from_rows(rows, n))
    return out


def _fiber_rank_inputs(monkeypatch):
    """Every Smith-form and unimodular-inverse input met while computing the
    Hilbert bases behind all fiber ranks of the corpus fans (those of the
    duals of their cones) from empty caches."""
    smith_inputs, inverse_inputs = [], []

    def recording(record, f):
        return lambda a: record.append(a) or f(a)

    for module in (intlinalg, cones):
        monkeypatch.setattr(module, "smith_normal_form",
                            recording(smith_inputs, module.smith_normal_form))
    monkeypatch.setattr(cones, "inverse_unimodular",
                        recording(inverse_inputs, cones.inverse_unimodular))
    dual_cone.cache_clear()
    hilbert_basis.cache_clear()
    for fan in corpus_fans():
        for indices in fan.cones():
            hilbert_basis(dual_cone(fan_cone(fan, indices)))
    return smith_inputs, inverse_inputs


def test_normal_forms_match_slow_paths(monkeypatch):
    """Smith forms built on ``_clear_column`` against the three-loop
    elimination they replaced, factor for factor, and Hermite forms against
    the stand-alone Hermite loop."""
    random_inputs = _random_matrices(random.Random(17), 3000)
    smith_inputs, inverse_inputs = _fiber_rank_inputs(monkeypatch)
    assert sum(a.rank() < min(a.rows, a.cols) for a in random_inputs) >= 1000
    assert len(smith_inputs) >= 400 and len(inverse_inputs) >= 200
    for a in random_inputs + smith_inputs:
        assert smith_normal_form(a) == slow_smith_normal_form(a), a
        assert hermite_and_left_kernel(a)[0] == slow_row_hermite_form(a), a
    for a in inverse_inputs:
        assert inverse_unimodular(a) == slow_inverse_unimodular(a), a
    for a in (IntMatrix((), 3), IntMatrix(((),) * 3, 0), IntMatrix((), 0)):
        assert hermite_and_left_kernel(a)[0] == slow_row_hermite_form(a)


def _random_unimodular(rng, n):
    """A product of elementary row operations: swaps, negations and
    additions of a multiple of one row to another."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(4 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        op = rng.randrange(3)
        if op == 0:
            rows[i], rows[j] = rows[j], rows[i]
        elif op == 1 or i == j:
            rows[i] = [-x for x in rows[i]]
        else:
            q = rng.randint(-4, 4)
            rows[i] = [x + q * y for x, y in zip(rows[i], rows[j])]
    return IntMatrix.from_rows(rows, n)


def _inverse_or_error(inverse, a):
    try:
        return inverse(a).entries
    except DomainError as exc:
        return str(exc)


def test_inverse_unimodular():
    a = IntMatrix.from_rows([[1, 2], [0, 1]])
    assert matmul(inverse_unimodular(a).entries, a.entries) == _identity(2)
    with pytest.raises(DomainError, match="matrix is not unimodular"):
        inverse_unimodular(IntMatrix.from_rows([[2, 0], [0, 1]]))
    with pytest.raises(DomainError, match="matrix is singular"):
        inverse_unimodular(IntMatrix.from_rows([[1, 2], [2, 4]]))
    with pytest.raises(DomainError, match="inverse of a non-square matrix"):
        inverse_unimodular(IntMatrix.from_rows([[1, 0, 0], [0, 1, 0]]))
    with pytest.raises(DomainError, match="inverse of a non-square matrix"):
        inverse_unimodular(IntMatrix((), 2))
    empty = inverse_unimodular(IntMatrix((), 0))
    assert (empty.entries, empty.cols) == ((), 0)
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randint(1, 5)
        a = _random_unimodular(rng, n)
        inv = inverse_unimodular(a)
        assert matmul(inv.entries, a.entries) == matmul(a.entries, inv.entries) == _identity(n)
        assert inv.entries == slow_inverse_unimodular(a).entries
    # random square matrices: the same inverse or the same error message
    for _ in range(300):
        n = rng.randint(1, 4)
        a = IntMatrix.from_rows([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        assert _inverse_or_error(inverse_unimodular, a) == _inverse_or_error(
            slow_inverse_unimodular, a
        )
