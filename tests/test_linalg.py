import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratelessnc.field import get_field
from ratelessnc.linalg import (
    IncrementalReducer,
    SolveStatus,
    _gauss_jordan,
    devectorize,
    extend_rref,
    eye,
    rank,
    rref_with_transform,
    solve_exact,
    solve_in_row_space,
    vandermonde,
    vectorize,
    zeros,
)
from solve_reference import full_solve, gauss_jordan, independent_row_indices


@pytest.fixture(scope="module")
def gf7():
    return get_field("prime7")


@pytest.fixture(scope="module")
def gf251():
    return get_field("prime251")


@pytest.fixture(scope="module")
def gf16():
    return get_field("gf2_16")


# determinant by cofactor expansion: independent rank oracle for small cases
def det_oracle(field, a):
    n = a.shape[0]
    if n == 1:
        return int(a[0, 0])
    total = 0
    for j in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        term = field.mul(int(a[0, j]), det_oracle(field, minor))
        total = field.add(total, term) if j % 2 == 0 else field.sub(total, term)
    return int(total)


def rank_minor_oracle(field, a):
    rows, cols = a.shape
    for k in range(min(rows, cols), 0, -1):
        for ri in itertools.combinations(range(rows), k):
            for ci in itertools.combinations(range(cols), k):
                if det_oracle(field, a[np.ix_(ri, ci)]) != 0:
                    return k
    return 0


# -- Field.matmul -----------------------------------------------------------

def test_matmul_gf7_example(gf7):
    a = np.array([[1, 2], [3, 4]])
    b = np.array([[5], [6]])
    assert np.array_equal(gf7.matmul(a, b), np.array([[3], [4]]))


def test_matmul_identity(gf16):
    rng = np.random.default_rng(0)
    a = gf16.sample(rng, (5, 7))
    assert np.array_equal(gf16.matmul(a, eye(7)), a)
    assert np.array_equal(gf16.matmul(eye(5), a), a)


def test_matmul_associative(gf251, gf16):
    rng = np.random.default_rng(1)
    for f in (gf251, gf16):
        a = f.sample(rng, (4, 6))
        b = f.sample(rng, (6, 3))
        c = f.sample(rng, (3, 5))
        assert np.array_equal(f.matmul(f.matmul(a, b), c),
                              f.matmul(a, f.matmul(b, c)))


def test_matmul_dimension_mismatch(gf7):
    with pytest.raises(ValueError):
        gf7.matmul(zeros(2, 3), zeros(2, 3))


def test_matmul_empty_inner(gf16):
    out = gf16.matmul(zeros(3, 0), zeros(0, 4))
    assert out.shape == (3, 4) and not out.any()


# -- rref -------------------------------------------------------------------

def test_rref_identity(gf7):
    rr = rref_with_transform(gf7, eye(4))
    assert np.array_equal(rr.reduced, eye(4))
    assert rr.rank == 4 and rr.pivot_cols == [0, 1, 2, 3]


def test_rref_zero_matrix(gf7):
    rr = rref_with_transform(gf7, zeros(3, 5))
    assert rr.rank == 0
    assert np.array_equal(rr.transform, eye(3))


def test_rref_rank_of_product_construction(gf251, gf16):
    rng = np.random.default_rng(2)
    for f in (gf251, gf16):
        a = f.matmul(f.sample(rng, (8, 3)), f.sample(rng, (3, 5)))
        assert rank(f, a) == 3


def test_rank_matches_minor_oracle(gf7):
    rng = np.random.default_rng(3)
    for _ in range(25):
        rows, cols = rng.integers(1, 5, size=2)
        a = gf7.sample(rng, (int(rows), int(cols)))
        assert rank(gf7, a) == rank_minor_oracle(gf7, a)


def test_rref_transform_is_invertible(gf251):
    rng = np.random.default_rng(4)
    for _ in range(10):
        a = gf251.sample(rng, (6, 4))
        rr = rref_with_transform(gf251, a)
        assert rank(gf251, rr.transform) == 6
        assert np.array_equal(gf251.matmul(rr.transform, a), rr.reduced)


def test_rank_product_bound(gf16):
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = gf16.sample(rng, (5, 4))
        b = gf16.sample(rng, (4, 6))
        assert rank(gf16, gf16.matmul(a, b)) <= min(rank(gf16, a), rank(gf16, b))


def test_independent_row_indices(gf7):
    a = np.array([[1, 2, 3], [2, 4, 6], [0, 1, 1]])  # row 1 = 2 * row 0
    idx = independent_row_indices(gf7, a)
    assert idx == [0, 2]


# -- solve ------------------------------------------------------------------

def test_solve_in_row_space_identity(gf7):
    dm = gf7.sample(np.random.default_rng(6), (4, 9))
    out = solve_in_row_space(gf7, eye(4), dm, dm)
    assert out.status is SolveStatus.UNIQUE
    assert np.array_equal(out.solution, eye(4))


def test_solve_in_row_space_no_solution(gf251):
    f = gf251
    rng = np.random.default_rng(7)
    y = f.sample(rng, (3, 6))
    dm = f.sample(rng, (6, 8))
    h = f.matmul(f.sample(rng, (2, 3)), f.matmul(y, dm))
    h = f.add(h, np.where(np.arange(8) == 0, 1, 0)[None, :])  # break consistency
    out = solve_in_row_space(f, y, dm, h)
    assert out.status is SolveStatus.NO_SOLUTION


def test_solve_in_row_space_multiple_when_hash_too_narrow(gf251):
    # full-rank observations but a single hash column cannot pin the
    # combination: several recovered products satisfy the system
    f = gf251
    rng = np.random.default_rng(8)
    y = f.sample(rng, (3, 5))
    dm = f.sample(rng, (5, 1))
    x_true = f.sample(rng, (2, 3))
    h = f.matmul(x_true, f.matmul(y, dm))
    out = solve_in_row_space(f, y, dm, h)
    assert out.status is SolveStatus.MULTIPLE
    # exhibit two distinct solutions of the underlying system
    g = f.matmul(y, dm)
    s1 = np.array([[int(f.mul(h[0, 0], f.inv(g[0, 0]))), 0, 0],
                   [0, int(f.mul(h[1, 0], f.inv(g[1, 0]))), 0]])
    s2 = np.array([[0, 0, int(f.mul(h[0, 0], f.inv(g[2, 0])))],
                   [int(f.mul(h[1, 0], f.inv(g[0, 0]))), 0, 0]])
    for s in (s1, s2):
        assert np.array_equal(f.matmul(s, g), h)
    assert not np.array_equal(f.matmul(s1, y), f.matmul(s2, y))


def test_solve_in_row_space_unique_with_redundant_rows(gf251):
    # duplicated observations leave the recovered product unique even
    # though the combination matrix itself is not
    f = gf251
    rng = np.random.default_rng(9)
    x0 = f.sample(rng, (2, 6))
    y = np.vstack([x0, x0[0:1]])
    dm = vandermonde(f, f.sample(rng, 13), 6)
    h = f.matmul(x0, dm)
    out = solve_in_row_space(f, y, dm, h)
    assert out.status is SolveStatus.UNIQUE
    assert np.array_equal(f.matmul(out.solution, y), x0)


def test_solve_unique_satisfies_system_exactly(gf16):
    f = gf16
    rng = np.random.default_rng(10)
    y = f.sample(rng, (4, 8))
    dm = vandermonde(f, f.sample(rng, 20), 8)
    xs_true = f.sample(rng, (3, 4))
    h = f.matmul(xs_true, f.matmul(y, dm))
    out = solve_in_row_space(f, y, dm, h)
    assert out.status is SolveStatus.UNIQUE
    assert np.array_equal(f.matmul(out.solution, f.matmul(y, dm)), h)


def test_solve_exact_statuses(gf7):
    a = np.array([[1, 0], [0, 1], [1, 1]])
    assert solve_exact(gf7, a, np.array([2, 3, 5])).status is SolveStatus.UNIQUE
    assert solve_exact(gf7, a, np.array([2, 3, 6])).status is SolveStatus.NO_SOLUTION
    wide = np.array([[1, 2, 3]])
    assert solve_exact(gf7, wide, np.array([4])).status is SolveStatus.MULTIPLE


def _agrees_with_full_solve(field, a, rhs):
    """solve_exact matches the full elimination and leaves its inputs alone."""
    a_in, rhs_in = a.copy(), rhs.copy()
    out = solve_exact(field, a, rhs)
    assert np.array_equal(a, a_in) and np.array_equal(rhs, rhs_in)
    ref = full_solve(field, a, rhs)
    assert out.status is ref.status
    if ref.status is SolveStatus.UNIQUE:
        assert out.solution.shape == ref.solution.shape
        assert np.array_equal(out.solution, ref.solution)
    return out


@st.composite
def _linear_system(draw):
    field = get_field(draw(st.sampled_from(["prime7", "gf2_4", "gf2_16"])))
    shape = draw(st.sampled_from(["tall", "square", "wide"]))
    cols = draw(st.integers(1 if shape == "wide" else 0, 6))
    if shape == "tall":
        rows = draw(st.integers(cols + 1, 8 * cols + 4))
    else:
        rows = cols if shape == "square" else draw(st.integers(0, cols - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        k = draw(st.integers(0, min(rows, cols)))  # low rank: a product of thin factors
        a = field.matmul(field.sample(rng, (rows, k)), field.sample(rng, (k, cols)))
    else:
        a = field.sample(rng, (rows, cols))
    width = draw(st.integers(1, 3))
    rhs = field.matmul(a, field.sample(rng, (cols, width)))
    kind = draw(st.sampled_from(["consistent", "one-row-off", "random"]))
    if kind == "one-row-off" and rows:
        i = draw(st.integers(0, rows - 1))
        rhs[i] = field.add(rhs[i], 1)
    elif kind == "random":
        rhs = field.sample(rng, (rows, width))
    return field, a, rhs[:, 0] if draw(st.booleans()) else rhs


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_linear_system())
def test_solve_exact_agrees_with_full_elimination(system):
    _agrees_with_full_solve(*system)


def test_solve_exact_inconsistent_row_below_leading_block(gf16):
    rng = np.random.default_rng(31)
    a = gf16.sample(rng, (20, 3))
    rhs = gf16.matmul(a, gf16.sample(rng, (3, 2)))
    rhs[15, 1] = gf16.add(rhs[15, 1], 1)  # the leading cols + 1 = 4 rows are consistent
    assert _agrees_with_full_solve(gf16, a, rhs).status is SolveStatus.NO_SOLUTION


def test_solve_exact_grows_a_rank_deficient_leading_block(gf16):
    rng = np.random.default_rng(32)
    a = gf16.sample(rng, (30, 3))
    a[:10] = gf16.matmul(gf16.sample(rng, (10, 1)), gf16.sample(rng, (1, 3)))
    rhs = gf16.matmul(a, gf16.sample(rng, (3, 1)))[:, 0]
    assert rank(gf16, a[:6]) == 1
    assert _agrees_with_full_solve(gf16, a, rhs).status is SolveStatus.UNIQUE


def test_solve_exact_empty_and_short_systems(gf7):
    rng = np.random.default_rng(33)
    cases = {
        (0, 3, 0): SolveStatus.MULTIPLE,
        (0, 0, 0): SolveStatus.UNIQUE,
        (4, 0, 0): SolveStatus.UNIQUE,
        (4, 0, 1): SolveStatus.NO_SOLUTION,
    }
    for (rows, cols, rhs_value), status in cases.items():
        rhs = np.full((rows, 2), rhs_value, dtype=np.int64)
        assert _agrees_with_full_solve(gf7, zeros(rows, cols), rhs).status is status
    # rows <= cols + 1: the leading block is every row
    a = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])
    x = gf7.sample(rng, 3)
    assert _agrees_with_full_solve(gf7, a, gf7.matmul(a, x[:, None])[:, 0]).status is SolveStatus.UNIQUE
    assert _agrees_with_full_solve(gf7, a[:2], x[:2]).status is SolveStatus.MULTIPLE


# -- the elimination kernel ---------------------------------------------------

@st.composite
def _elimination(draw):
    field = get_field(draw(st.sampled_from(["prime7", "gf2_4", "gf2_16"])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = draw(st.integers(0, 7))
    width = draw(st.integers(0, 12))
    k = draw(st.integers(0, min(rows, width)))  # rank at most k: zero rows are left over
    work = field.matmul(field.sample(rng, (rows, k)), field.sample(rng, (k, width)))
    # runs of all-zero columns before, between and after the pivots
    work[:, np.array(draw(st.lists(st.booleans(), min_size=width, max_size=width)),
                     dtype=bool)] = 0
    # scattered zeros put pivots below the next pivot row: row swaps
    work[rng.random(work.shape) < draw(st.sampled_from([0.0, 0.3, 0.7]))] = 0
    if draw(st.booleans()):
        work = np.asfortranarray(work)  # pivot steps on strided rows
    return field, work, draw(st.integers(0, width))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_elimination())
def test_gauss_jordan_matches_reference_elimination(case):
    field, work, pivot_limit = case
    ref = work.copy()
    ref_pivots = gauss_jordan(field, ref, pivot_limit)
    assert _gauss_jordan(field, work, pivot_limit) == ref_pivots
    assert work.dtype == np.int64 and np.array_equal(work, ref)


def test_gauss_jordan_edge_cases(gf7):
    # zero matrices, no rows, a zero pivot limit, a jump over empty columns
    # to a pivot that needs a row swap and a scaling, augmented columns
    assert _gauss_jordan(gf7, zeros(3, 4), 4) == []
    assert _gauss_jordan(gf7, zeros(0, 4), 4) == []
    work = np.array([[1, 2], [3, 4]])
    assert _gauss_jordan(gf7, work, 0) == [] and np.array_equal(work, [[1, 2], [3, 4]])
    work = np.array([[0, 0, 0, 0, 5], [0, 0, 3, 1, 2], [0, 0, 6, 2, 4]])
    assert _gauss_jordan(gf7, work, 4) == [2]
    assert np.array_equal(work, [[0, 0, 1, 5, 3], [0, 0, 0, 0, 5], [0, 0, 0, 0, 0]])


# -- extend_rref ----------------------------------------------------------------

@st.composite
def _rref_extension(draw):
    field = get_field(draw(st.sampled_from(["prime7", "gf2_4", "gf2_16"])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    width = draw(st.integers(0, 9))
    # the kept basis: the reduced form of a product of thin factors
    k = draw(st.integers(0, width))
    base = field.matmul(field.sample(rng, (draw(st.integers(0, 6)), k)),
                        field.sample(rng, (k, width)))
    pivots = _gauss_jordan(field, base, width)
    rref = base[: len(pivots)]
    u = draw(st.integers(0, 6))
    kind = draw(st.sampled_from(["random", "low rank", "in the span", "zero", "mixed"]))
    if kind == "random":
        rows = field.sample(rng, (u, width))
    elif kind == "low rank":  # dependent among themselves
        j = draw(st.integers(0, u))
        rows = field.matmul(field.sample(rng, (u, j)), field.sample(rng, (j, width)))
    elif kind == "in the span":  # adds nothing to the basis
        rows = field.matmul(field.sample(rng, (u, len(pivots))), rref)
    elif kind == "zero":
        rows = zeros(u, width)
    else:  # span rows, zero rows and new rows interleaved
        rows = field.matmul(field.sample(rng, (u, len(pivots))), rref)
        picks = rng.integers(0, 3, size=u)
        rows[picks == 1] = 0
        rows[picks == 2] = field.sample(rng, (int((picks == 2).sum()), width))
    return field, rref, pivots, rows


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_rref_extension())
def test_extend_rref_equals_batch_elimination(case):
    f, rref, pivots, rows = case
    before = rref.copy(), list(pivots), rows.copy()
    out, out_pivots = extend_rref(f, rref, pivots, rows)
    batch = np.vstack([rref, rows])
    batch_pivots = _gauss_jordan(f, batch, batch.shape[1])
    assert out_pivots == batch_pivots
    assert out.dtype == np.int64 and np.array_equal(out, batch[: len(batch_pivots)])
    assert len(out_pivots) - len(pivots) <= rows.shape[0]
    assert np.array_equal(rref, before[0]) and pivots == before[1]
    assert np.array_equal(rows, before[2])


def test_extend_rref_edge_cases(gf7):
    # empty basis, no new rows, rows that add nothing, a pivot landing left
    # of every kept one, a new pivot cleared from a kept row
    rows = np.array([[0, 2, 4, 1], [0, 1, 2, 3], [0, 0, 0, 0]])
    out, piv = extend_rref(gf7, zeros(0, 4), [], rows)
    assert piv == [1, 3] and np.array_equal(out, [[0, 1, 2, 0], [0, 0, 0, 1]])
    assert extend_rref(gf7, out, piv, zeros(0, 4))[1] == [1, 3]
    same, same_piv = extend_rref(gf7, out, piv, gf7.matmul(np.array([[3, 5]]), out))
    assert same_piv == [1, 3] and np.array_equal(same, out)
    grown, grown_piv = extend_rref(gf7, out, piv, np.array([[1, 1, 1, 1]]))
    assert grown_piv == [0, 1, 3]
    assert np.array_equal(grown, [[1, 0, 6, 0], [0, 1, 2, 0], [0, 0, 0, 1]])
    back, back_piv = extend_rref(gf7, np.array([[1, 2, 0]]), [0], np.array([[0, 1, 1]]))
    assert back_piv == [0, 1] and np.array_equal(back, [[1, 0, 5], [0, 1, 1]])


# -- vandermonde / vectorize --------------------------------------------------

def test_vandermonde_gf7_point_two(gf7):
    assert np.array_equal(vandermonde(gf7, [2], 3).ravel(), [2, 4, 1])


def test_vandermonde_repeated_ones(gf7):
    v = vandermonde(gf7, [1, 1], 4)
    assert np.array_equal(v, np.ones((4, 2), dtype=np.int64))


def _vandermonde_loop(field, points, num_rows):
    points = np.asarray(points, dtype=np.int64)
    out = np.empty((num_rows, points.size), dtype=np.int64)
    row = points.copy()
    out[0] = row
    for k in range(1, num_rows):
        row = field.mul(row, points)
        out[k] = row
    return out


@pytest.mark.parametrize("name", ["prime7", "gf2_4", "gf2_16"])
@pytest.mark.parametrize("num_rows", [1, 2, 3, 48, 64, 65])
def test_vandermonde_doubling_matches_row_by_row(name, num_rows):
    f = get_field(name)
    rng = np.random.default_rng([42, num_rows, f.q])
    points = np.concatenate([[0, 1, 0], f.sample(rng, 9)])
    assert np.array_equal(vandermonde(f, points, num_rows),
                          _vandermonde_loop(f, points, num_rows))
    assert vandermonde(f, points[:0], num_rows).shape == (num_rows, 0)


def test_vandermonde_distinct_points_full_rank(gf251):
    rng = np.random.default_rng(11)
    pts = rng.choice(np.arange(1, 251), size=6, replace=False)
    assert rank(gf251, vandermonde(gf251, pts, 6)) == 6
    assert rank(gf251, vandermonde(gf251, pts, 9)) == 6


def test_vectorize_example():
    m = np.array([[1, 2], [3, 4]])
    assert np.array_equal(vectorize(m), [1, 3, 2, 4])
    assert np.array_equal(devectorize(vectorize(m), 2, 2), m)


def test_vectorize_row(gf7):
    row = np.array([[5, 6, 7]])
    assert np.array_equal(vectorize(row), row.T.ravel())


def test_devectorize_roundtrip(gf16):
    rng = np.random.default_rng(12)
    m = gf16.sample(rng, (3, 5))
    assert np.array_equal(devectorize(vectorize(m), 3, 5), m)


# -- incremental reducer ------------------------------------------------------

def _random_growth(field, rng, n_stages=3, max_dim=40):
    """Random bordered-growth sequence; initial block tall enough that the
    incremental path is usually taken."""
    s = int(rng.integers(2, 8))
    p = s + int(rng.integers(0, 6))
    blocks = [(field.sample(rng, (p, s)), None, None)]
    for _ in range(n_stages - 1):
        t = int(rng.integers(1, 6))
        u = t + int(rng.integers(0, 6))
        if p + u > max_dim or s + t > max_dim:
            break
        blocks.append((field.sample(rng, (p, t)), field.sample(rng, (u, s)),
                       field.sample(rng, (u, t))))
        p, s = p + u, s + t
    return blocks


def test_incremental_identity_corner_extends_trivially(gf251):
    f = gf251
    rng = np.random.default_rng(13)
    a = f.sample(rng, (5, 3))
    red = IncrementalReducer(f, a)
    base = red.result()
    red.update(zeros(5, 4), zeros(4, 3), eye(4))
    assert red.rank == base.rank + 4
    assert red.verify()


def test_incremental_decoupled_blocks_give_split_transform(gf251):
    f = gf251
    rng = np.random.default_rng(14)
    a = f.sample(rng, (4, 4))
    red = IncrementalReducer(f, a)
    d = f.sample(rng, (3, 3))
    red.update(zeros(4, 3), zeros(3, 4), d)
    assert red.verify()
    # decoupled blocks: every transform row mixes only old rows or only new
    old = red.transform[:, :4]
    new = red.transform[:, 4:]
    for r in range(7):
        assert not (old[r].any() and new[r].any())


def test_incremental_matches_batch_on_random_growth(gf251):
    f = gf251
    rng = np.random.default_rng(15)
    incremental_used = 0
    for _ in range(30):
        blocks = _random_growth(f, rng)
        red = IncrementalReducer(f, blocks[0][0])
        for c, b, d in blocks[1:]:
            red.update(c, b, d)
        assert red.verify()
        incremental_used += red.incremental_updates
    assert incremental_used > 0


def test_incremental_rhs_tracks_transform(gf251):
    f = gf251
    rng = np.random.default_rng(16)
    for _ in range(10):
        blocks = _random_growth(f, rng)
        a0 = blocks[0][0]
        rhs = f.sample(rng, (a0.shape[0], 2))
        red = IncrementalReducer(f, a0, rhs=rhs)
        rhs_full = rhs
        for c, b, d in blocks[1:]:
            new_rows = f.sample(rng, (b.shape[0], 2))
            red.update(c, b, d, rhs_rows=new_rows)
            rhs_full = np.vstack([rhs_full, new_rows])
        assert red.verify()
        assert np.array_equal(red.reduced_rhs, f.matmul(red.transform, rhs_full))


def test_incremental_fallback_still_correct(gf251):
    # rank-deficient accumulated matrix forces the batch fallback
    f = gf251
    rng = np.random.default_rng(17)
    a = f.matmul(f.sample(rng, (6, 2)), f.sample(rng, (2, 4)))  # rank 2 < 4 cols
    red = IncrementalReducer(f, a)
    red.update(f.sample(rng, (6, 2)), f.sample(rng, (3, 4)), f.sample(rng, (3, 2)))
    assert red.fallback_count >= 1
    assert red.verify()


def test_incremental_solves_growing_system(gf16):
    # rhs rows are fixed once emitted (as hash columns are), so the system
    # only becomes consistent when enough columns have arrived; the rolling
    # reduction then recovers the planted solution
    f = gf16
    rng = np.random.default_rng(18)
    x_true = f.sample(rng, (9, 1))
    a_full = f.sample(rng, (13, 9))
    rhs_full = f.matmul(a_full, x_true)
    red = IncrementalReducer(f, a_full[:6, :5], rhs=rhs_full[:6])
    splits = [(6, 5), (9, 7), (13, 9)]
    for (p, s), (p2, s2) in zip(splits, splits[1:]):
        red.update(a_full[:p, s:s2], a_full[p:p2, :s], a_full[p:p2, s:s2],
                   rhs_rows=rhs_full[p:p2])
    assert red.verify()
    assert red.rank == 9
    assert not np.any(red.reduced_rhs[red.rank:])
    x_rec = zeros(9, 1)
    x_rec[red.pivot_cols] = red.reduced_rhs[: red.rank]
    assert np.array_equal(x_rec, x_true)


def test_incremental_rejects_nonconforming_blocks(gf7):
    red = IncrementalReducer(gf7, eye(3))
    with pytest.raises(ValueError):
        red.update(zeros(2, 1), zeros(1, 3), zeros(1, 1))
