"""Dense exact linear algebra over a configured finite field.

Matrices are 2-D numpy int64 arrays of field elements; every routine takes
the field object first, mirroring how the arithmetic is dispatched (products
are ``Field.matmul``, pivots ``Field.pivot_step``).  Every elimination is
``_gauss_jordan``, which jumps over columns that hold no pivot instead of
visiting them one at a time.

``_gauss_jordan``, ``rank``, ``extend_rref``, ``solve_exact``,
``vandermonde`` and the (de)vectorization helpers also take stacks: a
leading batch axis of independent matrices of one shape, which are
eliminated together, one ``pivot_step`` per pivot for the whole stack.
Every matrix of a stack must take the same branches: the same pivot
columns (each swaps rows on its own), the same ``solve_exact`` rounds and
status.  Each such branch is taken through ``agree``, which raises
``Stray`` marking the matrices that would branch otherwise, before any of
them does; the caller leaves the shared path (``harness.run_experiment``
re-runs the batch's sessions one at a time).  Pivot lists, ranks and
statuses are then one per stack.
Column and row picks that feed a product are ``np.take(x, idx,
axis=...)``, not ``x[..., idx]``: a list index after ``...`` puts the
picked axis outermost in memory and the batch axis innermost, and
products over such strides run up to three times slower, while ``np.take``
returns C order with the batch axis outermost.  A 2-D matrix takes the
same code.
This module provides:

* ``extend_rref`` -- grow a reduced row echelon form by a block of new
  rows, which is how both sinks keep their observations: the new rows
  are reduced against the kept pivots with one product, only their
  remainder is eliminated, and one more product back-substitutes its
  pivots into the kept rows, so the work grows with the new rows;
* ``solve_exact`` -- classify and solve ``a @ x = rhs``, which both sinks
  decode through.  It eliminates only a leading block of rows, one more
  than the unknowns and doubled until its rank is the number of unknowns,
  and checks the remaining rows against that block's solution with one
  product: exact, because a full-rank block admits at most that one
  solution and an inconsistent block makes the whole system inconsistent;
* ``solve_in_row_space`` -- recover the combination matrix S with
  ``S (Y @ D) = H`` and classify the outcome by whether the recovered
  product ``S @ Y`` is unique;
* Vandermonde construction and column-major (de)vectorization;
* ``rref_with_transform`` (an ``RrefResult``: the form and its row
  transform) and ``IncrementalReducer`` (row reduction of a matrix that
  grows by a bordered block each round, reusing the previous round's
  reduction).  No library code calls these three; they stay for their
  tests and for the benchmark tracer, which hooks them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .field import Field, Stray


def zeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=np.int64)


def eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def agree(values):
    """The branch value every matrix of a stack takes (a numpy array with
    one entry per matrix), as a Python scalar; a single matrix's value (a
    numpy scalar) as it is.  Raises ``Stray`` marking the matrices whose
    value differs from the most common one."""
    if not values.ndim:
        return values.item()
    first = values.flat[0]
    if (values == first).all():
        return first.item()
    kinds, counts = np.unique(values, return_counts=True)
    raise Stray(values != kinds[counts.argmax()])


def _next_pivot(work: np.ndarray, r: int, c: int, limit: int):
    """Column and row of the next pivot when ``work[..., r, c]`` is not one:
    the leftmost column in [c, limit) with a nonzero entry at or below row
    r, and its first such row; (limit, r) when no column has one.  In a
    stack the column is the one every matrix takes (``agree``) and the
    row is each matrix's own, an array."""
    if work.ndim == 2:  # one matrix: scan past column c only when it is empty
        below = work[r:, c].nonzero()[0]
        if not below.size:
            ahead = work[r:, c + 1: limit].any(axis=0).nonzero()[0]
            if not ahead.size:
                return limit, r
            c += 1 + int(ahead[0])
            below = work[r:, c].nonzero()[0]
        return c, r + int(below[0])
    held = work[..., r:, c:limit].any(axis=-2)
    jump = agree(held.argmax(axis=-1))
    if not agree(held[..., jump]):
        return limit, r
    c += jump
    return c, r + (work[..., r:, c] != 0).argmax(axis=-1)


def _gauss_jordan(field: Field, work: np.ndarray, pivot_limit: int) -> list[int]:
    """In-place Gauss-Jordan elimination of ``work``, a matrix or a stack.

    Pivots are searched in columns [0, pivot_limit) only, taking the first
    nonzero entry top-to-bottom in the leftmost unresolved column; columns
    beyond the limit ride along (augmented part).  Returns pivot columns in
    order (one list for a whole stack); afterwards pivot rows sit at the
    top in pivot-column order.  The matrices of a stack share the pivot
    columns but swap rows each on its own, as each would alone.

    A column with no nonzero entry at or below the next pivot row is not
    visited on its own: one ``any`` over the rest of the searched block
    jumps to the next column that has one, and the loop ends when none is
    left.  Each pivot is one in-place ``Field.pivot_step`` on the columns
    from the pivot on (entries left of it are already settled).
    """
    rows = work.shape[-2]
    stack = work.ndim > 2
    pivots: list[int] = []
    r = c = 0
    while r < rows and c < pivot_limit:
        if not (work[:, r, c].all() if stack else work[r, c]):
            c, p = _next_pivot(work, r, c, pivot_limit)
            if c == pivot_limit:
                break
            if stack:
                k = np.flatnonzero(p != r)
                work[k, r], work[k, p[k]] = work[k, p[k]], work[k, r]
            elif p != r:
                work[[r, p]] = work[[p, r]]
        field.pivot_step(work[..., c:], r)
        pivots.append(c)
        r += 1
        c += 1
    return pivots


@dataclass
class RrefResult:
    """Reduced row echelon form together with the invertible row transform
    (``transform @ original == reduced``)."""

    reduced: np.ndarray
    transform: np.ndarray
    pivot_cols: list[int]
    rank: int


def rref_with_transform(field: Field, a: np.ndarray) -> RrefResult:
    a = np.asarray(a)
    rows, cols = a.shape
    work = np.hstack([a.astype(np.int64, copy=True), eye(rows)])
    pivots = _gauss_jordan(field, work, cols)
    return RrefResult(
        reduced=work[:, :cols],
        transform=work[:, cols:],
        pivot_cols=pivots,
        rank=len(pivots),
    )


def rank(field: Field, a: np.ndarray) -> int:
    """Rank of a matrix, or the one rank of every matrix of a stack."""
    work = np.asarray(a).astype(np.int64, copy=True)
    return len(_gauss_jordan(field, work, work.shape[-1]))


def extend_rref(field: Field, rref: np.ndarray, pivots: list[int],
                rows: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of ``[rref; rows]``, given ``rref`` in that
    form (no zero rows) with pivot columns ``pivots``.

    The new rows are reduced against the kept pivots with one product and
    what is left of them is eliminated on its own, taking at most one
    pivot per new row; one more product clears the new pivot columns from
    the kept rows.  Returns the merged rows in pivot-column order and
    their pivots: the unique reduced form of the stacked rows.  Stacks
    share ``pivots``."""
    rows = field.sub(rows, field.matmul(np.take(rows, pivots, axis=-1), rref))
    new = _gauss_jordan(field, rows, rows.shape[-1])
    if not new:
        return rref, pivots
    fresh = rows[..., : len(new), :]
    rref = field.sub(rref, field.matmul(np.take(rref, new, axis=-1), fresh))
    merged = pivots + new
    order = np.argsort(merged, kind="stable")
    return (np.take(np.concatenate([rref, fresh], axis=-2), order, axis=-2),
            [merged[j] for j in order])


class SolveStatus(enum.Enum):
    UNIQUE = "unique"
    NO_SOLUTION = "no_solution"
    MULTIPLE = "multiple"


@dataclass
class SolveOutcome:
    status: SolveStatus
    solution: np.ndarray | None = None


def solve_exact(field: Field, a: np.ndarray, rhs: np.ndarray) -> SolveOutcome:
    """Classify and solve ``a @ x = rhs`` (rhs may have several columns).

    UNIQUE requires every unknown to be determined; MULTIPLE means the
    system is consistent but underdetermined.

    Tall systems are not eliminated whole.  The leading ``lead`` rows
    (first min(rows, cols + 1)) are reduced, keeping only the pivot rows
    of ``[a | rhs]``; while they are consistent but of rank below
    ``cols``, ``lead`` doubles and the next rows are reduced against those
    pivot rows.  This is exact: rows with no solution make the whole
    system have none, and once the rank is ``cols`` the block's solution
    is the only candidate, so one product checking it against every row
    past ``lead`` decides UNIQUE or NO_SOLUTION.  With every row in and
    the rank still short, the system is MULTIPLE.  Status and solution
    are those of a full elimination; when the first cols + 1 rows have
    full rank, each pivot updates those rows only, not every row.

    A stack of systems (``a`` of shape (B, rows, cols), ``rhs`` of (B,
    rows) or (B, rows, k)) gets one status and a stack of solutions; the
    systems must agree on every round and on the status (``agree``).
    """
    a = np.asarray(a)
    rhs = np.asarray(rhs)
    vec = rhs.ndim == a.ndim - 1
    if vec:
        rhs = rhs[..., None]
    if a.shape[:-1] != rhs.shape[:-1]:
        raise ValueError(f"dimension mismatch: {a.shape} vs rhs {rhs.shape}")
    rows, cols = a.shape[-2:]
    work = np.concatenate([a, rhs], axis=-1).astype(np.int64, copy=False)
    basis, done, lead = work[..., :0, :], 0, min(rows, cols + 1)
    while True:
        block = np.concatenate([basis, work[..., done:lead, :]], axis=-2)
        r = len(_gauss_jordan(field, block, cols))
        if agree(block[..., r:, cols:].any(axis=(-2, -1))):
            return SolveOutcome(SolveStatus.NO_SOLUTION)
        basis = block[..., :r, :]
        if r == cols or lead == rows:
            break
        done, lead = lead, min(rows, 2 * lead)
    if r < cols:
        return SolveOutcome(SolveStatus.MULTIPLE)
    x = basis[..., cols:]
    if lead < rows and agree(field.sub(field.matmul(work[..., lead:, :cols], x),
                                       work[..., lead:, cols:]).any(axis=(-2, -1))):
        return SolveOutcome(SolveStatus.NO_SOLUTION)
    return SolveOutcome(SolveStatus.UNIQUE, x[..., 0] if vec else x)


def solve_in_row_space(field: Field, y: np.ndarray, dm: np.ndarray, h: np.ndarray) -> SolveOutcome:
    """Solve ``S (y @ dm) = h`` for the combination matrix S.

    UNIQUE means the recovered product ``S @ y`` is the same for every
    solution S, which holds exactly when rank(y @ dm) == rank(y); the
    returned S is then the particular solution with free components zero.
    MULTIPLE is reported when the system is consistent but some left null
    vector of ``y @ dm`` acts nontrivially on y, so the recovered product
    is ambiguous.
    """
    y = np.asarray(y)
    dm = np.asarray(dm)
    h = np.asarray(h)
    if y.shape[1] != dm.shape[0]:
        raise ValueError(f"dimension mismatch: y {y.shape} vs dm {dm.shape}")
    if h.shape[1] != dm.shape[1]:
        raise ValueError(f"dimension mismatch: h {h.shape} vs dm {dm.shape}")
    g = field.matmul(y, dm)
    ry = y.shape[0]
    work = np.hstack([g.T.astype(np.int64, copy=True), h.T.astype(np.int64, copy=True)])
    pivots = _gauss_jordan(field, work, ry)
    rg = len(pivots)
    if np.any(work[rg:, ry:]):
        return SolveOutcome(SolveStatus.NO_SOLUTION)
    if rg < rank(field, y):
        return SolveOutcome(SolveStatus.MULTIPLE)
    st = zeros(ry, h.shape[0])
    st[pivots] = work[:rg, ry:]
    return SolveOutcome(SolveStatus.UNIQUE, st.T)


def vandermonde(field: Field, points, num_rows: int) -> np.ndarray:
    """Matrix with entry (k, j) = points[j] ** (k+1), k in [0, num_rows).

    One column per evaluation point; exponents run 1..num_rows.  The rows
    are built by doubling, in ceil(log2 num_rows) products.  A stack of
    point vectors, shape (B, P), gives a stack of matrices.
    """
    if num_rows < 1:
        raise ValueError("num_rows must be >= 1")
    points = np.asarray(points)
    out = np.empty(points.shape[:-1] + (num_rows, points.shape[-1]), dtype=np.int64)
    out[..., 0, :] = points
    # rows [h, 2h) are rows [0, h) times points**h, which is row h-1
    h = 1
    while h < num_rows:
        t = min(h, num_rows - h)
        out[..., h: h + t, :] = field.mul(out[..., :t, :], out[..., h - 1: h, :])
        h += t
    return out


def vectorize(m: np.ndarray) -> np.ndarray:
    """Stack the columns of m into one vector (column-major order); a new
    array.  A stack of matrices gives a stack of vectors."""
    m = np.asarray(m)
    return m.swapaxes(-1, -2).copy().reshape(m.shape[:-2] + (-1,))


def devectorize(v: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """The rows x cols matrix whose columns are the vector's runs (a view);
    a stack of vectors gives a stack of matrices."""
    v = np.asarray(v)
    length = v.shape[-1] if v.ndim else 1
    if length != rows * cols:
        raise ValueError(f"cannot reshape length-{length} vector to {rows}x{cols}")
    return v.reshape(v.shape[:-1] + (cols, rows)).swapaxes(-1, -2)


class IncrementalReducer:
    """Rolling reduced row echelon form of a matrix growing by bordered
    blocks, with the row transform recorded.

    Each round the accumulated matrix A gains a column block C, a row block
    B and a corner block D, forming [[A, C], [B, D]].  When the previous
    reduction has the clean shape [I; 0] (full column rank), only the small
    block left after cancelling B is freshly reduced and the factors are
    stitched together; otherwise the full accumulated matrix is re-reduced
    from scratch.  An optional right-hand side receives the same row
    operations, so growing linear systems can be solved without re-applying
    the transform.
    """

    def __init__(self, field: Field, a: np.ndarray, rhs: np.ndarray | None = None):
        self._f = field
        self._acc = np.asarray(a).astype(np.int64, copy=True)
        self._rhs_raw = None if rhs is None else np.asarray(rhs).astype(np.int64, copy=True)
        self.incremental_updates = 0
        self.fallback_count = 0
        self._batch()

    # -- state ---------------------------------------------------------
    @property
    def reduced(self) -> np.ndarray:
        return self._reduced

    @property
    def transform(self) -> np.ndarray:
        return self._transform

    @property
    def pivot_cols(self) -> list[int]:
        return self._pivots

    @property
    def rank(self) -> int:
        return len(self._pivots)

    @property
    def reduced_rhs(self) -> np.ndarray | None:
        return self._rhs_red

    def result(self) -> RrefResult:
        return RrefResult(self._reduced, self._transform, list(self._pivots), self.rank)

    @property
    def _clean(self) -> bool:
        return self.rank == self._acc.shape[1] and self._pivots == list(range(self.rank))

    # -- updates -------------------------------------------------------
    def _batch(self):
        rr = rref_with_transform(self._f, self._acc)
        self._reduced = rr.reduced
        self._transform = rr.transform
        self._pivots = rr.pivot_cols
        if self._rhs_raw is not None:
            self._rhs_red = self._f.matmul(self._transform, self._rhs_raw)
        else:
            self._rhs_red = None

    def update(self, col_block: np.ndarray, row_block: np.ndarray, corner_block: np.ndarray,
               rhs_rows: np.ndarray | None = None) -> None:
        f = self._f
        p, s = self._acc.shape
        c = np.asarray(col_block)
        b = np.asarray(row_block)
        d = np.asarray(corner_block)
        if c.shape[0] != p or b.shape[1] != s or d.shape != (b.shape[0], c.shape[1]):
            raise ValueError(
                f"blocks {c.shape}/{b.shape}/{d.shape} do not border a {p}x{s} matrix"
            )
        u, t = d.shape
        was_clean = self._clean
        self._acc = np.block([[self._acc, c], [b, d]])
        if (self._rhs_raw is None) != (rhs_rows is None):
            raise ValueError("rhs_rows must be given exactly when the reducer carries a rhs")
        if self._rhs_raw is not None:
            rhs_rows = np.asarray(rhs_rows)
            if rhs_rows.shape != (u, self._rhs_raw.shape[1]):
                raise ValueError(f"rhs_rows shape {rhs_rows.shape} != ({u}, rhs width)")
            self._rhs_raw = np.vstack([self._rhs_raw, rhs_rows])
        if not was_clean:
            self.fallback_count += 1
            self._batch()
            return

        # previous reduction is [I_s; 0]: reduce only the bordered blocks
        rc = f.matmul(self._transform, c)           # p x t
        c1 = rc[:s]
        d_new = f.sub(d, f.matmul(b, c1))           # u x t, B cancelled by I_s
        rr = rref_with_transform(f, d_new)
        kd = rr.rank
        piv_d = rr.pivot_cols
        # cancel the upper-right block at the freshly found pivot columns
        c_top = f.sub(rc, f.matmul(rc[:, piv_d], rr.reduced[:kd]))
        if np.any(c_top[s:]):
            # new columns reach outside the span the block formula covers
            self.fallback_count += 1
            self._batch()
            return
        self.incremental_updates += 1

        bottom_t = np.hstack([f.neg(f.matmul(rr.transform, f.matmul(b, self._transform[:s]))),
                              rr.transform])        # u x (p+u)
        top_t = np.hstack([self._transform, zeros(p, u)])
        top_t = f.sub(top_t, f.matmul(rc[:, piv_d], bottom_t[:kd]))

        reduced_pre = np.block([
            [self._reduced, c_top],
            [zeros(u, s), rr.reduced],
        ])
        transform_pre = np.vstack([top_t, bottom_t])
        if self._rhs_raw is not None:
            bot_rhs = f.matmul(rr.transform, f.sub(rhs_rows, f.matmul(b, self._rhs_red[:s])))
            top_rhs = f.sub(self._rhs_red, f.matmul(rc[:, piv_d], bot_rhs[:kd]))
            rhs_pre = np.vstack([top_rhs, bot_rhs])

        # place pivot rows on top in pivot-column order
        perm = (list(range(s)) + list(range(p, p + kd))
                + list(range(s, p)) + list(range(p + kd, p + u)))
        self._reduced = reduced_pre[perm]
        self._transform = transform_pre[perm]
        self._pivots = list(range(s)) + [s + j for j in piv_d]
        if self._rhs_raw is not None:
            self._rhs_red = rhs_pre[perm]

    def verify(self) -> bool:
        """Check transform @ accumulated == reduced and rref shape; used by
        tests to cross-validate the incremental path against batch."""
        f = self._f
        if not np.array_equal(f.matmul(self._transform, self._acc), self._reduced):
            return False
        batch = rref_with_transform(f, self._acc)
        return (np.array_equal(batch.reduced, self._reduced)
                and batch.pivot_cols == self._pivots)
