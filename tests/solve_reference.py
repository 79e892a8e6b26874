"""Full-elimination references for the decoders' solves.

``gauss_jordan`` is the plain pivot-by-pivot elimination that
``linalg._gauss_jordan`` must match bit for bit: it visits every column
and makes each pivot of elementwise ``Field`` calls.  The references
below eliminate with it, so they share no kernel with the code they check.

``full_solve`` is Gauss-Jordan over every row of ``[a | rhs]``, with no
early exit: the oracle that ``linalg.solve_exact`` and the random-secret
dense key-equation check are compared against.  ``full_row_decode`` builds
every row of the random-secret reduced key equation and solves it whole:
the oracle for ``RsSinkState.try_decode``, which builds only the rows its
solver reads.  ``extract_side`` finds a column basis and the expansions
over it by one Gauss-Jordan pass over a row basis, in any scan order: the
oracle for ``RsSinkState._extract_side``, which reads them off the reduced
bases it keeps.  ``independent_row_indices`` picks the rows of a stack
independent of the rows above them: the greedy reference for bases the
sinks keep in reduced form.  ``repad_short_rows`` stacks received short
rows at the current stage's staircase width.  All are kept apart from the
code the decoders run.
"""

import numpy as np

from ratelessnc import linalg
from ratelessnc.field import Field
from ratelessnc.linalg import SolveOutcome, SolveStatus
from ratelessnc.records import Decode, DecodeResult, unsolved
from ratelessnc.scheme_rs import _blocks_hold


def gauss_jordan(field: Field, work: np.ndarray, pivot_limit: int) -> list[int]:
    """In-place Gauss-Jordan elimination of ``work``.

    Pivots are searched in columns [0, pivot_limit) only, taking the first
    nonzero entry top-to-bottom in the leftmost unresolved column; columns
    beyond the limit ride along (augmented part).  Returns pivot columns in
    order; afterwards pivot rows sit at the top in pivot-column order.
    """
    rows = work.shape[0]
    pivots: list[int] = []
    r = 0
    for c in range(pivot_limit):
        if r >= rows:
            break
        col = work[r:, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            work[[r, p]] = work[[p, r]]
        piv = work[r, c]
        if piv != 1:
            work[r, c:] = field.mul(work[r, c:], field.inv(piv))
        factors = work[:, c].copy()
        factors[r] = 0
        if np.any(factors):
            # entries left of c are already settled, so restrict the update
            work[:, c:] = field.sub(work[:, c:], field.mul(factors[:, None], work[r, c:][None, :]))
        pivots.append(c)
        r += 1
    return pivots


def independent_row_indices(field: Field, a: np.ndarray) -> list[int]:
    """Indices of a maximal linearly independent set of rows, scanning
    top-to-bottom (the pivot rows of the transposed reduction)."""
    return gauss_jordan(field, np.array(np.asarray(a).T, dtype=np.int64), len(a))


def full_solve(field, a, rhs) -> SolveOutcome:
    a = np.asarray(a)
    rhs = np.asarray(rhs)
    vec = rhs.ndim == 1
    if vec:
        rhs = rhs[:, None]
    if a.shape[0] != rhs.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape} vs rhs {rhs.shape}")
    cols = a.shape[1]
    work = np.hstack([a.astype(np.int64, copy=True), rhs.astype(np.int64, copy=True)])
    pivots = gauss_jordan(field, work, cols)
    r = len(pivots)
    if np.any(work[r:, cols:]):
        return SolveOutcome(SolveStatus.NO_SOLUTION)
    if r < cols:
        return SolveOutcome(SolveStatus.MULTIPLE)
    x = work[:r, cols:]
    return SolveOutcome(SolveStatus.UNIQUE, x[:, 0] if vec else x)


def full_row_decode(f, p, ke) -> DecodeResult:
    """Decode a ``KeyEquation`` from all gamma * i * sigma rows of its
    reduced system in the basis message unknowns x_a."""
    if ke is None:
        return DecodeResult(Decode.NEED_MORE)
    b = p.b
    isig = ke.stage * p.sigma
    r, r_bar, gamma = ke.r, ke.r_bar, ke.gamma
    theta_a = b * (r - b)
    n_basis_slots = (r_bar - isig) * isig
    kept_a = ke.kept_mask[:n_basis_slots]
    kept_b = ke.kept_mask[n_basis_slots:]
    la_cnt = int(kept_a.sum())
    rows_a = ke.l_kept_idx[:la_cnt]      # parity row of each basis suffix unknown
    rows_b = ke.l_kept_idx[la_cnt:]      # and of each kept non-basis one

    # every parity row, evaluated at its point with its columns in the
    # unknowns' order, as an affine map of x_a, [coefficients | constant]
    parity = linalg.vandermonde(f, ke.points, p.n * b)[ke.xperm].T
    d_a, d_b = parity[:, :theta_a], parity[:, theta_a:]
    alpha_tot = ke.points.size
    d_b_fz = f.matmul(ke.f_z, d_b.reshape(alpha_tot, ke.beta, b).transpose(1, 0, 2)
                      .reshape(ke.beta, alpha_tot * b))
    a_x = f.add(d_a, d_b_fz.reshape(r - b, alpha_tot, b).transpose(1, 0, 2)
                .reshape(alpha_tot, theta_a))
    c = f.sub(ke.targets, f.matmul(d_b, linalg.vectorize(ke.f_x)[:, None])[:, 0])
    l_aff = np.hstack([f.neg(a_x), c[:, None]])

    # vec(L_a) with its dummy slots zero, pushed through vec(Z) -> vec(Z F_e)
    la_aff = linalg.zeros(n_basis_slots, theta_a + 1)
    la_aff[kept_a] = l_aff[rows_a]
    lb_aff = f.matmul(ke.f_e.T, la_aff.reshape(r_bar - isig, isig * (theta_a + 1)))
    lb_aff = lb_aff.reshape(gamma * isig, theta_a + 1)
    lb_aff[:, theta_a] = f.add(lb_aff[:, theta_a], linalg.vectorize(ke.f_a))
    # ... must equal the parity value on kept slots and zero on dummy ones
    want = linalg.zeros(gamma * isig, theta_a + 1)
    want[kept_b] = l_aff[rows_b]
    diff = f.sub(lb_aff, want)
    out = full_solve(f, diff[:, :theta_a], f.neg(diff[:, theta_a]))
    if out.status is not SolveStatus.UNIQUE:
        return unsolved(out.status)

    x_a = linalg.devectorize(out.solution, b, r - b)
    x_b = f.add(f.matmul(x_a, ke.f_z), ke.f_x)
    l_a = np.zeros(n_basis_slots, dtype=np.int64)
    l_a[kept_a] = f.matmul(l_aff[rows_a], np.append(out.solution, 1)[:, None])[:, 0]
    l_a = linalg.devectorize(l_a, isig, r_bar - isig)
    l_b = f.add(f.matmul(l_a, ke.f_e), ke.f_a)
    w_hat = linalg.zeros(b, p.n)
    w_hat[:, ke.x_col_order] = np.hstack([x_a, x_b])
    if not _blocks_hold(f, ke, w_hat, l_a, l_b):
        raise AssertionError("key equation bookkeeping inconsistent with solution")
    return DecodeResult(Decode.DECODED, w=w_hat)


def extract_side(field, sel_rows: np.ndarray, ident_cols: int, scan_limit: int,
                 scan_order=None):
    """Over a row basis, take the trailing ident_cols as the forced
    column basis part, greedily complete the basis from the leading
    columns, and express the remaining columns in that basis.

    One Gauss-Jordan pass over (forced columns, then the scan order)
    does both: its pivot columns are the greedy in-order basis and its
    reduced non-pivot columns are the expansion coefficients.  Returns
    what ``RsSinkState._extract_side`` does: the rank, the chosen and
    remaining leading columns and the coefficients, one row per basis
    column in pivot order (forced columns first), or None when the rows
    cannot support the forced basis yet."""
    r = sel_rows.shape[0]
    if r < ident_cols:
        return None
    order = np.arange(scan_limit) if scan_order is None else np.asarray(scan_order)
    work = sel_rows[:, np.concatenate([np.arange(scan_limit, scan_limit + ident_cols),
                                       order])]
    pivots = gauss_jordan(field, work, work.shape[1])
    if pivots[:ident_cols] != list(range(ident_cols)):
        return None  # trailing identity image degenerate this stage
    chosen = [int(order[c - ident_cols]) for c in pivots[ident_cols:]]
    rest = sorted(set(range(scan_limit)) - set(chosen))
    where = np.empty(scan_limit, dtype=np.int64)
    where[order] = np.arange(ident_cols, ident_cols + scan_limit)
    return r, chosen, rest, work[:, where[rest]]


def repad_short_rows(shorts, m: int, sigma: int) -> np.ndarray:
    """Short rows received at stages 1..i, the stage-k rows re-padded with
    the dummy and identity zeros of stages k+1..i, stacked."""
    i = len(shorts)
    return np.vstack([
        np.hstack([jk[:, : k * m], linalg.zeros(jk.shape[0], (i - k) * m),
                   jk[:, k * m:], linalg.zeros(jk.shape[0], (i - k) * sigma)])
        for k, jk in enumerate(shorts, start=1)])
