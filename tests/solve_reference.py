"""Full-elimination reference for ``linalg.solve_exact``.

Gauss-Jordan over every row of ``[a | rhs]``, with no early exit: the
oracle that the early-exit solver and the random-secret dense key-equation
check are compared against, kept apart from the code the decoders run.
"""

import numpy as np

from ratelessnc.linalg import SolveOutcome, SolveStatus, _gauss_jordan


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
    pivots = _gauss_jordan(field, work, cols)
    r = len(pivots)
    if np.any(work[r:, cols:]):
        return SolveOutcome(SolveStatus.NO_SOLUTION)
    if r < cols:
        return SolveOutcome(SolveStatus.MULTIPLE)
    x = work[:r, cols:]
    return SolveOutcome(SolveStatus.UNIQUE, x[:, 0] if vec else x)
