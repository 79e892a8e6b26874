"""Random-secret scheme: no side channel, hashes ride the public network.

The source and sink pre-share random symbols (independent of the message).
Per stage k the encoder turns its share into a parity-check row block
``D_k`` (powers of the shared points) and targets ``h_k``, solves the
suffix ``l_k = h_k - D_k w`` for the vectorized message w, and ships two
packet kinds through separate channels:

* long packets: random combinations of (W | I_b), as in the secret-channel
  scheme;
* short packets: random combinations of a staircase of suffix blocks
  ``(L_k | dummy 0 | 0 | I)``, whose width grows with the stage.

The decoder extracts column bases of both stacked observations (the
trailing identity columns are independent with overwhelming probability)
and expresses the rest in those bases.  Together with the parity rows
this gives one linear key equation over the unknown message and suffix
entries; a unique solution decodes the message.  The sink keeps the key
equation as its block factors and solves it from them: the basis
expansions pin the non-basis unknowns, each basis suffix unknown sits
alone in one parity row, and what remains is a system in the basis
message unknowns only.  The dense matrix B is built only by
``dense_key_equation``, the oracle behind ``validate`` and the tests.
Positional bookkeeping of the dummy padding is the delicate part: the same
index map drives the staircase assembly, the dummy-slot constraints, and
the scatter of suffix unknowns into parity rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .field import Field
from .linalg import SolveStatus
from .records import Decode, DecodeResult, TrialRecord
from .scheme_sc import SourceMessage


@dataclass(frozen=True)
class RsParams:
    """Shape parameters: message b x n, short-packet rank margin sigma,
    hash block width m, bound cbar on long-packet opportunities."""

    b: int
    n: int
    sigma: int
    m: int
    cbar: int

    def __post_init__(self):
        if min(self.b, self.n, self.sigma, self.m, self.cbar) < 1:
            raise ValueError("all RsParams fields must be >= 1")
        need = 2 * self.b * self.cbar + 2 * self.sigma * self.cbar + 1
        if self.sigma * self.m < need:
            raise ValueError(
                f"parameter rule violated: sigma*m = {self.sigma * self.m} < "
                f"2*b*cbar + 2*sigma*cbar + 1 = {need}"
            )

    @staticmethod
    def auto_m(b: int, sigma: int, cbar: int) -> int:
        """Smallest m satisfying sigma*m >= 2*b*cbar + 2*sigma*cbar + 1."""
        need = 2 * b * cbar + 2 * sigma * cbar + 1
        return -(-need // sigma)

    def alpha(self, k: int) -> int:
        return k * self.sigma * self.m

    def alpha_total(self, i: int) -> int:
        return self.sigma * self.m * i * (i + 1) // 2

    def check_field(self, field: Field) -> None:
        if self.n * self.b >= field.q:
            raise ValueError(f"n*b = {self.n * self.b} must be below the field order {field.q}")


class SharedSecret:
    """Pre-shared random symbols, drawn lazily stage by stage from a
    dedicated generator so they are independent of the message."""

    def __init__(self, field: Field, params: RsParams, rng: np.random.Generator):
        self.field = field
        self.params = params
        self._rng = rng
        self._stages: list[tuple[np.ndarray, np.ndarray]] = []
        self._parity: list[np.ndarray] = []

    @classmethod
    def from_symbols(cls, field: Field, params: RsParams,
                     stages: list[tuple[np.ndarray, np.ndarray]]) -> "SharedSecret":
        """Wrap explicitly agreed symbols (alpha_k points and targets per
        stage) instead of drawing them."""
        secret = cls(field, params, np.random.default_rng(0))
        for k, (d, h) in enumerate(stages, start=1):
            d = np.asarray(d, dtype=np.int64)
            h = np.asarray(h, dtype=np.int64)
            if d.size != params.alpha(k) or h.size != params.alpha(k):
                raise ValueError(f"stage {k} needs alpha_k = {params.alpha(k)} symbols each")
            secret._stages.append((d, h))
        secret._rng = None  # explicit secrets only; no lazy extension
        return secret

    def stage(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Parity points d^(k) and hash targets h^(k), alpha_k of each."""
        if k < 1:
            raise ValueError("stages are 1-based")
        while len(self._stages) < k:
            if self._rng is None:
                raise ValueError(f"no shared symbols agreed for stage {len(self._stages) + 1}")
            a = self.params.alpha(len(self._stages) + 1)
            self._stages.append((self.field.sample(self._rng, a),
                                 self.field.sample(self._rng, a)))
        return self._stages[k - 1]

    @property
    def consumed_symbols(self) -> int:
        return sum(2 * d.size for d, _ in self._stages)

    def parity_matrix(self, k: int) -> np.ndarray:
        """D_k with entry (i, j) = (d_i)^(j+1), j < n*b; built once per stage."""
        while len(self._parity) < k:
            d_pts, _ = self.stage(len(self._parity) + 1)
            self._parity.append(
                linalg.vandermonde(self.field, d_pts, self.params.n * self.params.b).T)
        return self._parity[k - 1]

    def stacked_parity(self, i: int) -> np.ndarray:
        return np.vstack([self.parity_matrix(k) for k in range(1, i + 1)])

    def stacked_targets(self, i: int) -> np.ndarray:
        return np.concatenate([self.stage(k)[1] for k in range(1, i + 1)])


@dataclass
class SuffixBlock:
    """Stage-k suffix: l_k = h_k - D_k w reshaped to sigma x (k m)."""

    stage: int
    script_l: np.ndarray
    l_vec: np.ndarray


def rs_make_suffix(field: Field, w_vec: np.ndarray, secret: SharedSecret,
                   k: int) -> SuffixBlock:
    p = secret.params
    if w_vec.size != p.n * p.b:
        raise ValueError(f"message vector length {w_vec.size} != n*b = {p.n * p.b}")
    d_k = secret.parity_matrix(k)
    _, h_k = secret.stage(k)
    l_vec = field.sub(h_k, field.matmul(d_k, w_vec[:, None])[:, 0])
    return SuffixBlock(stage=k, script_l=linalg.devectorize(l_vec, p.sigma, k * p.m),
                       l_vec=l_vec)


def l_entry_map(i: int, m: int, sigma: int) -> np.ndarray:
    """Map the non-identity region of the stage-i staircase to suffix
    symbol indices.

    Entry [c, (k-1)*sigma + s] is the index of L-column c, block-k row s in
    the concatenated suffix vector (l_1 .. l_i), or -1 where the position
    is dummy zero padding (block k ends at column k*m)."""
    out = np.full((i * m, i * sigma), -1, dtype=np.int64)
    offset = 0
    for k in range(1, i + 1):
        width = k * m
        cols = np.arange(width)
        rows = slice((k - 1) * sigma, k * sigma)
        out[:width, rows] = offset + cols[:, None] * sigma + np.arange(sigma)[None, :]
        offset += k * sigma * m
    return out


def assemble_staircase(params: RsParams, suffixes: list[SuffixBlock]) -> np.ndarray:
    """Stack the suffix blocks as (script_l | dummy 0 | 0 | I_sigma) rows,
    re-padded to the current stage's width i*(m + sigma)."""
    i = len(suffixes)
    m, sigma = params.m, params.sigma
    out = linalg.zeros(i * sigma, i * (m + sigma))
    for sfx in suffixes:
        k = sfx.stage
        rows = slice((k - 1) * sigma, k * sigma)
        out[rows, : k * m] = sfx.script_l
        out[rows, i * m + (k - 1) * sigma: i * m + k * sigma] = linalg.eye(sigma)
    return out


class RsEncoder:
    """Stage-sequential encoder for one session."""

    def __init__(self, field: Field, params: RsParams, msg: SourceMessage,
                 secret: SharedSecret):
        if (msg.b, msg.n) != (params.b, params.n):
            raise ValueError("message shape does not match params")
        params.check_field(field)
        self.field = field
        self.params = params
        self.msg = msg
        self.secret = secret
        self.w_vec = linalg.vectorize(msg.w)
        self.suffixes: list[SuffixBlock] = []

    def encode_stage(self, i: int, c_i: int, cbar_i: int,
                     rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Long packets X_i = K_i X0 and short packets A_i = G_i L^(i)."""
        if i != len(self.suffixes) + 1:
            raise ValueError(f"stages must be encoded in order; expected {len(self.suffixes) + 1}")
        f = self.field
        self.suffixes.append(rs_make_suffix(f, self.w_vec, self.secret, i))
        k_mat = f.sample(rng, (c_i, self.params.b))
        x_i = f.matmul(k_mat, self.msg.x0)
        staircase = assemble_staircase(self.params, self.suffixes)
        g_mat = f.sample(rng, (cbar_i, i * self.params.sigma))
        a_i = f.matmul(g_mat, staircase)
        return x_i, a_i


@dataclass
class KeyEquation:
    """The decode system B v = rhs kept as its block factors: the basis
    expansions of both observation stacks, the column-permuted parity
    staircase and its targets, plus the bookkeeping needed to solve it and
    to reassemble the message (``dense_key_equation`` builds B itself)."""

    stage: int
    r: int
    r_bar: int
    beta: int
    gamma: int
    x_col_order: list[int]       # W columns: basis columns first, then the rest
    l_col_order: list[int]       # staircase columns (non-identity region)
    kept_mask: np.ndarray        # which (column, row) slots are real suffix symbols
    l_kept_idx: np.ndarray       # their indices into (l_1 .. l_i)
    t_hat: np.ndarray
    t_bar_hat: np.ndarray
    f_z: np.ndarray
    f_x: np.ndarray
    f_e: np.ndarray
    f_a: np.ndarray
    yp: np.ndarray
    jp: np.ndarray
    parity: np.ndarray           # stacked D, columns in the x_col_order layout
    targets: np.ndarray          # stacked h


class RsSinkState:
    """Accumulated long/short observations of one session and the decoder."""

    def __init__(self, field: Field, params: RsParams, secret: SharedSecret):
        params.check_field(field)
        self.field = field
        self.params = params
        self.secret = secret
        self.stage = 0
        self._y_blocks: list[np.ndarray] = []
        self._j_blocks: list[np.ndarray] = []

    def ingest(self, y_i: np.ndarray, j_i: np.ndarray) -> None:
        p = self.params
        i = self.stage + 1
        if y_i.shape[1] != p.n + p.b:
            raise ValueError(f"long packet width {y_i.shape[1]} != n+b = {p.n + p.b}")
        if j_i.shape[1] != i * (p.m + p.sigma):
            raise ValueError(
                f"short packet width {j_i.shape[1]} != i*(m+sigma) = {i * (p.m + p.sigma)}"
            )
        self._y_blocks.append(np.asarray(y_i))
        self._j_blocks.append(np.asarray(j_i))
        self.stage = i

    def stacked_long(self) -> np.ndarray:
        return np.vstack(self._y_blocks)

    def stacked_short(self) -> np.ndarray:
        """Short observations re-padded with the dummy zeros of the current
        stage, exactly as the staircase rows are."""
        p = self.params
        i = self.stage
        parts = []
        for k, jk in enumerate(self._j_blocks, start=1):
            rows = jk.shape[0]
            parts.append(np.hstack([
                jk[:, : k * p.m],
                linalg.zeros(rows, (i - k) * p.m),
                jk[:, k * p.m:],
                linalg.zeros(rows, (i - k) * p.sigma),
            ]))
        return np.vstack(parts)

    # -- decoding -------------------------------------------------------
    def _extract_side(self, mat: np.ndarray, ident_cols: int, scan_limit: int,
                      scan_order=None):
        """Select independent rows, take the trailing ident_cols as the
        forced basis part, greedily complete the basis from the leading
        columns, and express the remaining columns in that basis.

        One Gauss-Jordan pass over (forced columns, then the scan order)
        does all three: its pivot columns are the greedy in-order basis and
        its reduced non-pivot columns are the expansion coefficients.
        Returns None when the rows cannot support the forced basis yet."""
        rows = linalg.independent_row_indices(self.field, mat)
        r = len(rows)
        if r < ident_cols:
            return None
        sel_rows = mat[rows]
        order = np.arange(scan_limit) if scan_order is None else np.asarray(scan_order)
        work = sel_rows[:, np.concatenate([np.arange(scan_limit, scan_limit + ident_cols),
                                           order])]
        pivots = linalg._gauss_jordan(self.field, work, work.shape[1])
        if pivots[:ident_cols] != list(range(ident_cols)):
            return None  # trailing identity image degenerate this stage
        chosen = [int(order[c - ident_cols]) for c in pivots[ident_cols:]]
        rest = sorted(set(range(scan_limit)) - set(chosen))
        where = np.empty(scan_limit, dtype=np.int64)
        where[order] = np.arange(ident_cols, ident_cols + scan_limit)
        reduced = work[:, where[rest]]
        # pivot rows come forced-first; the basis is ordered chosen-first
        coef = np.vstack([reduced[ident_cols:], reduced[:ident_cols]])
        return sel_rows, r, chosen, rest, coef

    def build_key_equation(self, scan_order_long=None, scan_order_short=None
                           ) -> KeyEquation | None:
        """Extract both column bases and collect the key equation's block
        factors; None while the observations cannot support the required
        identity-column bases."""
        p = self.params
        i = self.stage
        if i == 0:
            return None
        long_side = self._extract_side(self.stacked_long(), p.b, p.n, scan_order_long)
        if long_side is None:
            return None
        yp, r, sel_y, rest_y, coef_y = long_side
        short_side = self._extract_side(self.stacked_short(), i * p.sigma, i * p.m,
                                        scan_order_short)
        if short_side is None:
            return None
        jp, r_bar, sel_j, rest_j, coef_j = short_side

        b, n = p.b, p.n
        isig = i * p.sigma
        x_col_order = list(sel_y) + list(rest_y)
        l_col_order = list(sel_j) + list(rest_j)
        lmap = l_entry_map(i, p.m, p.sigma)
        slot_idx = lmap[l_col_order].reshape(-1)
        kept_mask = slot_idx >= 0
        xperm = (b * np.asarray(x_col_order)[:, None] + np.arange(b)).reshape(-1)
        return KeyEquation(
            stage=i, r=r, r_bar=r_bar, beta=n + b - r, gamma=i * (p.m + p.sigma) - r_bar,
            x_col_order=x_col_order, l_col_order=l_col_order,
            kept_mask=kept_mask, l_kept_idx=slot_idx[kept_mask],
            t_hat=yp[:, n:], t_bar_hat=jp[:, i * p.m:],
            f_z=coef_y[: r - b], f_x=coef_y[r - b:],
            f_e=coef_j[: r_bar - isig], f_a=coef_j[r_bar - isig:],
            yp=yp, jp=jp,
            parity=self.secret.stacked_parity(i)[:, xperm],
            targets=self.secret.stacked_targets(i),
        )

    def try_decode(self, ke: KeyEquation | None = None) -> DecodeResult:
        """Solve the key equation from its blocks.

        With X = (X_a | X_b) and L = (L_a | L_b) split at the basis columns,
        the long and short expansions give X_b = X_a F_z + F_x and
        L_b = L_a F_e + F_a (t_hat and t_bar_hat have full column rank), and
        each basis suffix unknown sits alone in its parity row, so
        l_a = c - A_x x_a.  What remains is one equation per L_b slot:
        the parity rows of the kept slots and zero on the dummy slots, in
        the b(r-b) unknowns of x_a only.  A solution is re-verified against
        the three block equations before it is accepted."""
        f = self.field
        p = self.params
        if ke is None:
            ke = self.build_key_equation()
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

        # parity rows as affine maps of x_a, [coefficients | constant]:
        # D x = D_a x_a + D_b vec(X_a F_z + F_x), where D_b vec(X_a F_z) is
        # one F_z product over D_b's columns regrouped by X_b column
        d_a, d_b = ke.parity[:, :theta_a], ke.parity[:, theta_a:]
        alpha_tot = ke.parity.shape[0]
        d_b_fz = f.matmul(ke.f_z, d_b.reshape(alpha_tot, ke.beta, b).transpose(1, 0, 2)
                          .reshape(ke.beta, alpha_tot * b))
        a_x = f.add(d_a, d_b_fz.reshape(r - b, alpha_tot, b).transpose(1, 0, 2)
                    .reshape(alpha_tot, theta_a))
        c = f.sub(ke.targets, f.matmul(d_b, linalg.vectorize(ke.f_x)[:, None])[:, 0])
        # l = c - A_x x_a on every kept slot
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
        out = linalg.solve_exact(f, diff[:, :theta_a], f.neg(diff[:, theta_a]))
        if out.status is SolveStatus.NO_SOLUTION:
            return DecodeResult(Decode.NEED_MORE)
        if out.status is SolveStatus.MULTIPLE:
            return DecodeResult(Decode.FAILURE)

        x_a = linalg.devectorize(out.solution, b, r - b)
        x_b = f.add(f.matmul(x_a, ke.f_z), ke.f_x)
        l_a = np.zeros(n_basis_slots, dtype=np.int64)
        l_a[kept_a] = f.matmul(l_aff[rows_a], np.append(out.solution, 1)[:, None])[:, 0]
        l_a = linalg.devectorize(l_a, isig, r_bar - isig)
        l_b = f.add(f.matmul(l_a, ke.f_e), ke.f_a)
        if not _blocks_hold(f, ke, x_a, x_b, l_a, l_b):
            raise AssertionError("key equation bookkeeping inconsistent with solution")

        w_hat = linalg.zeros(b, p.n)
        w_hat[:, ke.x_col_order] = np.hstack([x_a, x_b])
        return DecodeResult(Decode.DECODED, w=w_hat)


def _blocks_hold(f: Field, ke: KeyEquation, x_a, x_b, l_a, l_b) -> bool:
    """The three block equations of B v = rhs for v = (X_a, X_b, L_a, L_b):
    D x + l = h, t_hat (X_b - X_a F_z) = t_hat F_x, and
    t_bar_hat (L_b - L_a F_e) = t_bar_hat F_a with the dummy slots zero."""
    l_slots = np.concatenate([linalg.vectorize(l_a), linalg.vectorize(l_b)])
    if np.any(l_slots[~ke.kept_mask]):
        return False
    l_sfx = np.zeros(ke.parity.shape[0], dtype=np.int64)
    l_sfx[ke.l_kept_idx] = l_slots[ke.kept_mask]
    x = linalg.vectorize(np.hstack([x_a, x_b]))
    return (np.array_equal(f.add(f.matmul(ke.parity, x[:, None])[:, 0], l_sfx), ke.targets)
            and np.array_equal(f.matmul(ke.t_hat, f.sub(x_b, f.matmul(x_a, ke.f_z))),
                               f.matmul(ke.t_hat, ke.f_x))
            and np.array_equal(f.matmul(ke.t_bar_hat, f.sub(l_b, f.matmul(l_a, ke.f_e))),
                               f.matmul(ke.t_bar_hat, ke.f_a)))


def dense_key_equation(ke: KeyEquation, secret: SharedSecret) -> tuple[np.ndarray, np.ndarray]:
    """Assemble the dense key equation (B, rhs) over v = (x, l) in the
    permuted, dummy-deleted layout of ``truth_vector`` (validation and
    testing oracle; the decoder never builds it)."""
    f = secret.field
    p = secret.params
    b, isig = p.b, ke.stage * p.sigma
    r, r_bar, beta, gamma = ke.r, ke.r_bar, ke.beta, ke.gamma
    alpha_tot, nb = ke.parity.shape

    # top block: for each remaining long column, its basis expansion
    # cross-multiplied by t_hat
    left = f.neg(f.mul(ke.f_z.T[:, None, :, None], ke.t_hat[None, :, None, :]))
    b_top = np.hstack([
        left.reshape(beta * r, (r - b) * b),
        np.kron(linalg.eye(beta), ke.t_hat),
    ])
    # middle block, then dummy-slot columns deleted
    left = f.neg(f.mul(ke.f_e.T[:, None, :, None], ke.t_bar_hat[None, :, None, :]))
    b_mid = np.hstack([
        left.reshape(gamma * r_bar, (r_bar - isig) * isig),
        np.kron(linalg.eye(gamma), ke.t_bar_hat),
    ])[:, ke.kept_mask]
    # bottom block: parity staircase beside a permutation placing each kept
    # suffix unknown in its parity row
    b_bot_l = linalg.zeros(alpha_tot, alpha_tot)
    b_bot_l[ke.l_kept_idx, np.arange(alpha_tot)] = 1
    b_mat = np.vstack([
        np.hstack([b_top, linalg.zeros(beta * r, alpha_tot)]),
        np.hstack([linalg.zeros(gamma * r_bar, nb), b_mid]),
        np.hstack([ke.parity, b_bot_l]),
    ])
    rhs = np.concatenate([
        linalg.vectorize(f.matmul(ke.t_hat, ke.f_x)),
        linalg.vectorize(f.matmul(ke.t_bar_hat, ke.f_a)),
        ke.targets,
    ])
    return b_mat, rhs


def truth_vector(ke: KeyEquation, msg: SourceMessage,
                 suffixes: list[SuffixBlock]) -> np.ndarray:
    """Assemble the ground-truth unknown vector in the key equation's
    permuted, dummy-deleted layout (testing and validation helper)."""
    x_parts = [msg.w[:, c] for c in ke.x_col_order]
    i = ke.stage
    m = suffixes[0].script_l.shape[1]
    l_parts = []
    for c in ke.l_col_order:
        for k in range(1, i + 1):
            if c < k * m:
                l_parts.append(suffixes[k - 1].script_l[:, c])
    return np.concatenate(x_parts + l_parts)


def rs_run_session(field: Field, params: RsParams, msg: SourceMessage,
                   secret: SharedSecret, schedule, long_channel, short_channel,
                   rng: np.random.Generator, stage_cap: int = 64,
                   validate: bool = False) -> TrialRecord:
    """Run one random-secret session.

    ``schedule`` yields (long StageParams, short StageParams) pairs; long
    and short packets traverse independent channel instances.  Rate counts
    long packets only.  With validate=True the exact channel, parity
    staircase, basis reconstruction, and ground-truth key equation
    identities are asserted each stage.
    """
    p = params
    encoder = RsEncoder(field, p, msg, secret)
    sink = RsSinkState(field, p, secret)
    trace: list[tuple[int, int]] = []
    outcome = "exhausted"
    correct = False
    stages_used = 0

    for stage, (long_p, short_p) in enumerate(schedule, start=1):
        if stage > stage_cap:
            break
        if short_p.M - short_p.z < p.sigma:
            raise ValueError(
                f"short schedule violates sigma <= M_i - z_i at stage {stage}"
            )
        x_i, a_i = encoder.encode_stage(stage, long_p.c, short_p.c, rng)
        out_long = long_channel(long_p, x_i, rng)
        out_short = short_channel(short_p, a_i, rng)
        sink.ingest(out_long.Y, out_short.Y)
        trace.append((long_p.M, out_long.injected_errors(long_p.z)))
        stages_used = stage
        if validate:
            _validate_stage(field, p, msg, encoder, sink, out_long, x_i, out_short, a_i)
        ke = sink.build_key_equation()
        if validate and ke is not None:
            _validate_key_equation(field, p, msg, encoder, sink, ke, trace)
        result = sink.try_decode(ke)
        if result.status is Decode.DECODED:
            outcome = "decoded"
            correct = bool(np.array_equal(result.w, msg.w))
            break
        if result.status is Decode.FAILURE:
            outcome = "failure"
            break

    rate = p.b / stages_used if outcome == "decoded" else 0.0
    return TrialRecord(trial=0, stages_used=stages_used, outcome=outcome,
                       correct=correct, rate=rate, stage_trace=trace)


def _validate_stage(field, params, msg, encoder, sink, out_long, x_i, out_short, a_i):
    f = field
    y = f.add(f.matmul(out_long.T, x_i), f.matmul(out_long.Q, out_long.Z))
    if not np.array_equal(out_long.Y, y):
        raise AssertionError("long channel decomposition violated")
    j = f.add(f.matmul(out_short.T, a_i), f.matmul(out_short.Q, out_short.Z))
    if not np.array_equal(out_short.Y, j):
        raise AssertionError("short channel decomposition violated")
    i = sink.stage
    lhs = f.matmul(sink.secret.stacked_parity(i), encoder.w_vec[:, None])[:, 0]
    l_all = np.concatenate([s.l_vec for s in encoder.suffixes])
    if not np.array_equal(f.add(lhs, l_all), sink.secret.stacked_targets(i)):
        raise AssertionError("parity staircase identity violated")


def _validate_key_equation(field, params, msg, encoder, sink, ke, trace):
    f = field
    p = params
    # basis reconstruction identities on both sides
    for (mat, ident, limit, sel, coef) in (
        (ke.yp, p.b, p.n, ke.x_col_order[: ke.r - p.b], np.vstack([ke.f_z, ke.f_x])),
        (ke.jp, ke.stage * p.sigma, ke.stage * p.m,
         ke.l_col_order[: ke.r_bar - ke.stage * p.sigma], np.vstack([ke.f_e, ke.f_a])),
    ):
        basis = np.hstack([mat[:, sel], mat[:, limit:]])
        rest = [c for c in range(limit) if c not in set(sel)]
        if not np.array_equal(f.matmul(basis, coef), mat[:, rest]):
            raise AssertionError("basis reconstruction identity violated")
    # ground truth satisfies the key equation once the cut set is met
    b_tot = p.b + sum(z for _, z in trace)
    m_tot = sum(m for m, _ in trace)
    if b_tot <= m_tot:
        v = truth_vector(ke, msg, encoder.suffixes)
        b_mat, rhs = dense_key_equation(ke, sink.secret)
        if not np.array_equal(f.matmul(b_mat, v[:, None])[:, 0], rhs):
            raise AssertionError("ground truth does not satisfy the key equation")
