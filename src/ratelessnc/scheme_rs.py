"""Random-secret scheme: no side channel, hashes ride the public network.

The source and sink pre-share random symbols (independent of the message):
per stage k, alpha_k parity points d and targets ``h_k``.  The parity-check
row block ``D_k``, entry (i, j) = d_i^(j+1), is a function of the points,
so both sides keep only the symbols and evaluate rows of D where they read
them.  The encoder forms the suffix ``l_k = h_k - D_k w`` for the
vectorized message w and ships two packet kinds through separate
channels:

* long packets: random combinations of (W | I_b), as in the secret-channel
  scheme;
* short packets: random combinations of a staircase of suffix blocks
  ``(L_k | dummy 0 | 0 | I)``, whose width grows with the stage.

The sink keeps each packet kind's observations in reduced row echelon
form, identity columns first, extended by each stage's new rows with
``linalg.extend_rref`` (short rows re-padded to each stage's width, which
keeps the form).  The decoder reads the column bases of both off those
forms in place, with no elimination and no copy of a basis: the pivot
columns are the identity columns (independent with overwhelming
probability) followed by the greedy in-order basis of the rest, and the
non-pivot columns express the rest in those bases.  Together with the
parity rows this gives one linear key equation over the unknown message
and suffix entries; a unique solution decodes the message.  The sink keeps the key equation as its
block factors and solves it from them: the basis expansions pin the
non-basis unknowns, each basis suffix unknown sits alone in one parity
row, and what remains is a system in the basis message unknowns only.
The decoder builds and solves only that system's leading rows, the ones
the solver reads, from only the parity rows those rows use, evaluated at
their points, and accepts a solution only if it passes a check of every
block equation, which evaluates every parity point once to form D w.
D w, there and in the encoder's suffixes, is formed by baby and giant
steps, so no power of a point past the ceil(sqrt(n b))-th is evaluated.
Nothing is kept of D, and the dense matrix B is built only by
``dense_key_equation``, the oracle behind ``validate`` and the tests.
Positional bookkeeping of the dummy padding is the delicate part: the same
index map (``l_entry_map``) drives the dummy-slot constraints, the scatter
of suffix unknowns into parity rows and the ground-truth layout of
``truth_vector``.

The encoder, the sink and the decoder also run lockstep sessions: built on
a secret drawn from a ``field.GeneratorStack`` (one generator per
session), they hold every packet block, basis, key-equation block and
candidate as a stack with a leading batch axis, and the same code,
indexing with ``...``, does each step for the whole stack.  What depends
only on pivots is held once: the basis pivots, the chosen and remaining
columns, the kept slots and their suffix indices, the message unknowns'
order.  Every session of the stack takes every branch together
(``linalg.agree``), or the ones that would not are marked by
``linalg.Stray`` before it is taken.  Validation runs on single sessions
only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .field import Field
from .linalg import SolveStatus
from .records import Decode, DecodeResult, unsolved
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
    dedicated generator so they are independent of the message.

    Only the symbols are kept, (points, targets) per stage: the parity
    block D_k, entry (i, j) = d_i^(j+1), is a function of the points and is
    evaluated wherever it is read, never stored.  Given a ``GeneratorStack``
    of generators, the secrets of that many lockstep sessions, each stage's
    symbols stacked; ``lead`` is the stack's (batch) shape."""

    def __init__(self, field: Field, params: RsParams, rng):
        self.field = field
        self.params = params
        self._rng = rng
        self.lead = () if isinstance(rng, np.random.Generator) else (len(rng),)
        self._stages: list[tuple[np.ndarray, np.ndarray]] = []

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
        """Symbols drawn so far, per session."""
        return sum(2 * d.shape[-1] for d, _ in self._stages)

    def stacked(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Points and targets of stages 1..i, each concatenated."""
        stages = [self.stage(k) for k in range(1, i + 1)]
        return (np.concatenate([d for d, _ in stages], axis=-1),
                np.concatenate([h for _, h in stages], axis=-1))


def _parity_times(field: Field, points: np.ndarray, w_vec: np.ndarray) -> np.ndarray:
    """D w for the parity rows at ``points`` (entry (i, j) = points[i]^(j+1)),
    by baby and giant steps: with s = ceil(sqrt(len(w))) and w cut into
    rows of s, one product with the s baby rows p^1 .. p^s gives each
    row's sum, and Horner steps in p^s add them up.  No power past p^s is
    evaluated, so the largest temporary is s x len(points).  Stacked
    points and vectors give stacked values."""
    nb = w_vec.shape[-1]
    s = math.isqrt(nb - 1) + 1
    giant_rows = -(-nb // s)
    blocks = np.zeros(w_vec.shape[:-1] + (giant_rows * s,), dtype=np.int64)
    blocks[..., :nb] = w_vec
    baby = linalg.vandermonde(field, points, s)
    sums = field.matmul(blocks.reshape(blocks.shape[:-1] + (giant_rows, s)), baby)
    acc = sums[..., -1, :]
    for g in range(giant_rows - 2, -1, -1):
        acc = field.add(field.mul(acc, baby[..., -1, :]), sums[..., g, :])
    return acc


def rs_make_suffix(field: Field, w_vec: np.ndarray, secret: SharedSecret,
                   k: int) -> np.ndarray:
    """The stage-k suffix vector l_k = h_k - D_k w."""
    p = secret.params
    if w_vec.shape[-1] != p.n * p.b:
        raise ValueError(f"message vector length {w_vec.shape[-1]} != n*b = {p.n * p.b}")
    d_k, h_k = secret.stage(k)
    return field.sub(h_k, _parity_times(field, d_k, w_vec))


@functools.lru_cache
def l_entry_map(i: int, m: int, sigma: int) -> np.ndarray:
    """Map the non-identity region of the stage-i staircase to suffix
    symbol indices.

    Entry [c, (k-1)*sigma + s] is the index of L-column c, block-k row s in
    the concatenated suffix vector (l_1 .. l_i), or -1 where the position
    is dummy zero padding (block k ends at column k*m).  The map depends
    on its arguments only, so it is built once per (i, m, sigma) and
    returned read-only."""
    out = np.full((i * m, i * sigma), -1, dtype=np.int64)
    offset = 0
    for k in range(1, i + 1):
        width = k * m
        cols = np.arange(width)
        rows = slice((k - 1) * sigma, k * sigma)
        out[:width, rows] = offset + cols[:, None] * sigma + np.arange(sigma)[None, :]
        offset += k * sigma * m
    out.flags.writeable = False
    return out


def assemble_staircase(params: RsParams, suffixes: list[np.ndarray]) -> np.ndarray:
    """Stack the suffix vectors l_k, each as its sigma x (k m) block, as
    (L_k | dummy 0 | 0 | I_sigma) rows, re-padded to the current stage's
    width i*(m + sigma)."""
    i = len(suffixes)
    m, sigma = params.m, params.sigma
    out = np.zeros(suffixes[0].shape[:-1] + (i * sigma, i * (m + sigma)), dtype=np.int64)
    for k, l_k in enumerate(suffixes, start=1):
        out[..., (k - 1) * sigma: k * sigma, : k * m] = linalg.devectorize(l_k, sigma, k * m)
    out[..., i * m:] = linalg.eye(i * sigma)
    return out


def _identity_first(packets: np.ndarray, ident_cols: int) -> np.ndarray:
    """The packets with their trailing ``ident_cols`` identity columns
    moved to the front."""
    return np.concatenate([packets[..., -ident_cols:], packets[..., :-ident_cols]], axis=-1)


class RsEncoder:
    """Stage-sequential encoder for one session, or for a stack of lockstep
    sessions (a stacked message and secret, and one generator each)."""

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
        self.suffixes: list[np.ndarray] = []

    def encode_stage(self, i: int, c_i: int, cbar_i: int,
                     rng) -> tuple[np.ndarray, np.ndarray]:
        """Long packets X_i = K_i X0 and short packets A_i = G_i L^(i)."""
        if i != len(self.suffixes) + 1:
            raise ValueError(f"stages must be encoded in order; expected {len(self.suffixes) + 1}")
        f = self.field
        self.suffixes.append(rs_make_suffix(f, self.w_vec, self.secret, i))
        k_mat = f.sample(rng, (c_i, self.params.b))
        x_i = self.msg.combine(f, k_mat)
        staircase = assemble_staircase(self.params, self.suffixes)
        g_mat = f.sample(rng, (cbar_i, i * self.params.sigma))
        a_i = f.matmul(g_mat, staircase)
        return x_i, a_i


@dataclass
class KeyEquation:
    """The decode system B v = rhs kept as its block factors: the basis
    expansions of both observation stacks, the parity points and targets,
    plus the bookkeeping needed to solve it and to reassemble the message.
    Both kept bases are held by reference (``extend_rref`` never writes
    one in place), identity columns first: t_hat = yb[:, :b] and
    t_bar_hat = jb[:, :i sigma].  The
    parity staircase D is not held: row t of D, in the unknowns' order,
    is d_t^(xperm + 1), evaluated where it is read (``dense_key_equation``
    builds D and B whole)."""

    stage: int
    r: int
    r_bar: int
    beta: int
    gamma: int
    x_col_order: list[int]       # W columns: basis columns first, then the rest
    l_col_order: list[int]       # staircase columns (non-identity region)
    kept_mask: np.ndarray        # which (column, row) slots are real suffix symbols
    l_kept_idx: np.ndarray       # their indices into (l_1 .. l_i)
    f_z: np.ndarray              # expansion rows of the chosen long columns
    f_x: np.ndarray              # and of the identity ones
    f_e: np.ndarray              # the same for the short side
    f_a: np.ndarray
    yb: np.ndarray
    jb: np.ndarray
    xperm: np.ndarray            # vec(W) index of each message unknown
    points: np.ndarray           # stacked parity points d
    targets: np.ndarray          # stacked h


class RsSinkState:
    """Both observation stacks kept in reduced row echelon form, identity
    columns first, and the decoder; for one session or, on a stacked
    secret, for a stack of lockstep sessions with one pivot list."""

    def __init__(self, field: Field, params: RsParams, secret: SharedSecret):
        params.check_field(field)
        self.field = field
        self.params = params
        self.secret = secret
        self.stage = 0
        # long basis over columns (n..n+b, 0..n); short basis over the
        # i*sigma identity columns, then the i*m L columns
        lead = secret.lead
        self._yb, self._ypiv = np.zeros(lead + (0, params.n + params.b), dtype=np.int64), []
        self._jb, self._jpiv = np.zeros(lead + (0, 0), dtype=np.int64), []

    def ingest(self, y_i: np.ndarray, j_i: np.ndarray) -> None:
        p = self.params
        i = self.stage + 1
        lead = self._yb.shape[:-2]
        dims = len(lead) + 2
        if y_i.ndim != dims or j_i.ndim != dims:
            raise ValueError(
                f"packet blocks must be {dims}-D, got long {y_i.ndim}-D and short {j_i.ndim}-D")
        if y_i.shape[:-2] != lead or j_i.shape[:-2] != lead:
            raise ValueError(f"packet blocks stack {y_i.shape[:-2]} and {j_i.shape[:-2]} "
                             f"sessions, the sink {lead}")
        if y_i.shape[-1] != p.n + p.b:
            raise ValueError(f"long packet width {y_i.shape[-1]} != n+b = {p.n + p.b}")
        if j_i.shape[-1] != i * (p.m + p.sigma):
            raise ValueError(
                f"short packet width {j_i.shape[-1]} != i*(m+sigma) = {i * (p.m + p.sigma)}"
            )
        f = self.field
        f.check_range(y_i, "long packet symbols")
        f.check_range(j_i, "short packet symbols")
        # both bases put the packets' trailing identity columns first
        self._yb, self._ypiv = linalg.extend_rref(
            f, self._yb, self._ypiv, _identity_first(y_i, p.b))
        # re-pad the short basis with this stage's zero identity and dummy
        # columns, exactly as the staircase rows are; zero columns keep the
        # reduced form, shifting the pivots past the inserted identity block
        cut = (i - 1) * p.sigma
        old = self._jb
        jb = np.zeros(old.shape[:-1] + j_i.shape[-1:], dtype=np.int64)
        jb[..., :cut] = old[..., :cut]
        jb[..., cut + p.sigma: -p.m] = old[..., cut:]
        jpiv = [c if c < cut else c + p.sigma for c in self._jpiv]
        self._jb, self._jpiv = linalg.extend_rref(
            f, jb, jpiv, _identity_first(j_i, i * p.sigma))
        self.stage = i

    # -- decoding -------------------------------------------------------
    def _extract_side(self, rref: np.ndarray, pivots: list[int], ident_cols: int,
                      scan_limit: int):
        """Read the column basis and the expansions off one kept basis.

        ``rref`` is in reduced row echelon form over (the ident_cols
        identity columns, then the scan_limit leading ones), so its pivot
        columns are the greedy in-order column basis that starts with the
        identity columns, and its non-pivot columns are the coefficients
        expressing the rest in that basis: no elimination is needed.
        Returns the basis's rank, the chosen and remaining leading columns
        and the coefficients, one row per basis column in pivot order (the
        identity columns', then the chosen ones'); None when some identity
        column is not a pivot yet."""
        if pivots[:ident_cols] != list(range(ident_cols)):
            return None  # trailing identity image degenerate this stage
        chosen = [c - ident_cols for c in pivots[ident_cols:]]
        rest = sorted(set(range(scan_limit)) - set(chosen))
        return (rref.shape[-2], chosen, rest,
                np.take(rref, [ident_cols + c for c in rest], axis=-1))

    def build_key_equation(self) -> KeyEquation | None:
        """Read both column bases off the kept bases and collect the key
        equation's block factors; None while the observations cannot
        support the required identity-column bases."""
        p = self.params
        i = self.stage
        if i == 0:
            return None
        long_side = self._extract_side(self._yb, self._ypiv, p.b, p.n)
        if long_side is None:
            return None
        r, sel_y, rest_y, coef_y = long_side
        short_side = self._extract_side(self._jb, self._jpiv, i * p.sigma, i * p.m)
        if short_side is None:
            return None
        r_bar, sel_j, rest_j, coef_j = short_side

        b, n = p.b, p.n
        isig = i * p.sigma
        x_col_order = list(sel_y) + list(rest_y)
        l_col_order = list(sel_j) + list(rest_j)
        lmap = l_entry_map(i, p.m, p.sigma)
        slot_idx = lmap[l_col_order].reshape(-1)
        kept_mask = slot_idx >= 0
        points, targets = self.secret.stacked(i)
        return KeyEquation(
            stage=i, r=r, r_bar=r_bar, beta=n + b - r, gamma=i * (p.m + p.sigma) - r_bar,
            x_col_order=x_col_order, l_col_order=l_col_order,
            kept_mask=kept_mask, l_kept_idx=slot_idx[kept_mask],
            f_z=coef_y[..., b:, :], f_x=coef_y[..., :b, :],
            f_e=coef_j[..., isig:, :], f_a=coef_j[..., :isig, :],
            yb=self._yb, jb=self._jb,
            xperm=(b * np.asarray(x_col_order)[:, None] + np.arange(b)).reshape(-1),
            points=points, targets=targets,
        )

    def try_decode(self, ke: KeyEquation) -> DecodeResult:
        """Solve the key equation from its blocks.

        With X = (X_a | X_b) and L = (L_a | L_b) split at the basis columns,
        the long and short expansions give X_b = X_a F_z + F_x and
        L_b = L_a F_e + F_a (t_hat and t_bar_hat have full column rank), and
        each basis suffix unknown sits alone in its parity row, so
        l_a = c - A_x x_a.  What remains is one equation per L_b slot:
        the parity rows of the kept slots and zero on the dummy slots, in
        the b(r-b) unknowns of x_a only.

        Only the rows ``solve_exact`` reads are built: those of the leading
        g = min(gamma, ceil(2 theta / (i sigma))) L_b columns, where
        theta = b(r-b) is the number of unknowns it eliminates, and only
        the parity rows they use, those of the L_a slots and of the slice's
        kept slots, evaluated at their points in one pass.  The slice's
        2 theta rows (every row, when fewer) hold the theta + 1 rows
        ``solve_exact`` eliminates first and rows that one product checks.
        The slice's elimination is then the full system's, so NO_SOLUTION
        on it is final; MULTIPLE with rows left over is re-solved on every
        row, evaluating only the parity rows not read yet.  A unique
        candidate is accepted only if it satisfies the three block
        equations, which cover every row of B v = rhs; when rows were left
        unread, a candidate that fails them means the full system has no
        solution."""
        f = self.field
        p = self.params
        b, nb = p.b, p.n * p.b
        lead = ke.yb.shape[:-2]
        isig = ke.stage * p.sigma
        r, r_bar, gamma = ke.r, ke.r_bar, ke.gamma
        theta_a = b * (r - b)
        n_basis_slots = (r_bar - isig) * isig
        kept_a = ke.kept_mask[:n_basis_slots]
        kept_b = ke.kept_mask[n_basis_slots:]
        la_cnt = int(kept_a.sum())
        rows_a = ke.l_kept_idx[:la_cnt]      # parity row of each basis suffix unknown
        rows_b = ke.l_kept_idx[la_cnt:]      # and of each kept non-basis one
        f_x_vec = linalg.vectorize(ke.f_x)

        def l_aff(rows):
            # the given parity rows as affine maps of x_a, l = c - A_x x_a,
            # as [-A_x | c]: D x = D_a x_a + D_b vec(X_a F_z + F_x), where
            # D_b vec(X_a F_z) is one F_z product over D_b's columns
            # regrouped by X_b column; the rows are evaluated at their
            # points with their columns in the unknowns' order
            d = np.take(linalg.vandermonde(f, np.take(ke.points, rows, axis=-1), nb),
                        ke.xperm, axis=-2).swapaxes(-1, -2)
            d_a, d_b = d[..., :theta_a], d[..., theta_a:]
            cnt = d.shape[-2]
            d_b_fz = f.matmul(ke.f_z, d_b.reshape(lead + (cnt, ke.beta, b)).swapaxes(-3, -2)
                              .reshape(lead + (ke.beta, cnt * b)))
            a_x = f.add(d_a, d_b_fz.reshape(lead + (r - b, cnt, b)).swapaxes(-3, -2)
                        .reshape(lead + (cnt, theta_a)))
            c = f.sub(np.take(ke.targets, rows, axis=-1),
                      f.matmul(d_b, f_x_vec[..., None])[..., 0])
            return np.concatenate([f.neg(a_x), c[..., None]], axis=-1)

        g = min(gamma, -(-2 * theta_a // isig))
        read_b = int(kept_b[: g * isig].sum())
        aff = l_aff(np.concatenate([rows_a, rows_b[:read_b]]))
        l_aff_a, want_b = aff[..., :la_cnt, :], aff[..., la_cnt:, :]
        # vec(L_a) with its dummy slots zero, pushed through vec(Z) -> vec(Z F_e)
        la_aff = np.zeros(lead + (n_basis_slots, theta_a + 1), dtype=np.int64)
        la_aff[..., kept_a, :] = l_aff_a
        la_aff = la_aff.reshape(lead + (r_bar - isig, isig * (theta_a + 1)))
        f_a_vec = linalg.vectorize(ke.f_a)
        f_e_t = ke.f_e.swapaxes(-1, -2)

        def solve_leading(g: int, want_b):
            # rows of the leading g L_b columns: row c*isig + s is slot s of column c
            rows = g * isig
            lb_aff = f.matmul(f_e_t[..., :g, :], la_aff).reshape(lead + (rows, theta_a + 1))
            lb_aff[..., theta_a] = f.add(lb_aff[..., theta_a], f_a_vec[..., :rows])
            # ... must equal the parity value on kept slots and zero on dummy ones
            want = np.zeros(lead + (rows, theta_a + 1), dtype=np.int64)
            want[..., kept_b[:rows], :] = want_b
            diff = f.sub(lb_aff, want)
            return linalg.solve_exact(f, diff[..., :theta_a], f.neg(diff[..., theta_a]))

        out = solve_leading(g, want_b)
        if out.status is SolveStatus.MULTIPLE and g < gamma:
            g = gamma
            out = solve_leading(g, np.concatenate([want_b, l_aff(rows_b[read_b:])], axis=-2))
        if out.status is not SolveStatus.UNIQUE:
            return unsolved(out.status)

        x_a = linalg.devectorize(out.solution, b, r - b)
        x_b = f.add(f.matmul(x_a, ke.f_z), ke.f_x)
        l_a = np.zeros(lead + (n_basis_slots,), dtype=np.int64)
        # [-A_x | c] applied to (x_a, 1): A_x x_a is subtracted from c
        l_a[..., kept_a] = f.add(f.matmul(l_aff_a[..., :theta_a], out.solution[..., None])[..., 0],
                                 l_aff_a[..., theta_a])
        l_a = linalg.devectorize(l_a, isig, r_bar - isig)
        l_b = f.add(f.matmul(l_a, ke.f_e), ke.f_a)
        w_hat = np.zeros(lead + (b, p.n), dtype=np.int64)
        w_hat[..., ke.x_col_order] = np.concatenate([x_a, x_b], axis=-1)
        if not _blocks_hold(f, ke, w_hat, l_a, l_b):
            if g < gamma:  # an unread row excludes the only candidate
                return unsolved(SolveStatus.NO_SOLUTION)
            raise AssertionError("key equation bookkeeping inconsistent with solution")
        return DecodeResult(Decode.DECODED, w=w_hat)


def _blocks_hold(f: Field, ke: KeyEquation, w, l_a, l_b) -> bool:
    """The block equations of B v = rhs for the candidate W and (L_a, L_b)
    that it does not meet by construction: the dummy slots are zero and
    D x + l = h.  The other two, t_hat (X_b - X_a F_z) = t_hat F_x and
    t_bar_hat (L_b - L_a F_e) = t_bar_hat F_a, hold for every candidate
    ``try_decode`` forms, since it sets X_b = X_a F_z + F_x and
    L_b = L_a F_e + F_a, so they are not checked.  D x is formed as
    D vec(W), with D evaluated at every parity point for this product
    only.  For a stack, the one verdict of every candidate in it."""
    l_slots = np.concatenate([linalg.vectorize(l_a), linalg.vectorize(l_b)], axis=-1)
    if linalg.agree(l_slots[..., ~ke.kept_mask].any(axis=-1)):
        return False
    l_sfx = np.zeros(ke.targets.shape, dtype=np.int64)
    l_sfx[..., ke.l_kept_idx] = l_slots[..., ke.kept_mask]
    held = f.add(_parity_times(f, ke.points, linalg.vectorize(w)), l_sfx) == ke.targets
    return linalg.agree(held.all(axis=-1))


def dense_key_equation(ke: KeyEquation, secret: SharedSecret) -> tuple[np.ndarray, np.ndarray]:
    """Assemble the dense key equation (B, rhs) over v = (x, l) in the
    permuted, dummy-deleted layout of ``truth_vector`` (validation and
    testing oracle; the decoder never builds it)."""
    f = secret.field
    p = secret.params
    b, isig = p.b, ke.stage * p.sigma
    r, r_bar, beta, gamma = ke.r, ke.r_bar, ke.beta, ke.gamma
    alpha_tot, nb = ke.points.size, ke.xperm.size
    t_hat, t_bar_hat = ke.yb[:, :b], ke.jb[:, :isig]

    # top block: for each remaining long column, its basis expansion
    # cross-multiplied by t_hat
    left = f.neg(f.mul(ke.f_z.T[:, None, :, None], t_hat[None, :, None, :]))
    b_top = np.hstack([
        left.reshape(beta * r, (r - b) * b),
        np.kron(linalg.eye(beta), t_hat),
    ])
    # middle block, then dummy-slot columns deleted
    left = f.neg(f.mul(ke.f_e.T[:, None, :, None], t_bar_hat[None, :, None, :]))
    b_mid = np.hstack([
        left.reshape(gamma * r_bar, (r_bar - isig) * isig),
        np.kron(linalg.eye(gamma), t_bar_hat),
    ])[:, ke.kept_mask]
    # bottom block: parity staircase beside a permutation placing each kept
    # suffix unknown in its parity row
    b_bot_l = linalg.zeros(alpha_tot, alpha_tot)
    b_bot_l[ke.l_kept_idx, np.arange(alpha_tot)] = 1
    b_mat = np.vstack([
        np.hstack([b_top, linalg.zeros(beta * r, alpha_tot)]),
        np.hstack([linalg.zeros(gamma * r_bar, nb), b_mid]),
        np.hstack([linalg.vandermonde(f, ke.points, nb)[ke.xperm].T, b_bot_l]),
    ])
    rhs = np.concatenate([
        linalg.vectorize(f.matmul(t_hat, ke.f_x)),
        linalg.vectorize(f.matmul(t_bar_hat, ke.f_a)),
        ke.targets,
    ])
    return b_mat, rhs


def truth_vector(ke: KeyEquation, msg: SourceMessage,
                 suffixes: list[np.ndarray]) -> np.ndarray:
    """Assemble the ground-truth unknown vector in the key equation's
    permuted, dummy-deleted layout (testing and validation helper)."""
    return np.concatenate([linalg.vectorize(msg.w[:, ke.x_col_order]),
                           np.concatenate(suffixes)[ke.l_kept_idx]])


def rs_stages(field: Field, params: RsParams, msg: SourceMessage,
              secret: SharedSecret, schedule, long_channel, short_channel,
              rng: np.random.Generator, validate: bool = False):
    """Run the stages of one random-secret session, yielding
    ((long M, injected long z), DecodeResult) per stage; or of a lockstep
    batch, given a stacked message and secret and one generator per
    session, yielding one verdict for the batch per stage.

    ``schedule`` yields (long StageParams, short StageParams) pairs; long
    and short packets traverse independent channel instances.  The stage
    trace, and so the rate, counts long packets only.  With validate=True
    the exact channels, parity staircase, basis reconstruction, and
    ground-truth key equation identities are asserted each stage.
    """
    encoder = RsEncoder(field, params, msg, secret)
    sink = RsSinkState(field, params, secret)
    margin = 0  # sum of M - z over the long stages so far
    for stage, (long_p, short_p) in enumerate(schedule, start=1):
        if short_p.M - short_p.z < params.sigma:
            raise ValueError(
                f"short schedule violates sigma <= M_i - z_i at stage {stage}"
            )
        x_i, a_i = encoder.encode_stage(stage, long_p.c, short_p.c, rng)
        out_long = long_channel(long_p, x_i, rng)
        out_short = short_channel(short_p, a_i, rng)
        if validate:
            out_long.check_decomposition(field, x_i)
            out_short.check_decomposition(field, a_i)
            _validate_stage(encoder)
        sink.ingest(out_long.Y, out_short.Y)
        z = out_long.injected_errors(long_p.z)
        margin += long_p.M - z
        ke = sink.build_key_equation()
        if validate and ke is not None:
            _validate_key_equation(encoder, ke, cutset_met=margin >= params.b)
        yield (long_p.M, z), (DecodeResult(Decode.NEED_MORE) if ke is None
                              else sink.try_decode(ke))


def _validate_stage(encoder: RsEncoder) -> None:
    f = encoder.field
    points, targets = encoder.secret.stacked(len(encoder.suffixes))
    lhs = _parity_times(f, points, encoder.w_vec)
    if not np.array_equal(f.add(lhs, np.concatenate(encoder.suffixes)), targets):
        raise AssertionError("parity staircase identity violated")


def _validate_key_equation(encoder: RsEncoder, ke: KeyEquation, cutset_met: bool) -> None:
    f = encoder.field
    # basis reconstruction identities on both sides: in each kept basis,
    # the identity and chosen columns times the expansions give the rest
    for mat, order, coef in ((ke.yb, ke.x_col_order, np.vstack([ke.f_x, ke.f_z])),
                             (ke.jb, ke.l_col_order, np.vstack([ke.f_a, ke.f_e]))):
        ident = mat.shape[1] - len(order)
        cols = list(range(ident)) + [ident + c for c in order]
        r = coef.shape[0]
        if not np.array_equal(f.matmul(mat[:, cols[:r]], coef), mat[:, cols[r:]]):
            raise AssertionError("basis reconstruction identity violated")
    # ground truth satisfies the key equation once the cut set is met
    if cutset_met:
        v = truth_vector(ke, encoder.msg, encoder.suffixes)
        b_mat, rhs = dense_key_equation(ke, encoder.secret)
        if not np.array_equal(f.matmul(b_mat, v[:, None])[:, 0], rhs):
            raise AssertionError("ground truth does not satisfy the key equation")
