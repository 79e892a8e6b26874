"""Secret-channel scheme: rateless encoder and accumulating decoder.

Per stage the source sends fresh random combinations of the message block
(with an appended identity) over the network, and hands the sink a small
hash over a reliable side conduit: a batch of fresh random evaluation
points plus the message evaluated at them (a Vandermonde product).  The
sink keeps the reduced row echelon form of everything received so far and
tries to express the message as a combination of those rows that is
consistent with every hash; it decodes once that combination pins down a
single candidate.

No product multiplies an identity block: (W | I) times D is W D[:n] plus
D[n:], K (W | I) is (K W | K), and a reduced echelon form R times D is
D at R's pivot rows plus R's free columns times D at the rest.  The sink
keeps the hash as symbols, its points and hash columns, and evaluates D
only at the points it reads.

A decode reads at most rank + 1 + n + b hash points, however many it has
received.  The secret channel delivers H = X0 D honestly (the paper's
model), so a candidate X agrees with H at a point p exactly where
(X - X0) d(p) = 0, and row by row that difference is p Q(p) for a
polynomial Q of degree below n + b.  A nonzero Q has fewer roots than
that, so once X agrees with H at n + b distinct nonzero points, X = X0.
A zero point or a repeated one adds no equation.  So the sink solves for
the combination once, on the leading rank + 1 hash points followed by the
points up to n + b distinct nonzero ones, and that solve's verdict is the
verdict over every point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .field import Field
from .linalg import SolveStatus
from .records import Decode, DecodeResult, unsolved


@dataclass
class SourceMessage:
    """Message block W (b x n) and its on-the-wire form (W | I_b); or a
    stack of them, one per lockstep session, drawn from a sequence of
    generators."""

    w: np.ndarray
    x0: np.ndarray

    @classmethod
    def from_w(cls, w: np.ndarray) -> "SourceMessage":
        b, n = w.shape[-2:]
        x0 = np.zeros(w.shape[:-1] + (n + b,), dtype=np.int64)
        x0[..., :n] = w
        x0[..., n:] = linalg.eye(b)
        return cls(w=w, x0=x0)

    @classmethod
    def random(cls, field: Field, b: int, n: int, rng) -> "SourceMessage":
        if b < 1 or n < 1:
            raise ValueError("message shape must satisfy b >= 1 and n >= 1")
        if n + b >= field.q:
            raise ValueError(f"packet length n+b={n+b} must be below the field order {field.q}")
        return cls.from_w(field.sample(rng, (b, n)))

    def combine(self, field: Field, k: np.ndarray) -> np.ndarray:
        """Packets K (W | I) = (K W | K)."""
        return np.concatenate([field.matmul(k, self.w), k], axis=-1)

    @property
    def b(self) -> int:
        return self.w.shape[-2]

    @property
    def n(self) -> int:
        return self.w.shape[-1]


@dataclass
class SecretStagePayload:
    """One stage's side-channel content: evaluation points and the hash
    columns H = X0 @ vandermonde(points), formed as W D[:n] + D[n:]."""

    points: np.ndarray
    hashes: np.ndarray

    @property
    def size_symbols(self) -> int:
        """Secret symbols consumed: points plus one hash column per point."""
        return self.points.size * (1 + self.hashes.shape[0])


def _times_x0(field: Field, w: np.ndarray, d: np.ndarray) -> np.ndarray:
    """(W | I) D = W D[:n] + D[n:]."""
    n = w.shape[1]
    return field.add(field.matmul(w, d[:n]), d[n:])


def sc_encode_stage(field: Field, msg: SourceMessage, stage: int, c_i: int,
                    rng: np.random.Generator) -> tuple[np.ndarray, SecretStagePayload]:
    """Encode stage >= 1: X_i = K_i @ X0 = (K_i W | K_i) with K_i uniform
    c_i x b, plus the stage hash.  Stage 1 carries one extra evaluation
    point."""
    if stage < 1 or c_i < 1:
        raise ValueError("stage and c_i must be >= 1")
    b = msg.b
    k = field.sample(rng, (c_i, b))
    x_i = msg.combine(field, k)
    n_points = b * c_i + (1 if stage == 1 else 0)
    points = field.sample(rng, n_points)
    hashes = _times_x0(field, msg.w, linalg.vandermonde(field, points, msg.n + b))
    return x_i, SecretStagePayload(points=points, hashes=hashes)


class SinkStateSC:
    """Accumulated observations and hash symbols, with the hash check kept
    in the size of the message.

    The decode system is S (Y D) = H for the combination matrix S.  Only
    S Y matters, and it depends on the row space of Y alone, so the sink
    keeps the reduced row echelon form R of every row received so far,
    grown with ``linalg.extend_rref`` as the random-secret sink grows its
    bases.  Once R has b rows it solves S' G = H for G = R D, in dimension
    rank(Y), with ``linalg.solve_exact``; the message is S' R.  D is never
    held: the sink keeps the evaluation points and hash columns and
    evaluates D at the points a decode reads.

    The solve reads the leading min(rank + 1, P) of the P hash points, the
    block ``solve_exact`` eliminates first, then the following distinct
    nonzero points until n + b are read.  Its verdict is that of the solve
    over every point: a unique S' gives X = S' R agreeing with H at n + b
    distinct nonzero points, so X = X0 agrees everywhere, or, when fewer
    exist, at every point that adds an equation; no solution on some
    points leaves none on all; and a MULTIPLE occurs only when fewer than
    n + b distinct nonzero points exist, all of them read.
    """

    def __init__(self, field: Field, b: int, n: int):
        self.field = field
        self.b = b
        self.n = n
        self.points = np.zeros(0, dtype=np.int64)
        self.h = linalg.zeros(b, 0)
        self._rref, self._piv = linalg.zeros(0, n + b), []

    def ingest(self, y_i: np.ndarray, secret: SecretStagePayload) -> None:
        f = self.field
        width = self.n + self.b
        if y_i.ndim != 2:
            raise ValueError(f"observations must be a 2-D block, got {y_i.ndim}-D")
        if y_i.shape[1] != width:
            raise ValueError(f"observation width {y_i.shape[1]} != n+b = {width}")
        if secret.points.ndim != 1 or secret.hashes.shape != (self.b, secret.points.size):
            raise ValueError("hash block does not match its evaluation points")
        f.check_range(y_i, "observation symbols")
        f.check_range(secret.points, "evaluation points")
        f.check_range(secret.hashes, "hash symbols")
        self._rref, self._piv = linalg.extend_rref(f, self._rref, self._piv, y_i)
        self.points = np.concatenate([self.points, secret.points])
        self.h = np.concatenate([self.h, secret.hashes], axis=1)

    def try_decode(self) -> DecodeResult:
        piv = self._piv
        if len(piv) < self.b:
            return DecodeResult(Decode.NEED_MORE)
        f = self.field
        b, n, points = self.b, self.n, self.points
        # R's pivot columns are an identity: R D = D[piv] + R[:, free] D[free]
        free = np.ones(n + b, dtype=bool)
        free[piv] = False
        r_free = self._rref[:, free]
        lead = min(len(piv) + 1, points.size)
        cols = np.concatenate([np.arange(lead), _fresh_points(points, lead, n + b)])
        d = linalg.vandermonde(f, points[cols], n + b)
        g = f.add(d[piv], f.matmul(r_free, d[free]))
        out = linalg.solve_exact(f, g.T, self.h[:, cols].T)
        if out.status is not SolveStatus.UNIQUE:
            return unsolved(out.status)
        s = out.solution.T
        x_hat = linalg.zeros(b, n + b)
        x_hat[:, piv] = s
        x_hat[:, free] = f.matmul(s, r_free)
        return _accept(x_hat, n)


def _fresh_points(points: np.ndarray, lead: int, bound: int) -> np.ndarray:
    """Indices past ``lead``, in order, of the first points that are
    nonzero and not seen before, as many as bring the distinct nonzero
    points read to ``bound`` (all of them when fewer exist)."""
    values, first = np.unique(points, return_index=True)
    first = first[values != 0]
    seen = np.count_nonzero(first < lead)
    return np.sort(first[first >= lead])[: max(bound - seen, 0)]


def _accept(x0_hat: np.ndarray, n: int) -> DecodeResult:
    """Decode only when the recovered packets carry the (W | I) identity."""
    if not np.array_equal(x0_hat[:, n:], linalg.eye(x0_hat.shape[0])):
        return DecodeResult(Decode.FAILURE)
    return DecodeResult(Decode.DECODED, w=x0_hat[:, :n])


def _dense_decode(sink: SinkStateSC, y: np.ndarray) -> DecodeResult:
    """What ``try_decode`` must return, solved over every received row y."""
    f = sink.field
    if linalg.rank(f, y) < sink.b:
        return DecodeResult(Decode.NEED_MORE)
    d = linalg.vandermonde(f, sink.points, sink.n + sink.b)
    out = linalg.solve_in_row_space(f, y, d, sink.h)
    if out.status is not SolveStatus.UNIQUE:
        return unsolved(out.status)
    return _accept(f.matmul(out.solution, y), sink.n)


def sc_stages(field: Field, msg: SourceMessage, schedule, channel,
              rng: np.random.Generator, validate: bool = False):
    """Run the stages of one session: encode, transmit, ingest and attempt
    decode, yielding ((M, injected z), DecodeResult) per stage.

    ``schedule`` yields StageParams; ``channel`` maps (params, X, rng) to a
    StageOutcome.  With validate=True the exact channel decomposition, the
    hash identity and the sink's decode (against a dense solve over all of
    Y) are asserted every stage.
    """
    sink = SinkStateSC(field, msg.b, msg.n)
    y_all = linalg.zeros(0, msg.n + msg.b)  # every received row, for the dense oracle
    for stage, params in enumerate(schedule, start=1):
        x_i, secret = sc_encode_stage(field, msg, stage, params.c, rng)
        out = channel(params, x_i, rng)
        if validate:
            out.check_decomposition(field, x_i)
            d_i = linalg.vandermonde(field, secret.points, msg.n + msg.b)
            if not np.array_equal(field.matmul(msg.x0, d_i), secret.hashes):
                raise AssertionError("hash identity H = X0 D violated")
        sink.ingest(out.Y, secret)
        result = sink.try_decode()
        if validate:
            y_all = np.vstack([y_all, out.Y])
            expect = _dense_decode(sink, y_all)
            if result.status is not expect.status or not np.array_equal(result.w, expect.w):
                raise AssertionError("sink decode disagrees with the dense solve over all of Y")
        yield (params.M, out.injected_errors(params.z)), result
