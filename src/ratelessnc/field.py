"""Finite-field arithmetic of configurable order.

Elements are plain integers in ``[0, q)`` held in numpy ``int64`` arrays;
a field object supplies the arithmetic.  Two kinds are supported:

* binary extension fields GF(2^w), 2 <= w <= 16, with log/antilog tables
  built from a primitive generator, so elementwise multiplication of whole
  arrays is a pair of table gathers;
* prime fields GF(p) using modular arithmetic.

All operations broadcast like their numpy counterparts and are bit-exact.
Field objects are immutable after construction, so they are safe to share
across threads; generator state stays with the caller.

Matrices may come as stacks: a leading batch axis of independent matrices
of one shape, as the lockstep sessions of ``harness.run_experiment`` hold
them.  ``matmul`` multiplies stacks matrix by matrix (broadcasting the
batch axis), ``pivot_step`` pivots every matrix of a stack at the same
position, and ``sample`` given a ``GeneratorStack`` draws for every
session of the stack, in one step, exactly what its generator would draw
alone.  A 2-D input is a single matrix, handled as it always was.

Stacked draws are exact because they repeat numpy's algorithm (checked
against numpy 2.4.6).  ``Generator.integers(0, q, dtype=int64)`` with
q <= 2^32 draws 32-bit halves of PCG64 output words, the low half of a
word first and its high half on the next draw (PCG64 keeps it pending,
across calls too), and maps each half h to ``(h * q) >> 32``: Lemire's
multiply-shift (Lemire, "Fast Random Integer Generation in an
Interval", ACM TOMACS 2019).  It rejects and redraws a half whose
``(h * q) mod 2^32`` is below ``2^32 mod q``, which never happens for
q = 2^w (the map is then a shift) and about once in 1.9 * 10^7 draws at
q = 65521.  A ``GeneratorStack`` buffers each generator's output words
(``random_raw``, the words ``next_uint64`` gives) as halves in that
order, reads the next k halves of every row for a draw of k symbols and
maps them all at once; where numpy would reject a half it raises
``Stray`` for the rows that hold one, and the batch leaves the shared
path.  ``tests/test_field.py::test_stacked_draws_equal_numpy_draws``
fails if numpy changes the algorithm.

A batch's generators are seeded together as well.
``GeneratorStack.seeded(rows)`` takes each generator's SeedSequence
entropy (a row of non-negative integers, what ``np.random.default_rng``
takes), coerces it to 32-bit words as numpy does and hashes every row
at once with numpy's SeedSequence algorithm (O'Neill's ``seed_seq_fe``;
``mix_entropy``, then ``generate_state(4, uint64)``), one numpy step
per word column instead of one ``SeedSequence`` object per generator.
Each PCG64 is then built from its precomputed state, so the stack draws
what ``default_rng(row)`` would, checked against numpy 2.4.6 by
``tests/test_field.py::test_seeded_states_equal_numpy_seed_sequence``.

Two kernels carry the linear algebra, and both keep the table format
inside this module:

* ``pivot_step(block, r)`` is one Gauss-Jordan pivot, in place: it scales
  row r so that ``block[r, 0] == 1`` and clears column 0 in every other
  row.  GF(2^w) does it in the log domain with Python-int scalars, as one
  rank-1 update (two log gathers, one antilog gather and one in-place XOR
  into the block) that adds to every row its column-0 entry times row r
  over the pivot p.  Row r's own factor is p + 1 (p XOR 1), which leaves
  it as row r over p, so scaling it takes no gather of its own.  GF(p)
  does it with int64 arithmetic and one gather from a table of inverses.
  No per-element field call is made.
* ``matmul``.  In GF(2^w) a product of at most ``_SLAB`` (2^16) entry
  products is one ``take`` from the antilog table over all of them,
  XOR-reduced over the inner axis; for a stack that counts the products
  of every matrix in it.  A larger stack is gathered in groups of whole
  matrices within that size.  A larger single product loops over its
  shortest axis and gathers the other two in slabs of whole lines holding
  at most ``_SLAB`` entries (one line, when a line alone is longer).

GF(2^w) keeps one antilog table, stored as ``uint16`` (896 KiB at
w = 16, where an ``int64`` one takes 3.5 MiB), beside the ``int64`` log
table; gathers and XOR reductions run in ``uint16``, and ``mul``, ``inv``,
``pow_int`` and ``matmul`` return ``int64`` as every other routine does.
The tables are built by doubling: x^(h+j) = x^j * x^h, a GF(2)-linear map
of the bits of x^j.

Table indices: ``log`` maps nonzero elements to [0, q-1) and zero to
3q; ``exp`` has 7q entries, three periods of length q - 1 on [0, 3(q-1))
and zero from there on.  A product's index is a sum of two logs, and a
pivot step's adds an exponent in [1, q-1] (the log of 1/p).  With no
zero factor either stays below 3(q-1), so it lands in the periodic part;
with a log of zero in it, it lies in [3q, 7q), so it lands in the zero
tail: every gather is a field product, zero factors included, and no
index leaves ``exp``.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

# Largest number of entry products one GF(2^w) matmul gather makes.  Up to
# this size a product is a single gather (least per-call overhead); above
# it, slabs of this many entries (512 KiB of indices, 128 KiB of uint16
# products) keep each temporary in cache, where one gather over a tall
# product would spill it.
_SLAB = 1 << 16

# Primitive polynomials for GF(2^w) with x primitive, keyed by w.  The
# degree-16 entry is x^16 + x^12 + x^3 + x + 1; table construction checks
# that the generator cycle covers every nonzero element, which certifies
# both irreducibility and primitivity.
_DEFAULT_POLY = {
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10001001,
    8: 0b100011101,
    9: 0b1000010001,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000001010011,
    13: 0b10000000011011,
    14: 0b100010001000011,
    15: 0b1000000000000011,
    16: 0b10001000000001011,  # x^16 + x^12 + x^3 + x + 1
}


# PCG64 output words a ``GeneratorStack`` reads from each generator when its
# buffer runs out.  256 words hold 512 symbols, so a short random-secret
# session (``rs-cutset-b3`` draws about 480 over its two streams) refills
# each stream about once; 50-trial batches of it ran within 3% of each
# other from 64 to 512 words, and 4% slower at 1024.
_REFILL = 256

# numpy's SeedSequence constants (O'Neill's seed_seq_fe): the entropy is
# hashed into a pool of _POOL words with the A constants and mixed, and the
# pool hashed out into a generator's state with the B constants
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_MASK32 = 0xFFFFFFFF


class Stray(Exception):
    """Some matrices (or sessions) of a stack would take another branch
    than the rest; ``mask`` marks them.  Raised before the branch is
    taken."""

    def __init__(self, mask: np.ndarray):
        super().__init__(f"{int(mask.sum())} of {mask.size} stacked matrices leave the shared path")
        self.mask = mask


class GeneratorStack:
    """The generators of lockstep sessions, drawn from as one.

    Holds the 32-bit halves of every generator's PCG64 output words, one
    row per generator, low half first, and one cursor for all rows: rows
    draw equal counts, so they stay at one position, and a high half left
    over by an odd draw is simply the next half of its row.  ``integers``
    maps the next halves of every row to symbols in one step (see the
    module docstring).  The stack owns its generators: it reads their
    words ahead, so nothing else may draw from them.

    ``GeneratorStack(generators)`` takes Generators already made (fresh
    or part-way through their streams); ``GeneratorStack.seeded(rows)``
    seeds fresh ones from SeedSequence entropy rows in one pass, hashed
    as numpy hashes them, without making a Generator or SeedSequence
    per row.
    """

    def __init__(self, generators):
        bits = [g.bit_generator for g in generators if isinstance(g, np.random.Generator)]
        if len(bits) != len(generators) or any(type(b) is not np.random.PCG64 for b in bits):
            raise TypeError("a GeneratorStack draws from numpy Generators on PCG64 only")
        if any(b.state["has_uint32"] for b in bits):
            raise ValueError("a generator holds a pending 32-bit half; the stack reads whole words")
        self._hold(bits)

    @classmethod
    def seeded(cls, rows) -> GeneratorStack:
        """A stack of fresh PCG64 generators, row i's exactly
        ``np.random.default_rng(rows[i])``'s, seeded in one pass over all
        rows.  A row is a sequence of non-negative integers, the
        SeedSequence entropy; every row must come to the same number of
        32-bit words.  Their SeedSequence states are hashed together
        (``_seed_states``) and each PCG64 is built from its precomputed
        state, so no ``SeedSequence`` or ``Generator`` is made."""
        seed = _precomputed_seed()
        stack = cls.__new__(cls)
        stack._hold([np.random.PCG64(seed(s)) for s in _seed_states(_entropy_words(rows))])
        return stack

    def _hold(self, bits):
        self._bits = bits
        self._halves = np.zeros((len(bits), 0), dtype=np.int64)
        self._at = 0

    def __len__(self):
        return len(self._bits)

    def integers(self, q: int, shape=None) -> np.ndarray:
        """Every generator's ``integers(0, q, shape, dtype=int64)``, stacked
        on a leading axis (one symbol each for ``shape=None``).  Raises
        ``Stray`` marking the generators whose draw numpy would reject."""
        shape = () if shape is None else (shape,) if np.ndim(shape) == 0 else tuple(shape)
        k = math.prod(shape)
        while self._halves.shape[1] - self._at < k:
            words = np.stack([b.random_raw(_REFILL) for b in self._bits])
            fresh = np.stack([words & 0xFFFFFFFF, words >> 32], axis=-1).astype(np.int64)
            self._halves = np.concatenate(
                [self._halves[:, self._at:], fresh.reshape(len(words), -1)], axis=1)
            self._at = 0
        h = self._halves[:, self._at: self._at + k]
        self._at += k
        if not q & (q - 1):
            out = h >> (33 - q.bit_length())
        else:  # h < 2^32 and q <= 2^16: h * q fits int64
            out = h * q
            rejected = (out & 0xFFFFFFFF) < (1 << 32) % q
            if rejected.any():
                raise Stray(rejected.any(axis=1))
            out >>= 32
        return out.reshape((len(self),) + shape)


def _entropy_words(rows) -> np.ndarray:
    """The rows' SeedSequence entropy as numpy coerces it, one row each:
    every integer as its 32-bit words, least significant first (0 is one
    word).  Raises where numpy does (TypeError for a float, ValueError for
    a negative integer) and ValueError for rows of unequal word counts."""
    words = []
    for row in rows:
        out = []
        for v in map(operator.index, row):  # TypeError for a float
            if v < 0:
                raise ValueError("expected non-negative integer")
            out.append(v & _MASK32)
            while v > _MASK32:
                v >>= 32
                out.append(v & _MASK32)
        words.append(out)
    if len({len(w) for w in words}) > 1:
        raise ValueError("entropy rows must come to the same number of 32-bit words")
    return np.array(words, dtype=np.uint32)


def _hash_constants(init: int, mult: int, count: int):
    """The XOR and multiplier constants of a SeedSequence hash's first
    ``count`` steps, as uint32 columns: step k XORs with init * mult^k and
    multiplies by init * mult^(k+1)."""
    h = [init]
    for _ in range(count):
        h.append(h[-1] * mult & _MASK32)
    h = np.array(h, dtype=np.uint32)[:, None]
    return h[:-1], h[1:]


def _hashmix(v, xor, mul):
    v = (v ^ xor) * mul
    return v ^ v >> 16


def _mix(x, y):
    v = x * _MIX_L - y * _MIX_R
    return v ^ v >> 16


def _seed_states(words: np.ndarray) -> np.ndarray:
    """``SeedSequence(row).generate_state(4, np.uint64)`` of every row of
    ``words`` (uint32 entropy words, one row per generator), as a (rows,
    4) uint64 array: numpy's algorithm (O'Neill's ``seed_seq_fe``) run
    once over each column of words for all rows together.  The entropy is
    hashed into a pool of 4 words, every pool word is mixed into every
    other, words past the fourth are mixed into each pool word, and the
    pool is hashed out cyclically into 8 uint32 words, paired low word
    first."""
    rows, width = words.shape
    extra = max(0, width - _POOL)
    xor, mul = _hash_constants(_INIT_A, _MULT_A, _POOL * _POOL + _POOL * extra)
    pool = np.zeros((_POOL, rows), dtype=np.uint32)
    pool[:width] = words.T[:_POOL]
    pool = _hashmix(pool, xor[:_POOL], mul[:_POOL])
    k = _POOL
    for src in range(_POOL):  # the other three words take src's current value
        dst = [d for d in range(_POOL) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], xor[k: k + 3], mul[k: k + 3]))
        k += 3
    for word in words.T[_POOL:]:
        pool = _mix(pool, _hashmix(word, xor[k: k + _POOL], mul[k: k + _POOL]))
        k += _POOL
    xor, mul = _hash_constants(_INIT_B, _MULT_B, 8)
    state = _hashmix(np.concatenate([pool, pool]), xor, mul).astype(np.uint64)
    return np.ascontiguousarray((state[0::2] | state[1::2] << 32).T)


@functools.cache
def _precomputed_seed():
    """A seed sequence that hands PCG64 a precomputed state.  Built on first
    use, so that importing this package does not import ``numpy.random``
    (about 0.85 MB of resident memory for runs that never draw)."""
    from numpy.random.bit_generator import ISeedSequence

    class PrecomputedSeed(ISeedSequence):
        def __init__(self, state):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != len(self.state) or dtype is not np.uint64:
                raise ValueError("holds PCG64's four 64-bit seed words only")
            return self.state

    return PrecomputedSeed


def _product_shapes(a, b, dtype=None):
    """``a`` and ``b`` as arrays (of ``dtype``, when given) checked to
    multiply, and the leading (batch) shape of their product."""
    a = np.asarray(a, dtype=dtype)
    b = np.asarray(b, dtype=dtype)
    if a.ndim == 2 == b.ndim:
        if a.shape[1] != b.shape[0]:
            raise ValueError(f"dimension mismatch: {a.shape} @ {b.shape}")
        return a, b, ()
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul expects 2-D arrays or stacks of them")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"dimension mismatch: {a.shape} @ {b.shape}")
    lead = a.shape[:-2]
    if lead != b.shape[:-2]:
        lead = np.broadcast_shapes(lead, b.shape[:-2])
    return a, b, lead


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class Field:
    """Common interface; see GF2Field and PrimeField."""

    q: int
    dtype = np.int64

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def pow_int(self, a, k: int):
        """Elementwise a**k for integer k >= 0, with 0**0 defined as 1."""
        raise NotImplementedError

    def matmul(self, a, b):
        """Exact matrix product over the field, of two matrices or of two
        stacks of them (leading axes broadcast)."""
        raise NotImplementedError

    def pivot_step(self, block: np.ndarray, r: int) -> None:
        """One Gauss-Jordan pivot on ``block`` in place, ``block[..., r, 0]``
        nonzero: scale row r so that ``block[..., r, 0] == 1``, then
        subtract from every other row its column-0 entry times row r.  A
        stack is pivoted matrix by matrix, at the same position."""
        raise NotImplementedError

    def sample(self, rng, shape=None):
        """Uniform element(s) of the field from the given generator.  From a
        ``GeneratorStack``, every generator's draw stacked on a leading
        axis, read from its buffered PCG64 words and mapped by Lemire's
        multiply-shift for all generators at once: exactly what each
        generator would draw alone with ``integers`` (module docstring).
        Raises ``Stray`` where numpy would reject a half and redraw, which
        only a q that is not a power of 2 can hit."""
        if isinstance(rng, GeneratorStack):
            return rng.integers(self.q, shape)
        if shape is None:
            return int(rng.integers(0, self.q))
        return rng.integers(0, self.q, size=shape, dtype=self.dtype)

    def check_range(self, a, what: str = "symbols") -> None:
        """Raise ValueError unless ``a`` holds integers in [0, q).  One
        reduction: the maximum of the unsigned view, where negatives wrap
        past q (signed types narrower than 32 bits are widened first, since
        their negatives would wrap below q = 2^16)."""
        a = np.asarray(a)
        if not np.issubdtype(a.dtype, np.integer):
            raise ValueError(f"{what} must have an integer dtype, got {a.dtype}")
        if a.dtype.kind == "i" and a.itemsize < 4:
            a = a.astype(np.int32)
        if a.size and a.view(f"u{a.itemsize}").max() >= self.q:
            raise ValueError(f"{what} must lie in [0, {self.q})")

    def __repr__(self):
        return f"{type(self).__name__}(q={self.q})"


def _times_x(v: int, q: int, poly: int) -> int:
    """v * x in GF(2)[x] / poly, for v < q = 2^deg(poly)."""
    v <<= 1
    return v ^ poly if v & q else v


class GF2Field(Field):
    """GF(2^w) via log/antilog tables.

    ``log[0]`` points into a zero-filled tail of the antilog table, so
    ``exp[log[a] + log[b]]`` multiplies correctly even when a or b is 0,
    and so does a pivot step's ``exp[log[f] + log[a] + log(1/p)]``.
    """

    def __init__(self, w: int):
        if not 2 <= w <= 16:
            raise ValueError(f"extension degree must be in [2, 16], got {w}")
        self.w = w
        self.q = q = 1 << w
        self.poly = _DEFAULT_POLY[w]
        if self.poly.bit_length() - 1 != w:
            raise ValueError(f"reduction polynomial degree {self.poly.bit_length()-1} != {w}")

        exp = np.zeros(7 * q, dtype=np.uint16)
        # powers x^0 .. x^(q-2) by doubling: x^(h+j) = x^j * x^h, and
        # multiplying by x^h maps bit k of x^j to x^(h+k)
        exp[0] = 1
        h = 1
        while h < q - 1:
            t = min(h, q - 1 - h)
            low = exp[:t].astype(np.int64)
            image = _times_x(int(exp[h - 1]), q, self.poly)  # x^h
            acc = np.zeros(t, dtype=np.int64)
            for k in range(w):
                acc ^= (low >> k & 1) * image
                image = _times_x(image, q, self.poly)
            exp[h: h + t] = acc
            h += t
        cycle = exp[: q - 1]
        log = np.zeros(q, dtype=np.int64)
        order = np.arange(q - 1)
        log[cycle] = order  # a repeated power keeps only its last index
        if (_times_x(int(cycle[-1]), q, self.poly) != 1
                or not np.array_equal(log[cycle], order)):
            raise ValueError(
                f"polynomial {self.poly:#x} is not irreducible with x primitive; "
                "cannot build log tables"
            )
        exp[q - 1: 2 * (q - 1)] = cycle
        exp[2 * (q - 1): 3 * (q - 1)] = cycle
        log[0] = 3 * q  # log "of zero"; sums with it land in the zero tail
        self._exp = exp
        self._log = log

    def add(self, a, b):
        return np.bitwise_xor(a, b)

    sub = add  # characteristic 2

    def neg(self, a):
        return np.asarray(a) + 0  # -a == a

    def mul(self, a, b):
        return self._exp.take(self._log[a] + self._log[b]).astype(np.int64)

    def inv(self, a):
        a = np.asarray(a)
        if np.any(a == 0):
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return self._exp.take((self.q - 1) - self._log[a]).astype(np.int64)

    def pow_int(self, a, k: int):
        if k < 0:
            raise ValueError("negative exponent")
        a = np.asarray(a)
        if k == 0:
            return np.ones_like(a)
        e = (self._log[a] * (k % (self.q - 1))) % (self.q - 1)
        return np.where(a == 0, 0, self._exp.take(e).astype(np.int64))

    def matmul(self, a, b):
        a, b, lead = _product_shapes(a, b)
        m, k = a.shape[-2:]
        n = b.shape[-1]
        if k == 0 or m == 0 or n == 0:
            return np.zeros(lead + (m, n), dtype=self.dtype)
        la = self._log[a]
        lb = self._log[b]
        size = m * k * n
        count = math.prod(lead) if lead else 1
        if size * count <= _SLAB:
            return np.bitwise_xor.reduce(self._exp.take(la[..., None] + lb[..., None, :, :]),
                                         axis=-2).astype(self.dtype)
        if not lead:
            return self._slabs(la, lb)
        # a stack past one gather: groups of whole matrices that fit one,
        # or one matrix at a time, slabbed, when a single one does not
        la = np.broadcast_to(la, lead + (m, k)).reshape(count, m, k)
        lb = np.broadcast_to(lb, lead + (k, n)).reshape(count, k, n)
        out = np.empty((count, m, n), dtype=self.dtype)
        h = _SLAB // size
        if h:
            for i in range(0, count, h):
                out[i: i + h] = np.bitwise_xor.reduce(
                    self._exp.take(la[i: i + h, :, :, None] + lb[i: i + h, None]), axis=-2)
        else:
            for i in range(count):
                out[i] = self._slabs(la[i], lb[i])
        return out.reshape(lead + (m, n))

    def _slabs(self, la, lb):
        """The product of one pair of matrices, by entry logs, too large for
        one gather."""
        m, k = la.shape
        n = lb.shape[1]
        exp = self._exp
        out = np.zeros((m, n), dtype=exp.dtype)
        # loop over the shortest of the three axes: one rank-1 update per
        # inner index (XOR sums commute), or one k-by-long reduction per row
        # or column of the shorter output axis; each gather covers a slab
        # of whole lines of the other two axes
        if k < min(m, n):
            h = max(1, _SLAB // n)
            for t in range(k):
                for i in range(0, m, h):
                    out[i: i + h] ^= exp.take(la[i: i + h, t, None] + lb[t])
        elif m <= n:
            h = max(1, _SLAB // k)
            for i in range(m):
                for j in range(0, n, h):
                    out[i, j: j + h] = np.bitwise_xor.reduce(
                        exp.take(la[i, :, None] + lb[:, j: j + h]), axis=0)
        else:
            h = max(1, _SLAB // k)
            for j in range(n):
                for i in range(0, m, h):
                    out[i: i + h, j] = np.bitwise_xor.reduce(
                        exp.take(la[i: i + h] + lb[:, j]), axis=1)
        return out.astype(self.dtype)

    def pivot_step(self, block, r):
        """One rank-1 update in the log domain: with p = block[r, 0], every
        row i is XORed with f_i * (row r / p), where f_i = block[i, 0] for
        i != r and f_r = p + 1, so row r becomes row r / p (and stays as it
        is when p == 1, since log 0 lands in the zero tail).  An index is
        log f_i + log row r + (q - 1 - log p), below 3(q - 1) with no zero
        factor (the table's periodic part) and at least 3q with one."""
        exp, log = self._exp, self._log
        lrow = log[block[..., r, :]]
        lf = log[block[..., 0]]
        if block.ndim > 2:
            lf[:, r] = log[block[:, r, 0] ^ 1]
            lf += self.q - 1 - lrow[:, :1]
        else:  # one matrix: its pivot as a Python int
            lf[r] = log[int(block[r, 0]) ^ 1]
            lf += self.q - 1 - int(lrow[0])
        block ^= exp.take(lf[..., None] + lrow[..., None, :])


class PrimeField(Field):
    """GF(p) with modular arithmetic on int64 arrays."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        if p > (1 << 16):
            raise ValueError("prime fields larger than 2^16 are not supported")
        self.q = p
        self._inverses = self.pow_int(np.arange(p), p - 2)  # 0 maps to 0

    def add(self, a, b):
        return (np.asarray(a) + np.asarray(b)) % self.q

    def sub(self, a, b):
        return (np.asarray(a) - np.asarray(b)) % self.q

    def mul(self, a, b):
        return (np.asarray(a, dtype=self.dtype) * np.asarray(b, dtype=self.dtype)) % self.q

    def neg(self, a):
        return (-np.asarray(a)) % self.q

    def inv(self, a):
        a = np.asarray(a)
        if np.any(a == 0):
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return self.pow_int(a, self.q - 2)

    def pow_int(self, a, k: int):
        if k < 0:
            raise ValueError("negative exponent")
        a = np.asarray(a, dtype=self.dtype) % self.q
        out = np.ones_like(a)
        base = a.copy()
        e = k
        while e:
            if e & 1:
                out = (out * base) % self.q
            base = (base * base) % self.q
            e >>= 1
        return out

    def matmul(self, a, b):
        a, b, lead = _product_shapes(a, b, self.dtype)
        if a.shape[-1] == 0:
            return np.zeros(lead + (a.shape[-2], b.shape[-1]), dtype=self.dtype)
        # entries < 2^16 and inner dim < 2^31, so int64 products cannot overflow
        return (a @ b) % self.q

    def pivot_step(self, block, r):
        p = self.q
        row = block[..., r, :]
        if block.ndim > 2:
            row *= self._inverses[row[:, :1]]
            row %= p
        elif row[0] != 1:  # one matrix: its pivot as a Python int
            row *= int(self._inverses[row[0]])
            row %= p
        factors = block[..., 0].copy()
        factors[..., r] = 0
        block -= factors[..., None] * row[..., None, :]  # entries < 2^16: no overflow
        block %= p


_NAMED = {
    "gf2_16": ("binary-extension", 1 << 16),
    "prime65521": ("prime", 65521),
    "prime251": ("prime", 251),
    "prime7": ("prime", 7),
}


@functools.lru_cache(maxsize=None)
def get_field(name: str) -> Field:
    """Field registry: 'gf2_16', 'prime65521', 'prime251', 'prime7', and the
    general patterns 'gf2_<w>' / 'prime<p>'.  Instances are cached."""
    if name in _NAMED:
        kind, q = _NAMED[name]
    elif name.startswith("gf2_"):
        kind, q = "binary-extension", 1 << int(name[4:])
    elif name.startswith("prime"):
        kind, q = "prime", int(name[5:])
    else:
        raise ValueError(f"unknown field name {name!r}")
    if kind == "binary-extension":
        return GF2Field(q.bit_length() - 1)
    return PrimeField(q)

