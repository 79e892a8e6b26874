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
position, and ``sample`` given a sequence of generators draws from each
what it would draw alone and stacks the draws.  A 2-D input is a single
matrix, handled as it always was.

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


def _product_shapes(a, b):
    """``a`` and ``b`` as arrays checked to multiply, and the leading
    (batch) shape of their product."""
    a = np.asarray(a)
    b = np.asarray(b)
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
        sequence of generators, each one's draw stacked on a leading axis:
        every generator draws exactly what it would draw alone."""
        if not isinstance(rng, np.random.Generator):
            return np.stack([self.sample(g, shape) for g in rng])
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
        a, b, lead = _product_shapes(np.asarray(a, dtype=self.dtype),
                                     np.asarray(b, dtype=self.dtype))
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

