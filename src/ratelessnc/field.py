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
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

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

_OPS = ("add", "sub", "mul", "div")


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Field selector: kind is 'binary-extension' or 'prime', order is q."""

    kind: str
    order: int
    poly: int | None = None

    def __post_init__(self):
        if self.kind == "binary-extension":
            w = self.order.bit_length() - 1
            if self.order != 1 << w or not 2 <= w <= 16:
                raise ValueError(
                    f"binary-extension order must be 2^w with 2 <= w <= 16, got {self.order}"
                )
        elif self.kind == "prime":
            if not _is_prime(self.order):
                raise ValueError(f"prime field order must be prime, got {self.order}")
        else:
            raise ValueError(f"unknown field kind {self.kind!r}")


class Field:
    """Common interface; see GF2Field and PrimeField."""

    q: int
    spec: FieldSpec
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

    def div(self, a, b):
        if np.any(np.asarray(b) == 0):
            raise ZeroDivisionError("division by zero field element")
        return self.mul(a, self.inv(b))

    def arith(self, a, b, op: str):
        """Dispatch one of add/sub/mul/div by name."""
        if op not in _OPS:
            raise ValueError(f"unknown field op {op!r}")
        return getattr(self, op)(a, b)

    def pow_int(self, a, k: int):
        """Elementwise a**k for integer k >= 0, with 0**0 defined as 1."""
        raise NotImplementedError

    def matmul(self, a, b):
        """Exact matrix product over the field."""
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, shape=None):
        """Uniform element(s) of the field from the given generator."""
        if shape is None:
            return int(rng.integers(0, self.q))
        return rng.integers(0, self.q, size=shape, dtype=self.dtype)

    def check_range(self, a) -> bool:
        a = np.asarray(a)
        return bool(((a >= 0) & (a < self.q)).all())

    def __repr__(self):
        return f"{type(self).__name__}(q={self.q})"


class GF2Field(Field):
    """GF(2^w) via log/antilog tables.

    ``log[0]`` points into a zero-filled tail of the antilog table, so
    ``exp[log[a] + log[b]]`` multiplies correctly even when a or b is 0.
    """

    def __init__(self, w: int, poly: int | None = None):
        if not 2 <= w <= 16:
            raise ValueError(f"extension degree must be in [2, 16], got {w}")
        self.w = w
        self.q = 1 << w
        self.poly = poly if poly is not None else _DEFAULT_POLY[w]
        if self.poly.bit_length() - 1 != w:
            raise ValueError(f"reduction polynomial degree {self.poly.bit_length()-1} != {w}")
        self.spec = FieldSpec("binary-extension", self.q, self.poly)

        zoff = 1 << (w + 1)  # log "of zero"; sums with it land in the zero tail
        exp = np.zeros(2 * zoff + 1, dtype=np.int64)
        log = np.zeros(self.q, dtype=np.int64)
        x = 1
        for i in range(self.q - 1):
            exp[i] = x
            log[x] = i
            x <<= 1
            if x & self.q:
                x ^= self.poly
        if x != 1 or np.unique(exp[: self.q - 1]).size != self.q - 1:
            raise ValueError(
                f"polynomial {self.poly:#x} is not irreducible with x primitive; "
                "cannot build log tables"
            )
        exp[self.q - 1 : 2 * (self.q - 1)] = exp[: self.q - 1]
        log[0] = zoff
        self._exp = exp
        self._log = log
        self._zoff = zoff

    def add(self, a, b):
        return np.bitwise_xor(a, b)

    sub = add  # characteristic 2

    def neg(self, a):
        return np.asarray(a) + 0  # -a == a

    def mul(self, a, b):
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a):
        a = np.asarray(a)
        if np.any(a == 0):
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return self._exp[(self.q - 1) - self._log[a]]

    def pow_int(self, a, k: int):
        if k < 0:
            raise ValueError("negative exponent")
        a = np.asarray(a)
        if k == 0:
            return np.ones_like(a)
        e = (self._log[a] * (k % (self.q - 1))) % (self.q - 1)
        return np.where(a == 0, 0, self._exp[e])

    def matmul(self, a, b):
        a = np.asarray(a)
        b = np.asarray(b)
        if a.ndim != 2 or b.ndim != 2:
            raise ValueError("matmul expects 2-D arrays")
        if a.shape[1] != b.shape[0]:
            raise ValueError(f"dimension mismatch: {a.shape} @ {b.shape}")
        m, k = a.shape
        n = b.shape[1]
        out = np.zeros((m, n), dtype=self.dtype)
        if k == 0 or m == 0 or n == 0:
            return out
        exp = self._exp
        la = self._log[a]
        lb = self._log[b]
        # loop over the shorter output axis; each pass gathers a k-by-long slab
        if m <= n:
            for i in range(m):
                out[i] = np.bitwise_xor.reduce(exp[la[i][:, None] + lb], axis=0)
        else:
            for j in range(n):
                out[:, j] = np.bitwise_xor.reduce(exp[la + lb[:, j][None, :]], axis=1)
        return out


class PrimeField(Field):
    """GF(p) with modular arithmetic on int64 arrays."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        if p > (1 << 16):
            raise ValueError("prime fields larger than 2^16 are not supported")
        self.q = p
        self.spec = FieldSpec("prime", p)

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
        a = np.asarray(a, dtype=self.dtype)
        b = np.asarray(b, dtype=self.dtype)
        if a.ndim != 2 or b.ndim != 2:
            raise ValueError("matmul expects 2-D arrays")
        if a.shape[1] != b.shape[0]:
            raise ValueError(f"dimension mismatch: {a.shape} @ {b.shape}")
        if a.shape[1] == 0:
            return np.zeros((a.shape[0], b.shape[1]), dtype=self.dtype)
        # entries < 2^16 and inner dim < 2^31, so int64 products cannot overflow
        return (a @ b) % self.q


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

