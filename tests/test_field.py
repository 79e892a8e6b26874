import collections

import numpy as np
import pytest
from scipy import stats

from ratelessnc import field
from ratelessnc.field import GeneratorStack, GF2Field, PrimeField, Stray, get_field


def egcd(a, b):
    if a == 0:
        return b, 0, 1
    g, x, y = egcd(b % a, a)
    return g, y - (b // a) * x, x


def prime_inverse_oracle(a, p):
    g, x, _ = egcd(a % p, p)
    assert g == 1
    return x % p


# polynomial (int-coded) extended Euclid over GF(2), independent of the tables
def _poly_divmod(a, b):
    q = 0
    while a.bit_length() >= b.bit_length() and a:
        shift = a.bit_length() - b.bit_length()
        q ^= 1 << shift
        a ^= b << shift
    return q, a


def _poly_mul(a, b):
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
    return r


def gf2_inv_oracle(a, mod):
    """Inverse of a modulo the reduction polynomial via extended Euclid."""
    r0, r1 = mod, a
    s0, s1 = 0, 1
    while r1:
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 ^ _poly_mul(q, s1)
    assert r0 == 1
    return _poly_divmod(s0, mod)[1]


@pytest.fixture(scope="module")
def gf7():
    return get_field("prime7")


@pytest.fixture(scope="module")
def gf16():
    return get_field("gf2_16")


def test_gf7_examples(gf7):
    assert gf7.add(3, 5) == 1
    assert gf7.mul(3, 5) == 1
    assert gf7.pow_int(3, 2) == 2


def test_char_two_self_cancel(gf16):
    rng = np.random.default_rng(0)
    a = gf16.sample(rng, 64)
    assert not np.any(gf16.add(a, a))


def test_pow_zero_zero_is_one(gf7, gf16):
    assert gf7.pow_int(0, 0) == 1
    assert gf16.pow_int(0, 0) == 1
    assert gf7.pow_int(0, 5) == 0
    assert gf16.pow_int(0, 5) == 0


def test_fermat(gf7):
    for x in range(1, 7):
        assert gf7.pow_int(x, 6) == 1


def test_pow_matches_repeated_multiplication(gf16):
    rng = np.random.default_rng(1)
    a = gf16.sample(rng, 100)
    cubes = gf16.mul(gf16.mul(a, a), a)
    assert np.array_equal(gf16.pow_int(a, 3), cubes)


def test_pow_exponent_additivity(gf7, gf16):
    rng = np.random.default_rng(2)
    for f in (gf7, gf16):
        a = f.sample(rng, 20)
        for _ in range(10):
            i, j = int(rng.integers(0, 1000)), int(rng.integers(0, 1000))
            assert np.array_equal(f.pow_int(a, i + j), f.mul(f.pow_int(a, i), f.pow_int(a, j)))


def test_commutativity_exhaustive_gf7(gf7):
    a, b = np.meshgrid(np.arange(7), np.arange(7))
    assert np.array_equal(gf7.add(a, b), gf7.add(b, a))
    assert np.array_equal(gf7.mul(a, b), gf7.mul(b, a))


def test_commutativity_random_gf16(gf16):
    rng = np.random.default_rng(3)
    a, b = gf16.sample(rng, 1000), gf16.sample(rng, 1000)
    assert np.array_equal(gf16.add(a, b), gf16.add(b, a))
    assert np.array_equal(gf16.mul(a, b), gf16.mul(b, a))


def test_distributivity_exhaustive_small():
    f = get_field("gf2_3")
    a, b, c = np.meshgrid(np.arange(8), np.arange(8), np.arange(8))
    assert np.array_equal(f.mul(a, f.add(b, c)), f.add(f.mul(a, b), f.mul(a, c)))


def test_self_division(gf7, gf16):
    rng = np.random.default_rng(4)
    for f in (gf7, gf16):
        a = f.sample(rng, 50)
        a = a[a != 0]
        assert (f.mul(a, f.inv(a)) == 1).all()
        assert np.array_equal(f.mul(f.inv(f.inv(a)), a), f.mul(a, a))


def test_division_by_zero_raises(gf7, gf16):
    for f in (gf7, gf16):
        with pytest.raises(ZeroDivisionError):
            f.inv(np.array([1, 0, 2]))


def test_inverse_tables_against_extended_euclid():
    for name in ("prime7", "prime251", "prime257"):
        f = get_field(name)
        for a in range(1, f.q):
            assert int(f.inv(a)) == prime_inverse_oracle(a, f.q)
    f = get_field("gf2_8")
    for a in range(1, f.q):
        assert int(f.inv(a)) == gf2_inv_oracle(a, f.poly)


def test_sample_deterministic(gf16):
    a = gf16.sample(np.random.default_rng(99), 32)
    b = gf16.sample(np.random.default_rng(99), 32)
    assert np.array_equal(a, b)


def test_distinct_seeds_diverge(gf16):
    a = gf16.sample(np.random.default_rng(1), 16)
    b = gf16.sample(np.random.default_rng(2), 16)
    assert not np.array_equal(a, b)


def test_sample_uniform_chi_square():
    f = get_field("prime251")
    draws = f.sample(np.random.default_rng(2024), 100_000)
    counts = np.bincount(draws, minlength=251)
    assert stats.chisquare(counts).pvalue >= 0.001


@pytest.mark.parametrize("name", ["gf2_2", "gf2_4", "gf2_16", "prime7", "prime251",
                                  "prime65521"])
def test_stacked_draws_equal_numpy_draws(name):
    # every row of a stack draws, call after call, what its generator draws
    # alone with integers(0, q, size, dtype=int64): a scalar, an empty
    # shape, odd counts (a pending high half crosses the call) and a draw
    # past one refill block
    f = get_field(name)
    seeds = [[5, s] for s in range(3)]
    stack = GeneratorStack([np.random.default_rng(s) for s in seeds])
    alone = [np.random.default_rng(s) for s in seeds]
    assert len(stack) == 3
    for shape in (None, (0, 3), 3, (1, 5), (), 2 * field._REFILL + 1, (2, 2), 1, None):
        want = np.stack([g.integers(0, f.q, size=shape, dtype=np.int64) for g in alone])
        got = f.sample(stack, shape)
        assert got.dtype == np.int64 and got.shape == want.shape
        assert np.array_equal(got, want), shape


# SeedSequence entropy rows of 1 to 6 uint32 words: seeds past one and two
# words, t = 0 and t > 0, with and without the secret stream's word
_SEED_ROWS = [[seed, t, *stream] for seed in (0, 7, (1 << 32) + 5, (1 << 64) + 3)
              for t in (0, 3) for stream in ((), (0x5EC,))] + [[9], [(1 << 64) + 3, 1 << 32, 8]]


def _rows_by_width():
    """The rows of ``_SEED_ROWS`` grouped by their number of uint32 words."""
    groups = collections.defaultdict(list)
    for row in _SEED_ROWS:
        groups[field._entropy_words([row]).shape[1]].append(row)
    return groups


def test_seeded_states_equal_numpy_seed_sequence():
    # the one-pass hash of every row is numpy's SeedSequence hash of it
    groups = _rows_by_width()
    assert sorted(groups) == [1, 2, 3, 4, 5, 6]
    for rows in groups.values():
        words = field._entropy_words(rows)
        assert words.dtype == np.uint32
        got = field._seed_states(words)
        assert got.dtype == np.uint64 and got.shape == (len(rows), 4)
        for row, state in zip(rows, got):
            assert np.array_equal(state, np.random.SeedSequence(row).generate_state(4, np.uint64)), row


@pytest.mark.parametrize("name", ["gf2_4", "gf2_16", "prime7", "prime65521"])
def test_seeded_stack_draws_equal_default_rng_draws(name):
    # a seeded stack draws, row by row and call after call, what
    # default_rng(row) draws, over the shapes of the stacked-draw test
    f = get_field(name)
    for rows in _rows_by_width().values():
        stack = GeneratorStack.seeded(rows)
        alone = [np.random.default_rng(row) for row in rows]
        assert len(stack) == len(rows)
        for shape in (None, (0, 3), 3, (1, 5), (), 2 * field._REFILL + 1, (2, 2), 1, None):
            want = np.stack([g.integers(0, f.q, size=shape, dtype=np.int64) for g in alone])
            assert np.array_equal(f.sample(stack, shape), want), (rows, shape)


def test_seeded_stack_rejects_what_numpy_rejects():
    with pytest.raises(ValueError, match="same number"):
        GeneratorStack.seeded([[7, 1], [7, 1 << 32]])
    with pytest.raises(ValueError, match="same number"):
        GeneratorStack.seeded([[7, 1], [7, 1, 0x5EC]])
    for row in ([7, -1], [7, 1.0], [np.float64(2)]):
        with pytest.raises(type(_numpy_error(row))):
            GeneratorStack.seeded([row])


def _numpy_error(row):
    try:
        np.random.SeedSequence(row)
    except (TypeError, ValueError) as exc:
        return exc
    raise AssertionError(f"numpy takes {row}")


def _halves(words):
    """The 32-bit halves of PCG64 output words in numpy's order, low first."""
    return np.stack([words & 0xFFFFFFFF, words >> 32], axis=-1).ravel().astype(np.int64)


def test_stacked_draw_strays_where_numpy_rejects():
    # at q = 65521 numpy rejects a 32-bit half h with (h q) mod 2^32 below
    # 2^32 mod q = 225 and draws the next one; scan seed 4's stream for the
    # first such half, start a stack two words before it, and the draw
    # that reaches it raises Stray for that row alone
    f = get_field("prime65521")
    threshold = (1 << 32) % f.q
    bits, at = np.random.PCG64(4), 0
    while True:
        halves = _halves(bits.random_raw(1 << 18))
        hit = np.flatnonzero((halves * f.q & 0xFFFFFFFF) < threshold)
        if hit.size:
            at += int(hit[0])
            break
        at += halves.size
    start = at // 2 - 2  # words before the stack's first one; the hit is its half 4 or 5

    def generators():
        gens = [np.random.default_rng(4), np.random.default_rng(5)]
        for g in gens:
            g.bit_generator.advance(start)
        return gens

    ahead = _halves(generators()[0].bit_generator.random_raw(4))
    assert ahead[at - 2 * start] * f.q % (1 << 32) < threshold
    stack, alone = GeneratorStack(generators()), generators()
    want = np.stack([g.integers(0, f.q, size=3, dtype=np.int64) for g in alone])
    assert np.array_equal(f.sample(stack, 3), want)
    # numpy skips the rejected half: its next 4 symbols are halves 3..7
    # but that one, mapped
    kept = np.delete(ahead[3:8], at - 2 * start - 3)
    assert np.array_equal(alone[0].integers(0, f.q, size=4, dtype=np.int64),
                          kept * f.q >> 32)
    with pytest.raises(Stray) as caught:
        f.sample(stack, 4)
    assert caught.value.mask.tolist() == [True, False]


def test_generator_stack_takes_fresh_pcg64_generators_only():
    with pytest.raises(TypeError):
        GeneratorStack([np.random.default_rng(0), np.random.Generator(np.random.MT19937(0))])
    with pytest.raises(TypeError):
        GeneratorStack([np.random.PCG64(0)])
    used = np.random.default_rng(0)
    used.integers(0, 7)  # leaves the high half of a word pending
    with pytest.raises(ValueError, match="pending"):
        GeneratorStack([np.random.default_rng(1), used])


@pytest.mark.parametrize("name", ["gf2_17", "gf2_1"])
def test_get_field_rejects_unsupported_orders(name):
    # binary extension degrees must lie in [2, 16]
    with pytest.raises(ValueError):
        get_field(name)


def test_reducible_polynomial_rejected(monkeypatch):
    # x^4 + 1 = (x+1)^4 over GF(2)
    monkeypatch.setitem(field._DEFAULT_POLY, 4, 0b10001)
    with pytest.raises(ValueError):
        GF2Field(4)


def test_non_primitive_polynomial_rejected(monkeypatch):
    # x^4 + x^3 + x^2 + x + 1 is irreducible, but x has order 5 modulo it
    monkeypatch.setitem(field._DEFAULT_POLY, 4, 0b11111)
    with pytest.raises(ValueError, match="primitive"):
        GF2Field(4)


def _tables_by_loop(w, poly):
    """The log/antilog tables stepped one power of x at a time."""
    q = 1 << w
    exp = np.zeros(7 * q, dtype=np.int64)
    log = np.zeros(q, dtype=np.int64)
    x = 1
    for i in range(q - 1):
        exp[i] = x
        log[x] = i
        x <<= 1
        if x & q:
            x ^= poly
    assert x == 1
    exp[q - 1: 2 * (q - 1)] = exp[: q - 1]
    exp[2 * (q - 1): 3 * (q - 1)] = exp[: q - 1]
    log[0] = 3 * q
    return exp, log


@pytest.mark.parametrize("w", range(2, 17))
def test_tables_equal_loop_reference(w):
    f = GF2Field(w)
    exp, log = _tables_by_loop(w, f.poly)
    assert f._exp.dtype == np.uint16
    assert np.array_equal(f._exp, exp) and np.array_equal(f._log, log)


def _gf2_mul_oracle(a, b, poly):
    return _poly_divmod(_poly_mul(a, b), poly)[1]


def _pivot_step_reference(f, block, r):
    """One Gauss-Jordan pivot in Python ints, independent of the tables:
    row r over its column-0 entry p, then every other row minus its
    column-0 entry times that row."""
    if isinstance(f, GF2Field):
        mul = lambda a, b: _gf2_mul_oracle(a, b, f.poly)
        inv = lambda a: gf2_inv_oracle(a, f.poly)
        sub = lambda a, b: a ^ b
    else:
        mul = lambda a, b: a * b % f.q
        inv = lambda a: prime_inverse_oracle(a, f.q)
        sub = lambda a, b: (a - b) % f.q
    rows = [[int(v) for v in row] for row in block]
    p_inv = inv(rows[r][0])
    rows[r] = [mul(v, p_inv) for v in rows[r]]
    for i, row in enumerate(rows):
        if i != r:
            rows[i] = [sub(v, mul(row[0], u)) for v, u in zip(row, rows[r])]
    return np.array(rows, dtype=np.int64)


@pytest.mark.parametrize("name", [f"gf2_{w}" for w in range(2, 17)] + ["prime7", "prime251"])
def test_pivot_step_matches_python_int_reference(name):
    # pivots equal to 1 and not, zeros in the pivot row and in column 0,
    # and a one-row block, each against a loop over Python ints
    f = get_field(name)
    rng = np.random.default_rng([17, f.q])
    cases = []
    for rows, cols, r in ((5, 7, 2), (4, 4, 0), (6, 9, 5), (1, 6, 0), (1, 1, 0)):
        for pivot in (1, None):
            block = f.sample(rng, (rows, cols))
            block[r, 0] = pivot if pivot is not None else int(rng.integers(2, f.q))
            cases.append((block, r))
            holed = block.copy()
            holed[r, 1::2] = 0                      # zeros in the pivot row
            holed[(np.arange(rows) != r) & (np.arange(rows) % 2 == 0), 0] = 0  # in column 0
            holed[-1, 1:] = 0                       # a row zero past column 0
            cases.append((holed, r))
    for block, r in cases:
        want = _pivot_step_reference(f, block, r)
        got = block.copy()
        f.pivot_step(got, r)
        assert got.dtype == np.int64
        assert np.array_equal(got, want), (block, r)
        assert got[r, 0] == 1 and not np.any(np.delete(got[:, 0], r))


@pytest.mark.parametrize("name", ["gf2_4", "gf2_16"])
def test_gf2_results_are_int64(name):
    # the table is uint16; what the arithmetic hands back is int64
    f = get_field(name)
    a = f.sample(np.random.default_rng(3), (3, 4))
    a[0, 0] = 0
    for out in (f.mul(a, a), f.inv(a[1:] | 1), f.pow_int(a, 3), f.matmul(a, a.T),
                f.mul(3, 5), f.inv(7)):
        assert np.asarray(out).dtype == np.int64


def test_prime_field_rejects_composite():
    with pytest.raises(ValueError):
        PrimeField(65520)


def test_named_fields():
    assert get_field("gf2_16").q == 1 << 16
    assert get_field("prime65521").q == 65521
    assert get_field("prime251").q == 251
    assert get_field("prime7").q == 7
    with pytest.raises(ValueError):
        get_field("dodecahedral")


def _matmul_per_entry(f, a, b):
    # entry (i, j) is the XOR over t of the elementwise products a[i, t] b[t, j]
    products = f.mul(a[:, :, None], b[None, :, :])
    return np.bitwise_xor.reduce(products, axis=1, initial=0)


@pytest.mark.parametrize("name", ["gf2_4", "gf2_16"])
@pytest.mark.parametrize("shape", [
    (2, 5, 6),   # m shortest
    (6, 5, 2),   # n shortest
    (5, 2, 6),   # k shortest: one pass per inner index
    (4, 4, 4),   # ties
    (4, 0, 5),   # k = 0
    (4, 1, 5),   # k = 1
    (1, 3, 7),
    (7, 3, 1),
    (32, 16, 32),   # m*k*n = 2^14
    (5, 29, 113),   # m*k*n = 2^14 + 1, each axis shortest in turn
    (113, 29, 5),
    (29, 5, 113),
    (257, 2, 64),
    (2, 64, 257),
    (513, 64, 1),
    (64, 16, 64),   # m*k*n = 2^16: the largest single-gather product
    (1, 1, 65537),  # m*k*n = 2^16 + 1 (a prime): a line cut after 2^16 entries
    (65537, 1, 1),
    (1, 65537, 1),  # one inner line longer than a slab
    (17, 61, 64),   # m*k*n = 2^16 + 832, each axis shortest in turn
    (64, 61, 17),
    (61, 17, 64),
    # slabs of 1024 (2048) lines whose last slab is one line
    (1025, 2, 64),  # k shortest, rows cut
    (2, 64, 1025),  # m shortest, columns cut
    (2049, 32, 1),  # a tall mat-vec, rows cut after 2048
    (0, 3, 4),      # no rows
    (4, 3, 0),      # no columns
])
def test_gf2_matmul_matches_per_entry_sums(name, shape):
    # whichever axis the product loops over, it is the XOR of the entry products
    f = get_field(name)
    m, k, n = shape
    rng = np.random.default_rng([41, m, k, n, f.q])
    a, b = f.sample(rng, (m, k)), f.sample(rng, (k, n))
    a[:1, : k // 2] = 0  # zeros exercise the tables' zero tail
    out = f.matmul(a, b)
    assert out.dtype == np.int64
    assert np.array_equal(out, _matmul_per_entry(f, a, b))


@pytest.mark.parametrize("name", ["gf2_4", "prime7", "gf2_16"])
def test_check_range_in_every_integer_dtype(name):
    # one reduction over the unsigned view: negatives wrap past q and are
    # refused with the values at or past q, in every integer width
    f = get_field(name)
    for dtype in (np.int8, np.int16, np.int32, np.int64,
                  np.uint8, np.uint16, np.uint32, np.uint64):
        top = min(f.q - 1, np.iinfo(dtype).max)
        f.check_range(np.array([[0, top]], dtype=dtype))
        f.check_range(np.array([top], dtype=dtype)[0])
        if f.q <= np.iinfo(dtype).max:
            with pytest.raises(ValueError, match=r"must lie in \[0, "):
                f.check_range(np.array([[0], [f.q]], dtype=dtype)[:, 0], "cells")
        if np.iinfo(dtype).min < 0:
            with pytest.raises(ValueError, match="must lie in"):
                f.check_range(np.array([[1, -1]], dtype=dtype).T)
    f.check_range(np.zeros((0, 3), dtype=np.int64))
    with pytest.raises(ValueError, match="integer dtype"):
        f.check_range(np.zeros(2))
