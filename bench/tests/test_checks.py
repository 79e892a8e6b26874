"""Tests of the benchmark's own reference computations.

    python3 -m pytest bench/tests -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402

X = 2  # the field generator, the polynomial x


def gf_pow(a: int, k: int) -> int:
    out = 1
    for _ in range(k):
        out = checks.gf_mul_int(out, a)
    return out


def test_gf_reduction_by_the_polynomial():
    # x^16 = x^12 + x^3 + x + 1 modulo x^16 + x^12 + x^3 + x + 1
    assert checks.gf_mul_int(1 << 15, X) == 0x100B
    assert checks.gf_mul_int(1 << 8, 1 << 8) == 0x100B
    assert checks.gf_mul_int(0x8000, 0x8000) == checks.gf_mul_int(0x100B, 1 << 14)


def test_gf_x_is_primitive():
    # the order of x is 65535 = 3 * 5 * 17 * 257, and no proper divisor
    powers = {}
    a = 1
    for k in range(1, 65536):
        a = checks.gf_mul_int(a, X)
        if k in (65535 // 3, 65535 // 5, 65535 // 17, 65535 // 257, 65535):
            powers[k] = a
    assert powers[65535] == 1
    assert all(v != 1 for k, v in powers.items() if k != 65535)


def test_gf_vectorized_matches_bitwise():
    rng = np.random.default_rng(3)
    a = rng.integers(0, 1 << 16, size=500)
    b = rng.integers(0, 1 << 16, size=500)
    want = [checks.gf_mul_int(int(x), int(y)) for x, y in zip(a, b)]
    assert checks.gf_mul(a, b).tolist() == want
    assert checks.gf_mul(a[:, None], b[None, :5]).shape == (500, 5)


def test_gf_field_axioms():
    rng = np.random.default_rng(4)
    a, b, c = rng.integers(0, 1 << 16, size=(3, 200))
    assert np.array_equal(checks.gf_mul(a, b), checks.gf_mul(b, a))
    assert np.array_equal(checks.gf_mul(a, b ^ c), checks.gf_mul(a, b) ^ checks.gf_mul(a, c))
    assert np.array_equal(checks.gf_mul(checks.gf_mul(a, b), c),
                          checks.gf_mul(a, checks.gf_mul(b, c)))
    assert np.array_equal(checks.gf_mul(a, 1), a)
    assert not checks.gf_mul(a, 0).any()
    assert checks.gf_mul(a, b).max() < 1 << 16


def test_gf_inverse_by_fermat():
    for a in (1, 2, 3, 0x1234, 0xFFFF):
        # a^(2^16 - 2) is the inverse of a
        inv = 1
        base, e = a, (1 << 16) - 2
        while e:
            if e & 1:
                inv = checks.gf_mul_int(inv, base)
            base = checks.gf_mul_int(base, base)
            e >>= 1
        assert checks.gf_mul_int(a, inv) == 1


def test_hashes_hold_detects_a_wrong_symbol():
    rng = np.random.default_rng(5)
    x0 = rng.integers(0, 1 << 16, size=(3, 7))
    points = rng.integers(1, 1 << 16, size=4)
    hashes = np.zeros((3, 4), dtype=np.int64)
    for r in range(3):
        for j, p in enumerate(points):
            for k in range(7):
                hashes[r, j] ^= checks.gf_mul_int(int(x0[r, k]), gf_pow(int(p), k + 1))
    assert checks.hashes_hold(x0, points, hashes)
    x0[1, 6] ^= 1
    assert not checks.hashes_hold(x0, points, hashes)


@pytest.mark.parametrize("b, trace, want", [
    (4, [(3, 1), (3, 1), (3, 1)], 2),             # configs/sc_fixed.yaml
    (3, [(4, 2), (4, 1)], 2),                     # configs/rs_fixed.yaml
    (8, [(2, 1)] * 10, 8),                        # rs-long-b8
    (16, [(5, 0), (5, 0), (3, 1), (5, 0)], 4),    # margin reaches b exactly
    (16, [(5, 0), (5, 0), (3, 1)], None),
    (1, [], None),
])
def test_cutset_stage(b, trace, want):
    assert checks.cutset_stage(b, trace) == want


def test_secret_sizes():
    # stage 1 carries one extra point; each point costs itself plus b hashes
    assert checks.sc_secret_symbols(4, [3, 3]) == (4 * 3 + 1) * 5 + 4 * 3 * 5
    assert checks.sc_secret_symbols(16, [5]) == 81 * 17
    assert checks.rs_secret_symbols(8, 1, 37) == 2 * 37 * 36
    assert checks.rs_secret_symbols(2, 1, 13) == 2 * 13 * 3
    assert checks.rs_secret_symbols(0, 1, 13) == 0


def test_rate_bound_of_the_iid_workload():
    raw = {"b": 16, "stages": {"kind": "iid", "M": {"values": [3, 4, 5]},
                               "z": {"values": [0, 1]}, "c": "M", "cbar": 5}}
    assert checks.rate_bound(raw) == pytest.approx(2.8)
    raw["stages"]["M"] = {"values": [3, 5], "probs": [0.75, 0.25]}
    assert checks.rate_bound(raw) == pytest.approx(16 / 20 * (3.5 - 0.5))
