"""Reference computations the benchmark checks the library against.

Nothing here imports ``ratelessnc``: the GF(2^16) product is a carry-less
multiply reduced by x^16 + x^12 + x^3 + x + 1, and the cut-set stage, the
secret sizes and the rate bound are the paper's closed forms.
"""

from __future__ import annotations

import numpy as np

GF_POLY = 0x1100B  # x^16 + x^12 + x^3 + x + 1
GF_BITS = 16


def gf_mul_int(a: int, b: int) -> int:
    """GF(2^16) product of two ints, bit by bit (reference for gf_mul)."""
    prod = 0
    for i in range(GF_BITS):
        if (b >> i) & 1:
            prod ^= a << i
    for bit in range(2 * GF_BITS - 2, GF_BITS - 1, -1):
        if (prod >> bit) & 1:
            prod ^= GF_POLY << (bit - GF_BITS)
    return prod


def gf_mul(a, b) -> np.ndarray:
    """Elementwise GF(2^16) product of broadcastable integer arrays."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    prod = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=np.int64)
    for i in range(GF_BITS):
        prod ^= (a << i) * ((b >> i) & 1)
    for bit in range(2 * GF_BITS - 2, GF_BITS - 1, -1):
        prod ^= ((prod >> bit) & 1) * (GF_POLY << (bit - GF_BITS))
    return prod


def hashes_hold(x0: np.ndarray, points: np.ndarray, hashes: np.ndarray) -> bool:
    """True when hashes[r, j] == sum_k x0[r, k] * points[j]^(k+1) for every
    row r and point j (Horner's rule over the packet symbols)."""
    points = np.asarray(points, dtype=np.int64)[None, :]
    acc = np.zeros((x0.shape[0], points.shape[1]), dtype=np.int64)
    for k in range(x0.shape[1] - 1, -1, -1):
        acc = gf_mul(acc ^ x0[:, k:k + 1], points)
    return bool(np.array_equal(acc, hashes))


def cutset_stage(b: int, trace) -> int | None:
    """First 1-based stage at which b + sum(z) <= sum(M), from (M, z) pairs."""
    margin = 0
    for stage, (m, z) in enumerate(trace, start=1):
        margin += m - z
        if margin >= b:
            return stage
    return None


def sc_secret_symbols(b: int, cs) -> int:
    """Secret-channel side-channel size: sum_k (b*c_k + [k=1]) * (1+b)."""
    return sum((b * c + (k == 1)) * (1 + b) for k, c in enumerate(cs, start=1))


def rs_secret_symbols(stages: int, sigma: int, m: int) -> int:
    """Random-secret shared symbols after N stages: sum_{k<=N} 2*k*sigma*m."""
    return sum(2 * k * sigma * m for k in range(1, stages + 1))


def _mean(node) -> float:
    """Mean of a stage-model distribution node: an int or {values, probs}."""
    if isinstance(node, int):
        return float(node)
    values = node["values"]
    probs = node.get("probs") or [1.0 / len(values)] * len(values)
    return float(sum(v * p for v, p in zip(values, probs)))


def rate_bound(raw: dict) -> float:
    """b/(b+cbar-1) * (E[M] - E[z]) from an i.i.d. workload config mapping."""
    stages = raw["stages"]
    b = raw["b"]
    return b / (b + stages["cbar"] - 1) * (_mean(stages["M"]) - _mean(stages.get("z", 0)))
