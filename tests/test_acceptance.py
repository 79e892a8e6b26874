"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  The Monte Carlo criteria run their full configs once (module
fixtures) with exactness validation enabled inside every session.
"""

import numpy as np
import pytest

from ratelessnc.field import get_field
from ratelessnc.harness import build_config, emit_outputs, run_experiment
from ratelessnc.linalg import (
    IncrementalReducer,
    rref_with_transform,
    vandermonde,
    zeros,
)
from ratelessnc.scheme_rs import RsEncoder, RsParams, RsSinkState, SharedSecret
from ratelessnc.scheme_sc import SinkStateSC, SourceMessage, sc_encode_stage
from solve_reference import repad_short_rows

CRITERION_1 = {
    "scheme": "secret-channel",
    "field": "gf2_16",
    "b": 4,
    "n": 32,
    "trials": 200,
    "seed": 20260810,
    "adversary": "uniform-random",
    "validate": True,
    "stages": {"kind": "fixed", "schedule": [{"M": 3, "z": 1}] * 3},
}

CRITERION_2 = {
    "scheme": "random-secret",
    "field": "gf2_16",
    "b": 3,
    "n": 12,
    "sigma": 1,
    "m": "auto",
    "trials": 200,
    "seed": 20260811,
    "adversary": "uniform-random",
    "validate": True,
    "stages": {"kind": "fixed", "schedule": [{"M": 4, "z": 2}, {"M": 4, "z": 1}]},
    "short_stages": {"kind": "fixed", "schedule": [{"M": 2, "z": 1}] * 2},
}

CRITERION_4 = {
    "scheme": "secret-channel",
    "field": "gf2_16",
    "b": 16,
    "n": 32,
    "trials": 500,
    "seed": 20260812,
    "adversary": "uniform-random",
    "validate": True,
    "stages": {"kind": "iid", "M": {"values": [3, 4, 5]},
               "z": {"values": [0, 1]}, "cbar": 5},
}


@pytest.fixture(scope="module")
def sc_cutset_run():
    return run_experiment(build_config(CRITERION_1))


@pytest.fixture(scope="module")
def rs_cutset_run():
    return run_experiment(build_config(CRITERION_2))


@pytest.fixture(scope="module")
def sc_rate_run():
    return run_experiment(build_config(CRITERION_4))


def report(num, text):
    print(f"[PASS] criterion {num}: {text}")


def test_criterion_1_sc_cutset_decodability(sc_cutset_run):
    records, summary = sc_cutset_run
    at_stage2 = sum(1 for r in records
                    if r.outcome == "decoded" and r.stages_used == 2 and r.correct)
    wrong = sum(1 for r in records if r.outcome == "decoded" and not r.correct)
    assert at_stage2 >= 198, f"only {at_stage2}/200 decoded at stage 2"
    assert wrong == 0
    assert summary.wall_clock_seconds <= 10.0
    report(1, f"sc decode@stage2 {at_stage2}/200, 0 incorrect, "
              f"{summary.wall_clock_seconds:.2f}s <= 10s")


def test_criterion_2_rs_cutset_decodability(rs_cutset_run):
    records, summary = rs_cutset_run
    at_stage2 = sum(1 for r in records
                    if r.outcome == "decoded" and r.stages_used == 2 and r.correct)
    wrong = sum(1 for r in records if r.outcome == "decoded" and not r.correct)
    assert at_stage2 >= 198, f"only {at_stage2}/200 decoded at stage 2"
    assert wrong == 0
    assert summary.wall_clock_seconds <= 60.0
    report(2, f"rs decode@stage2 {at_stage2}/200, 0 incorrect, "
              f"{summary.wall_clock_seconds:.2f}s <= 60s")


def test_criterion_3_no_premature_decode(sc_cutset_run, rs_cutset_run):
    for name, (records, _) in (("sc", sc_cutset_run), ("rs", rs_cutset_run)):
        premature = 0
        for r in records:
            cutset = r.cutset_stage(4 if name == "sc" else 3)
            stopped_early = r.outcome in ("decoded", "failure") and (
                cutset is None or r.stages_used < cutset)
            premature += stopped_early
        assert premature <= 2, f"{name}: {premature} sessions stopped before the cut set"
    report(3, "both schemes waited at every stage with b + sum(z) > sum(M) "
              "(>= 99% of 200 trials each)")


def test_criterion_4_rate_bound(sc_rate_run):
    records, summary = sc_rate_run
    assert summary.mean_rate >= 2.75, f"mean rate {summary.mean_rate:.3f} < 2.75"
    assert summary.wall_clock_seconds <= 60.0
    report(4, f"mean rate {summary.mean_rate:.3f} >= 2.75 "
              f"(bound {summary.theoretical_rate_bound:.2f}), "
              f"{summary.wall_clock_seconds:.1f}s <= 60s")


def test_criterion_5_hash_soundness_scaling():
    # worst-case forgeries: the differing row encodes a polynomial with the
    # maximum number of roots, so the pass rate approaches (n+b)/q
    f = get_field("prime251")
    rng = np.random.default_rng(55)
    b, n = 3, 9
    width = n + b  # 12
    trials = 10_000

    roots = np.empty((trials, width - 1), dtype=np.int64)
    for t in range(trials):
        roots[t] = rng.choice(np.arange(1, 251), size=width - 1, replace=False)
    # expand prod (x - a_i) batch-wise; coeffs[t, j] is the x^j coefficient
    coeffs = zeros(trials, width)
    coeffs[:, 0] = 1
    for j in range(width - 1):
        prev = coeffs.copy()
        coeffs = f.sub(np.hstack([zeros(trials, 1), prev[:, :-1]]),
                       f.mul(roots[:, j][:, None], prev))
    # difference row: F(x) = x * prod(x - a_i); F(r) = 0 iff r in {0, roots}
    r1 = f.sample(rng, trials)
    r2 = f.sample(rng, trials)

    def forged_hash_passes(points):
        acc = np.zeros(trials, dtype=np.int64)
        for j in reversed(range(width)):
            acc = f.mul(acc, points)
            acc = f.add(acc, coeffs[:, j])
        return f.mul(acc, points) == 0  # multiply by the leading x

    pass1 = forged_hash_passes(r1)
    pass2 = pass1 & forged_hash_passes(r2)
    frac1 = pass1.mean()
    frac2 = pass2.mean()

    # spot-check the batched evaluation against the real hash pipeline:
    # the forged row adds the coefficients of x^1..x^12 of x * prod(x - a_i)
    msg = SourceMessage.random(f, b, n, rng)
    for t in range(50):
        x_alt = msg.x0.copy()
        x_alt[0] = f.add(x_alt[0], coeffs[t])
        d = vandermonde(f, [int(r1[t])], width)
        same = np.array_equal(f.matmul(x_alt, d), f.matmul(msg.x0, d))
        assert same == bool(pass1[t])

    assert frac1 <= 0.06, f"single-column forgery rate {frac1:.4f} > 0.06"
    assert frac2 <= 0.005, f"two-column forgery rate {frac2:.4f} > 0.005"
    report(5, f"forgery rates {frac1:.4f} <= 0.06 (1 column), "
              f"{frac2:.4f} <= 0.005 (2 columns)")


def test_criterion_6_incremental_equals_batch():
    f = get_field("prime251")
    rng = np.random.default_rng(66)
    matches = 0
    incremental_used = 0
    for _ in range(100):
        s = int(rng.integers(2, 9))
        p = s + int(rng.integers(0, 5))
        sizes = [(p, s)]
        for _ in range(2):
            t = int(rng.integers(1, 7))
            u = t + int(rng.integers(0, 5))
            p, s = min(p + u, 40), min(s + t, 40)
            sizes.append((p, s))
        full = f.sample(rng, (sizes[-1][0], sizes[-1][1]))
        x_true = f.sample(rng, (sizes[-1][1], 1))
        rhs_full = f.matmul(full, x_true)
        (p0, s0) = sizes[0]
        red = IncrementalReducer(f, full[:p0, :s0], rhs=rhs_full[:p0])
        for (pa, sa), (pb, sb) in zip(sizes, sizes[1:]):
            red.update(full[:pa, sa:sb], full[pa:pb, :sa], full[pa:pb, sa:sb],
                       rhs_rows=rhs_full[pa:pb])
        incremental_used += red.incremental_updates
        batch = rref_with_transform(f, full)
        same_rref = (np.array_equal(batch.reduced, red.reduced)
                     and batch.pivot_cols == red.pivot_cols)
        same_solution = np.array_equal(red.reduced_rhs,
                                       f.matmul(batch.transform, rhs_full))
        # both reductions recover the planted solution when full rank
        if red.rank == full.shape[1]:
            x_rec = zeros(full.shape[1], 1)
            x_rec[red.pivot_cols] = red.reduced_rhs[: red.rank]
            same_solution = same_solution and np.array_equal(x_rec, x_true)
        matches += same_rref and same_solution
    assert matches == 100, f"only {matches}/100 sequences matched batch reduction"
    assert incremental_used > 0
    report(6, f"incremental elimination matched batch in 100/100 sequences "
              f"({incremental_used} bordered updates taken)")


def _received(f, rng, x):
    """What a sink may see of packets x: m random combinations plus z
    injected error rows; m may exceed the rank on offer, and one stage in
    five carries no message rank at all."""
    m = int(rng.integers(1, x.shape[0] + 3))
    z = int(rng.integers(0, 3))
    t = f.sample(rng, (m, x.shape[0]))
    if rng.random() < 0.2:
        t[:] = 0
    errors = f.matmul(f.sample(rng, (m, z)), f.sample(rng, (z, x.shape[1])))
    return f.add(f.matmul(t, x), errors), z


def test_sink_bases_equal_batch():
    # the live counterpart of criterion 6: both sinks grow their bases
    # stage by stage, and after every ingest each basis is the batch
    # reduced form of every row received so far
    rng = np.random.default_rng(67)
    fields = [get_field(name) for name in ("prime7", "gf2_4", "gf2_16")]
    matches = zero_z = deficient = 0
    for seq in range(100):
        f = fields[seq % 3]
        b, n, sigma = (int(v) for v in rng.integers(1, [3, 4, 3]))  # n*b, n+b < 7
        msg = SourceMessage.random(f, b, n, rng)
        params = RsParams(b=b, n=n, sigma=sigma, m=RsParams.auto_m(b, sigma, 2), cbar=2)
        secret = SharedSecret(f, params, rng)
        enc = RsEncoder(f, params, msg, secret)
        sc = SinkStateSC(f, b, n)
        rs = RsSinkState(f, params, secret)
        ys, points, longs, shorts = [], [], [], []
        ok = True
        for stage in range(1, int(rng.integers(2, 6))):
            x_i, payload = sc_encode_stage(f, msg, stage, int(rng.integers(1, b + 2)), rng)
            y_i, z = _received(f, rng, x_i)
            zero_z += z == 0
            rank_before = len(sc._piv)
            sc.ingest(y_i, payload)
            deficient += len(sc._piv) - rank_before < y_i.shape[0]
            ys.append(y_i)
            # the hash check's points and hashes are kept whole, in order
            points.append(payload.points)
            ok &= np.array_equal(sc.points, np.concatenate(points))
            ok &= np.array_equal(sc.h, f.matmul(msg.x0, vandermonde(f, sc.points, n + b)))

            long_x, short_x = enc.encode_stage(stage, 2, 2, rng)
            longs.append(_received(f, rng, long_x)[0])
            shorts.append(_received(f, rng, short_x)[0])
            rs.ingest(longs[-1], shorts[-1])
            # the random-secret sink's forms put the identity columns first
            # (the trailing ones rolled to the front; earlier short rows
            # re-padded with this stage's dummy zeros)
            for kept, pivots, stacked, ident in (
                    (sc._rref, sc._piv, np.vstack(ys), 0),
                    (rs._yb, rs._ypiv, np.vstack(longs), b),
                    (rs._jb, rs._jpiv, repad_short_rows(shorts, params.m, sigma),
                     stage * sigma)):
                batch = rref_with_transform(f, np.roll(stacked, ident, axis=1))
                ok &= np.array_equal(kept, batch.reduced[: batch.rank])
                ok &= pivots == batch.pivot_cols
        matches += ok
    assert matches == 100, f"only {matches}/100 growth sequences matched the batch bases"
    assert zero_z > 0 and deficient > 0
    report(6, f"both sinks' row bases matched their batch counterparts in 100/100 growth "
              f"sequences ({deficient} rank-deficient stages, {zero_z} with z = 0)")


def test_criterion_7_secret_size_accounting():
    f = get_field("gf2_16")
    checked = 0
    for b in (1, 2, 4):
        for c in (1, 3):
            msg = SourceMessage.random(f, b, 8, np.random.default_rng([77, b, c]))
            rng = np.random.default_rng([78, b, c])
            for stage in range(1, 6):
                _, payload = sc_encode_stage(f, msg, stage, c, rng)
                expected = (b * c + 1) * (b + 1) if stage == 1 else (b * c) * (b + 1)
                assert payload.size_symbols == expected
                checked += 1
    for sigma in (1, 2):
        for cbar in (2, 4):
            params = RsParams(b=2, n=8, sigma=sigma,
                              m=RsParams.auto_m(2, sigma, cbar), cbar=cbar)
            secret = SharedSecret(f, params, np.random.default_rng([79, sigma, cbar]))
            for i in range(1, 6):
                secret.stage(i)
                assert secret.consumed_symbols == i * (i + 1) * sigma * params.m
                checked += 1
    report(7, f"secret-size accounting exact in {checked} (scheme, params, stage) cells")


def test_criterion_8_exactness_identities(sc_cutset_run, rs_cutset_run, sc_rate_run):
    # criteria 1/2/4 ran with validate=True: every stage asserted
    # Y = T X + Q Z, the hash identity / parity staircase, the basis
    # reconstructions, and ground-truth satisfaction of the key equation.
    # Reaching here means zero violations; re-assert zero silent corruption.
    total = 0
    for records, summary in (sc_cutset_run, rs_cutset_run, sc_rate_run):
        assert summary.silent_corruption_count == 0
        total += sum(r.stages_used for r in records)
    report(8, f"exact identities held on every stage of criteria 1/2/4 "
              f"({total} stages, zero tolerance)")


def test_criterion_9_determinism(tmp_path):
    for name, cfg_dict in (("criterion-1", CRITERION_1), ("criterion-2", CRITERION_2)):
        cfg = build_config({**cfg_dict, "validate": False})
        a = emit_outputs(*run_experiment(cfg), tmp_path / f"{name}-a")[0].read_bytes()
        b = emit_outputs(*run_experiment(cfg), tmp_path / f"{name}-b")[0].read_bytes()
        assert a == b, f"{name}: trials.csv differs between identical runs"
    report(9, "byte-identical trials.csv across repeated seeded runs")


def test_zero_silent_corruption_volume(sc_cutset_run, rs_cutset_run, sc_rate_run):
    # the suite must make well over 1e4 decode attempts at q = 2^16 without
    # a single wrong accepted message; top the fixtures up with high-volume
    # small-message sweeps of both schemes
    attempts = sum(r.stages_used for run in (sc_cutset_run, rs_cutset_run, sc_rate_run)
                   for r in run[0])
    wrong = sum(1 for run in (sc_cutset_run, rs_cutset_run, sc_rate_run)
                for r in run[0] if r.outcome == "decoded" and not r.correct)

    sweep_sc = build_config({
        "scheme": "secret-channel", "field": "gf2_16", "b": 3, "n": 6,
        "trials": 2200, "seed": 314159, "adversary": "uniform-random",
        "stages": {"kind": "fixed", "schedule": [{"M": 2, "z": 1}] * 3},
    })
    records, summary = run_experiment(sweep_sc)
    attempts += sum(r.stages_used for r in records)
    wrong += sum(1 for r in records if r.outcome == "decoded" and not r.correct)
    assert summary.silent_corruption_count == 0

    sweep_rs = build_config({
        "scheme": "random-secret", "field": "gf2_16", "b": 2, "n": 6,
        "sigma": 1, "m": "auto", "trials": 500, "seed": 271828,
        "adversary": "uniform-random",
        "stages": {"kind": "fixed", "schedule": [{"M": 3, "z": 1}]},
        "short_stages": {"kind": "fixed", "schedule": [{"M": 2, "z": 1}]},
    })
    records, summary = run_experiment(sweep_rs)
    attempts += sum(r.stages_used for r in records)
    wrong += sum(1 for r in records if r.outcome == "decoded" and not r.correct)
    assert summary.silent_corruption_count == 0

    assert attempts >= 10_000, f"only {attempts} decode attempts"
    assert wrong == 0
    report("8b", f"zero silent corruption across {attempts} decode attempts")
