"""Lockstep random-secret sessions: ``run_experiment`` advances a batch of
trials on stacked arrays, and every record it returns is the one
``run_trial`` gives that trial alone.

The equivalence is checked on every random-secret config the repository
ships and on small fields, where sessions of a batch often part ways (a
rank-deficient transfer draw, another pivot, another decode status) and
are evicted to run alone.  The kernels' stack forms are checked against
their single-matrix forms, ``Stray`` against the matrices that really
branch, and the sink's trust boundary against blocks whose batch or
dimension does not match its own.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from ratelessnc import channel, linalg
from ratelessnc.channel import StageParams, sample_transfer
from ratelessnc.field import get_field
from ratelessnc.harness import BATCH, build_config, load_config, run_experiment, run_trial
from ratelessnc.linalg import SolveStatus, Stray
from ratelessnc.scheme_rs import RsEncoder, RsParams, RsSinkState, SharedSecret
from ratelessnc.scheme_sc import SourceMessage
from test_golden import RS_SMALL_Q

ROOT = Path(__file__).resolve().parents[1]
RS_YAMLS = [ROOT / "configs" / "rs_fixed.yaml", ROOT / "bench" / "configs" / "rs-cutset-b3.yaml",
            ROOT / "bench" / "configs" / "rs-long-b8.yaml"]

# RS_SMALL_Q's shape over GF(2^4)
RS_GF16_SMALL = {**RS_SMALL_Q, "field": "gf2_4", "seed": 11}


def serial_records(cfg):
    field = get_field(cfg.field_name)
    return [run_trial(cfg, field, t) for t in range(cfg.trials)]


def test_shipped_configs_are_random_secret():
    # every random-secret YAML is covered below
    shipped = sorted(ROOT.glob("configs/*.yaml")) + sorted(ROOT.glob("bench/configs/*.yaml"))
    rs = [p for p in shipped if load_config(p).scheme == "random-secret"]
    assert sorted(rs) == sorted(RS_YAMLS)


@pytest.mark.parametrize("path", RS_YAMLS, ids=lambda p: p.stem)
def test_lockstep_records_equal_serial_records(path):
    cfg = load_config(path, {"trials": 60, "seed": 7})
    records, _ = run_experiment(cfg)
    assert records == serial_records(cfg)


@pytest.mark.parametrize("raw", [RS_SMALL_Q, RS_GF16_SMALL], ids=["prime7", "gf2_4"])
def test_small_field_batches_evict_and_stay_exact(raw):
    # at q = 7 and 16 sessions of one batch part ways often; a batch that
    # would is evicted and its trials run alone, and the records still
    # equal the serial ones, outcome by outcome
    cfg = build_config(raw)
    records, summary = run_experiment(cfg)
    assert records == serial_records(cfg)
    assert summary.lockstep_evictions > 0
    assert {r.outcome for r in records} >= {"decoded", "exhausted"}


def test_benchmark_workload_batches_never_split():
    # the benchmark's short sessions all take one control path, so its
    # run_experiment time is the batch's own, with no session re-run
    cfg = load_config(ROOT / "bench" / "configs" / "rs-cutset-b3.yaml", {"seed": 1})
    assert 2 <= cfg.trials <= BATCH
    records, summary = run_experiment(cfg)
    assert summary.lockstep_evictions == 0
    assert all(r.outcome == "decoded" and r.correct for r in records)


def test_single_trials_other_configs_and_watched_runs_are_serial(monkeypatch):
    import ratelessnc.harness as harness

    sessions = []               # the trial argument of each session run
    real_session = harness._session
    monkeypatch.setattr(harness, "_session",
                        lambda cfg, f, trials, ch: sessions.append(trials)
                        or real_session(cfg, f, trials, ch))
    rs = load_config(ROOT / "bench" / "configs" / "rs-cutset-b3.yaml", {"seed": 1})
    for cfg in (dataclasses.replace(rs, trials=1),
                dataclasses.replace(rs, trials=6, validate=True),
                load_config(ROOT / "configs" / "sc_fixed.yaml", {"trials": 5})):
        sessions.clear()
        run_experiment(cfg)
        assert sessions == list(range(cfg.trials))
    sessions.clear()
    two, _ = run_experiment(dataclasses.replace(rs, trials=2))
    assert sessions == [[0, 1]]
    # a wrapper rebinding run_trial sees every session, one at a time
    seen = []
    monkeypatch.setattr(harness, "run_trial",
                        lambda *a, **k: seen.append(a[2]) or run_trial(*a, **k))
    sessions.clear()
    assert run_experiment(dataclasses.replace(rs, trials=2))[0] == two
    assert seen == sessions == [0, 1]


# -- kernels on stacks ---------------------------------------------------------

@pytest.mark.parametrize("name", ["gf2_16", "prime7"])
def test_stacked_matmul_and_pivot_equal_per_matrix(name):
    f = get_field(name)
    rng = np.random.default_rng(3)
    a, b = f.sample(rng, (5, 4, 3)), f.sample(rng, (5, 3, 6))
    assert np.array_equal(f.matmul(a, b), np.stack([f.matmul(x, y) for x, y in zip(a, b)]))
    # a shared operand broadcasts over the stack
    assert np.array_equal(f.matmul(a[0], b), np.stack([f.matmul(a[0], y) for y in b]))
    # a stack past one gather, and single products past it, in groups
    big_a, big_b = f.sample(rng, (3, 40, 30)), f.sample(rng, (3, 30, 70))
    assert np.array_equal(f.matmul(big_a, big_b),
                          np.stack([f.matmul(x, y) for x, y in zip(big_a, big_b)]))
    block = f.sample(rng, (5, 4, 6))
    block[:, 1, 0] = np.arange(1, 6)  # nonzero pivots
    each = block.copy()
    f.pivot_step(block, 1)
    for m in each:
        f.pivot_step(m, 1)
    assert np.array_equal(block, each)


def test_sample_from_generators_draws_what_each_draws_alone():
    f = get_field("gf2_16")
    stacked = f.sample([np.random.default_rng(s) for s in range(4)], (2, 3))
    alone = [f.sample(np.random.default_rng(s), (2, 3)) for s in range(4)]
    assert np.array_equal(stacked, np.stack(alone))


def test_stacked_elimination_and_solve_equal_per_matrix():
    f = get_field("gf2_16")
    rng = np.random.default_rng(4)
    a = f.sample(rng, (6, 9, 5))
    x = f.sample(rng, (6, 5))
    rhs = np.stack([f.matmul(m, v[:, None])[:, 0] for m, v in zip(a, x)])
    out = linalg.solve_exact(f, a, rhs)
    assert out.status is SolveStatus.UNIQUE and np.array_equal(out.solution, x)
    assert linalg.rank(f, a) == 5
    work = a.copy()
    pivots = linalg._gauss_jordan(f, work, 5)
    for m, w in zip(a, work):
        single = m.copy()
        assert linalg._gauss_jordan(f, single, 5) == pivots
        assert np.array_equal(single, w)
    rref, piv = linalg.extend_rref(f, work[:, :5], pivots, f.sample(rng, (6, 2, 5)))
    assert piv == pivots and rref.shape == (6, 5, 5)
    points = f.sample(rng, (6, 7))
    assert np.array_equal(linalg.vandermonde(f, points, 4),
                          np.stack([linalg.vandermonde(f, p, 4) for p in points]))
    assert np.array_equal(linalg.devectorize(linalg.vectorize(a), 9, 5), a)


def test_stacked_matrices_swap_rows_each_on_its_own():
    # a zero pivot entry with a nonzero below it is a row swap, not a
    # branch: each matrix swaps as it would alone, and none strays
    f = get_field("gf2_16")
    rng = np.random.default_rng(6)
    a = f.sample(rng, (4, 5, 5))
    a[1, :3, 0] = 0
    a[2, 0, 0] = 0
    work = a.copy()
    pivots = linalg._gauss_jordan(f, work, 5)
    for m, w in zip(a, work):
        single = m.copy()
        assert linalg._gauss_jordan(f, single, 5) == pivots
        assert np.array_equal(single, w)


def test_full_rank_draws_that_pivot_apart_stay_in_step():
    # the transfer check asks only for the rank: draws of full rank whose
    # pivot columns differ keep the stack together, a split verdict does not
    f = get_field("prime7")
    t = np.zeros((3, 2, 3), dtype=np.int64)
    t[:, 0, 0] = t[:, 1, 1] = 1
    t[1, 1] = [0, 0, 4]     # full rank, pivots (0, 2)
    with pytest.raises(Stray):
        linalg.rank(f, t)
    assert channel._full_row_rank(f, t)
    t[2, 1] = 0             # rank 1
    with pytest.raises(Stray):
        channel._full_row_rank(f, t)


def test_stray_marks_the_matrices_that_branch():
    f = get_field("prime7")
    a = np.stack([np.eye(3, dtype=np.int64)] * 5)
    a[3, 0, 0] = 0          # a pivot column the others do not take
    with pytest.raises(Stray) as err:
        linalg.rank(f, a)
    assert err.value.mask.tolist() == [False, False, False, True, False]
    # another verdict: one inconsistent system among consistent ones
    rhs = np.ones((5, 3), dtype=np.int64)
    tall = np.concatenate([np.stack([np.eye(3, dtype=np.int64)] * 5), np.zeros((5, 1, 3), int)],
                          axis=1)
    rhs = np.concatenate([rhs, np.zeros((5, 1), int)], axis=1)
    rhs[1, 3] = 2
    with pytest.raises(Stray) as err:
        linalg.solve_exact(f, tall, rhs)
    assert err.value.mask.tolist() == [False, True, False, False, False]
    assert linalg.agree(np.array([4, 4])) == 4 and linalg.agree(np.int64(9)) == 9


def test_transfer_draws_that_all_redraw_stay_in_step():
    # at q = 4 a 1 x 1 transfer draw is singular (zero) a quarter of the
    # time; a stack whose draws are all singular redraws together, so its
    # accepted T is each generator's own, and a stack whose draws differ
    # in rank leaves the shared path
    f = get_field("gf2_2")
    params = StageParams(M=1, z=0, c=1)

    def draws(seed):
        rng, k = np.random.default_rng(seed), 1
        while not f.sample(rng, (1, 1))[0, 0]:
            k += 1
        return k

    outcomes = set()
    for s in range(0, 600, 3):
        seeds = [s, s + 1, s + 2]
        counts = {draws(x) for x in seeds}
        try:
            t, _ = sample_transfer(f, params, [np.random.default_rng(x) for x in seeds])
        except Stray:
            assert len(counts) > 1
            outcomes.add("stray")
            continue
        alone = [sample_transfer(f, params, np.random.default_rng(x))[0] for x in seeds]
        assert np.array_equal(t, np.stack(alone)) and len(counts) == 1
        outcomes.add("redrawn together" if counts != {1} else "in step")
    assert outcomes == {"stray", "redrawn together", "in step"}


# -- the sink's trust boundary -------------------------------------------------

def stacked_session(batch=3):
    f = get_field("gf2_16")
    p = RsParams(b=3, n=12, sigma=1, m=RsParams.auto_m(3, 1, 4), cbar=4)
    rngs = [np.random.default_rng([21, t]) for t in range(batch)]
    msg = SourceMessage.random(f, p.b, p.n, rngs)
    secret = SharedSecret(f, p, [np.random.default_rng([22, t]) for t in range(batch)])
    return f, p, rngs, msg, secret


def test_stacked_sink_rejects_blocks_of_another_batch_or_dimension():
    f, p, rngs, msg, secret = stacked_session()
    enc = RsEncoder(f, p, msg, secret)
    sink = RsSinkState(f, p, secret)
    x, a = enc.encode_stage(1, 4, 2, rngs)
    assert x.shape[0] == a.shape[0] == 3
    for bad_y, bad_j, what in (
        (x[0], a[0], "3-D"),
        (x[:, :, :, None], a, "3-D"),
        (x[:2], a[:2], "stack"),
        (x, a[:2], "stack"),
        (x[:, :, :5], a, "long packet width"),
    ):
        with pytest.raises(ValueError, match=what):
            sink.ingest(bad_y, bad_j)
        assert sink.stage == 0 and sink._yb.shape == (3, 0, p.n + p.b)
    bad = x.copy()
    bad[2, 0, 0] = -1
    with pytest.raises(ValueError, match="long packet symbols"):
        sink.ingest(bad, a)
    sink.ingest(x, a)
    assert sink.stage == 1 and sink._yb.shape[0] == 3
