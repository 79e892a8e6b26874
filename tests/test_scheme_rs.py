import collections
import copy
import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratelessnc import linalg
from ratelessnc.channel import AdversaryStrategy, MatrixChannel, StageParams
from ratelessnc.field import get_field
from ratelessnc.harness import build_config, run_experiment, run_session
from ratelessnc.linalg import (
    SolveOutcome,
    SolveStatus,
    devectorize,
    rank,
    vandermonde,
    zeros,
)
from ratelessnc.records import Decode
from ratelessnc.scheme_rs import (
    RsEncoder,
    RsParams,
    RsSinkState,
    SharedSecret,
    assemble_staircase,
    dense_key_equation,
    l_entry_map,
    rs_make_suffix,
    rs_stages,
    truth_vector,
)
from ratelessnc.scheme_sc import SourceMessage
from solve_reference import (
    extract_side,
    full_row_decode,
    full_solve,
    independent_row_indices,
    repad_short_rows,
)


@pytest.fixture(scope="module")
def gf16():
    return get_field("gf2_16")


@pytest.fixture(scope="module")
def gf7():
    return get_field("prime7")


def unchecked_params(b, n, sigma, m, cbar) -> RsParams:
    # bypass the size rule: the suffix/staircase identities have no such
    # precondition, and the tightness demo deliberately breaks the rule
    p = object.__new__(RsParams)
    for k, v in dict(b=b, n=n, sigma=sigma, m=m, cbar=cbar).items():
        object.__setattr__(p, k, v)
    return p


def uniform(field):
    return MatrixChannel(field, AdversaryStrategy("uniform-random"))


def silent(field):
    return MatrixChannel(field, AdversaryStrategy("none"))


def std_params(b=3, n=12, sigma=1, cbar=4):
    return RsParams(b=b, n=n, sigma=sigma, m=RsParams.auto_m(b, sigma, cbar), cbar=cbar)


def fresh_session(field, params, seed, secret_stages=None):
    rng = np.random.default_rng(seed)
    msg = SourceMessage.random(field, params.b, params.n, rng)
    secret = SharedSecret(field, params, np.random.default_rng([seed, 777]))
    return rng, msg, secret


# -- parameters ----------------------------------------------------------------

def test_auto_m_example():
    assert RsParams.auto_m(3, 1, 4) == 2 * 3 * 4 + 2 * 1 * 4 + 1 == 33


def test_params_rule_enforced():
    RsParams(b=3, n=12, sigma=1, m=33, cbar=4)
    with pytest.raises(ValueError, match="parameter rule"):
        RsParams(b=3, n=12, sigma=1, m=32, cbar=4)


def test_params_field_size_check(gf7):
    p = std_params(b=2, n=4, cbar=2)
    with pytest.raises(ValueError, match="field order"):
        p.check_field(gf7)  # n*b = 8 >= 7


def test_alpha_growth():
    p = std_params()
    assert [p.alpha(k) for k in (1, 2, 3)] == [33, 66, 99]
    assert p.alpha_total(3) == 33 + 66 + 99


# -- suffix construction ---------------------------------------------------------

def test_suffix_frozen_example(gf7):
    # nb = 2, d = (3), h = (5), w = (1, 2): D = (3, 2), l = 5
    p = unchecked_params(b=1, n=2, sigma=1, m=1, cbar=1)
    secret = SharedSecret.from_symbols(gf7, p, [(np.array([3]), np.array([5]))])
    d = vandermonde(gf7, secret.stage(1)[0], p.n * p.b).T
    assert np.array_equal(d, [[3, 2]])
    l_1 = rs_make_suffix(gf7, np.array([1, 2]), secret, 1)
    assert np.array_equal(l_1, [5])
    # parity check relation [D I] (w; l) = h holds exactly
    lhs = gf7.matmul(np.hstack([d, np.eye(1, dtype=np.int64)]),
                     np.concatenate([[1, 2], l_1])[:, None])[:, 0]
    assert np.array_equal(lhs, [5])


def test_zero_message_suffix(gf16):
    p = std_params()
    secret = SharedSecret(gf16, p, np.random.default_rng(0))
    l_1 = rs_make_suffix(gf16, np.zeros(p.n * p.b, dtype=np.int64), secret, 1)
    assert np.array_equal(l_1, secret.stage(1)[1])


def test_parity_identity_random(gf16):
    p = std_params()
    rng = np.random.default_rng(1)
    secret = SharedSecret(gf16, p, np.random.default_rng(2))
    w = gf16.sample(rng, p.n * p.b)
    for k in (1, 2, 3):
        l_k = rs_make_suffix(gf16, w, secret, k)
        assert l_k.shape == (p.alpha(k),)
        # D_k has entry (i, j) = d_i^(j+1) for the stage's points d
        d_k = vandermonde(gf16, secret.stage(k)[0], p.n * p.b).T
        lhs = gf16.add(gf16.matmul(d_k, w[:, None])[:, 0], l_k)
        assert np.array_equal(lhs, secret.stage(k)[1])


def test_secret_consumption_accounting(gf16):
    for sigma in (1, 2):
        for cbar in (2, 3):
            p = RsParams(b=2, n=8, sigma=sigma,
                         m=RsParams.auto_m(2, sigma, cbar), cbar=cbar)
            secret = SharedSecret(gf16, p, np.random.default_rng(3))
            for i in range(1, 6):
                secret.stage(i)
                assert secret.consumed_symbols == i * (i + 1) * sigma * p.m


# -- staircase ---------------------------------------------------------------

def test_staircase_stage_one_no_dummy(gf16):
    p = std_params()
    _, msg, secret = fresh_session(gf16, p, 4)
    enc = RsEncoder(gf16, p, msg, secret)
    enc.encode_stage(1, 4, 2, np.random.default_rng(5))
    stair = assemble_staircase(p, enc.suffixes)
    assert stair.shape == (p.sigma, p.m + p.sigma)
    assert np.array_equal(stair[:, : p.m], devectorize(enc.suffixes[0], p.sigma, p.m))
    assert np.array_equal(stair[:, p.m:], np.eye(p.sigma, dtype=np.int64))


def test_staircase_widths_and_identity_block(gf16):
    p = std_params()
    rng, msg, secret = fresh_session(gf16, p, 6)
    enc = RsEncoder(gf16, p, msg, secret)
    for i, (c, cb) in enumerate([(4, 2), (4, 2), (4, 2)], start=1):
        _, a_i = enc.encode_stage(i, c, cb, rng)
        assert a_i.shape[1] == i * (p.m + p.sigma)
    stair = assemble_staircase(p, enc.suffixes)
    i = 3
    assert stair.shape == (i * p.sigma, i * (p.m + p.sigma))
    assert np.array_equal(stair[:, i * p.m:], np.eye(i * p.sigma, dtype=np.int64))


def test_short_packets_in_staircase_row_space(gf16):
    p = std_params()
    rng, msg, secret = fresh_session(gf16, p, 7)
    enc = RsEncoder(gf16, p, msg, secret)
    for i in (1, 2):
        _, a_i = enc.encode_stage(i, 4, 2, rng)
    stair = assemble_staircase(p, enc.suffixes)
    assert rank(gf16, np.vstack([stair, a_i])) == rank(gf16, stair)


def test_encoder_enforces_stage_order(gf16):
    p = std_params()
    rng, msg, secret = fresh_session(gf16, p, 8)
    enc = RsEncoder(gf16, p, msg, secret)
    with pytest.raises(ValueError, match="order"):
        enc.encode_stage(2, 4, 2, rng)


def test_l_entry_map_covers_each_symbol_once():
    for i, m, sigma in ((1, 3, 1), (3, 4, 2), (2, 5, 3)):
        lmap = l_entry_map(i, m, sigma)
        assert lmap.shape == (i * m, i * sigma)
        total = sigma * m * i * (i + 1) // 2
        vals = lmap[lmap >= 0]
        assert sorted(vals.tolist()) == list(range(total))
        for c in range(i * m):
            for k in range(1, i + 1):
                block = lmap[c, (k - 1) * sigma: k * sigma]
                assert (block >= 0).all() == (c < k * m)


# -- decoding ----------------------------------------------------------------

def test_clean_readoff_decodes_and_exposes_message(gf16):
    # feed the sink the raw codewords: the trailing-identity basis makes
    # the expansion coefficients the message itself
    p = std_params()
    rng, msg, secret = fresh_session(gf16, p, 9)
    enc = RsEncoder(gf16, p, msg, secret)
    enc.encode_stage(1, 4, 2, rng)
    sink = RsSinkState(gf16, p, secret)
    sink.ingest(msg.x0, assemble_staircase(p, enc.suffixes))
    ke = sink.build_key_equation()
    assert ke.r == p.b and ke.f_z.shape == (0, p.n)
    assert np.array_equal(ke.f_x, msg.w)
    result = sink.try_decode(ke)
    assert result.status is Decode.DECODED
    assert np.array_equal(result.w, msg.w)


def test_key_equation_shapes_and_truth(gf16):
    p = std_params()
    alpha_tot = p.alpha_total(2)
    hits = 0
    for seed in range(20):
        rng, msg, secret = fresh_session(gf16, p, [10, seed])
        enc = RsEncoder(gf16, p, msg, secret)
        sink = RsSinkState(gf16, p, secret)
        chan = uniform(gf16)
        for i, (lz, sz) in enumerate([(2, 1), (1, 1)], start=1):
            x_i, a_i = enc.encode_stage(i, 4, 2, rng)
            out_l = chan(StageParams(4, lz, 4), x_i, rng)
            out_s = chan(StageParams(2, sz, 2), a_i, rng)
            sink.ingest(out_l.Y, out_s.Y)
        ke = sink.build_key_equation()
        if ke is None:
            continue
        hits += 1
        b_mat, rhs = dense_key_equation(ke, secret)
        assert b_mat.shape[0] == ke.beta * ke.r + ke.gamma * ke.r_bar + alpha_tot
        assert b_mat.shape[1] == p.n * p.b + alpha_tot
        # cut set held (3 + 3 <= 8): ground truth satisfies the equation
        v = truth_vector(ke, msg, enc.suffixes)
        assert np.array_equal(gf16.matmul(b_mat, v[:, None])[:, 0], rhs)
    assert hits >= 18


def test_basis_reconstruction_identities(gf16):
    p = std_params()
    rng, msg, secret = fresh_session(gf16, p, 11)
    enc = RsEncoder(gf16, p, msg, secret)
    sink = RsSinkState(gf16, p, secret)
    chan = uniform(gf16)
    for i in (1, 2):
        x_i, a_i = enc.encode_stage(i, 4, 2, rng)
        out_l = chan(StageParams(4, 1, 4), x_i, rng)
        out_s = chan(StageParams(2, 1, 2), a_i, rng)
        sink.ingest(out_l.Y, out_s.Y)
    ke = sink.build_key_equation()
    assert ke is not None
    # long side: Y' columns = [T'' T_hat] [[I F^Z 0], [0 F^X I]], read in
    # the kept basis, whose columns are (identity, then W's)
    cols = p.b + np.asarray(ke.x_col_order)
    t_dd = ke.yb[:, cols[: ke.r - p.b]]
    mid = gf16.add(gf16.matmul(t_dd, ke.f_z), gf16.matmul(ke.yb[:, : p.b], ke.f_x))
    assert np.array_equal(ke.yb[:, cols[ke.r - p.b:]], mid)
    # short side analogue
    isig = ke.stage * p.sigma
    cols_j = isig + np.asarray(ke.l_col_order)
    t_dd_j = ke.jb[:, cols_j[: ke.r_bar - isig]]
    mid_j = gf16.add(gf16.matmul(t_dd_j, ke.f_e), gf16.matmul(ke.jb[:, :isig], ke.f_a))
    assert np.array_equal(ke.jb[:, cols_j[ke.r_bar - isig:]], mid_j)


def test_rank_growth_bound(gf16):
    # observed long rank above b is capped by the redundancy actually sent
    p = std_params()
    for seed in range(100):
        rng, msg, secret = fresh_session(gf16, p, [12, seed])
        enc = RsEncoder(gf16, p, msg, secret)
        sink = RsSinkState(gf16, p, secret)
        chan = uniform(gf16)
        received = []
        for i in (1, 2):
            x_i, a_i = enc.encode_stage(i, 4, 2, rng)
            out_l = chan(StageParams(4, 2, 4), x_i, rng)
            out_s = chan(StageParams(2, 1, 2), a_i, rng)
            sink.ingest(out_l.Y, out_s.Y)
            received.append(out_l.Y)
            r_i = rank(gf16, np.vstack(received))
            assert r_i - p.b <= i * p.cbar
            assert sink._yb.shape[0] == r_i  # the sink's long basis spans them all


def test_scan_order_invariance(gf16, monkeypatch):
    # a different (but valid) basis column choice permutes the bookkeeping,
    # not the decoded message: the key equation is rebuilt on the reference
    # extraction scanning the leading columns in a random order
    p = std_params()
    reordered = decoded = 0
    for seed in range(20):
        rng, msg, secret = fresh_session(gf16, p, [13, seed])
        enc = RsEncoder(gf16, p, msg, secret)
        sink = RsSinkState(gf16, p, secret)
        chan = uniform(gf16)
        for i, lz in enumerate((2, 1), start=1):
            x_i, a_i = enc.encode_stage(i, 4, 2, rng)
            out_l = chan(StageParams(4, lz, 4), x_i, rng)
            out_s = chan(StageParams(2, 1, 2), a_i, rng)
            sink.ingest(out_l.Y, out_s.Y)
        order_rng = np.random.default_rng([14, seed])
        orders = {p.n: order_rng.permutation(p.n), 2 * p.m: order_rng.permutation(2 * p.m)}

        def permuted(rref, pivots, ident_cols, scan_limit):
            rows = np.roll(rref, -ident_cols, axis=1)  # identity columns back at the end
            return extract_side(gf16, rows, ident_cols, scan_limit, orders[scan_limit])

        ke_a = sink.build_key_equation()
        with monkeypatch.context() as mp:
            mp.setattr(sink, "_extract_side", permuted)
            ke_b = sink.build_key_equation()
        if ke_a is None or ke_b is None:
            assert ke_a is None and ke_b is None
            continue
        reordered += (ke_a.x_col_order != ke_b.x_col_order
                      and ke_a.l_col_order != ke_b.l_col_order)
        res_a = sink.try_decode(ke_a)
        res_b = sink.try_decode(ke_b)
        assert res_a.status == res_b.status
        if res_a.status is Decode.DECODED:
            decoded += 1
            assert np.array_equal(res_a.w, res_b.w)
    assert reordered > 0 and decoded > 0, (reordered, decoded)


def test_read_off_matches_reference_extraction():
    # at every stage, what the sink reads off its reduced bases (chosen and
    # remaining columns and expansion coefficients, or None) is what one
    # Gauss-Jordan pass over the greedy row basis of every row received so
    # far gives, and the basis it reads spans the same space
    hits = collections.Counter()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_rs_case())
    def check(case):
        f, p, stages, adversary, seed = case
        rng = np.random.default_rng(seed)
        msg = SourceMessage.random(f, p.b, p.n, rng)
        secret = SharedSecret(f, p, np.random.default_rng([seed, 777]))
        enc = RsEncoder(f, p, msg, secret)
        sink = RsSinkState(f, p, secret)
        chan = MatrixChannel(f, AdversaryStrategy(adversary))
        longs, shorts = [], []
        for i, (lp, sp) in enumerate(stages, start=1):
            x_i, a_i = enc.encode_stage(i, lp.c, sp.c, rng)
            longs.append(chan(lp, x_i, rng).Y)
            shorts.append(chan(sp, a_i, rng).Y)
            sink.ingest(longs[-1], shorts[-1])
            for side, kept, pivots, stacked, ident, limit in (
                    ("long", sink._yb, sink._ypiv, np.vstack(longs), p.b, p.n),
                    ("short", sink._jb, sink._jpiv, repad_short_rows(shorts, p.m, p.sigma),
                     i * p.sigma, i * p.m)):
                got = sink._extract_side(kept, pivots, ident, limit)
                rows = stacked[independent_row_indices(f, stacked)]
                want = extract_side(f, rows, ident, limit)
                assert (got is None) == (want is None)
                if got is None:
                    hits[side, "none"] += 1
                    continue
                r, chosen, rest, coef = got
                assert (r, chosen, rest) == want[:3]
                assert np.array_equal(coef, want[3])
                # the kept basis, identity columns moved back to the end
                packets = np.roll(kept, -ident, axis=1)
                assert packets.shape == rows.shape
                assert rank(f, np.vstack([packets, rows])) == r
                hits[side, "read off"] += 1

    check()
    assert set(hits) == {(side, kind) for side in ("long", "short")
                         for kind in ("none", "read off")}, hits


def test_decode_stage_one_clean_channels(gf16):
    p = std_params()
    rng, msg, secret = fresh_session(gf16, p, 15)
    sched = zip(itertools.cycle([StageParams(4, 0, 4)]),
                itertools.cycle([StageParams(2, 0, 2)]))
    rec = run_session(rs_stages(gf16, p, msg, secret, sched, silent(gf16), silent(gf16), rng),
                      msg)
    assert rec.outcome == "decoded" and rec.stages_used == 1 and rec.correct


def test_need_more_when_cutset_violated(gf16):
    # b + z1 > M1 on the long side: stage 1 must report need-more
    p = std_params()
    ok = 0
    for seed in range(200):
        rng, msg, secret = fresh_session(gf16, p, [16, seed])
        enc = RsEncoder(gf16, p, msg, secret)
        sink = RsSinkState(gf16, p, secret)
        chan = uniform(gf16)
        x_i, a_i = enc.encode_stage(1, 4, 2, rng)
        out_l = chan(StageParams(4, 2, 4), x_i, rng)
        out_s = chan(StageParams(2, 1, 2), a_i, rng)
        sink.ingest(out_l.Y, out_s.Y)
        ke = sink.build_key_equation()
        ok += ke is None or sink.try_decode(ke).status is Decode.NEED_MORE
    assert ok >= 198


def test_decode_at_cutset_stage_montecarlo(gf16):
    p = std_params()
    hits = 0
    for seed in range(50):
        rng, msg, secret = fresh_session(gf16, p, [17, seed])
        ls = itertools.cycle([StageParams(4, 2, 4), StageParams(4, 1, 4)])
        ss = itertools.cycle([StageParams(2, 1, 2)])
        rec = run_session(rs_stages(gf16, p, msg, secret, zip(ls, ss),
                                    uniform(gf16), uniform(gf16), rng), msg)
        hits += rec.outcome == "decoded" and rec.stages_used == 2 and rec.correct
    assert hits >= 49


def test_adversary_on_short_packets_only(gf16):
    # saturating the short channel (z = M - sigma) must not stop decoding
    # once the long cut set holds
    p = std_params()
    hits = 0
    for seed in range(200):
        rng, msg, secret = fresh_session(gf16, p, [18, seed])
        ls = itertools.cycle([StageParams(4, 0, 4)])
        ss = itertools.cycle([StageParams(2, 1, 2)])
        rec = run_session(rs_stages(gf16, p, msg, secret, zip(ls, ss),
                                    silent(gf16), uniform(gf16), rng), msg)
        hits += rec.outcome == "decoded" and rec.correct
    assert hits >= 190


def test_short_basis_extraction_rate(gf16):
    # trailing-identity columns of the short stack stay independent nearly
    # always while sigma <= M - z
    p = std_params()
    ok = 0
    for seed in range(100):
        rng, msg, secret = fresh_session(gf16, p, [19, seed])
        enc = RsEncoder(gf16, p, msg, secret)
        sink = RsSinkState(gf16, p, secret)
        chan = uniform(gf16)
        for i in (1, 2):
            x_i, a_i = enc.encode_stage(i, 4, 2, rng)
            out_l = chan(StageParams(4, 0, 4), x_i, rng)
            out_s = chan(StageParams(2, 1, 2), a_i, rng)
            sink.ingest(out_l.Y, out_s.Y)
        ke = sink.build_key_equation()
        if ke is not None:
            ok += 1
            assert rank(gf16, ke.jb[:, : 2 * p.sigma]) == 2 * p.sigma
    assert ok >= 99


def test_session_rejects_sigma_margin_violation(gf16):
    # z < M holds but the short margin M - z dips below sigma
    p = RsParams(b=2, n=8, sigma=2, m=RsParams.auto_m(2, 2, 2), cbar=2)
    rng, msg, secret = fresh_session(gf16, p, 20)
    sched = zip(itertools.cycle([StageParams(2, 0, 2)]),
                itertools.cycle([StageParams(2, 1, 2)]))
    with pytest.raises(ValueError, match="sigma"):
        run_session(rs_stages(gf16, p, msg, secret, sched, silent(gf16), silent(gf16), rng), msg)


def test_undersized_hash_rule_demonstrably_unsound():
    # with sigma*m far below the rule the key equation stops pinning the
    # message: failures (or wrong decodes) appear at small field size
    f = get_field("prime251")
    p = unchecked_params(b=2, n=4, sigma=1, m=1, cbar=3)
    anomalies = 0
    for seed in range(50):
        rng = np.random.default_rng([21, seed])
        msg = SourceMessage.random(f, p.b, p.n, rng)
        secret = SharedSecret(f, p, np.random.default_rng([21, seed, 777]))
        ls = itertools.cycle([StageParams(3, 1, 3)])
        ss = itertools.cycle([StageParams(2, 1, 2)])
        rec = run_session(rs_stages(f, p, msg, secret, zip(ls, ss), uniform(f), uniform(f), rng),
                          msg, stage_cap=6)
        if rec.outcome == "failure" or (rec.outcome == "decoded" and not rec.correct):
            anomalies += 1
    assert anomalies >= 1


def test_validate_mode_passes_clean_sessions(gf16):
    p = std_params()
    rng, msg, secret = fresh_session(gf16, p, 22)
    ls = itertools.cycle([StageParams(4, 2, 4), StageParams(4, 1, 4)])
    ss = itertools.cycle([StageParams(2, 1, 2)])
    rec = run_session(rs_stages(gf16, p, msg, secret, zip(ls, ss),
                                uniform(gf16), uniform(gf16), rng, validate=True), msg)
    assert rec.outcome == "decoded" and rec.correct


def test_validate_mode_full_rank_long_side():
    # the long observations reach r = n + b (beta = 0) at the cut-set
    # stage; validation must not trip over the empty non-basis part
    cfg = build_config(dict(
        scheme="random-secret", field="gf2_16", b=2, n=2, sigma=1, m="auto", trials=1, seed=1,
        stages={"kind": "fixed", "schedule": [{"M": 2, "z": 1}]},
        short_stages={"kind": "fixed", "schedule": [{"M": 3, "z": 1}]},
        validate=True,
    ))
    (rec,), _ = run_experiment(cfg)
    assert rec.outcome == "decoded" and rec.correct and rec.stages_used == 2


_ORACLE_STATUS = {
    SolveStatus.UNIQUE: Decode.DECODED,
    SolveStatus.MULTIPLE: Decode.FAILURE,
    SolveStatus.NO_SOLUTION: Decode.NEED_MORE,
}


@st.composite
def _stage_pair(draw, sigma):
    m_long = draw(st.integers(1, 3))
    z_short = draw(st.integers(0, 1))
    m_short = sigma + z_short + draw(st.integers(0, 1))
    return (StageParams(m_long, draw(st.integers(0, m_long - 1)), m_long + draw(st.integers(0, 1))),
            StageParams(m_short, z_short, m_short))


@st.composite
def _rs_case(draw):
    field = get_field(draw(st.sampled_from(["prime7", "gf2_4", "prime251", "gf2_16"])))
    b = draw(st.integers(1, 4))
    n = draw(st.integers(1, min(3, (field.q - 1) // b)))
    sigma = draw(st.sampled_from([1, 2]))
    stages = draw(st.lists(_stage_pair(sigma), min_size=1, max_size=3))
    cbar = max(lp.c for lp, _ in stages)
    params = unchecked_params(b=b, n=n, sigma=sigma, m=draw(st.integers(1, 3)), cbar=cbar)
    adversary = draw(st.sampled_from(["none", "uniform-random", "additive-targeted"]))
    return field, params, stages, adversary, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_rs_case())
def test_structured_decode_agrees_with_dense_oracle(case):
    # whatever the field, shape, hash size (undersized included) and
    # adversary, solving from the blocks classifies and solves exactly as
    # the dense key equation does
    f, p, stages, adversary, seed = case
    rng = np.random.default_rng(seed)
    msg = SourceMessage.random(f, p.b, p.n, rng)
    secret = SharedSecret(f, p, np.random.default_rng([seed, 777]))
    enc = RsEncoder(f, p, msg, secret)
    sink = RsSinkState(f, p, secret)
    chan = MatrixChannel(f, AdversaryStrategy(adversary))
    for i, (lp, sp) in enumerate(stages, start=1):
        x_i, a_i = enc.encode_stage(i, lp.c, sp.c, rng)
        sink.ingest(chan(lp, x_i, rng).Y, chan(sp, a_i, rng).Y)
        ke = sink.build_key_equation()
        if ke is None:
            continue
        oracle = full_solve(f, *dense_key_equation(ke, secret))
        result = sink.try_decode(ke)
        assert result.status is _ORACLE_STATUS[oracle.status]
        if result.status is Decode.DECODED:
            w = zeros(p.b, p.n)
            w[:, ke.x_col_order] = devectorize(oracle.solution[: p.n * p.b], p.b, p.n)
            assert np.array_equal(result.w, w)


def _key_equations(case):
    """Run one drawn session and yield (sink, key equation) per stage that
    has one."""
    f, p, stages, adversary, seed = case
    rng = np.random.default_rng(seed)
    msg = SourceMessage.random(f, p.b, p.n, rng)
    secret = SharedSecret(f, p, np.random.default_rng([seed, 777]))
    enc = RsEncoder(f, p, msg, secret)
    sink = RsSinkState(f, p, secret)
    chan = MatrixChannel(f, AdversaryStrategy(adversary))
    for i, (lp, sp) in enumerate(stages, start=1):
        x_i, a_i = enc.encode_stage(i, lp.c, sp.c, rng)
        sink.ingest(chan(lp, x_i, rng).Y, chan(sp, a_i, rng).Y)
        ke = sink.build_key_equation()
        if ke is not None:
            yield sink, ke


def test_leading_row_decode_agrees_with_full_rows(monkeypatch):
    # try_decode builds and solves only the leading rows of the reduced
    # system; status and W must be those of the full-row build.  Forcing
    # MULTIPLE on the slice takes the full-row fallback, which the drawn
    # sessions almost never reach on their own.
    real_solve = linalg.solve_exact
    calls = []
    force = [False, 0]  # [force MULTIPLE on a slice, full row count]

    def spy(field, a, rhs):
        out = real_solve(field, a, rhs)
        calls.append((a.shape[0], out.status))
        if force[0] and a.shape[0] < force[1]:
            return SolveOutcome(SolveStatus.MULTIPLE)
        return out

    monkeypatch.setattr(linalg, "solve_exact", spy)
    hits = collections.Counter()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_rs_case(), st.booleans())
    def check(case, forced):
        p = case[1]
        for sink, ke in _key_equations(case):
            full_rows = ke.gamma * ke.stage * p.sigma
            force[:] = [forced, full_rows]
            calls.clear()
            result = sink.try_decode(ke)
            expect = full_row_decode(sink.field, p, ke)
            assert result.status is expect.status
            assert (result.w is None) == (expect.w is None)
            if expect.w is not None:
                assert np.array_equal(result.w, expect.w)
            if ke.r == p.b:
                hits["theta = 0"] += 1
            if not calls:
                continue
            rows, status = calls[0]
            if len(calls) == 2:
                assert rows < full_rows and calls[1][0] == full_rows
                hits["fallback"] += 1
            elif rows == full_rows:
                hits["g = gamma"] += 1
            elif status is SolveStatus.UNIQUE:
                hits["slice accepted" if result.decoded else "slice rejected"] += 1

    check()
    assert set(hits) == {"theta = 0", "g = gamma", "fallback",
                         "slice accepted", "slice rejected"}, hits


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_rs_case())
def test_try_decode_leaves_key_equation_alone(case):
    # the decoder reads slices and views of the key equation's arrays;
    # decoding twice gives the same answer and changes none of them
    for sink, ke in _key_equations(case):
        before = copy.deepcopy(ke)
        first, second = sink.try_decode(ke), sink.try_decode(ke)
        assert first.status is second.status
        assert (first.w is None and second.w is None) or np.array_equal(first.w, second.w)
        for fld in dataclasses.fields(ke):
            old, new = getattr(before, fld.name), getattr(ke, fld.name)
            if isinstance(old, np.ndarray):
                assert old.dtype == new.dtype and np.array_equal(old, new), fld.name
            else:
                assert old == new, fld.name


def sink_state(sink):
    return sink._yb.copy(), list(sink._ypiv), sink._jb.copy(), list(sink._jpiv), sink.stage


def test_sink_rejects_bad_widths(gf16):
    # wrong widths and blocks that are not 2-D are refused before any state
    # changes, by an empty sink and by one holding a stage; a 3-D short
    # block whose second axis has the stage's width passes the width
    # checks, so only the 2-D check stops it before the long basis grows
    p = std_params()
    rng = np.random.default_rng(25)
    sink = RsSinkState(gf16, p, SharedSecret(gf16, p, np.random.default_rng(23)))
    for i in (1, 2):
        y = gf16.sample(rng, (3, p.n + p.b))
        j = gf16.sample(rng, (2, i * (p.m + p.sigma)))
        before = sink_state(sink)
        for bad_y, bad_j, what in (
            (zeros(2, 5), j, "long packet width"),
            (y, zeros(2, 5), "short packet width"),
            (y, j[:, :, None], "2-D"),
            (y[:, :, None], j, "2-D"),
            (y[0], j, "2-D"),
            (y, j[0], "2-D"),
        ):
            with pytest.raises(ValueError, match=what):
                sink.ingest(bad_y, bad_j)
            after = sink_state(sink)
            assert all(np.array_equal(u, v) for u, v in zip(before, after)), what
        sink.ingest(y, j)
        assert sink.stage == i


@pytest.mark.parametrize("bad", [-1, 1 << 16])
def test_sink_rejects_out_of_range_symbols(gf16, bad):
    # GF(2^16) tables would wrap -1 to 65535 silently; the sink refuses it
    # in int64 and int32 alike.  A uint16 block holds only symbols of
    # GF(2^16), so the sink takes it
    p = std_params()
    sink = RsSinkState(gf16, p, SharedSecret(gf16, p, np.random.default_rng(24)))
    y, j = zeros(2, p.n + p.b), zeros(2, p.m + p.sigma)
    before = sink_state(sink)
    for dtype in (np.int64, np.int32):
        y_bad, j_bad = y.astype(dtype), j.astype(dtype)
        y_bad[1, 3] = bad
        j_bad[0, 0] = bad
        with pytest.raises(ValueError, match="long packet symbols"):
            sink.ingest(y_bad, j.astype(dtype))
        with pytest.raises(ValueError, match="short packet symbols"):
            sink.ingest(y.astype(dtype), j_bad)
    with pytest.raises(ValueError, match="integer dtype"):
        sink.ingest(y.astype(float), j)
    assert all(np.array_equal(u, v) for u, v in zip(before, sink_state(sink)))
    y[0, p.n], j[0, 0] = 1, (1 << 16) - 1
    sink.ingest(y.astype(np.uint16), j.astype(np.uint16))
    assert sink.stage == 1 and sink._ypiv == [0]
