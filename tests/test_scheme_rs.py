import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratelessnc.channel import AdversaryStrategy, MatrixChannel, StageParams
from ratelessnc.field import get_field
from ratelessnc.harness import build_config, run_experiment
from ratelessnc.linalg import SolveStatus, devectorize, mat_mul, rank, solve_exact, vectorize, zeros
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
    rs_run_session,
    truth_vector,
)
from ratelessnc.scheme_sc import SourceMessage


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
    assert np.array_equal(secret.parity_matrix(1), [[3, 2]])
    sfx = rs_make_suffix(gf7, np.array([1, 2]), secret, 1)
    assert np.array_equal(sfx.l_vec, [5])
    # parity check relation [D I] (w; l) = h holds exactly
    lhs = gf7.add(mat_mul(gf7, secret.parity_matrix(1), np.array([[1], [2]]))[:, 0],
                  sfx.l_vec)
    assert np.array_equal(lhs, [5])


def test_zero_message_suffix(gf16):
    p = std_params()
    secret = SharedSecret(gf16, p, np.random.default_rng(0))
    sfx = rs_make_suffix(gf16, np.zeros(p.n * p.b, dtype=np.int64), secret, 1)
    assert np.array_equal(sfx.l_vec, secret.stage(1)[1])


def test_parity_identity_random(gf16):
    p = std_params()
    rng = np.random.default_rng(1)
    secret = SharedSecret(gf16, p, np.random.default_rng(2))
    w = gf16.sample(rng, p.n * p.b)
    for k in (1, 2, 3):
        sfx = rs_make_suffix(gf16, w, secret, k)
        lhs = gf16.add(mat_mul(gf16, secret.parity_matrix(k), w[:, None])[:, 0], sfx.l_vec)
        assert np.array_equal(lhs, secret.stage(k)[1])
        assert sfx.script_l.shape == (p.sigma, k * p.m)
        assert np.array_equal(vectorize(sfx.script_l), sfx.l_vec)


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
    assert np.array_equal(stair[:, : p.m], enc.suffixes[0].script_l)
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
        assert np.array_equal(mat_mul(gf16, b_mat, v[:, None])[:, 0], rhs)
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
    # long side: Y' columns = [T'' T_hat] [[I F^Z 0], [0 F^X I]]
    sel = ke.x_col_order[: ke.r - p.b]
    rest = ke.x_col_order[ke.r - p.b:]
    t_dd = ke.yp[:, sel]
    mid = gf16.add(mat_mul(gf16, t_dd, ke.f_z), mat_mul(gf16, ke.t_hat, ke.f_x))
    assert np.array_equal(ke.yp[:, rest], mid)
    # short side analogue
    isig = ke.stage * p.sigma
    sel_j = ke.l_col_order[: ke.r_bar - isig]
    rest_j = ke.l_col_order[ke.r_bar - isig:]
    t_dd_j = ke.jp[:, sel_j]
    mid_j = gf16.add(mat_mul(gf16, t_dd_j, ke.f_e), mat_mul(gf16, ke.t_bar_hat, ke.f_a))
    assert np.array_equal(ke.jp[:, rest_j], mid_j)


def test_rank_growth_bound(gf16):
    # observed long rank above b is capped by the redundancy actually sent
    p = std_params()
    for seed in range(100):
        rng, msg, secret = fresh_session(gf16, p, [12, seed])
        enc = RsEncoder(gf16, p, msg, secret)
        sink = RsSinkState(gf16, p, secret)
        chan = uniform(gf16)
        for i in (1, 2):
            x_i, a_i = enc.encode_stage(i, 4, 2, rng)
            out_l = chan(StageParams(4, 2, 4), x_i, rng)
            out_s = chan(StageParams(2, 1, 2), a_i, rng)
            sink.ingest(out_l.Y, out_s.Y)
            r_i = rank(gf16, sink.stacked_long())
            assert r_i - p.b <= i * p.cbar


def test_scan_order_invariance(gf16):
    # a different (but valid) basis column choice permutes the bookkeeping,
    # not the decoded message
    p = std_params()
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
        alt_long = list(order_rng.permutation(p.n))
        alt_short = list(order_rng.permutation(2 * p.m))
        ke_a = sink.build_key_equation()
        ke_b = sink.build_key_equation(scan_order_long=alt_long, scan_order_short=alt_short)
        if ke_a is None or ke_b is None:
            continue
        res_a = sink.try_decode(ke_a)
        res_b = sink.try_decode(ke_b)
        assert res_a.status == res_b.status
        if res_a.status is Decode.DECODED:
            assert np.array_equal(res_a.w, res_b.w)


def test_decode_stage_one_clean_channels(gf16):
    p = std_params()
    rng, msg, secret = fresh_session(gf16, p, 15)
    sched = zip(itertools.cycle([StageParams(4, 0, 4)]),
                itertools.cycle([StageParams(2, 0, 2)]))
    rec = rs_run_session(gf16, p, msg, secret, sched, silent(gf16), silent(gf16), rng)
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
        ok += sink.try_decode().status is Decode.NEED_MORE
    assert ok >= 198


def test_decode_at_cutset_stage_montecarlo(gf16):
    p = std_params()
    hits = 0
    for seed in range(50):
        rng, msg, secret = fresh_session(gf16, p, [17, seed])
        ls = itertools.cycle([StageParams(4, 2, 4), StageParams(4, 1, 4)])
        ss = itertools.cycle([StageParams(2, 1, 2)])
        rec = rs_run_session(gf16, p, msg, secret, zip(ls, ss),
                             uniform(gf16), uniform(gf16), rng)
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
        rec = rs_run_session(gf16, p, msg, secret, zip(ls, ss),
                             silent(gf16), uniform(gf16), rng)
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
            assert rank(gf16, ke.t_bar_hat) == 2 * p.sigma
    assert ok >= 99


def test_session_rejects_sigma_margin_violation(gf16):
    # z < M holds but the short margin M - z dips below sigma
    p = RsParams(b=2, n=8, sigma=2, m=RsParams.auto_m(2, 2, 2), cbar=2)
    rng, msg, secret = fresh_session(gf16, p, 20)
    sched = zip(itertools.cycle([StageParams(2, 0, 2)]),
                itertools.cycle([StageParams(2, 1, 2)]))
    with pytest.raises(ValueError, match="sigma"):
        rs_run_session(gf16, p, msg, secret, sched, silent(gf16), silent(gf16), rng)


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
        rec = rs_run_session(f, p, msg, secret, zip(ls, ss),
                             uniform(f), uniform(f), rng, stage_cap=6)
        if rec.outcome == "failure" or (rec.outcome == "decoded" and not rec.correct):
            anomalies += 1
    assert anomalies >= 1


def test_validate_mode_passes_clean_sessions(gf16):
    p = std_params()
    rng, msg, secret = fresh_session(gf16, p, 22)
    ls = itertools.cycle([StageParams(4, 2, 4), StageParams(4, 1, 4)])
    ss = itertools.cycle([StageParams(2, 1, 2)])
    rec = rs_run_session(gf16, p, msg, secret, zip(ls, ss),
                         uniform(gf16), uniform(gf16), rng, validate=True)
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
        oracle = solve_exact(f, *dense_key_equation(ke, secret))
        result = sink.try_decode(ke)
        assert result.status is _ORACLE_STATUS[oracle.status]
        if result.status is Decode.DECODED:
            w = zeros(p.b, p.n)
            w[:, ke.x_col_order] = devectorize(oracle.solution[: p.n * p.b], p.b, p.n)
            assert np.array_equal(result.w, w)


def test_sink_rejects_bad_widths(gf16):
    p = std_params()
    secret = SharedSecret(gf16, p, np.random.default_rng(23))
    sink = RsSinkState(gf16, p, secret)
    with pytest.raises(ValueError, match="long packet width"):
        sink.ingest(zeros(2, 5), zeros(2, p.m + p.sigma))
    with pytest.raises(ValueError, match="short packet width"):
        sink.ingest(zeros(2, p.n + p.b), zeros(2, 5))
