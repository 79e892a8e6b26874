import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratelessnc.channel import AdversaryStrategy, MatrixChannel, StageParams
from ratelessnc.field import get_field
from ratelessnc.harness import run_session
from ratelessnc.linalg import (
    SolveStatus,
    rank,
    rref_with_transform,
    solve_in_row_space,
    vandermonde,
    zeros,
)
from ratelessnc.records import Decode, DecodeResult
from ratelessnc.scheme_sc import (
    SecretStagePayload,
    SinkStateSC,
    SourceMessage,
    sc_encode_stage,
    sc_stages,
)


@pytest.fixture(scope="module")
def gf16():
    return get_field("gf2_16")


@pytest.fixture(scope="module")
def gf7():
    return get_field("prime7")


def hash_oracle(field, x0, points):
    """Recompute the hash by per-row Horner evaluation of sum_k x_k r^k."""
    b, width = x0.shape
    out = zeros(b, len(points))
    for j, r in enumerate(points):
        for i in range(b):
            acc = 0
            for k in reversed(range(width)):
                acc = field.mul(field.add(acc, int(x0[i, k])), int(r))
            out[i, j] = acc
    return out


def uniform_channel(field):
    return MatrixChannel(field, AdversaryStrategy("uniform-random"))


def run(field, b, n, schedule, seed, channel=None, stage_cap=64, validate=False):
    rng = np.random.default_rng(seed)
    msg = SourceMessage.random(field, b, n, rng)
    chan = channel or uniform_channel(field)
    stages = sc_stages(field, msg, schedule, chan, rng, validate=validate)
    return run_session(stages, msg, stage_cap), msg


def test_message_layout(gf16):
    msg = SourceMessage.random(gf16, 3, 8, np.random.default_rng(0))
    assert msg.x0.shape == (3, 11)
    assert np.array_equal(msg.x0[:, :8], msg.w)
    assert np.array_equal(msg.x0[:, 8:], np.eye(3, dtype=np.int64))


def test_message_shape_limits(gf7):
    with pytest.raises(ValueError):
        SourceMessage.random(gf7, 3, 5, np.random.default_rng(0))  # n + b >= q


def test_single_row_encoding_is_scalar_multiple(gf16):
    # with b = 1 the appended identity column exposes the combination
    # coefficient, so X_i must be that scalar times X0
    f = gf16
    msg = SourceMessage.random(f, 1, 6, np.random.default_rng(1))
    x_i, _ = sc_encode_stage(f, msg, 1, 1, np.random.default_rng(2))
    k = np.int64(x_i[0, 6])
    assert np.array_equal(x_i, f.mul(k, msg.x0))


def test_encoded_rows_in_message_row_space(gf16):
    f = gf16
    rng = np.random.default_rng(3)
    msg = SourceMessage.random(f, 4, 10, rng)
    x_i, _ = sc_encode_stage(f, msg, 2, 5, rng)
    assert rank(f, np.vstack([msg.x0, x_i])) == rank(f, msg.x0)


def test_stage_hash_matches_polynomial_oracle(gf7):
    f = gf7
    rng = np.random.default_rng(4)
    msg = SourceMessage.random(f, 2, 2, rng)
    _, payload = sc_encode_stage(f, msg, 1, 1, rng)
    assert np.array_equal(payload.hashes, hash_oracle(f, msg.x0, payload.points))


def test_stage_point_counts_and_secret_size(gf16):
    f = gf16
    for b, c in ((1, 1), (2, 3), (4, 2)):
        msg = SourceMessage.random(f, b, 6, np.random.default_rng(5))
        rng = np.random.default_rng(6)
        for stage in range(1, 6):
            _, payload = sc_encode_stage(f, msg, stage, c, rng)
            expect_pts = b * c + (1 if stage == 1 else 0)
            assert payload.points.size == expect_pts
            assert payload.size_symbols == expect_pts * (b + 1)


def test_ingest_stacking_sizes(gf16):
    f = gf16
    b, n = 2, 6
    msg = SourceMessage.random(f, b, n, np.random.default_rng(9))
    rng = np.random.default_rng(10)
    sink = SinkStateSC(f, b, n)
    received = []
    for stage, c in ((1, 3), (2, 2)):
        x_i, payload = sc_encode_stage(f, msg, stage, c, rng)
        sink.ingest(x_i, payload)  # direct ingest, no channel
        received.append(x_i)
        # the true message satisfies the accumulated hash identity
        assert np.array_equal(f.matmul(msg.x0, vandermonde(f, sink.points, n + b)), sink.h)
    assert sink.points.shape == ((b * 3 + 1) + b * 2,)
    # the sink keeps only the b pivot rows of the reduced form of the
    # 3 + 2 received
    y = np.vstack(received)
    assert y.shape[0] == 3 + 2
    batch = rref_with_transform(f, y)
    assert len(sink._piv) == batch.rank == b
    assert np.array_equal(sink._rref, batch.reduced[:b])
    assert sink._piv == batch.pivot_cols


def test_ingest_rejects_bad_width(gf16):
    sink = SinkStateSC(gf16, 2, 6)
    payload = SecretStagePayload(np.array([1]), zeros(2, 1))
    with pytest.raises(ValueError, match="width"):
        sink.ingest(zeros(2, 7), payload)
    for y in (zeros(2, 8)[0], zeros(2, 8)[:, :, None]):
        with pytest.raises(ValueError, match="2-D"):
            sink.ingest(y, payload)


def test_noiseless_single_stage_decodes(gf16):
    sched = itertools.cycle([StageParams(M=4, z=0, c=4)])
    rec, msg = run(gf16, 4, 12, sched, seed=11,
                   channel=MatrixChannel(gf16, AdversaryStrategy("none")))
    assert rec.outcome == "decoded" and rec.stages_used == 1 and rec.correct
    assert rec.rate == 4.0


def test_need_more_when_cutset_violated(gf16):
    # b + z1 > M1: no combination satisfies the hash, so the sink waits
    sched = itertools.cycle([StageParams(M=3, z=1, c=3)])
    needed_more = 0
    for seed in range(200):
        rng = np.random.default_rng([903, seed])
        msg = SourceMessage.random(gf16, 4, 16, rng)
        sink = SinkStateSC(gf16, 4, 16)
        chan = uniform_channel(gf16)
        params = next(iter(sched))
        x_i, payload = sc_encode_stage(gf16, msg, 1, params.c, rng)
        out = chan(params, x_i, rng)
        sink.ingest(out.Y, payload)
        needed_more += sink.try_decode().status is Decode.NEED_MORE
    assert needed_more >= 198


def test_decodes_exactly_at_cutset_stage(gf16):
    # M = 3, z = 1, b = 4: first stage with 4 + i <= 3i is stage 2
    hits = 0
    for seed in range(50):
        rec, _ = run(gf16, 4, 32, itertools.cycle([StageParams(3, 1, 3)]),
                     seed=[904, seed])
        hits += rec.outcome == "decoded" and rec.stages_used == 2 and rec.correct
    assert hits >= 49


def test_monotonicity_after_decode(gf16):
    # extending a decoded session's observations keeps the same decode
    f = gf16
    rng = np.random.default_rng(12)
    msg = SourceMessage.random(f, 3, 9, rng)
    sink = SinkStateSC(f, 3, 9)
    chan = uniform_channel(f)
    params = StageParams(M=3, z=0, c=3)
    for stage in (1, 2, 3, 4):
        x_i, payload = sc_encode_stage(f, msg, stage, params.c, rng)
        out = chan(params, x_i, rng)
        sink.ingest(out.Y, payload)
        result = sink.try_decode()
        assert result.status is Decode.DECODED
        assert np.array_equal(result.w, msg.w)


def test_hash_completeness_full_column_rank(gf16):
    # whenever the stacked transfer has full column rank the true message
    # is reachable, so decode never reports no-solution
    f = gf16
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng([905, seed])
        msg = SourceMessage.random(f, 3, 9, rng)
        sink = SinkStateSC(f, 3, 9)
        chan = uniform_channel(f)
        t_blocks = []
        q_blocks = []
        z_rows = []
        for stage in (1, 2):
            params = StageParams(M=3, z=1, c=3)
            x_i, payload = sc_encode_stage(f, msg, stage, params.c, rng)
            out = chan(params, x_i, rng)
            k_i = x_i[:, 9:]  # identity block exposes K_i
            t_blocks.append(f.matmul(out.T, k_i))
            q_blocks.append(out.Q)
            z_rows.append(out.Z)
            sink.ingest(out.Y, payload)
        t_hat = np.hstack([
            np.vstack(t_blocks),
            np.block([[q_blocks[0], zeros(3, 1)], [zeros(3, 1), q_blocks[1]]]),
        ])
        if rank(f, t_hat) == t_hat.shape[1]:
            hits += 1
            assert sink.try_decode().status is not Decode.NEED_MORE
    assert hits >= 99  # stacked transfer is full column rank nearly always


_ORACLE_STATUS = {
    SolveStatus.UNIQUE: Decode.DECODED,
    SolveStatus.MULTIPLE: Decode.FAILURE,
    SolveStatus.NO_SOLUTION: Decode.NEED_MORE,
}


def dense_expectation(f, sink, y):
    """Decode status and W from a dense solve over every received row y."""
    if rank(f, y) < sink.b:  # fewer than b independent rows: wait
        return Decode.NEED_MORE, None
    oracle = solve_in_row_space(f, y, vandermonde(f, sink.points, sink.n + sink.b), sink.h)
    status = _ORACLE_STATUS[oracle.status]
    if status is not Decode.DECODED:
        return status, None
    x0 = f.matmul(oracle.solution, y)
    if not np.array_equal(x0[:, sink.n:], np.eye(sink.b, dtype=np.int64)):
        return Decode.FAILURE, None
    return Decode.DECODED, x0[:, : sink.n]


@st.composite
def _stage(draw):
    m = draw(st.integers(1, 3))
    return StageParams(m, draw(st.integers(0, m - 1)), m + draw(st.integers(0, 1)))


@st.composite
def _sc_case(draw):
    field = get_field(draw(st.sampled_from(["prime7", "gf2_4", "prime251", "gf2_16"])))
    b = draw(st.integers(1, 4))
    n = draw(st.integers(1, min(4, field.q - 1 - b)))
    stages = draw(st.lists(_stage(), min_size=1, max_size=4))
    adversary = draw(st.sampled_from(["none", "uniform-random", "additive-targeted"]))
    return field, b, n, stages, adversary, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_sc_case())
def test_sink_agrees_with_dense_oracle(case):
    # solving over a row basis of Y classifies and decodes exactly as the
    # dense solve over every row does, whatever the field, shape, stage
    # parameters and adversary
    f, b, n, stages, adversary, seed = case
    rng = np.random.default_rng(seed)
    msg = SourceMessage.random(f, b, n, rng)
    sink = SinkStateSC(f, b, n)
    chan = MatrixChannel(f, AdversaryStrategy(adversary))
    y = zeros(0, n + b)
    for stage, params in enumerate(stages, start=1):
        x_i, payload = sc_encode_stage(f, msg, stage, params.c, rng)
        y_i = chan(params, x_i, rng).Y
        sink.ingest(y_i, payload)
        y = np.vstack([y, y_i])
        result = sink.try_decode()
        status, w = dense_expectation(f, sink, y)
        assert result.status is status
        assert np.array_equal(result.w, w)


def test_validate_mode_checks_sink_against_dense_oracle(gf16, monkeypatch):
    # a sink that never decodes is caught at the first decodable stage
    monkeypatch.setattr(SinkStateSC, "try_decode", lambda self: DecodeResult(Decode.NEED_MORE))
    with pytest.raises(AssertionError, match="dense solve"):
        run(gf16, 4, 16, itertools.cycle([StageParams(3, 1, 3)]), seed=14, validate=True)


@pytest.mark.parametrize("bad", [-1, 1 << 16])
def test_ingest_rejects_out_of_range_symbols(gf16, bad):
    # GF(2^16) tables would wrap -1 to 65535 silently; the sink refuses it
    # in int64 and int32 alike, an observation block that is not 2-D and a
    # malformed hash block, before it changes any state.  A uint16 block
    # holds only symbols of GF(2^16), so the sink takes it
    f = gf16
    msg = SourceMessage.random(f, 2, 6, np.random.default_rng(15))
    rng = np.random.default_rng(16)
    x_i, payload = sc_encode_stage(f, msg, 1, 3, rng)
    x_2, payload_2 = sc_encode_stage(f, msg, 2, 1, rng)
    sink = SinkStateSC(f, 2, 6)

    def state():
        return sink._rref.copy(), list(sink._piv), sink.points.copy(), sink.h.copy()

    # stages rejected by an empty sink, then by one holding a stage
    for y, good in ((x_i, payload), (x_2, payload_2)):
        before = state()
        for dtype in (np.int64, np.int32):
            y_bad = y.astype(dtype)
            y_bad[-1, 5] = bad
            with pytest.raises(ValueError, match="observation symbols"):
                sink.ingest(y_bad, good)
        with pytest.raises(ValueError, match="integer dtype"):
            sink.ingest(y.astype(float), good)
        for y_bad in (y[0], y[:, :, None]):
            with pytest.raises(ValueError, match="2-D"):
                sink.ingest(y_bad, good)
        for field_name, label in (("points", "evaluation points"), ("hashes", "hash symbols")):
            arr = getattr(good, field_name).copy()
            arr.flat[0] = bad
            bad_payload = dataclasses.replace(good, **{field_name: arr})
            with pytest.raises(ValueError, match=label):
                sink.ingest(y, bad_payload)
        for bad_payload in (dataclasses.replace(good, points=good.points[None, :]),
                            dataclasses.replace(good, points=good.points[:-1])):
            with pytest.raises(ValueError, match="evaluation points"):
                sink.ingest(y, bad_payload)
        # nothing of a rejected stage is kept
        assert all(np.array_equal(u, v) for u, v in zip(before, state()))
        sink.ingest(y.astype(np.uint16), good)
    assert np.array_equal(sink.points, np.concatenate([payload.points, payload_2.points]))
    assert np.array_equal(sink.h, np.hstack([payload.hashes, payload_2.hashes]))
    batch = rref_with_transform(f, np.vstack([x_i, x_2]))
    assert np.array_equal(sink._rref, batch.reduced[: batch.rank])
    assert sink._piv == batch.pivot_cols


def test_stage_cap_exhaustion(gf16):
    # cut set for b = 8, M - z = 1 is first met at stage 8; cap at 5
    sched = itertools.cycle([StageParams(M=2, z=1, c=2)])
    rec, _ = run(gf16, 8, 16, sched, seed=13, stage_cap=5)
    assert rec.outcome == "exhausted"
    assert rec.stages_used == 5
    assert rec.rate == 0.0


def test_validate_mode_passes_clean_sessions(gf16):
    rec, _ = run(gf16, 4, 16, itertools.cycle([StageParams(3, 1, 3)]), seed=14,
                 validate=True)
    assert rec.outcome == "decoded"
