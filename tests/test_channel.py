import itertools

import numpy as np
import pytest

from ratelessnc.channel import (
    AdversaryStrategy,
    Hypergraph,
    HypergraphChannel,
    MatrixChannel,
    StageParams,
    hypergraph_transfer,
    make_errors,
    sample_transfer,
)
from ratelessnc.field import get_field
from ratelessnc.harness import run_session
from ratelessnc.linalg import rank, rref_with_transform, zeros
from ratelessnc.scheme_sc import SourceMessage, sc_stages

BUTTERFLY = """
# two edge-disjoint paths, one adversary tap
SRC -> A
SRC -> B
A -> M1
B -> M1
A -> SINK
M1 -> SINK
ADV1 -> SINK
"""


@pytest.fixture(scope="module")
def gf16():
    return get_field("gf2_16")


def test_stage_params_validation():
    StageParams(M=3, z=1, c=3)
    with pytest.raises(ValueError, match="z_i < M_i"):
        StageParams(M=3, z=3, c=3)
    with pytest.raises(ValueError, match="M_i <= c_i"):
        StageParams(M=4, z=1, c=3)


def test_adversary_kinds():
    for kind in ("none", "uniform-random", "additive-targeted"):
        AdversaryStrategy(kind)
    with pytest.raises(ValueError):
        AdversaryStrategy("petulant")


def test_sample_transfer_shapes_and_rank(gf16):
    rng = np.random.default_rng(0)
    t, q = sample_transfer(gf16, StageParams(M=4, z=2, c=6), rng)
    assert t.shape == (4, 6) and q.shape == (4, 2)
    assert rank(gf16, t) == 4


def test_sample_transfer_zero_adversary(gf16):
    rng = np.random.default_rng(1)
    t, q = sample_transfer(gf16, StageParams(M=3, z=0, c=3), rng)
    assert q.shape == (3, 0)


def test_square_transfer_invertible(gf16):
    rng = np.random.default_rng(2)
    for _ in range(50):
        t, _ = sample_transfer(gf16, StageParams(M=4, z=0, c=4), rng)
        assert rank(gf16, t) == 4


def test_uniform_draw_full_rank_rate(gf16):
    # raw 4x6 uniform draws achieve rank 4 nearly always at this field size
    rng = np.random.default_rng(3)
    hits = sum(rank(gf16, gf16.sample(rng, (4, 6))) == 4 for _ in range(1000))
    assert hits >= 990


def test_make_errors_none(gf16):
    sent = gf16.sample(np.random.default_rng(4), (3, 10))
    z = make_errors(gf16, AdversaryStrategy("none"), 3, 10, sent, np.random.default_rng(4))
    assert z.shape == (0, 10)


def test_make_errors_uniform(gf16):
    sent = gf16.sample(np.random.default_rng(5), (3, 10))
    z = make_errors(gf16, AdversaryStrategy("uniform-random"), 1, 10, sent,
                    np.random.default_rng(5))
    assert z.shape == (1, 10)


def test_targeted_errors_leave_message_row_space(gf16):
    f = gf16
    rng = np.random.default_rng(6)
    msg = SourceMessage.random(f, 4, 32, rng)
    x = f.matmul(f.sample(rng, (5, 4)), msg.x0)
    strategy = AdversaryStrategy("additive-targeted")
    trials = 10_000
    errors = np.vstack([make_errors(f, strategy, 1, 36, x, rng) for _ in range(trials)])
    # reduce all error rows by the echelon form of X0's row space at once
    rr = rref_with_transform(f, msg.x0)
    red = errors.copy()
    for j, c in enumerate(rr.pivot_cols):
        red = f.sub(red, f.mul(red[:, c][:, None], rr.reduced[j][None, :]))
    outside = np.count_nonzero(red.any(axis=1))
    assert outside >= trials * 0.999


def test_matrix_channel_decomposition_exact(gf16):
    f = gf16
    rng = np.random.default_rng(7)
    chan = MatrixChannel(f, AdversaryStrategy("uniform-random"))
    x = f.sample(rng, (5, 20))
    out = chan(StageParams(M=3, z=2, c=5), x, rng)
    lhs = f.add(f.matmul(out.T, x), f.matmul(out.Q, out.Z))
    assert np.array_equal(out.Y, lhs)
    assert out.injected_errors(2) == 2


def test_matrix_channel_silent_adversary(gf16):
    f = gf16
    rng = np.random.default_rng(8)
    chan = MatrixChannel(f, AdversaryStrategy("none"))
    x = f.sample(rng, (3, 12))
    out = chan(StageParams(M=2, z=1, c=3), x, rng)
    assert out.Z.shape[0] == 0 and out.Q.shape[1] == 0
    assert np.array_equal(out.Y, f.matmul(out.T, x))
    assert out.injected_errors(1) == 0


# -- hypergraph mode ----------------------------------------------------------

def test_hypergraph_parsing_and_cuts():
    g = Hypergraph.from_text(BUTTERFLY)
    assert g.source_slots == 2
    assert g.adversary_slots == 1
    assert g.honest_min_cut() == 2
    assert g.adversary_min_cut() == 1


def test_hypergraph_broadcast_counts_once():
    # one broadcast hyperedge reaches two relays but carries one packet
    g = Hypergraph.from_text("SRC -> A,B\nA -> SINK\nB -> SINK\n")
    assert g.honest_min_cut() == 1


def test_hypergraph_requires_endpoints():
    with pytest.raises(ValueError):
        Hypergraph.from_text("A -> B\n")


def test_hypergraph_rejects_cycles():
    # the topological order is computed once, at construction, so a cycle
    # is refused there and not in the first stage pushed through it
    with pytest.raises(ValueError, match="acyclic"):
        Hypergraph.from_text("SRC -> A\nA -> B\nB -> A\nA -> SINK\n")


def test_hypergraph_bad_line():
    with pytest.raises(ValueError):
        Hypergraph.from_text("SRC SINK\n")


def test_single_edge_topology_scales(gf16):
    f = gf16
    g = Hypergraph.from_text("SRC -> SINK\n")
    rng = np.random.default_rng(9)
    x = f.sample(rng, (1, 10))
    out = hypergraph_transfer(f, g, x, zeros(0, 10), rng)
    assert out.Y.shape == (1, 10)
    k = out.T[0, 0]
    assert np.array_equal(out.Y, f.mul(np.int64(k), x))


def test_disconnected_sink_raises(gf16):
    g = Hypergraph.from_text("SRC -> A\nSINK -> A\n")
    with pytest.raises(ValueError, match="disconnected"):
        hypergraph_transfer(gf16, g, gf16.sample(np.random.default_rng(0), (1, 4)),
                            zeros(0, 4), np.random.default_rng(1))


def test_butterfly_transfer_rank(gf16):
    f = gf16
    g = Hypergraph.from_text(BUTTERFLY)
    rng = np.random.default_rng(10)
    full = 0
    for _ in range(1000):
        x = f.sample(rng, (2, 4))
        z = f.sample(rng, (1, 4))
        out = hypergraph_transfer(f, g, x, z, rng)
        lhs = f.add(f.matmul(out.T, x), f.matmul(out.Q, z))
        assert np.array_equal(out.Y, lhs)
        full += rank(f, out.T) == 2
    assert full >= 990


def test_adversary_single_tap_rank_one(gf16):
    f = gf16
    g = Hypergraph.from_text(BUTTERFLY)
    rng = np.random.default_rng(11)
    out = hypergraph_transfer(f, g, f.sample(rng, (2, 4)), f.sample(rng, (1, 4)), rng)
    assert rank(f, out.Q) == 1


def test_hypergraph_channel_validates_declared_params(gf16):
    g = Hypergraph.from_text(BUTTERFLY)
    chan = HypergraphChannel(gf16, g, AdversaryStrategy("uniform-random"))
    rng = np.random.default_rng(12)
    x = gf16.sample(rng, (2, 6))
    with pytest.raises(ValueError, match="does not match topology"):
        chan(StageParams(M=3, z=1, c=3), x, rng)
    out = chan(StageParams(M=2, z=1, c=2), x, rng)
    assert out.Y.shape[1] == 6


def test_matrix_and_hypergraph_modes_interchangeable(gf16):
    # matched (M, z, c) sequences: decode rates agree within 2 points
    f = gf16
    g = Hypergraph.from_text(BUTTERFLY)
    params = StageParams(M=2, z=1, c=2)
    rates = []
    for chan in (MatrixChannel(f, AdversaryStrategy("uniform-random")),
                 HypergraphChannel(f, g, AdversaryStrategy("uniform-random"))):
        decoded = 0
        for t in range(500):
            rng = np.random.default_rng([17, t])
            msg = SourceMessage.random(f, 3, 9, rng)
            rec = run_session(sc_stages(f, msg, itertools.cycle([params]), chan, rng), msg)
            decoded += rec.outcome == "decoded" and rec.correct
        rates.append(decoded / 500)
    assert abs(rates[0] - rates[1]) < 0.02
