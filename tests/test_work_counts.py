"""Deterministic work counts of both sinks.

Each sink keeps its observations in reduced row echelon form, so a stage
costs elimination in proportion to its new rows.  The random-secret sink
reads the key equation's column bases off those forms at no elimination
cost; the secret-channel sink forms its hash-check products only when it
has enough rank to decode.  Counting the pivots of every Gauss-Jordan
pass, and the products, on one seeded benchmark session per scheme pins
that down exactly, where a timing could not: a slide back into
re-eliminating what was kept fails here.  So does a slide back into pivots
made of elementwise field calls, which the elimination kernel does without.
The random-secret code keeps its secret as symbols and evaluates parity
rows at their points only where it reads them, and forms D w by baby and
giant steps, never evaluating a power past p^ceil(sqrt(n b)); counting
the points and rows of every evaluation, and looking for an n*b-column
array left behind, pins that down too.  The secret-channel decoder keeps
its hash as points and hash columns and solves once, forming R D only at
the leading rank + 1 hash points and the following distinct nonzero
points up to n + b; the events of every decode are matched against that
plan, on the benchmark session and, with the dense oracle checking every
verdict, on small fields where each of its outcomes occurs.  Every
stage's fixed costs are pinned as well: a channel use is one product,
[T | Q] [X; Z], in both channel modes; no stage re-lays out an array
through ``np.roll``, ``np.hstack`` or ``np.vstack`` (one
``np.concatenate`` does it, and none is made where the random-secret
sink reads its kept bases); the decoded W is laid out once; and the
random-secret slot map is built once per stage shape, not per session.
The stage guards hold for a single session and for a lockstep batch,
which makes each kernel call once for all of its sessions: a batch of 50
makes as many products and pivots as a batch of 10.
"""

import collections
import math
from pathlib import Path

import numpy as np
import pytest

from ratelessnc import channel, linalg, scheme_rs, scheme_sc
from ratelessnc.field import get_field
from ratelessnc.harness import build_config, load_config, run_experiment, run_trial
from ratelessnc.linalg import SolveStatus
from ratelessnc.records import Decode, unsolved

CONFIGS = Path(__file__).resolve().parents[1] / "bench" / "configs"
CONFIG = CONFIGS / "rs-long-b8.yaml"


def test_rs_sink_eliminates_only_new_rows(monkeypatch):
    open_calls = []             # [name, new rows, pivots, passes] of the wrapped calls open now
    finished = []
    real_gauss_jordan = linalg._gauss_jordan

    def gauss_jordan(field, work, pivot_limit):
        pivots = real_gauss_jordan(field, work, pivot_limit)
        for call in open_calls:
            call[2] += len(pivots)
            call[3] += 1
        return pivots

    def counted(name, fn, new_rows):
        def wrapper(*args):
            open_calls.append([name, new_rows(args), 0, 0])
            try:
                return fn(*args)
            finally:
                finished.append(open_calls.pop())
        return wrapper

    monkeypatch.setattr(linalg, "_gauss_jordan", gauss_jordan)
    monkeypatch.setattr(linalg, "extend_rref",
                        counted("extend_rref", linalg.extend_rref, lambda a: a[3].shape[0]))
    monkeypatch.setattr(scheme_rs.RsSinkState, "build_key_equation",
                        counted("build_key_equation",
                                scheme_rs.RsSinkState.build_key_equation, lambda a: 0))

    (rec,), _ = run_experiment(load_config(CONFIG, {"seed": 1}))
    assert rec.outcome == "decoded" and rec.correct and rec.stages_used == 8

    builds = [c for c in finished if c[0] == "build_key_equation"]
    extends = [c for c in finished if c[0] == "extend_rref"]
    assert len(builds) == 8 and len(extends) == 2 * 8
    assert all(passes == 0 for _, _, _, passes in builds), builds
    assert all(pivots <= 2 * rows for _, rows, pivots, _ in extends), extends
    assert sum(pivots for _, _, pivots, _ in extends) > 0


def _held_arrays(obj, seen):
    """Every numpy array reachable from ``obj`` through attributes, lists,
    tuples and dicts."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _held_arrays(item, seen)
    elif isinstance(obj, dict):
        for item in obj.values():
            yield from _held_arrays(item, seen)
    elif hasattr(obj, "__dict__"):
        yield from _held_arrays(vars(obj), seen)


def test_rs_parity_rows_evaluated_only_where_read(monkeypatch):
    cfg = load_config(CONFIG, {"seed": 1})
    p = cfg.rs_params
    where = ["encoder"]         # the innermost watched call open now
    events = []                 # (where, "call", args) / (where, "points" or "rows", count)
    heights = []                # (where, rows) of every Vandermonde evaluation
    real_vandermonde = linalg.vandermonde
    real_solve = linalg.solve_exact

    def vandermonde(field, points, num_rows):
        events.append((where[-1], "points", np.size(points)))
        heights.append((where[-1], num_rows))
        return real_vandermonde(field, points, num_rows)

    def solve_exact(field, a, rhs):
        events.append((where[-1], "rows", a.shape[0]))
        return real_solve(field, a, rhs)

    def within(name, fn):
        def wrapper(*args):
            events.append((name, "call", args))
            where.append(name)
            try:
                return fn(*args)
            finally:
                where.pop()
        return wrapper

    monkeypatch.setattr(linalg, "vandermonde", vandermonde)
    monkeypatch.setattr(linalg, "solve_exact", solve_exact)
    for owner, name in ((scheme_rs.RsSinkState, "build_key_equation"),
                        (scheme_rs.RsSinkState, "try_decode"), (scheme_rs, "_blocks_hold")):
        monkeypatch.setattr(owner, name, within(name, getattr(owner, name)))

    (rec,), _ = run_experiment(cfg)
    assert rec.outcome == "decoded" and rec.correct and rec.stages_used == 8

    # the encoder evaluates each stage's own points once, for l_k = h_k - D_k w
    assert [n for at, kind, n in events if at == "encoder"] == [p.alpha(k) for k in range(1, 9)]
    # D w is formed by baby and giant steps: no power past p^s is evaluated
    # for s = ceil(sqrt(n b)); only the decoder's solve rows, which hold
    # each parity row whole, are n b rows tall
    s = math.isqrt(p.n * p.b - 1) + 1
    assert all(rows <= s for at, rows in heights if at != "try_decode"), heights
    assert all(rows == p.n * p.b for at, rows in heights if at == "try_decode"), heights
    assert {at for at, _ in heights} == {"encoder", "try_decode", "_blocks_hold"}
    # building the key equation evaluates nothing: it carries the points
    builds = [args for at, kind, args in events if (at, kind) == ("build_key_equation", "call")]
    assert len(builds) == 8
    assert not [e for e in events if e[0] == "build_key_equation" and e[1] != "call"]

    decodes = []                # (key equation, events inside the decode)
    for at, kind, what in events:
        if (at, kind) == ("try_decode", "call"):
            decodes.append((what[1], []))
        elif at in ("try_decode", "_blocks_hold"):
            decodes[-1][1].append((at, kind, what))
    assert decodes
    solves = 0
    for ke, inside in decodes:
        isig = ke.stage * p.sigma
        n_basis = (ke.r_bar - isig) * isig
        kept_a = int(ke.kept_mask[:n_basis].sum())
        evaluated, pending = 0, 0
        for at, kind, what in inside:
            if at != "try_decode":
                continue
            if kind == "points":
                evaluated += what
                pending += 1
            else:
                # one evaluation per solve, of the parity rows it reads and
                # no others: the L_a slots' and the kept slots among its
                # L_b rows, a re-solve's only where not read before
                assert pending == 1, inside
                assert evaluated == kept_a + int(ke.kept_mask[n_basis: n_basis + what].sum())
                pending = 0
                solves += 1
        # the acceptance check evaluates every parity point at most once per
        # candidate: one with a nonzero dummy slot is refused before that
        checks = [(kind, what) for at, kind, what in inside if at == "_blocks_hold"]
        kinds = [kind for kind, _ in checks]
        assert all("call" in pair for pair in zip(kinds, kinds[1:])), kinds
        assert all(what == ke.points.size for kind, what in checks if kind == "points")
    assert solves >= len(decodes)
    assert kinds == ["call", "points"]  # the decoded candidate's check

    # and no parity block is left behind: nothing the secret, the sink or
    # the last key equation holds is n*b columns wide
    sink, ke = builds[-1][0], decodes[-1][0]
    seen = set()
    shapes = [a.shape for obj in (sink.secret, sink, ke) for a in _held_arrays(obj, seen)]
    assert any(len(s) == 2 for s in shapes)
    assert not [s for s in shapes if len(s) == 2 and s[1] == p.n * p.b], shapes


def watch_sc_decodes(monkeypatch, field):
    """Record, per ``SinkStateSC.try_decode`` call, [pivots, hash points,
    events, verdict]: the events are ("evaluate", points) for each
    ``linalg.vandermonde`` the decode makes, ("product", (m, k, n)) for each
    ``field.matmul`` it makes itself and ("solve", rows, status) for each
    ``linalg.solve_exact``, whose own products are not listed."""
    decodes = []
    state = {"open": False, "solving": 0}
    real_matmul = field.matmul
    real_solve = linalg.solve_exact
    real_vandermonde = linalg.vandermonde
    real_try_decode = scheme_sc.SinkStateSC.try_decode

    def matmul(a, b):
        if state["open"] and not state["solving"]:
            decodes[-1][2].append(("product", np.shape(a) + np.shape(b)[1:]))
        return real_matmul(a, b)

    def solve_exact(f, a, rhs):
        state["solving"] += 1
        try:
            out = real_solve(f, a, rhs)
        finally:
            state["solving"] -= 1
        if state["open"]:
            decodes[-1][2].append(("solve", a.shape[0], out.status))
        return out

    def vandermonde(f, points, num_rows):
        if state["open"]:
            decodes[-1][2].append(("evaluate", tuple(np.asarray(points).tolist())))
        return real_vandermonde(f, points, num_rows)

    def try_decode(sink):
        decodes.append([len(sink._piv), sink.points.copy(), []])
        state["open"] = True
        try:
            result = real_try_decode(sink)
        finally:
            state["open"] = False
        decodes[-1].append(result.status)
        return result

    monkeypatch.setitem(vars(field), "matmul", matmul)
    monkeypatch.setattr(linalg, "solve_exact", solve_exact)
    monkeypatch.setattr(linalg, "vandermonde", vandermonde)
    monkeypatch.setattr(scheme_sc.SinkStateSC, "try_decode", try_decode)
    return decodes


def fresh_points(points, lead, bound):
    """Loop reference for the points a decode reads past the leading ones:
    the indices, in order, of the points that are nonzero and not seen
    before, until ``bound`` distinct nonzero points are read; and whether
    such points were left unread."""
    seen = {p for p in points[:lead].tolist() if p}
    picked = []
    for j in range(lead, points.size):
        p = int(points[j])
        if p and p not in seen:
            if len(seen) >= bound:
                return picked, True
            seen.add(p)
            picked.append(j)
    return picked, False


def sc_decode_steps(b, n, pivots, points, events, verdict):
    """Check one decode's events against the one-solve plan and name its
    steps.  The decode evaluates D once, at the leading lead =
    min(pivots + 1, P) hash points followed by the distinct nonzero points
    up to n + b in all; forms R D there with one product, skipping R's
    identity columns; and solves once.  A unique solution S' gives the
    candidate S' R with one b-row product off R's free columns; any other
    status ends the decode.  The steps are the solve's status and how the
    points read ended: at the bound with fresh points left, at exactly
    the bound, or at every distinct nonzero point when fewer exist."""
    free = n + b - pivots
    lead = min(pivots + 1, points.size)
    picked, left = fresh_points(points, lead, n + b)
    cols = list(range(lead)) + picked
    assert events[:3] == [("evaluate", tuple(points[cols].tolist())),
                          ("product", (pivots, free, len(cols))),
                          ("solve", len(cols), events[2][2])], events
    status = events[2][2]
    distinct = len({p for p in points.tolist() if p})
    if status is SolveStatus.UNIQUE:
        assert events[3:] == [("product", (b, pivots, free))]
        assert verdict in (Decode.DECODED, Decode.FAILURE)
    else:
        assert events[3:] == []
        assert verdict is unsolved(status).status
    if status is SolveStatus.MULTIPLE:
        # with n + b distinct nonzero points read, R D has full rank
        assert distinct < n + b
    if left:
        return [status.name, "stopped at the bound"]
    return [status.name, "every distinct nonzero point" if distinct < n + b else "the bound"]


def test_sc_sink_eliminates_only_new_rows(monkeypatch):
    cfg = load_config(CONFIGS / "sc-rate-b16.yaml", {"seed": 1})
    field = get_field(cfg.field_name)
    ingests = []                # [new rows, pivots, rows of each pass]
    current = []                # the ingest open now, if any
    sinks = []                  # each session's sink
    real_gauss_jordan = linalg._gauss_jordan
    real_ingest = scheme_sc.SinkStateSC.ingest

    def gauss_jordan(f, work, pivot_limit):
        pivots = real_gauss_jordan(f, work, pivot_limit)
        if current:
            ingests[-1][1] += len(pivots)
            ingests[-1][2].append(work.shape[0])
        return pivots

    def ingest(sink, y_i, secret):
        ingests.append([y_i.shape[0], 0, []])
        current.append(sink)
        if sink not in sinks:
            sinks.append(sink)
        try:
            return real_ingest(sink, y_i, secret)
        finally:
            current.clear()

    monkeypatch.setattr(linalg, "_gauss_jordan", gauss_jordan)
    monkeypatch.setattr(scheme_sc.SinkStateSC, "ingest", ingest)
    decodes = watch_sc_decodes(monkeypatch, field)

    records, _ = run_experiment(cfg)
    assert all(r.outcome == "decoded" and r.correct for r in records)
    assert len(ingests) == len(decodes) == sum(r.stages_used for r in records)
    # each ingest eliminates its new rows alone, taking at most one pivot each
    assert all(pivots <= rows for rows, pivots, _ in ingests), ingests
    assert all(passes == [rows] for rows, _, passes in ingests), ingests
    # no product below b pivots; with b, R D is formed at the leading
    # pivots + 1 hash points and no more than n + b of the others, not at
    # every point, and solved once
    decoded = []                # the steps of each decode that decoded
    for pivots, points, events, verdict in decodes:
        if pivots < cfg.b:
            assert events == []
            continue
        taken = sc_decode_steps(cfg.b, cfg.n, pivots, points, events, verdict)
        read = sum(len(e[1]) for e in events if e[0] == "evaluate")
        assert read <= pivots + 1 + cfg.n + cfg.b, (read, taken)
        if verdict is Decode.DECODED:
            decoded.append(taken)
    assert {pivots >= cfg.b for pivots, *_ in decodes} == {False, True}
    assert len(decoded) == len(records)
    assert all(t[0] == "UNIQUE" for t in decoded), decoded
    assert ["UNIQUE", "stopped at the bound"] in decoded

    # and no hash block is left behind: no array a sink holds is n + b
    # rows by every hash point
    assert len(sinks) == len(records)
    for sink in sinks:
        shapes = [a.shape for a in _held_arrays(sink, set())]
        assert (cfg.b, sink.points.size) in shapes and sink.points.size > cfg.n + cfg.b
        assert (cfg.n + cfg.b, sink.points.size) not in shapes, shapes


@pytest.mark.parametrize("field_name", ["prime7", "gf2_4"])
def test_sc_decode_branches_agree_with_dense_oracle(monkeypatch, field_name):
    # small fields make ambiguous and inconsistent solves, candidates
    # without the identity, and zero and repeated hash points common;
    # validate mode checks every decode against the dense solve over all
    # of Y, so each outcome of the one-solve plan is shown to give the
    # full solve's verdict
    cfg = build_config({
        "scheme": "secret-channel", "field": field_name, "b": 2, "n": 3, "trials": 400,
        "seed": 3, "stage_cap": 8, "adversary": "uniform-random", "validate": True,
        "stages": {"kind": "iid", "M": {"values": [2, 3]}, "z": {"values": [0, 1]},
                   "cbar": 3},
    })
    decodes = watch_sc_decodes(monkeypatch, get_field(field_name))
    oracle_calls = []
    real_dense = scheme_sc._dense_decode

    def dense_decode(sink, y):
        oracle_calls.append(len(decodes))
        return real_dense(sink, y)

    monkeypatch.setattr(scheme_sc, "_dense_decode", dense_decode)
    records, _ = run_experiment(cfg)
    assert oracle_calls == list(range(1, len(decodes) + 1))
    assert {r.outcome for r in records} == {"decoded", "failure"}
    steps = set()
    for pivots, points, events, verdict in decodes:
        if pivots < cfg.b:
            assert events == []
            continue
        taken = sc_decode_steps(cfg.b, cfg.n, pivots, points, events, verdict)
        steps |= {*taken, (taken[0], verdict)}
    need = {"UNIQUE", "NO_SOLUTION", ("UNIQUE", Decode.DECODED), ("UNIQUE", Decode.FAILURE),
            "stopped at the bound", "the bound", "every distinct nonzero point"}
    if field_name == "prime7":
        # a MULTIPLE needs fewer than n + b = 5 distinct nonzero hash
        # points, common among the 6 of GF(7), rare among the 15 of GF(16)
        need.add("MULTIPLE")
    assert need <= steps, steps


def test_elimination_makes_no_elementwise_field_calls(monkeypatch):
    field = get_field("gf2_16")
    open_passes = [0]           # Gauss-Jordan passes open now
    passes = []
    calls = {"inside": [], "outside": 0}
    real_gauss_jordan = linalg._gauss_jordan

    def gauss_jordan(f, work, pivot_limit):
        open_passes[0] += 1
        try:
            pivots = real_gauss_jordan(f, work, pivot_limit)
        finally:
            open_passes[0] -= 1
        passes.append(len(pivots))
        return pivots

    def watched(name, fn):
        def wrapper(*args):
            if open_passes[0]:
                calls["inside"].append(name)
            else:
                calls["outside"] += 1
            return fn(*args)
        return wrapper

    for name in ("mul", "inv", "add", "sub"):
        monkeypatch.setitem(vars(field), name, watched(name, getattr(field, name)))
    monkeypatch.setattr(linalg, "_gauss_jordan", gauss_jordan)

    (rec,), _ = run_experiment(load_config(CONFIG, {"seed": 1}))
    assert rec.outcome == "decoded" and rec.correct and rec.stages_used == 8
    assert calls["inside"] == []
    assert calls["outside"] > 0 and sum(passes) > 0  # the watch saw the session


def watch_channel_uses(monkeypatch, field):
    """Record, per channel use, the number of ``Field.matmul`` calls it
    makes, checking the Y = T X + Q Z it records."""
    uses = []                   # Field.matmul calls made by each channel use
    open_use = []               # the channel use open now, if any
    real_matmul = field.matmul

    def matmul(a, b):
        if open_use:
            uses[-1] += 1
        return real_matmul(a, b)

    def watched(fn):
        def wrapper(*args):
            uses.append(0)
            open_use.append(True)
            try:
                out = fn(*args)
            finally:
                open_use.pop()
            assert np.array_equal(out.Y, field.add(real_matmul(out.T, args[-2]),
                                                    real_matmul(out.Q, out.Z)))
            return out
        return wrapper

    monkeypatch.setitem(vars(field), "matmul", matmul)
    for owner in (channel.MatrixChannel, channel.HypergraphChannel):
        monkeypatch.setattr(owner, "__call__", watched(owner.__call__))
    return uses


@pytest.mark.parametrize("config", [CONFIGS / "rs-cutset-b3.yaml",
                                    CONFIGS.parents[1] / "configs" / "sc_hypergraph.yaml"])
def test_one_product_per_channel_use(monkeypatch, config):
    # matrix mode (the random-secret workload's long and short channels)
    # and hypergraph mode: Y = T X + Q Z is one Field.matmul, and the
    # decomposition it records still holds; one session at a time
    cfg = load_config(config, {"seed": 1, "trials": 5})
    field = get_field(cfg.field_name)
    uses = watch_channel_uses(monkeypatch, field)
    records = [run_trial(cfg, field, t) for t in range(cfg.trials)]
    assert all(r.outcome == "decoded" and r.correct for r in records)
    stages = sum(r.stages_used for r in records)
    assert uses == [1] * stages * (2 if cfg.scheme == "random-secret" else 1)


def test_one_product_per_lockstep_channel_use(monkeypatch):
    # a lockstep batch uses each channel once per stage for all of its
    # sessions, and that use is still one product
    cfg = load_config(CONFIGS / "rs-cutset-b3.yaml", {"seed": 1, "trials": 5})
    field = get_field(cfg.field_name)
    uses = watch_channel_uses(monkeypatch, field)
    records, summary = run_experiment(cfg)
    assert all(r.outcome == "decoded" and r.correct for r in records)
    assert summary.lockstep_evictions == 0
    stages = {r.stages_used for r in records}
    assert len(stages) == 1
    assert uses == [1] * stages.pop() * 2


def watch_relayouts(monkeypatch):
    """Record the numpy re-layout helpers called (``np.concatenate`` only
    inside ``RsSinkState._extract_side``), the extractions made, and per
    ``RsSinkState.try_decode`` the W it returned beside the W its last
    ``_blocks_hold`` read."""
    calls = []
    reading = []                # the _extract_side calls open now
    for helper in ("roll", "hstack", "vstack", "concatenate"):
        real = getattr(np, helper)

        def counted(*args, _helper=helper, _real=real, **kwargs):
            if _helper != "concatenate" or reading:
                calls.append(_helper)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np, helper, counted)
    reads, checked, returned = [], [], []
    real_extract = scheme_rs.RsSinkState._extract_side
    real_blocks_hold = scheme_rs._blocks_hold
    real_try_decode = scheme_rs.RsSinkState.try_decode

    def extract_side(*args):
        reads.append(args)
        reading.append(True)
        try:
            return real_extract(*args)
        finally:
            reading.pop()

    def blocks_hold(f, ke, w, *rest):
        checked.append(w)
        return real_blocks_hold(f, ke, w, *rest)

    def try_decode(sink, ke):
        out = real_try_decode(sink, ke)
        returned.append((out.w, checked[-1] if checked else None))
        return out

    monkeypatch.setattr(scheme_rs.RsSinkState, "_extract_side", extract_side)
    monkeypatch.setattr(scheme_rs, "_blocks_hold", blocks_hold)
    monkeypatch.setattr(scheme_rs.RsSinkState, "try_decode", try_decode)
    return calls, reads, returned


@pytest.mark.parametrize("name", ["rs-long-b8", "rs-cutset-b3", "sc-rate-b16"])
def test_stages_make_no_numpy_relayout_helpers(monkeypatch, name):
    # np.roll, np.hstack and np.vstack are Python-level wrappers around a
    # copy; every re-layout on the stage path is one np.concatenate, and
    # the random-secret sink reads its kept bases in place, so reading the
    # column bases off them makes none at all.  The decoded W is laid out
    # once: the array the acceptance check reads is the one returned.
    # One session at a time
    calls, reads, returned = watch_relayouts(monkeypatch)
    cfg = load_config(CONFIGS / f"{name}.yaml", {"seed": 1})
    assert not cfg.validate
    field = get_field(cfg.field_name)
    records = [run_trial(cfg, field, t) for t in range(cfg.trials)]
    assert all(r.outcome == "decoded" and r.correct for r in records)
    assert calls == []
    assert bool(reads) == (cfg.scheme == "random-secret")
    decoded = [(w, seen) for w, seen in returned if w is not None]
    assert len(decoded) == (len(records) if cfg.scheme == "random-secret" else 0)
    assert all(w is seen for w, seen in decoded)


def test_lockstep_makes_no_numpy_relayout_helpers(monkeypatch):
    # the same on a lockstep batch: no helper, no concatenate where the
    # bases are read, and one decode whose stacked W is laid out once
    calls, reads, returned = watch_relayouts(monkeypatch)
    cfg = load_config(CONFIGS / "rs-cutset-b3.yaml", {"seed": 1})
    records, summary = run_experiment(cfg)
    assert all(r.outcome == "decoded" and r.correct for r in records)
    assert summary.lockstep_evictions == 0
    assert calls == [] and reads
    decoded = [(w, seen) for w, seen in returned if w is not None]
    assert [w.shape for w, _ in decoded] == [(len(records), cfg.b, cfg.n)]
    assert all(w is seen for w, seen in decoded)


def test_lockstep_pays_each_kernel_call_once_per_batch(monkeypatch):
    # a batch makes each product and each pivot once for all of its
    # sessions: 50 sessions cost as many calls as 10 (Field.sample, one
    # draw per session, is left out)
    field = get_field("gf2_16")
    counts = collections.Counter()
    for name in ("matmul", "pivot_step"):
        def counted(*args, _name=name, _real=getattr(field, name)):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setitem(vars(field), name, counted)
    seen = {}
    for trials in (10, 50):
        counts.clear()
        cfg = load_config(CONFIGS / "rs-cutset-b3.yaml", {"seed": 1, "trials": trials})
        records, summary = run_experiment(cfg)
        assert len(records) == trials
        assert all(r.outcome == "decoded" and r.correct for r in records)
        assert summary.lockstep_evictions == 0
        seen[trials] = dict(counts)
    assert seen[10] == seen[50]
    assert seen[10]["matmul"] > 0 and seen[10]["pivot_step"] > 0


def test_l_entry_map_built_once_and_read_only():
    lmap = scheme_rs.l_entry_map(3, 4, 2)
    assert scheme_rs.l_entry_map(3, 4, 2) is lmap
    assert not lmap.flags.writeable
    with pytest.raises(ValueError):
        lmap[0, 0] = 7
    # callers take copies by fancy indexing, which are theirs to write
    picked = lmap[[2, 0]]
    picked[0, 0] = 7
    assert lmap[2, 0] != 7
