"""Spans around the calls the library makes into its own modules.

``Tracer.install`` replaces each traced name where its caller looks it up
(a field instance method, a class method or a module attribute) with a
wrapper that times the call, charges its duration to the enclosing span
and, for a few names, stashes what the benchmark checks afterwards: the
message drawn, the hashes ingested, the blocks decoded.  ``uninstall``
puts the originals back.  Spans are aggregated by name as they close; the
full span tree of the first session is kept for the trace dump.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict
from dataclasses import dataclass, field as dc_field
from time import perf_counter

import numpy as np

KEPT_SESSIONS = 1
_MISSING = object()


@dataclass
class SessionCapture:
    """What the hooks saw during one ``harness.run_trial`` call."""

    scheme: str = ""                                  # "sc" or "rs" once decoded
    msg_w: np.ndarray | None = None
    payloads: list = dc_field(default_factory=list)   # SC side-channel payloads
    decoded: list = dc_field(default_factory=list)    # blocks try_decode returned
    hash_points: int = 0
    key_equation: object = None
    ke_cells: int = 0
    secret_symbols: int = 0
    reducers: dict = dc_field(default_factory=dict)
    incremental_updates: int = 0
    record: object = None
    session_s: float = 0.0


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.edges: Counter = Counter()        # (parent name, child name) -> calls
        self.counters: defaultdict = defaultdict(float)
        self.sessions: list[SessionCapture] = []
        self.spans: list[tuple] = []           # (id, parent id, name, start, end)
        self._stack: list[list] = []           # open spans: [name, child seconds, id]
        self._next_id = 0
        self._recording = False
        self._cur = SessionCapture()
        self._patches: list[tuple] = []
        self.missing: list[str] = []           # traced names the library no longer has

    # -- wrapping -----------------------------------------------------------
    def _timed(self, name, fn, hook=None):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            frame = [name, 0.0, tracer._next_id]
            tracer._next_id += 1
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dt = t1 - t0
                tracer.calls[name] += 1
                tracer.total[name] += dt
                tracer.self_time[name] += dt - frame[1]
                if parent is not None:
                    parent[1] += dt
                    tracer.edges[parent[0], name] += 1
                if tracer._recording:
                    tracer.spans.append((frame[2], parent[2] if parent else None, name, t0, t1))
            if hook is not None:
                hook(args, out)
            return out

        return wrapper

    def _session(self, timed_run_trial):
        tracer = self

        def run_trial(*args, **kwargs):
            tracer._cur = cur = SessionCapture()
            tracer._recording = len(tracer.sessions) < KEPT_SESSIONS
            before = tracer.total["harness.run_trial"]
            cur.record = timed_run_trial(*args, **kwargs)
            cur.session_s = tracer.total["harness.run_trial"] - before
            tracer._recording = False
            cur.secret_symbols = cur.secret_symbols or sum(p.size_symbols for p in cur.payloads)
            cur.incremental_updates = sum(r.incremental_updates for r in cur.reducers.values())
            cur.reducers.clear()
            cur.key_equation = None
            tracer.sessions.append(cur)
            return cur.record

        return run_trial

    def _patch(self, owner, attr, name, hook=None, session=False):
        if not hasattr(owner, attr):
            self.missing.append(f"{getattr(owner, '__name__', type(owner).__name__)}.{attr}")
            return
        saved = vars(owner).get(attr, _MISSING)
        new = self._timed(name, getattr(owner, attr), hook)
        if session:
            new = self._session(new)
        setattr(owner, attr, new)
        self._patches.append((owner, attr, saved))

    def install(self, field) -> None:
        from ratelessnc import channel, harness, linalg, scheme_rs, scheme_sc

        self._patch(field, "matmul", "field.matmul", self._on_matmul)
        for op in ("mul", "inv", "add", "sub"):
            self._patch(field, op, "field.elementwise")
        self._patch(linalg, "rref_with_transform", "linalg.rref")
        self._patch(linalg, "rank", "linalg.rank")
        self._patch(linalg, "solve_exact", "linalg.solve_exact", self._on_solve)
        self._patch(linalg, "independent_row_indices", "linalg.independent_row_indices")
        self._patch(linalg, "vandermonde", "linalg.vandermonde")
        self._patch(linalg.IncrementalReducer, "update", "linalg.reducer_update",
                    self._on_reducer_update)
        self._patch(channel.MatrixChannel, "__call__", "channel.stage")
        self._patch(channel, "sample_transfer", "channel.sample_transfer")
        self._patch(scheme_sc.SourceMessage, "random", "sc.message_random", self._on_message)
        self._patch(scheme_sc, "sc_encode_stage", "sc.encode")
        self._patch(scheme_sc.SinkStateSC, "ingest", "sc.ingest", self._on_sc_ingest)
        self._patch(scheme_sc.SinkStateSC, "try_decode", "sc.try_decode", self._on_sc_decode)
        self._patch(scheme_rs.RsEncoder, "encode_stage", "rs.encode")
        self._patch(scheme_rs.RsSinkState, "ingest", "rs.ingest")
        self._patch(scheme_rs.RsSinkState, "build_key_equation", "rs.build_key_equation",
                    self._on_key_equation)
        self._patch(scheme_rs.RsSinkState, "try_decode", "rs.try_decode", self._on_rs_decode)
        self._patch(harness, "run_trial", "harness.run_trial", session=True)
        self._patch(harness, "run_experiment", "harness.run_experiment")
        self._patch(harness, "emit_outputs", "harness.emit_outputs")

    def uninstall(self) -> None:
        for owner, attr, saved in reversed(self._patches):
            if saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)
        self._patches.clear()

    # -- hooks (run after the span closes) ----------------------------------
    def _on_matmul(self, args, out):
        a, b = args[0], args[1]
        m, k = np.shape(a)
        n = np.shape(b)[1]
        self.counters["matmul.mac"] += m * k * n
        self.counters["matmul.bytes"] += np.asarray(a).nbytes + np.asarray(b).nbytes + out.nbytes

    def _on_solve(self, args, out):
        self.counters["solve_exact.max_cells"] = max(self.counters["solve_exact.max_cells"],
                                                     np.size(args[1]))

    def _on_reducer_update(self, args, out):
        self._cur.reducers[id(args[0])] = args[0]

    def _on_message(self, args, out):
        self._cur.msg_w = out.w

    def _on_sc_ingest(self, args, out):
        self._cur.payloads.append(args[2])

    def _on_sc_decode(self, args, out):
        if out.decoded:
            self._cur.scheme = "sc"
            self._cur.decoded.append(out.w)
            self._cur.hash_points = sum(p.points.size for p in self._cur.payloads)

    def _on_key_equation(self, args, out):
        self._cur.key_equation = out

    def _on_rs_decode(self, args, out):
        if out.decoded:
            ke = args[1] if len(args) > 1 and args[1] is not None else self._cur.key_equation
            b_mat = getattr(ke, "b_mat", None)
            self._cur.scheme = "rs"
            self._cur.decoded.append(out.w)
            self._cur.ke_cells = 0 if b_mat is None else b_mat.size
            self._cur.secret_symbols = args[0].secret.consumed_symbols

    # -- results ------------------------------------------------------------
    def per_layer(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, per session unless the name says otherwise."""
        n = len(self.sessions)
        calls = lambda name: self.calls[name] / n
        ms = lambda name: 1000.0 * self.total[name] / n
        self_ms = lambda prefix: 1000.0 * sum(
            v for k, v in self.self_time.items() if k.startswith(prefix)) / n
        mean = lambda values: float(np.mean(values)) if values else 0.0
        updates = self.calls["linalg.reducer_update"]
        incremental = sum(s.incremental_updates for s in self.sessions)
        rank_checks = self.edges["channel.sample_transfer", "linalg.rank"]
        session_ms = [1000.0 * s.session_s for s in self.sessions]
        sc = [s for s in self.sessions if s.scheme == "sc"]
        rs = [s for s in self.sessions if s.scheme == "rs"]
        emits = self.calls["harness.emit_outputs"]
        run_trial_self = 1000.0 * self.self_time["harness.run_trial"] / n
        out = {
            "field.matmul.calls": (calls("field.matmul"), "count"),
            "field.matmul.ms": (ms("field.matmul"), "ms"),
            "field.matmul.mmac": (self.counters["matmul.mac"] / 1e6 / n, "Mmac"),
            "field.matmul.mb": (self.counters["matmul.bytes"] / 1e6 / n, "MB"),
            "field.elementwise.calls": (calls("field.elementwise"), "count"),
            "field.elementwise.ms": (ms("field.elementwise"), "ms"),
            "linalg.reducer_update.calls": (calls("linalg.reducer_update"), "count"),
            "linalg.reducer_update.ms": (ms("linalg.reducer_update"), "ms"),
            "linalg.reducer.incremental_ratio": (incremental / updates if updates else 0.0,
                                                 "ratio"),
            "linalg.rref.calls": (calls("linalg.rref"), "count"),
            "linalg.rref.ms": (ms("linalg.rref"), "ms"),
            "linalg.rank.calls": (calls("linalg.rank"), "count"),
            "linalg.rank.ms": (ms("linalg.rank"), "ms"),
            "linalg.solve_exact.ms": (ms("linalg.solve_exact"), "ms"),
            "linalg.solve_exact.cells": (self.counters["solve_exact.max_cells"], "cells"),
            "linalg.independent_row_indices.ms": (ms("linalg.independent_row_indices"), "ms"),
            "linalg.vandermonde.ms": (ms("linalg.vandermonde"), "ms"),
            "channel.stage.calls": (calls("channel.stage"), "count"),
            "channel.stage.ms": (ms("channel.stage"), "ms"),
            "channel.transfer_accept_ratio": (
                self.calls["channel.sample_transfer"] / rank_checks if rank_checks else 0.0,
                "ratio"),
            "sc.encode.ms": (ms("sc.encode"), "ms"),
            "sc.ingest.ms": (ms("sc.ingest"), "ms"),
            "sc.try_decode.ms": (ms("sc.try_decode"), "ms"),
            "sc.hash_points": (mean([s.hash_points for s in sc]), "count"),
            "sc.secret_symbols": (mean([s.secret_symbols for s in sc]), "symbols"),
            "rs.encode.ms": (ms("rs.encode"), "ms"),
            "rs.ingest.ms": (ms("rs.ingest"), "ms"),
            "rs.build_key_equation.ms": (ms("rs.build_key_equation"), "ms"),
            "rs.try_decode.ms": (ms("rs.try_decode"), "ms"),
            "rs.key_equation.cells": (mean([s.ke_cells for s in rs]), "cells"),
            "rs.secret_symbols": (mean([s.secret_symbols for s in rs]), "symbols"),
            "harness.run_trial.self_ms": (run_trial_self, "ms"),
            "harness.stages_per_session": (
                mean([s.record.stages_used for s in self.sessions]), "stages"),
            "harness.emit_outputs.ms": (
                1000.0 * self.total["harness.emit_outputs"] / emits if emits else 0.0, "ms"),
            "field.self_ms": (self_ms("field."), "ms"),
            "linalg.self_ms": (self_ms("linalg."), "ms"),
            "channel.self_ms": (self_ms("channel."), "ms"),
            "sc.self_ms": (self_ms("sc."), "ms"),
            "rs.self_ms": (self_ms("rs."), "ms"),
            "trace.session_ms": (mean(session_ms), "ms"),
            "trace.session_ms_p50": (statistics.median(session_ms), "ms"),
            "trace.unaccounted_share": (run_trial_self / mean(session_ms), "share"),
        }
        return out

    def dump(self) -> dict:
        """Aggregates by span name plus the span tree of the first sessions."""
        return {
            "spans_by_name": {
                name: {"calls": self.calls[name], "total_ms": 1000.0 * self.total[name],
                       "self_ms": 1000.0 * self.self_time[name]}
                for name in sorted(self.calls)
            },
            "edges": [[p, c, k] for (p, c), k in sorted(self.edges.items())],
            "first_sessions": [
                {"id": i, "parent": p, "name": name, "start_ms": 1000.0 * s, "end_ms": 1000.0 * e}
                for i, p, name, s, e in self.spans
            ],
        }
