"""Tests of the span wrappers: they restore what they patch, and the module
self times add up to the traced session time.

    python3 -m pytest bench/tests -q
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from ratelessnc import channel, harness, linalg, scheme_rs, scheme_sc  # noqa: E402
from ratelessnc.field import get_field  # noqa: E402

from tracer import Tracer  # noqa: E402

MODULES = ("field.", "linalg.", "channel.", "sc.", "rs.")


def _names():
    field = get_field("gf2_16")
    owners = [field, linalg, linalg.IncrementalReducer, channel, channel.MatrixChannel,
              scheme_sc, scheme_sc.SourceMessage, scheme_sc.SinkStateSC, scheme_rs.RsEncoder,
              scheme_rs.RsSinkState, harness]
    return {(id(o), k): v for o in owners for k, v in vars(o).items()}


@pytest.mark.parametrize("workload", ["sc-rate-b16", "rs-cutset-b3"])
def test_traced_experiment(workload):
    before = _names()
    cfg = harness.load_config(BENCH / "configs" / f"{workload}.yaml", {"trials": 3, "seed": 5})
    plain, _ = harness.run_experiment(cfg)

    tracer = Tracer()
    tracer.install(get_field(cfg.field_name))
    try:
        traced, _ = harness.run_experiment(cfg)
    finally:
        tracer.uninstall()

    assert _names() == before
    assert traced == plain
    assert len(tracer.sessions) == 3
    assert all(s.decoded and (s.decoded[-1] == s.msg_w).all() for s in tracer.sessions)
    metrics = {k: v for k, (v, _) in tracer.per_layer().items()}
    split = sum(metrics[m + "self_ms"] for m in MODULES) + metrics["harness.run_trial.self_ms"]
    assert split == pytest.approx(metrics["trace.session_ms"], rel=1e-9)
    assert metrics["harness.stages_per_session"] == 2 or workload == "sc-rate-b16"
    assert tracer.spans and tracer.spans[-1][2] == "harness.run_trial"
