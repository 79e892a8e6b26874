import dataclasses
import itertools
import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from ratelessnc import cli
from ratelessnc.channel import AdversaryStrategy, MatrixChannel, StageParams
from ratelessnc.field import get_field
from ratelessnc.harness import (
    ConfigError,
    IidStageModel,
    Summary,
    _sampler,
    build_config,
    emit_outputs,
    format_trial_row,
    load_config,
    run_experiment,
    run_session,
)
from ratelessnc.records import TrialRecord
from ratelessnc.scheme_rs import RsParams, SharedSecret, rs_stages
from ratelessnc.scheme_sc import SourceMessage, sc_stages

REPO = Path(__file__).resolve().parents[1]
SHIPPED_CONFIGS = sorted(str(p.relative_to(REPO))
                         for d in ("configs", "bench/configs") for p in (REPO / d).glob("*.yaml"))

SC_BASE = {
    "scheme": "secret-channel",
    "field": "gf2_16",
    "b": 4,
    "n": 16,
    "trials": 5,
    "seed": 11,
    "adversary": "uniform-random",
    "stages": {"kind": "fixed", "schedule": [{"M": 3, "z": 1}] * 3},
}

RS_BASE = {
    "scheme": "random-secret",
    "field": "gf2_16",
    "b": 3,
    "n": 12,
    "sigma": 1,
    "m": "auto",
    "trials": 3,
    "seed": 12,
    "adversary": "uniform-random",
    "stages": {"kind": "fixed",
               "schedule": [{"M": 4, "z": 2}, {"M": 4, "z": 1}]},
    "short_stages": {"kind": "fixed", "schedule": [{"M": 2, "z": 1}] * 2},
}


def write_config(tmp_path, data, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    return path


# -- config loading -----------------------------------------------------------

def test_auto_m_resolution():
    cfg = build_config({**RS_BASE, "stages": {"kind": "fixed",
                                              "schedule": [{"M": 4, "z": 1, "c": 4}]}})
    assert cfg.rs_params.m == 33  # 2*3*4 + 2*1*4 + 1


def test_rejects_z_not_below_m():
    bad = {**SC_BASE, "stages": {"kind": "fixed", "schedule": [{"M": 3, "z": 3}]}}
    with pytest.raises(ConfigError, match="z_i < M_i"):
        build_config(bad)


def test_rejects_iid_overlapping_supports():
    bad = {**SC_BASE, "stages": {"kind": "iid", "M": {"values": [2, 3]},
                                 "z": {"values": [0, 2]}, "cbar": 3}}
    with pytest.raises(ConfigError, match="z_i < M_i"):
        build_config(bad)


def test_rejects_missing_short_stages():
    bad = dict(RS_BASE)
    del bad["short_stages"]
    with pytest.raises(ConfigError, match="short_stages"):
        build_config(bad)


def test_rejects_sigma_margin():
    for sigma in (2, 0):  # above the short margin, and below 1
        with pytest.raises(ConfigError, match="sigma"):
            build_config({**RS_BASE, "sigma": sigma})


def test_rejects_undersized_m():
    bad = {**RS_BASE, "m": 5}
    with pytest.raises(ConfigError, match="parameter rule"):
        build_config(bad)


def test_rejects_bad_scheme_and_field():
    with pytest.raises(ConfigError, match="scheme"):
        build_config({**SC_BASE, "scheme": "carrier-pigeon"})
    with pytest.raises(ConfigError):
        build_config({**SC_BASE, "field": "prime65520"})


def test_rejects_cbar_violation():
    bad = {**SC_BASE, "stages": {"kind": "fixed",
                                 "schedule": [{"M": 3, "z": 1, "c": 5}], "cbar": 4}}
    with pytest.raises(ConfigError, match="cbar"):
        build_config(bad)


def test_rejects_packet_length_vs_field():
    with pytest.raises(ConfigError, match="field order"):
        build_config({**SC_BASE, "field": "prime7", "b": 4, "n": 16})


@pytest.mark.parametrize("key", ["sc_extra_point_every_stage", "stage_cpa"])
def test_rejects_unknown_top_level_keys(tmp_path, capsys, key):
    # a removed or misspelt key is refused by name, not silently ignored
    with pytest.raises(ConfigError, match=f"unknown config keys: {key}"):
        build_config({**SC_BASE, key: True})
    path = write_config(tmp_path, {**SC_BASE, key: True})
    assert cli.main(["validate", "--config", str(path)]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("rel_path", SHIPPED_CONFIGS)
def test_shipped_configs_validate(rel_path):
    assert cli.main(["validate", "--config", str(REPO / rel_path)]) == 0


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.yaml")


def test_load_config_overrides(tmp_path):
    path = write_config(tmp_path, SC_BASE)
    cfg = load_config(path, overrides={"trials": 9, "seed": 123})
    assert cfg.trials == 9 and cfg.seed == 123


def test_hypergraph_config_validation(tmp_path):
    topo = tmp_path / "net.topo"
    topo.write_text("SRC -> A\nSRC -> B\nA -> SINK\nB -> SINK\nADV1 -> SINK\n")
    good = {**SC_BASE, "b": 2, "n": 8,
            "channel": {"mode": "hypergraph", "topology": str(topo)},
            "stages": {"kind": "fixed", "schedule": [{"M": 2, "z": 1}] * 3}}
    cfg = load_config(write_config(tmp_path, good), overrides=None)
    assert cfg.topology is not None
    bad = {**good, "stages": {"kind": "fixed", "schedule": [{"M": 3, "z": 1}]}}
    with pytest.raises(ConfigError, match="does not match topology"):
        load_config(write_config(tmp_path, bad, "bad.yaml"))


# -- running ------------------------------------------------------------------

@pytest.mark.parametrize("values,probs", [
    ([3, 4, 5], [1 / 3] * 3),
    ([0, 1], [0.5, 0.5]),
    ([1, 2, 3, 7], [0.1, 0.0, 0.6, 0.3]),
    ([1, 2, 3], [0.25, 0.75, 0.0]),
    ([2, 9], [0.0, 1.0]),
    ([5], [1.0]),
])
def test_stage_draws_equal_rng_choice(values, probs):
    # one draw is what rng.choice(values, p=probs) draws from the same
    # generator state, zero-probability values included
    draw = _sampler(values, probs)
    rng, ref = np.random.default_rng(17), np.random.default_rng(17)
    assert [draw(rng) for _ in range(5000)] == [int(ref.choice(values, p=probs))
                                               for _ in range(5000)]
    assert rng.random() == ref.random()


def test_iid_stage_model_draws_equal_rng_choice():
    model = IidStageModel(m_values=[2, 3, 4], m_probs=[0.2, 0.0, 0.8], z_values=[0, 1],
                          z_probs=[0.5, 0.5], c_values=[4, 5, 6], c_probs=[0.3, 0.7, 0.0],
                          cbar=6)
    rng, ref = np.random.default_rng(18), np.random.default_rng(18)
    for params in itertools.islice(model.iterate(rng), 2000):
        expect = [int(ref.choice(model.m_values, p=model.m_probs)),
                  int(ref.choice(model.z_values, p=model.z_probs)),
                  int(ref.choice(model.c_values, p=model.c_probs))]
        assert [params.M, params.z, params.c] == expect


def test_fixed_schedule_decodes_at_cutset():
    # M = 5, z = 1, b = 8: cut set first holds at stage 2
    cfg = build_config({**SC_BASE, "b": 8, "n": 24, "trials": 20,
                        "stages": {"kind": "fixed", "schedule": [{"M": 5, "z": 1}] * 2}})
    records, summary = run_experiment(cfg)
    assert all(r.outcome == "decoded" and r.stages_used == 2 for r in records)
    assert summary.decode_at_cutset_frequency == 1.0
    assert summary.mean_rate == 4.0
    assert summary.outcome_counts == {"decoded": 20}


def test_summary_bound_value():
    cfg = build_config({**SC_BASE, "b": 8, "n": 24,
                        "stages": {"kind": "fixed", "schedule": [{"M": 5, "z": 1}],
                                   "cbar": 5}})
    _, summary = run_experiment(cfg)
    assert summary.theoretical_rate_bound == pytest.approx(8 / 12 * 4)


def test_decoded_trials_respect_cutset():
    cfg = build_config({**SC_BASE, "trials": 50,
                        "stages": {"kind": "iid", "M": {"values": [3, 4, 5]},
                                   "z": {"values": [0, 1]}, "cbar": 5}})
    records, _ = run_experiment(cfg)
    decoded = [r for r in records if r.outcome == "decoded"]
    assert decoded
    ok = sum(1 for r in decoded
             if r.cutset_stage(cfg.b) is not None and r.stages_used >= r.cutset_stage(cfg.b))
    assert ok >= int(0.99 * len(decoded))


def test_rs_runs_through_harness():
    cfg = build_config(RS_BASE)
    records, summary = run_experiment(cfg)
    assert all(r.outcome == "decoded" and r.correct for r in records)
    assert summary.silent_corruption_count == 0


def flip_one_symbol(channel):
    """Wrap a channel so that the sink sees one symbol of Y changed."""
    def call(params, x, rng):
        out = channel(params, x, rng)
        y = out.Y.copy()
        y[0, 0] = channel.field.add(y[0, 0], 1)
        return dataclasses.replace(out, Y=y)
    return call


@pytest.mark.parametrize("bad", ["sc", "rs-long", "rs-short"])
def test_validate_catches_a_broken_channel_decomposition(bad):
    f = get_field("gf2_16")
    rng = np.random.default_rng(31)
    chan = MatrixChannel(f, AdversaryStrategy("uniform-random"))
    long_p = StageParams(M=4, z=1, c=4)
    if bad == "sc":
        msg = SourceMessage.random(f, 3, 12, rng)
        stages = sc_stages(f, msg, itertools.repeat(long_p), flip_one_symbol(chan), rng,
                           validate=True)
    else:
        p = RsParams(b=3, n=12, sigma=1, m=RsParams.auto_m(3, 1, 4), cbar=4)
        msg = SourceMessage.random(f, p.b, p.n, rng)
        secret = SharedSecret(f, p, np.random.default_rng(32))
        schedule = itertools.repeat((long_p, StageParams(M=2, z=1, c=2)))
        long_chan, short_chan = ((flip_one_symbol(chan), chan) if bad == "rs-long"
                                 else (chan, flip_one_symbol(chan)))
        stages = rs_stages(f, p, msg, secret, schedule, long_chan, short_chan, rng,
                           validate=True)
    with pytest.raises(AssertionError, match=r"channel decomposition Y = T X \+ Q Z"):
        run_session(stages, msg)


def test_prime_field_cross_validation():
    # the same protocol runs unchanged over the prime-field backend
    for field_name in ("prime65521", "prime251"):
        cfg = build_config({**SC_BASE, "field": field_name, "b": 3, "n": 9,
                            "trials": 10})
        records, summary = run_experiment(cfg)
        assert all(r.outcome == "decoded" and r.correct for r in records)
        assert summary.silent_corruption_count == 0


def test_rs_prime_field_cross_validation():
    cfg = build_config({**RS_BASE, "field": "prime65521", "trials": 2})
    records, _ = run_experiment(cfg)
    assert all(r.outcome == "decoded" and r.correct for r in records)


def test_rs_with_hypergraph_long_channel(tmp_path):
    # topology drives the long packets; short packets stay matrix-mode
    topo = tmp_path / "net.topo"
    topo.write_text("SRC -> A\nSRC -> B\nA -> SINK\nB -> SINK\nADV1 -> SINK\n")
    cfg = build_config({
        "scheme": "random-secret", "field": "gf2_16", "b": 2, "n": 8,
        "sigma": 1, "m": "auto", "trials": 5, "seed": 5,
        "adversary": "uniform-random",
        "channel": {"mode": "hypergraph", "topology": str(topo)},
        "stages": {"kind": "fixed", "schedule": [{"M": 2, "z": 1}] * 4},
        "short_stages": {"kind": "fixed", "schedule": [{"M": 2, "z": 1}]},
    })
    records, summary = run_experiment(cfg)
    assert summary.silent_corruption_count == 0
    assert all(r.outcome == "decoded" and r.correct for r in records)


def test_trial_records_conserved_and_deterministic(tmp_path):
    cfg = build_config({**SC_BASE, "trials": 10})
    records, summary = run_experiment(cfg)
    assert [r.trial for r in records] == list(range(10))
    assert sum(summary.outcome_counts.values()) == 10
    out1 = emit_outputs(records, summary, tmp_path / "a")[0].read_bytes()
    records2, summary2 = run_experiment(cfg)
    out2 = emit_outputs(records2, summary2, tmp_path / "b")[0].read_bytes()
    assert out1 == out2


def test_seed_changes_output(tmp_path):
    r1, s1 = run_experiment(build_config({**SC_BASE, "trials": 4, "seed": 1,
                                          "stages": {"kind": "iid",
                                                     "M": {"values": [3, 4, 5]},
                                                     "z": {"values": [0, 1]},
                                                     "cbar": 5}}))
    r2, s2 = run_experiment(build_config({**SC_BASE, "trials": 4, "seed": 2,
                                          "stages": {"kind": "iid",
                                                     "M": {"values": [3, 4, 5]},
                                                     "z": {"values": [0, 1]},
                                                     "cbar": 5}}))
    assert [r.stage_trace for r in r1] != [r.stage_trace for r in r2]


# -- outputs ------------------------------------------------------------------

def test_trial_row_format():
    r = TrialRecord(trial=7, stages_used=2, outcome="decoded", correct=True,
                    rate=8 / 2, stage_trace=[(5, 1), (5, 1)])
    assert format_trial_row(r) == "7,2,decoded,true,4.0,5:1;5:1"


def test_emit_empty_records(tmp_path):
    summary = Summary(trials=0, mean_rate=0.0, decode_at_cutset_frequency=0.0,
                      silent_corruption_count=0, theoretical_rate_bound=1.0,
                      wall_clock_seconds=0.0)
    csv_path, summary_path = emit_outputs([], summary, tmp_path)
    assert csv_path.read_text() == "trial,N,outcome,correct,rate,stage_trace\n"
    payload = json.loads(summary_path.read_text())
    assert payload["trials"] == 0
    # the keys are Summary's seven fields, written in sorted order
    assert list(payload) == ["decode_at_cutset_frequency", "mean_rate", "outcome_counts",
                             "silent_corruption_count", "theoretical_rate_bound", "trials",
                             "wall_clock_seconds"]


def test_csv_mean_matches_summary(tmp_path):
    cfg = build_config({**SC_BASE, "trials": 8})
    records, summary = run_experiment(cfg)
    csv_path, _ = emit_outputs(records, summary, tmp_path)
    rows = csv_path.read_text().strip().splitlines()[1:]
    rates = [float(line.split(",")[4]) for line in rows]
    assert np.mean(rates) == pytest.approx(summary.mean_rate)


# -- CLI ----------------------------------------------------------------------

def test_cli_validate_ok(tmp_path, capsys):
    path = write_config(tmp_path, SC_BASE)
    assert cli.main(["validate", "--config", str(path)]) == 0
    assert "config OK" in capsys.readouterr().out


def test_cli_validate_rejects(tmp_path, capsys):
    bad = {**SC_BASE, "stages": {"kind": "fixed", "schedule": [{"M": 2, "z": 2}]}}
    path = write_config(tmp_path, bad)
    assert cli.main(["validate", "--config", str(path)]) == 2
    assert "z_i < M_i" in capsys.readouterr().err
    # malformed values are rejected by the key they sit under, not by a
    # traceback from inside the parser or a silent coercion
    cycle = tmp_path / "cycle.topo"
    cycle.write_text("SRC -> A\nA -> B\nB -> A\nA -> SINK\n", encoding="utf-8")
    for bad, key in (
            ({"stages": {"kind": "fixed", "schedule": [{"z": 1}]}}, "'M'"),
            ({"stages": {"kind": "iid", "M": {"values": 3}}}, "stages.M"),
            ({"b": "two"}, "b:"),
            ({"b": 2.7}, "b:"),
            ({"b": True}, "b:"),
            ({"stages": {"kind": "fixed", "schedule": [{"M": 2.5}]}}, "stages.schedule.M"),
            ({"stages": {"kind": "fixed", "schedule": 5}}, "stages.schedule"),
            ({"validate": "no"}, "validate"),
            ({"channel": 5}, "channel"),
            ({"channel": [1]}, "channel"),
            ({"channel": "matrix"}, "channel:"),
            ({"adversary": {"kind": "none"}}, "adversary:"),
            ({"seed": -1}, "seed"),
            ({"stages": {"kind": "iid", "M": {"values": [3]}, "z": {"values": [-1]}}}, "0 <= z_i"),
            ({"stages": {"kind": "iid", "M": {"values": [3], "probs": [float("nan")]}}},
             "stages.M: probs"),
            ({"channel": {"mode": "hypergraph", "topology": str(cycle)}}, "acyclic")):
        with pytest.raises(ConfigError, match=key):
            build_config({**SC_BASE, **bad})
        path = write_config(tmp_path, {**SC_BASE, **bad})
        assert cli.main(["validate", "--config", str(path)]) == 2
        assert key in capsys.readouterr().err


def test_cli_run_writes_outputs(tmp_path):
    path = write_config(tmp_path, {**SC_BASE, "trials": 3})
    out = tmp_path / "results"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
    assert (out / "trials.csv").exists() and (out / "summary.json").exists()


def test_cli_flag_overrides_beat_config(tmp_path):
    path = write_config(tmp_path, {**SC_BASE, "trials": 3})
    out = tmp_path / "results"
    assert cli.main(["run", "--config", str(path), "--out", str(out),
                     "--trials", "6", "--seed", "99"]) == 0
    rows = (out / "trials.csv").read_text().strip().splitlines()
    assert len(rows) == 7  # header + 6 trials


def test_cli_scheme_override_requires_rs_config(tmp_path):
    path = write_config(tmp_path, SC_BASE)
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o"),
                     "--scheme", "rs"]) == 2


def test_cli_exit_three_on_silent_corruption(tmp_path, monkeypatch):
    path = write_config(tmp_path, {**SC_BASE, "trials": 1})

    def fake_run(cfg):
        rec = TrialRecord(trial=0, stages_used=1, outcome="decoded", correct=False,
                          rate=4.0, stage_trace=[(5, 1)])
        summary = Summary(trials=1, mean_rate=4.0, decode_at_cutset_frequency=1.0,
                          silent_corruption_count=1, theoretical_rate_bound=1.0,
                          wall_clock_seconds=0.0, outcome_counts={"decoded": 1})
        return [rec], summary

    monkeypatch.setattr(cli, "run_experiment", fake_run)
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
