"""Golden outputs: the exact bytes of trials.csv for fixed seeds.

Refactors and speed-ups must leave every record unchanged, so these digests
only move when the random streams change on purpose; such a change updates
them and says why.
"""

import hashlib
from pathlib import Path

import pytest

from ratelessnc.harness import build_config, emit_outputs, load_config, run_experiment

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

GOLDEN = [
    ("sc_fixed.yaml", None, "c531e0fd143a463569bc26a023c2ffbe29172fd52146c4e20d3dc0f3357fb3f8"),
    ("sc_iid_rate.yaml", 40, "651898db162ab6792e7592951a4f9ffc5f95d2cd744479e4d5f7bc0bb7512a96"),
    ("rs_fixed.yaml", 40, "00717788d483f19fa1a4ffe557175c083788641a561d6b1593d200344c7b90ff"),
    # these records carry a known channel defect: the hypergraph channel
    # delivers M+z rows per stage where matrix mode delivers M, so every
    # trial decodes before its recorded cut-set stage.  Fixing it moves
    # this digest on purpose.
    ("sc_hypergraph.yaml", 40, "b2d15563836f6e526358f9ee06977a1f4a38cfbc47ef8d7c070dab416f6bbf79"),
]


@pytest.mark.parametrize("name,trials,digest", GOLDEN)
def test_trials_csv_digest(tmp_path, name, trials, digest):
    cfg = load_config(CONFIGS / name, overrides=None if trials is None else {"trials": trials})
    records, summary = run_experiment(cfg)
    csv_path, _ = emit_outputs(records, summary, tmp_path)
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == digest


# the benchmark's three workloads, read as they are, at 60 trials and seed 7:
# a speed-up that the benchmark times must leave these records unchanged
BENCH_CONFIGS = CONFIGS.parent / "bench" / "configs"

BENCH_GOLDEN = [
    ("rs-cutset-b3.yaml", "44526adf0b5aab3a23fa21853be321477bcd494e2589300d986ad7d91ab36baf"),
    ("rs-long-b8.yaml", "945195e64676cff48b5f7df4ad53d13275283721c12e5d804af20b94e274f8ce"),
    ("sc-rate-b16.yaml", "94896154aec67d9f9d410f59badbb27ae555528acccf60455889da35227471f6"),
]


@pytest.mark.parametrize("name,digest", BENCH_GOLDEN)
def test_bench_config_digest(tmp_path, name, digest):
    cfg = load_config(BENCH_CONFIGS / name, overrides={"trials": 60, "seed": 7})
    records, summary = run_experiment(cfg)
    csv_path, _ = emit_outputs(records, summary, tmp_path)
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == digest


# a long random-secret session: b + sum(z) <= sum(M) first holds at stage 8,
# so every trial re-pads and extends the short basis through eight stages
RS_LONG = {
    "scheme": "random-secret", "field": "gf2_16", "b": 8, "n": 8, "sigma": 1, "m": "auto",
    "trials": 5, "seed": 7, "stage_cap": 10, "adversary": "uniform-random",
    "stages": {"kind": "fixed", "schedule": [{"M": 2, "z": 1}]},
    "short_stages": {"kind": "fixed", "schedule": [{"M": 3, "z": 1}]},
}


def test_long_random_secret_digest(tmp_path):
    records, summary = run_experiment(build_config(RS_LONG))
    assert [r.stages_used for r in records] == [8] * 5
    csv_path, _ = emit_outputs(records, summary, tmp_path)
    assert (hashlib.sha256(csv_path.read_bytes()).hexdigest()
            == "f4f1d414504e19e4ac3df42152d4eb461bd340f0b4ecc2c9d4c6b165d2db8dd3")


# random-secret at q = 7: small enough that some sessions meet an ambiguous
# (MULTIPLE) key equation or never leave NO_SOLUTION, so this digest pins how
# the decoder classifies both, alongside the sessions it decodes
RS_SMALL_Q = {
    "scheme": "random-secret", "field": "prime7", "b": 2, "n": 3, "sigma": 1, "m": "auto",
    "trials": 200, "seed": 5, "stage_cap": 8,
    "stages": {"kind": "fixed", "schedule": [{"M": 4, "z": 2}, {"M": 4, "z": 1}]},
    "short_stages": {"kind": "fixed", "schedule": [{"M": 2, "z": 1}]},
}


def test_small_field_random_secret_digest(tmp_path):
    records, summary = run_experiment(build_config(RS_SMALL_Q))
    outcomes = [r.outcome for r in records]
    assert {o: outcomes.count(o) for o in set(outcomes)} == {
        "decoded": 171, "exhausted": 26, "failure": 3}
    csv_path, _ = emit_outputs(records, summary, tmp_path)
    assert (hashlib.sha256(csv_path.read_bytes()).hexdigest()
            == "78630bb5de4cca98871a8aa84ea704385db57678341655da30b20d65a41dc646")
