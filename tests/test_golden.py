"""Golden outputs: the exact bytes of trials.csv for fixed seeds.

Refactors and speed-ups must leave every record unchanged, so these digests
only move when the random streams change on purpose; such a change updates
them and says why.
"""

import hashlib
from pathlib import Path

import pytest

from ratelessnc.harness import emit_outputs, load_config, run_experiment

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
