"""Experiment driver: config handling, the session loop shared by both
schemes, Monte Carlo runs, CSV/JSON output.

Configs are YAML (key-value with nested sections); unknown top-level keys,
missing or malformed values and every broken stage-parameter rule are
rejected at load time with a ``ConfigError`` naming the key or the rule.
Trials are deterministic: trial t draws from generators seeded with
(seed, t), so identical configs produce byte-identical trials.csv.

``run_trial`` runs one session.  ``run_experiment`` runs random-secret
trials in lockstep batches when the config allows it: both stage models
fixed, matrix channel mode, ``validate`` off and at least 2 trials (and
``run_trial`` not rebound by a wrapper that watches each session).  A
batch of up to ``BATCH`` trials is one session of the same code on
stacked arrays (see ``linalg``): every trial keeps its own generators and
draws exactly what it draws alone, while each kernel call is made once
for the batch.  The trials of a batch must take every branch together
(they may swap rows each on its own).  When one would not (another pivot
column, solve round or status, or transfer-matrix verdict), the batch is
evicted before it does: every trial of it is run again on its own by
``run_trial``, which re-seeds from (seed, t), so each record is exactly
the serial one.  Restarting the batch without the straying trials costs
more at small fields, where sessions part ways again and again.  Records
are in trial order; ``Summary.lockstep_evictions`` counts the trials run
again.  Every other config runs its trials one at a time.
"""

from __future__ import annotations

import bisect
import itertools
import json
import numbers
import time
from dataclasses import asdict, dataclass, field as dc_field
from pathlib import Path

import numpy as np
import yaml

from .channel import AdversaryStrategy, Hypergraph, HypergraphChannel, MatrixChannel, StageParams
from .field import Field, get_field
from .linalg import Stray
from .records import Decode, TrialRecord
from .scheme_rs import RsParams, SharedSecret, rs_stages
from .scheme_sc import SourceMessage, sc_stages

_SECRET_STREAM = 0x5EC
# Trials advanced together in one lockstep batch, at most.  On 256 trials
# of the GF(2^16) random-secret configs, throughput rises up to 64 and is
# flat past it (within 2% at 128 and 256), while a batch that strays
# re-runs all of its trials; 2 trials already beat two serial sessions.
BATCH = 64


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the broken rule."""


def _number(node, key: str, kind=int):
    """``node`` as a ``kind``, or a ConfigError naming ``key``.  Nothing is
    coerced: an int must be an integer, a float any real number, and a
    bool is neither."""
    if isinstance(node, bool) or not isinstance(
            node, numbers.Integral if kind is int else numbers.Real):
        raise ConfigError(f"{key}: expected {kind.__name__}, got {node!r}")
    return kind(node)


# ---------------------------------------------------------------------------
# stage models
# ---------------------------------------------------------------------------

@dataclass
class FixedStageModel:
    """A finite schedule of stage parameters, cycled if the session runs
    past its end."""

    schedule: list[StageParams]
    cbar: int

    def iterate(self, rng: np.random.Generator):
        return itertools.cycle(self.schedule)

    @property
    def mean_m(self) -> float:
        return sum(p.M for p in self.schedule) / len(self.schedule)

    @property
    def mean_z(self) -> float:
        return sum(p.z for p in self.schedule) / len(self.schedule)


@dataclass
class IidStageModel:
    """Stage parameters drawn i.i.d. from discrete distributions; c either
    mirrors M or is its own distribution."""

    m_values: list[int]
    m_probs: list[float]
    z_values: list[int]
    z_probs: list[float]
    c_values: list[int] | None  # None: c = M
    c_probs: list[float] | None
    cbar: int

    def iterate(self, rng: np.random.Generator):
        draw_m = _sampler(self.m_values, self.m_probs)
        draw_z = _sampler(self.z_values, self.z_probs)
        draw_c = None if self.c_values is None else _sampler(self.c_values, self.c_probs)
        while True:
            m = draw_m(rng)
            z = draw_z(rng)
            c = m if draw_c is None else draw_c(rng)
            yield StageParams(M=m, z=z, c=c)

    @property
    def mean_m(self) -> float:
        return float(np.dot(self.m_values, self.m_probs))

    @property
    def mean_z(self) -> float:
        return float(np.dot(self.z_values, self.z_probs))


def _sampler(values: list[int], probs: list[float]):
    """Draws of ``rng.choice(values, p=probs)``, the same ones from the same
    generator: the first value whose normalised cdf exceeds one uniform
    ``rng.random()``, with the cdf computed once."""
    cdf = np.cumsum(probs)
    cdf = (cdf / cdf[-1]).tolist()
    return lambda rng: values[bisect.bisect_right(cdf, rng.random())]


def _parse_dist(node, name: str) -> tuple[list[int], list[float]]:
    if not isinstance(node, dict):
        return [_number(node, name)], [1.0]
    if not (isinstance(node.get("values"), list) and node["values"]
            and isinstance(node.get("probs", []), (list, type(None)))):
        raise ConfigError(f"{name}: expected an integer or {{values: [...], probs: [...]}}")
    values = [_number(v, f"{name}.values") for v in node["values"]]
    probs = node.get("probs")
    if probs is None:
        probs = [1.0 / len(values)] * len(values)
    probs = [_number(p, f"{name}.probs", float) for p in probs]
    if len(probs) != len(values):
        raise ConfigError(f"{name}: probs length != values length")
    if not (abs(sum(probs) - 1.0) <= 1e-9 and min(probs) >= 0):  # NaN fails too
        raise ConfigError(f"{name}: probs must be nonnegative and sum to 1")
    return values, probs


def _parse_stage_model(node, label: str):
    if not isinstance(node, dict) or "kind" not in node:
        raise ConfigError(f"{label}: expected a mapping with a 'kind' key")
    kind = node["kind"]
    if kind == "fixed":
        raw = node.get("schedule")
        if not isinstance(raw, list) or not raw:
            raise ConfigError(f"{label}.schedule: fixed stage model needs a non-empty list")
        schedule = []
        for entry in raw:
            if not isinstance(entry, dict) or "M" not in entry:
                raise ConfigError(f"{label}.schedule: every entry needs an 'M' key")
            m = _number(entry["M"], f"{label}.schedule.M")
            z = _number(entry.get("z", 0), f"{label}.schedule.z")
            c = _number(entry.get("c", m), f"{label}.schedule.c")
            try:
                schedule.append(StageParams(M=m, z=z, c=c))
            except ValueError as exc:
                raise ConfigError(f"{label}: {exc}") from exc
        cbar = _number(node.get("cbar", max(p.c for p in schedule)), f"{label}.cbar")
        if any(p.c > cbar for p in schedule):
            raise ConfigError(f"{label}: some c_i exceeds cbar={cbar} (violates c_i <= cbar)")
        return FixedStageModel(schedule=schedule, cbar=cbar)
    if kind == "iid":
        m_vals, m_probs = _parse_dist(node.get("M"), f"{label}.M")
        z_vals, z_probs = _parse_dist(node.get("z", 0), f"{label}.z")
        if min(z_vals) < 0 or max(z_vals) >= min(m_vals):
            raise ConfigError(
                f"{label}: i.i.d. supports allow z < 0 or z >= M (violates 0 <= z_i < M_i); "
                f"z in [{min(z_vals)}, {max(z_vals)}], min M = {min(m_vals)}"
            )
        c_node = node.get("c", "M")
        if c_node == "M":
            c_vals = c_probs = None
            c_max = max(m_vals)
        else:
            c_vals, c_probs = _parse_dist(c_node, f"{label}.c")
            if min(c_vals) < max(m_vals):
                raise ConfigError(f"{label}: c support allows M > c (violates M_i <= c_i)")
            c_max = max(c_vals)
        cbar = _number(node.get("cbar", c_max), f"{label}.cbar")
        if c_max > cbar:
            raise ConfigError(f"{label}: c support exceeds cbar (violates c_i <= cbar)")
        return IidStageModel(m_values=m_vals, m_probs=m_probs, z_values=z_vals,
                             z_probs=z_probs, c_values=c_vals, c_probs=c_probs, cbar=cbar)
    raise ConfigError(f"{label}: unknown stage model kind {kind!r}")


# ---------------------------------------------------------------------------
# experiment config
# ---------------------------------------------------------------------------

_CONFIG_KEYS = {"scheme", "field", "b", "n", "trials", "seed", "stage_cap", "adversary",
                "stages", "channel", "sigma", "m", "short_stages", "validate"}

_SCHEME_ALIASES = {"sc": "secret-channel", "secret-channel": "secret-channel",
                   "rs": "random-secret", "random-secret": "random-secret"}


@dataclass
class ExperimentConfig:
    scheme: str
    field_name: str
    b: int
    n: int
    trials: int
    seed: int
    stage_cap: int
    adversary: AdversaryStrategy
    stage_model: FixedStageModel | IidStageModel
    topology: Hypergraph | None = None
    rs_params: RsParams | None = None
    short_stage_model: FixedStageModel | IidStageModel | None = None
    validate: bool = False


def load_config(path, overrides: dict | None = None) -> ExperimentConfig:
    """Parse and validate an experiment config file; overrides (e.g. from
    CLI flags) are applied to the raw mapping before validation."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not well-formed YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a mapping")
    if overrides:
        raw = {**raw, **{k: v for k, v in overrides.items() if v is not None}}
    return build_config(raw, base_dir=Path(path).parent)


def build_config(raw: dict, base_dir: Path | None = None) -> ExperimentConfig:
    unknown = sorted(map(str, set(raw) - _CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    scheme = _SCHEME_ALIASES.get(str(raw.get("scheme", "")))
    if scheme is None:
        raise ConfigError("scheme must be 'secret-channel' (sc) or 'random-secret' (rs)")
    field_name = str(raw.get("field", "gf2_16"))
    try:
        field = get_field(field_name)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    try:
        b = _number(raw["b"], "b")
        n = _number(raw["n"], "n")
    except KeyError as exc:
        raise ConfigError(f"missing required key {exc}") from exc
    if b < 1 or n < 1:
        raise ConfigError("b and n must be >= 1")
    if n + b >= field.q:
        raise ConfigError(f"n + b = {n + b} must be below the field order {field.q}")

    trials = _number(raw.get("trials", 100), "trials")
    if trials < 0:
        raise ConfigError("trials must be >= 0")
    seed = _number(raw.get("seed", 0), "seed")
    if seed < 0:
        raise ConfigError("seed must be >= 0")
    stage_cap = _number(raw.get("stage_cap", 64), "stage_cap")
    if stage_cap < 1:
        raise ConfigError("stage_cap must be >= 1")

    adv_node = raw.get("adversary", "uniform-random")
    if not isinstance(adv_node, str):
        raise ConfigError(f"adversary: expected a strategy name, got {adv_node!r}")
    try:
        adversary = AdversaryStrategy(kind=adv_node)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    if "stages" not in raw:
        raise ConfigError("missing required 'stages' stage model")
    stage_model = _parse_stage_model(raw["stages"], "stages")

    channel_node = raw.get("channel", {"mode": "matrix"})
    if not isinstance(channel_node, dict):
        raise ConfigError(f"channel: expected a mapping with a 'mode' key, got {channel_node!r}")
    mode = channel_node.get("mode", "matrix")
    topology = None
    if mode == "hypergraph":
        top_path = channel_node.get("topology")
        if not top_path or not isinstance(top_path, str):
            raise ConfigError("hypergraph channel mode needs a 'topology' file path")
        top_path = Path(top_path)
        if base_dir is not None and not top_path.is_absolute():
            top_path = base_dir / top_path
        try:
            topology = Hypergraph.from_file(top_path)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"topology: {exc}") from exc
        if not isinstance(stage_model, FixedStageModel):
            raise ConfigError("hypergraph channel mode requires a fixed stage model")
        m_cut = topology.honest_min_cut()
        z_cut = topology.adversary_min_cut()
        slots = topology.source_slots
        for p in stage_model.schedule:
            want_z = 0 if adversary.kind == "none" else z_cut
            if (p.M, p.c) != (m_cut, slots) or (adversary.kind != "none" and p.z != z_cut):
                raise ConfigError(
                    f"stage ({p.M},{p.z},{p.c}) does not match topology min cuts "
                    f"(M={m_cut}, z={want_z}, c={slots})"
                )
    elif mode != "matrix":
        raise ConfigError(f"unknown channel mode {mode!r}")

    validate = raw.get("validate", False)
    if not isinstance(validate, bool):
        raise ConfigError(f"validate: expected true or false, got {validate!r}")

    rs_params = None
    short_model = None
    if scheme == "random-secret":
        if "short_stages" not in raw:
            raise ConfigError("random-secret scheme requires a 'short_stages' stage model")
        short_model = _parse_stage_model(raw["short_stages"], "short_stages")
        sigma = _number(raw.get("sigma", 1), "sigma")
        if isinstance(short_model, FixedStageModel):
            margin = min(p.M - p.z for p in short_model.schedule)
        else:
            margin = min(short_model.m_values) - max(short_model.z_values)
        if not 1 <= sigma <= margin:
            raise ConfigError(
                f"sigma = {sigma} violates 1 <= sigma <= M_i - z_i for the short stage model "
                f"(worst margin {margin})"
            )
        m_node = raw.get("m", "auto")
        if m_node == "auto":
            m = RsParams.auto_m(b, sigma, stage_model.cbar)
        else:
            m = _number(m_node, "m")
        try:
            rs_params = RsParams(b=b, n=n, sigma=sigma, m=m, cbar=stage_model.cbar)
            rs_params.check_field(field)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    return ExperimentConfig(
        scheme=scheme, field_name=field_name, b=b, n=n, trials=trials, seed=seed,
        stage_cap=stage_cap, adversary=adversary, stage_model=stage_model,
        topology=topology, rs_params=rs_params, short_stage_model=short_model,
        validate=validate,
    )


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------

@dataclass
class Summary:
    trials: int
    mean_rate: float
    decode_at_cutset_frequency: float
    silent_corruption_count: int
    theoretical_rate_bound: float
    wall_clock_seconds: float
    outcome_counts: dict = dc_field(default_factory=dict)
    # trials re-run alone after their lockstep batch strayed: a diagnostic of
    # the run, not a field, so summary.json keeps its keys
    lockstep_evictions = 0


def _make_channel(cfg: ExperimentConfig, field: Field):
    if cfg.topology is not None:
        return HypergraphChannel(field, cfg.topology, cfg.adversary)
    return MatrixChannel(field, cfg.adversary)


def run_session(stages, msg: SourceMessage, stage_cap: int = 64):
    """Drive one session's stages until decoded, failed, or the stage cap.

    ``stages`` yields ((min cut, injected errors), DecodeResult) per stage,
    as ``sc_stages`` and ``rs_stages`` do; no stage past the cap is run.
    Returns the session's TrialRecord; for a stacked message (lockstep
    sessions, which share every stage's verdict) a list of them.
    """
    trace: list[tuple[int, int]] = []
    outcome = "exhausted"
    correct = np.zeros(msg.w.shape[:-2], dtype=bool)
    for cut, result in itertools.islice(stages, stage_cap):
        trace.append(cut)
        if result.status is Decode.DECODED:
            outcome = "decoded"
            correct = (result.w == msg.w).all(axis=(-2, -1))
            break
        if result.status is Decode.FAILURE:
            outcome = "failure"
            break
    rate = msg.b / len(trace) if outcome == "decoded" else 0.0
    records = [TrialRecord(trial=0, stages_used=len(trace), outcome=outcome,
                           correct=bool(c), rate=rate, stage_trace=list(trace))
               for c in correct.flat]
    return records if correct.ndim else records[0]


def _session(cfg: ExperimentConfig, field: Field, trials, long_channel):
    """Run trial ``trials`` (an int) alone, or a list of trials in lockstep,
    each with generators seeded from (seed, t); the record(s) as
    ``run_session`` returns them."""
    def generators(*stream):
        if isinstance(trials, list):
            return [np.random.default_rng([cfg.seed, t, *stream]) for t in trials]
        return np.random.default_rng([cfg.seed, trials, *stream])

    rng = generators()
    msg = SourceMessage.random(field, cfg.b, cfg.n, rng)
    if cfg.scheme == "secret-channel":
        stages = sc_stages(field, msg, cfg.stage_model.iterate(rng), long_channel, rng,
                           validate=cfg.validate)
    else:
        secret = SharedSecret(field, cfg.rs_params, generators(_SECRET_STREAM))
        schedule = zip(cfg.stage_model.iterate(rng), cfg.short_stage_model.iterate(rng))
        stages = rs_stages(field, cfg.rs_params, msg, secret, schedule, long_channel,
                           MatrixChannel(field, cfg.adversary), rng, validate=cfg.validate)
    return run_session(stages, msg, cfg.stage_cap)


def run_trial(cfg: ExperimentConfig, field: Field, trial: int,
              long_channel=None) -> TrialRecord:
    if long_channel is None:
        long_channel = _make_channel(cfg, field)
    record = _session(cfg, field, trial, long_channel)
    record.trial = trial
    return record


_RUN_TRIAL = run_trial


def _lockstep(cfg: ExperimentConfig) -> bool:
    """Whether ``run_experiment`` runs the config's trials in lockstep.
    Not while ``run_trial`` is rebound (a wrapper that times or inspects
    each session, such as the benchmark's tracer): such a wrapper expects
    to see every session, one 2-D session at a time."""
    return (cfg.scheme == "random-secret" and cfg.topology is None and not cfg.validate
            and isinstance(cfg.stage_model, FixedStageModel)
            and isinstance(cfg.short_stage_model, FixedStageModel)
            and cfg.trials >= 2 and run_trial is _RUN_TRIAL)


def _run_batch(cfg: ExperimentConfig, field: Field, channel,
               trials: list[int]) -> tuple[list[TrialRecord], int]:
    """Records of the given trials, in their order, and how many of them
    were run again alone: one lockstep session of them all or, once any
    of them would leave the shared path (``Stray``), every one of them."""
    try:
        records = _session(cfg, field, trials, channel)
    except Stray:
        return [run_trial(cfg, field, t, long_channel=channel) for t in trials], len(trials)
    for t, record in zip(trials, records):
        record.trial = t
    return records, 0


def run_experiment(cfg: ExperimentConfig) -> tuple[list[TrialRecord], Summary]:
    t0 = time.perf_counter()
    field = get_field(cfg.field_name)
    channel = _make_channel(cfg, field)
    evictions = 0
    if _lockstep(cfg):
        records = []
        for start in range(0, cfg.trials, BATCH):
            batch, rerun = _run_batch(cfg, field, channel,
                                      list(range(start, min(start + BATCH, cfg.trials))))
            records += batch
            evictions += rerun
    else:
        records = [run_trial(cfg, field, t, long_channel=channel) for t in range(cfg.trials)]

    counts: dict[str, int] = {}
    silent = 0
    at_cutset = 0
    for r in records:
        counts[r.outcome] = counts.get(r.outcome, 0) + 1
        if r.outcome == "decoded" and not r.correct:
            silent += 1
        if r.outcome == "decoded" and r.stages_used == r.cutset_stage(cfg.b):
            at_cutset += 1
    mean_rate = float(np.mean([r.rate for r in records])) if records else 0.0
    bound = (cfg.b / (cfg.b + cfg.stage_model.cbar - 1)) * (
        cfg.stage_model.mean_m - cfg.stage_model.mean_z
    )
    summary = Summary(
        trials=cfg.trials,
        mean_rate=mean_rate,
        decode_at_cutset_frequency=(at_cutset / cfg.trials) if cfg.trials else 0.0,
        silent_corruption_count=silent,
        theoretical_rate_bound=bound,
        wall_clock_seconds=time.perf_counter() - t0,
        outcome_counts=counts,
    )
    summary.lockstep_evictions = evictions
    return records, summary


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def format_trial_row(r: TrialRecord) -> str:
    trace = ";".join(f"{m}:{z}" for m, z in r.stage_trace)
    return f"{r.trial},{r.stages_used},{r.outcome},{'true' if r.correct else 'false'},{r.rate},{trace}"


def emit_outputs(records: list[TrialRecord], summary: Summary, out_dir) -> tuple[Path, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "trials.csv"
    lines = ["trial,N,outcome,correct,rate,stage_trace"]
    lines += [format_trial_row(r) for r in records]
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    summary_path = out / "summary.json"
    summary_path.write_text(json.dumps(asdict(summary), indent=2, sort_keys=True) + "\n",
                            encoding="utf-8")
    return csv_path, summary_path
