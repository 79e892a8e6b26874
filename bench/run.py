"""Seeded session benchmark for ratelessnc.

    python3 bench/run.py --workload sc-rate-b16 --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the library is imported from its
``src/`` directory.  One process drives one session at a time (closed loop,
no extra threads).  A run makes passes over the workload's ROUNDS rounds,
the same ones each time: at least MIN_PASSES, and another whenever a pass
as long as the last would still end within ``--seconds``.  A round
takes the workload config from ``bench/configs/``, sets its seed from
``--seed`` and the round number, and then

* calls ``harness.run_trial`` once per trial, timing each call (serial loop);
* calls ``harness.run_experiment`` and ``harness.emit_outputs`` on the same
  trials, as ``ratelessnc run`` does, timing the pair;
* checks every session against the benchmark's own computations.

Each session and each round is timed once per pass, and the best of its
times is kept.  The machine's speed moves between levels over seconds and
minutes; the best of times taken all through the run is the one its slow
spells did not inflate.

With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics; with ``--trace 1`` the calls into each library module
are wrapped (see tracer.py) and the JSON carries the per-layer split.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import yaml

import checks
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CONFIGS = BENCH_DIR / "configs"
OUT = BENCH_DIR / "out"
WORKLOADS = ("sc-rate-b16", "rs-long-b8", "rs-cutset-b3")
MIN_PASSES = 3
SETUP_PROBES = 3  # before the first pass; one more follows each pass
MIN_TAIL_SAMPLES = 50
# rounds per pass: trials in the config times this is the number of distinct
# sessions a run times, and mean_rate is taken over them, so it is fixed for
# a seed
ROUNDS = {"sc-rate-b16": 5, "rs-long-b8": 1, "rs-cutset-b3": 2}


def _import_library():
    if not (SRC / "ratelessnc" / "__init__.py").is_file():
        raise SystemExit(f"error: no ratelessnc sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import ratelessnc

    if Path(ratelessnc.__file__).resolve().parent != SRC / "ratelessnc":
        raise SystemExit(f"error: imported ratelessnc from {ratelessnc.__file__}, not {SRC}")


def setup_probe(cfg_path: Path) -> None:
    """Child process: everything before the first session can run."""
    _import_library()
    from ratelessnc import harness
    from ratelessnc.field import get_field

    get_field(harness.load_config(cfg_path).field_name)
    print("ready", flush=True)


def measure_setup(workload: str, probes: int) -> list[float]:
    """Wall times from spawning fresh interpreters until each is ready to
    run its first session."""
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, str(Path(__file__).resolve()), "--workload",
                               workload, "--setup-probe"], stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.wait(timeout=60)
        if line.strip() != b"ready" or proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed (exit {proc.returncode})")
    return times


def round_seed(seed: int, round_no: int) -> int:
    return int(np.random.SeedSequence([seed, round_no]).generate_state(1)[0])


def run_round(harness, cfg, field, out_dir: Path):
    """A serial loop and an experiment over the same trials."""
    serial, samples = [], []
    for t in range(cfg.trials):
        t0 = time.perf_counter()
        serial.append(harness.run_trial(cfg, field, t))
        samples.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    records, summary = harness.run_experiment(cfg)
    harness.emit_outputs(records, summary, out_dir)
    seconds = time.perf_counter() - t0
    return serial, samples, records, summary, seconds


def tail(samples: list[float]) -> float:
    """90th percentile once there are enough samples for a tail, else the
    median."""
    if len(samples) < MIN_TAIL_SAMPLES:
        return statistics.median(samples)
    return statistics.quantiles(samples, n=10)[8]


def session_ok(rec, b: int) -> bool:
    """Decoded, correct, and exactly at the cut-set stage of its trace."""
    return (rec.outcome == "decoded" and rec.correct
            and rec.stages_used == checks.cutset_stage(b, rec.stage_trace))


def check_round(raw: dict, cfg, serial, records, summary) -> tuple[int, list[str]]:
    """Failed sessions of the round, and problems with the sessions that did
    not fail."""
    failed = sum(not session_ok(r, cfg.b) for r in serial + records)
    problems = []
    if serial != records:
        problems.append("run_trial records differ from run_experiment records")
    if not failed:
        own = statistics.fmean(cfg.b / checks.cutset_stage(cfg.b, r.stage_trace)
                               for r in records)
        if not math.isclose(summary.mean_rate, own, rel_tol=1e-12):
            problems.append(f"mean_rate {summary.mean_rate} != own mean b/N {own}")
    if raw["stages"]["kind"] == "iid" and summary.mean_rate < checks.rate_bound(raw):
        problems.append(f"mean_rate {summary.mean_rate} below bound {checks.rate_bound(raw)}")
    return failed, problems


def check_traced_sessions(cfg, sessions) -> list[str]:
    """Decoded blocks against the drawn message; SC hashes with the
    benchmark's own GF(2^16) multiply; secret sizes against closed forms."""
    problems = []
    for s in sessions:
        if not session_ok(s.record, cfg.b):
            continue
        if not s.decoded or any(not np.array_equal(w, s.msg_w) for w in s.decoded):
            problems.append(f"trial {s.record.trial}: decoded block differs from the message")
            continue
        trace = s.record.stage_trace
        if cfg.scheme == "secret-channel":
            x0 = np.hstack([s.decoded[-1], np.eye(cfg.b, dtype=np.int64)])
            points = np.concatenate([p.points for p in s.payloads])
            hashes = np.hstack([p.hashes for p in s.payloads])
            if not checks.hashes_hold(x0, points, hashes):
                problems.append(f"trial {s.record.trial}: decoded (W | I) fails a hash")
            # the secret-channel workload mirrors c = M
            want = checks.sc_secret_symbols(cfg.b, [m for m, _ in trace])
        else:
            want = checks.rs_secret_symbols(len(trace), cfg.rs_params.sigma, cfg.rs_params.m)
        if s.secret_symbols != want:
            problems.append(f"trial {s.record.trial}: {s.secret_symbols} secret symbols, "
                            f"closed form {want}")
        s.payloads.clear()  # the hash arrays are not needed after this check
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    cfg_path = CONFIGS / f"{args.workload}.yaml"
    if args.setup_probe:
        setup_probe(cfg_path)
        return 0

    _import_library()
    from ratelessnc import harness
    from ratelessnc.field import get_field

    setup_times: list[float] = []
    if not args.trace:
        setup_times += measure_setup(args.workload, SETUP_PROBES)
    cfg = harness.load_config(cfg_path)
    raw = yaml.safe_load(cfg_path.read_text(encoding="utf-8"))
    field = get_field(cfg.field_name)
    out_dir = OUT / args.workload
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(field)

    attempted = failed = passes = 0
    problems: list[str] = []
    # per round: config, first-pass records and rate, best times so far
    rounds = [{"cfg": dataclasses.replace(cfg, seed=round_seed(args.seed, r))}
              for r in range(ROUNDS[args.workload])]
    try:
        start = time.perf_counter()
        pass_s = 0.0  # the last pass with its set-up probe
        while passes < MIN_PASSES or time.perf_counter() - start + pass_s <= args.seconds:
            pass_start = time.perf_counter()
            for rd in rounds:
                serial, times, records, summary, seconds = run_round(
                    harness, rd["cfg"], field, out_dir)
                f, p = check_round(raw, rd["cfg"], serial, records, summary)
                if tracer is not None:
                    p += check_traced_sessions(rd["cfg"], tracer.sessions[-2 * len(serial):])
                attempted += len(serial) + len(records)
                failed += f
                problems += p
                if not passes:
                    rd.update(records=serial, rate=summary.mean_rate, times=times,
                              seconds=seconds)
                    continue
                if serial != rd["records"]:
                    problems.append(f"pass {passes} records differ from the first pass")
                rd["times"] = [min(a, b) for a, b in zip(rd["times"], times)]
                rd["seconds"] = min(rd["seconds"], seconds)
            passes += 1
            if not args.trace:
                setup_times += measure_setup(args.workload, 1)
            pass_s = time.perf_counter() - pass_start
    finally:
        if tracer is not None:
            tracer.uninstall()

    samples = [t for rd in rounds for t in rd["times"]]
    if tracer is not None:
        for name in tracer.missing:
            print(f"not traced: the library has no {name}", file=sys.stderr)
        metrics = tracer.per_layer()
        (out_dir / "trace.json").write_text(json.dumps(tracer.dump()) + "\n", encoding="utf-8")
    else:
        metrics = {
            "trial_ms_p50": (1000.0 * statistics.median(samples), "ms"),
            "trial_ms_p90": (1000.0 * tail(samples), "ms"),
            "trials_per_s": (sum(len(rd["records"]) for rd in rounds)
                             / sum(rd["seconds"] for rd in rounds), "sessions/s"),
            "mean_rate": (statistics.fmean(rd["rate"] for rd in rounds), "rows/stage"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} rounds={len(rounds)} passes={passes} "
          f"sessions={attempted} "
          f"serial_samples={len(samples)} trace={args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
