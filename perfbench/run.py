"""The repository benchmark: one command, two workloads, checked outputs.

    python3 perfbench/run.py --workload sim-world-10k --seed 0 --seconds 60 --trace 0

Every set-up (a world build, a localhost network) runs in a fresh
interpreter (``worker.py``); a run makes a few and samples each one again
and again until its share of ``--seconds`` is spent: a simnet sample
crawls the built world in a forked child of the build, a live sample is a
closed-loop pass of harvests against the running network.  A run reports
medians.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs one untraced and one traced sample and prints
the per-layer metrics plus the tracing overhead.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}`` as JSON; a failed output
check makes the exit code 1.  See README.md for the workloads and the
layer-to-metric map.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402
from specs import WORKLOADS, LiveSpec  # noqa: E402

#: end-to-end metrics: name → unit; every workload reports every one
END_TO_END = {
    "setup_s": "s",
    "pipeline_events_per_s": "1/s",
    "crawl_dials_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: a worker that runs longer than this is killed and the run fails
SAMPLE_TIMEOUT_S = 170.0

#: cold set-ups per run (the ``setup_s`` median is over these): world
#: builds of a simnet run, localhost networks of a live run
SIM_BUILDS = 2
LIVE_SETUPS = 3

SIM_10K, LIVE = "sim-world-10k", "live-harvest"


def run_worker(
    workload: str, seed: int, trace: int, inject: str = "", deadline: float = 0.0
) -> list[dict]:
    """One set-up in a fresh interpreter; returns its samples.  With
    ``deadline`` (a ``time.time()`` value) the worker samples its set-up
    again and again until then."""
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(scratch))
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--trace", str(trace),
    ]
    if inject:
        command += ["--inject", inject]
    if deadline:
        command += ["--deadline", repr(deadline)]
    # its own process group, so the worker's forked children are stopped too
    worker = subprocess.Popen(
        command,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = worker.communicate(timeout=SAMPLE_TIMEOUT_S)
    finally:
        stop_group(worker)
    if worker.returncode != 0 or not stdout.strip():
        raise RuntimeError(
            f"worker for {workload} failed ({worker.returncode}):\n{stderr[-2000:]}"
        )
    return json.loads(stdout.strip().splitlines()[-1])["samples"]


def stop_group(worker: subprocess.Popen) -> None:
    """Kill whatever is left of the worker's process group and wait for it."""
    try:
        os.killpg(worker.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    worker.wait()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(worker.pid, 0)  # anything of the group still alive?
        except ProcessLookupError:
            return
        time.sleep(0.01)


def setup_count(workload: str) -> int:
    return LIVE_SETUPS if isinstance(WORKLOADS[workload], LiveSpec) else SIM_BUILDS


def collect(workload: str, seed: int, seconds: float, inject: str = "") -> list[dict]:
    """The samples of one run: ``setup_count(workload)`` cold set-ups, each
    sampled again and again until its share of ``seconds`` is spent."""
    count = setup_count(workload)
    start = time.time()
    samples: list[dict] = []
    for setup in range(count):
        deadline = start + seconds * (setup + 1) / count
        samples += run_worker(workload, seed, 0, inject, deadline)
    return samples


def end_to_end(samples: list[dict]) -> dict:
    """Each metric's median over the samples; ``setup_s`` is the median
    over the set-ups, each counted once however often it was crawled."""
    values = {
        name: stats.median(sample["metrics"][name] for sample in samples)
        for name in END_TO_END
    }
    setups = {s["cold_state"]["pid"]: s["metrics"]["setup_s"] for s in samples}
    values["setup_s"] = stats.median(setups.values())
    return values


def harvest_latencies(samples: list[dict]) -> list[float]:
    """Every harvest's wall time in ms; a failed harvest is infinite."""
    return [value for sample in samples for value in sample.get("harvest_ms", [])]


def run_checks(samples: list[dict], setups: int) -> dict:
    """Output checks of every sample plus the run-level ones; the samples
    come from ``setups`` workers."""
    checks: dict[str, bool] = {}
    for index, sample in enumerate(samples):
        for name, passed in sample["checks"].items():
            checks[f"sample {index}: {name}"] = passed
        for problem in sample.get("problems", []):
            print(f"sample {index}: {problem}")
    digests = {json.dumps(sample["digest"], sort_keys=True) for sample in samples}
    checks["every sample produced the same outputs"] = len(digests) == 1
    checks["cold: every set-up started with empty module caches"] = all(
        sample["cold_state"]["hash_memo"] == 0
        and sample["cold_state"]["id_hash_cache"] == 0
        for sample in samples
    )
    checks[f"each of the {setups} set-ups ran in its own process"] = (
        len({sample["cold_state"]["pid"] for sample in samples}) == setups
    )
    if any("harvest_ms" in sample for sample in samples):
        count = len(harvest_latencies(samples))
        checks[f"{count} harvests are enough for a p90"] = count >= stats.min_samples(90)
    return checks


# -- per-layer metrics (traced run) ----------------------------------------------


def _stat(name: str, field: str):
    return lambda traced: traced["layers"]["stats"].get(name, {}).get(field, 0)


def _span(name: str, index: int):
    return lambda traced: traced["layers"]["spans"].get(name, [0, 0.0, 0])[index]


def _scope(name: str, index: int):
    return lambda traced: traced.get("scopes", {}).get(name, [0, 0.0])[index]


def _count(name: str):
    return lambda traced: traced["counts"].get(name, 0)


def _mb(getter):
    return lambda traced: getter(traced) / float(1 << 20)


def _lag(p: float):
    def value(traced):
        lags = traced.get("loop_lags_ms", [])
        return stats.percentile(lags, p) if lags else 0.0

    return value


def _harvest_ms(p: float):
    def value(traced):
        latencies = traced.get("harvest_ms", [])
        return stats.percentile(latencies, p) if latencies else 0.0

    return value


def _slot_wait(traced) -> float:
    waits = traced.get("slot_waits", [])
    return sum(waits) / len(waits) if waits else 0.0


def _calls_and_busy(name: str, workload: str) -> list:
    return [
        (f"{name}.calls", "count", workload, _stat(name, "calls"), _stat(name, "calls")),
        (f"{name}.busy_s", "s", workload, _stat(name, "busy_s"), _stat(name, "calls")),
    ]


def _scope_metrics(name: str, workload: str) -> list:
    return [
        (f"{name}.calls", "count", workload, _scope(name, 0), _scope(name, 0)),
        (f"{name}.self_s", "s", workload, _scope(name, 1), _scope(name, 0)),
    ]


def _span_metric(name: str) -> tuple:
    return (f"{name}.span_s", "s", LIVE, _span(name, 1), _span(name, 0))


#: (metric, unit, workload it is mapped to, value getter, basis getter):
#: a metric whose basis reads 0 on its own workload is reported as dropped
LAYER_METRICS = [
    ("simnet.build.busy_s", "s", SIM_10K, _stat("simnet.build", "busy_s"),
     _stat("simnet.build", "calls")),
    ("simnet.build.peak_mb", "MB", SIM_10K, _mb(_stat("simnet.build", "items")),
     _stat("simnet.build", "calls")),
    ("simnet.clock.events", "count", SIM_10K, _count("clock_events"),
     _count("clock_events")),
    *_calls_and_busy("crypto.keccak256", SIM_10K),
    ("crypto.keccak256_batch.calls", "count", SIM_10K,
     _stat("crypto.keccak256_batch", "calls"), _stat("crypto.keccak256_batch", "calls")),
    ("crypto.keccak256_batch.items", "count", SIM_10K,
     _stat("crypto.keccak256_batch", "items"), _stat("crypto.keccak256_batch", "calls")),
    ("crypto.keccak256_batch.busy_s", "s", SIM_10K,
     _stat("crypto.keccak256_batch", "busy_s"), _stat("crypto.keccak256_batch", "calls")),
    *_calls_and_busy("crypto.keccak_mac", LIVE),
    *_calls_and_busy("crypto.sign", LIVE),
    *_calls_and_busy("crypto.recover", LIVE),
    *_calls_and_busy("crypto.ecdh", LIVE),
    *_calls_and_busy("crypto.ecies_encrypt", LIVE),
    *_calls_and_busy("crypto.ecies_decrypt", LIVE),
    *_calls_and_busy("crypto.aes_block", LIVE),
    *_calls_and_busy("crypto.aes_ctr", LIVE),
    ("crypto.aes_ctr.bytes", "bytes", LIVE, _stat("crypto.aes_ctr", "items"),
     _stat("crypto.aes_ctr", "calls")),
    *_calls_and_busy("rlp.encode", LIVE),
    *_calls_and_busy("rlp.decode", LIVE),
    _span_metric("rlpx.open_session"),
    _span_metric("rlpx.accept_session"),
    *_calls_and_busy("rlpx.frame_encode", LIVE),
    *_calls_and_busy("rlpx.frame_decode", LIVE),
    _span_metric("devp2p.hello"),
    _span_metric("ethproto.status"),
    _span_metric("ethproto.dao_check"),
    _span_metric("nodefinder.harvest"),
    ("nodefinder.harvest.failed", "count", LIVE, _span("nodefinder.harvest", 2),
     _span("nodefinder.harvest", 0)),
    ("nodefinder.crawl.busy_s", "s", SIM_10K, _stat("nodefinder.crawl", "busy_s"),
     _stat("nodefinder.crawl", "calls")),
    *_calls_and_busy("nodefinder.db_observe", SIM_10K),
    *_scope_metrics("scanner.lookup", SIM_10K),
    *_scope_metrics("scanner.dial", SIM_10K),
    *_scope_metrics("scanner.static_tick", SIM_10K),
    *_scope_metrics("writer.fold", SIM_10K),
    *_scope_metrics("journal.append", SIM_10K),
    *_scope_metrics("world.deliver_incoming", SIM_10K),
    *_scope_metrics("world.grow_chain", SIM_10K),
    *_calls_and_busy("telemetry.journal_emit", SIM_10K),
    ("telemetry.journal_bytes", "bytes", SIM_10K, _count("journal_bytes"),
     _count("journal_bytes")),
    ("analysis.replay.busy_s", "s", SIM_10K, _stat("analysis.replay", "busy_s"),
     _stat("analysis.replay", "calls")),
    ("analysis.replay.peak_mb", "MB", SIM_10K, _mb(_stat("analysis.replay", "items")),
     _stat("analysis.replay", "calls")),
    ("analysis.report.busy_s", "s", SIM_10K, _stat("analysis.report", "busy_s"),
     _stat("analysis.report", "calls")),
    ("live.loop_lag_ms_p50", "ms", LIVE, _lag(50), lambda t: len(t["loop_lags_ms"])),
    ("live.loop_lag_ms_p90", "ms", LIVE, _lag(90), lambda t: len(t["loop_lags_ms"])),
    ("live.slot_wait_s", "s", LIVE, _slot_wait, lambda t: len(t["slot_waits"])),
    ("live.harvest_ms_p50", "ms", LIVE, _harvest_ms(50), lambda t: len(t["harvest_ms"])),
    ("live.harvest_ms_p90", "ms", LIVE, _harvest_ms(90), lambda t: len(t["harvest_ms"])),
]

#: traced minus untraced reading of the workload's whole pipeline time
OVERHEAD_METRICS = {"trace.overhead_s": "s", "trace.overhead_pct": "%"}


def _pipeline_s(sample: dict) -> float:
    """Set-up plus crawl-to-report time of one sample."""
    return sample["metrics"]["setup_s"] + sample["metrics"]["crawl_to_report_s"]


def per_layer(workload: str, traced: dict, untraced: dict) -> tuple[dict, list]:
    """Per-layer metrics from the traced sample, and the dropped ones."""
    metrics: dict = {}
    dropped = []
    for name, unit, mapped_to, value, basis in LAYER_METRICS:
        metrics[name] = (value(traced), unit)
        if mapped_to == workload and not basis(traced):
            dropped.append(f"{name}: no calls reached the wrapped layer on {workload}")
    plain = _pipeline_s(untraced)
    extra = _pipeline_s(traced) - plain
    metrics["trace.overhead_s"] = (extra, OVERHEAD_METRICS["trace.overhead_s"])
    metrics["trace.overhead_pct"] = (
        100.0 * extra / plain, OVERHEAD_METRICS["trace.overhead_pct"]
    )
    return metrics, dropped


def per_layer_names() -> list[tuple[str, str]]:
    return [(row[0], row[1]) for row in LAYER_METRICS] + list(OVERHEAD_METRICS.items())


# -- the command -----------------------------------------------------------------


def _number(value: float):
    return value if math.isfinite(value) else None


def result_line(checks: dict, attempted: int, failed: int, metrics: dict) -> dict:
    return {
        "correct": all(checks.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": _number(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, dict, int, int]:
    samples = collect(workload, seed, seconds)
    checks = run_checks(samples, setup_count(workload))
    values = end_to_end(samples)
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    attempted = len(checks)
    failed = sum(not passed for passed in checks.values())
    if isinstance(WORKLOADS[workload], LiveSpec):
        dials = sum(sample["counts"]["dials"] for sample in samples)
        harvest_failures = sum(sample["counts"]["failed"] for sample in samples)
        attempted += dials
        failed += harvest_failures
        share, base = stats.failure_share(harvest_failures, dials)
        print(f"harvest failures: {share:.2%} of {base} harvests")
        latencies = harvest_latencies(samples)
        tail = stats.tail_percentile(latencies)
        print(
            f"harvest latency: p50 {stats.percentile(latencies, 50):.4g} ms, "
            f"p90 {stats.percentile(latencies, 90):.4g} ms, tail "
            f"p{tail[0]:g} {tail[1]:.4g} ms over {len(latencies)} harvests"
        )
    builds = len({sample["cold_state"]["pid"] for sample in samples})
    print(f"{len(samples)} samples from {builds} cold set-ups:")
    for sample in samples:
        print("  " + " ".join(
            f"{name}={value:.5g}" for name, value in sample["metrics"].items()
        ))
    return checks, metrics, attempted, failed


def trace(workload: str, seed: int) -> tuple[dict, dict, int, int]:
    untraced = run_worker(workload, seed, 0)[0]
    traced = run_worker(workload, seed, 1)[0]
    checks = run_checks([untraced, traced], 2)
    checks["traced outputs equal untraced outputs"] = (
        traced["digest"] == untraced["digest"]
    )
    metrics, dropped = per_layer(workload, traced, untraced)
    for line in dropped:
        print(f"dropped {line}")
    checks["no per-layer metric of this workload was dropped"] = not dropped
    failed = sum(not passed for passed in checks.values())
    return checks, metrics, len(checks), failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run unwinds, so subprocess.run kills and reaps its worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.trace:
        checks, metrics, attempted, failed = trace(args.workload, args.seed)
    else:
        checks, metrics, attempted, failed = measure(
            args.workload, args.seed, args.seconds
        )
    for name, passed in checks.items():
        if not passed:
            print(f"CHECK FAILED: {name}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    line = result_line(checks, attempted, failed, metrics)
    print(json.dumps(line, allow_nan=False))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
