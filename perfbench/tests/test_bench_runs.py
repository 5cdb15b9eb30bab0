"""Whole-benchmark tests: cold isolation, traced-run fidelity, sensitivity.

These run real samples in fresh interpreters (about ten minutes on two
cores):

    python3 -m pytest perfbench/tests/test_bench_runs.py
"""

import json
import os
from pathlib import Path

import pytest

import run
import stats
import worker
from specs import WORKLOADS

from repro.simnet.population import PopulationConfig
from repro.simnet.world import SimWorld, WorldConfig

BENCHMARK = json.loads(
    (Path(run.ROOT) / "BENCHMARK.json").read_text(encoding="utf-8")
)
BOUNDS = {metric["name"]: metric["bound"] for metric in BENCHMARK["end_to_end"]}


def test_benchmark_json_lists_what_the_runner_prints():
    assert [m["name"] for m in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]} == set(
        run.END_TO_END.items()
    )
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == (
        run.per_layer_names()
    )
    assert max(BOUNDS.values()) == BOUNDS["setup_s"]


def test_set_ups_run_in_fresh_processes():
    samples = [s for _ in range(2) for s in run.run_worker(run.LIVE, 0, 0)]
    checks = run.run_checks(samples, 2)
    assert all(checks.values()), checks
    pids = {sample["cold_state"]["pid"] for sample in samples}
    assert len(pids) == 2 and os.getpid() not in pids
    assert not run.run_checks(samples, 3)["each of the 3 set-ups ran in its own process"]


def test_live_passes_share_their_network_until_the_deadline():
    samples = run.run_worker(run.LIVE, 0, 0, deadline=1.0)
    assert len(samples) == worker.MIN_SAMPLES
    checks = run.run_checks(samples, 1)
    assert all(checks.values()), checks
    assert len({sample["metrics"]["setup_s"] for sample in samples}) == 1


def test_simnet_crawls_of_one_build_run_in_forked_children():
    """Each crawl of a build runs in its own child of the build's process,
    starts from the same world and produces the same outputs."""
    samples = run.run_worker(run.SIM_10K, 0, 0, deadline=1.0)
    assert len(samples) == worker.MIN_SAMPLES
    checks = run.run_checks(samples, 1)
    assert all(checks.values()), checks
    builds = {sample["cold_state"]["pid"] for sample in samples}
    crawls = {sample["pid"] for sample in samples}
    assert len(builds) == 1 and len(crawls) == len(samples)
    assert not builds & crawls
    assert len({sample["metrics"]["setup_s"] for sample in samples}) == 1
    assert run.end_to_end(samples)["setup_s"] == samples[0]["metrics"]["setup_s"]


def test_two_samples_sharing_a_process_fail_the_cold_check():
    """A second world built in a warm process reuses the first one's
    module-level hash caches; the cold check must catch that."""
    first = worker.cold_state()
    SimWorld(
        WorldConfig(
            population=PopulationConfig(total_nodes=300, seed=5, measurement_days=1.0),
            seed=5,
        )
    )
    second = worker.cold_state()
    assert second["hash_memo"] > 0 or second["id_hash_cache"] > 0
    shared = [
        {"checks": {}, "digest": {}, "cold_state": state, "pid": state["pid"] + n}
        for n, state in enumerate((first, second))
    ]
    checks = run.run_checks(shared, 2)
    assert not checks["cold: every set-up started with empty module caches"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_keeps_outputs_and_reaches_every_mapped_layer(workload):
    checks, metrics, attempted, failed = run.trace(workload, 0)
    assert all(checks.values()), [name for name, ok in checks.items() if not ok]
    assert "traced outputs equal untraced outputs" in checks
    assert failed == 0 and attempted == len(checks)
    for name, unit, mapped_to, value, basis in run.LAYER_METRICS:
        if mapped_to == workload and name != "nodefinder.harvest.failed":
            assert metrics[name][0] > 0, name
    assert {"trace.overhead_s", "trace.overhead_pct"} <= set(metrics)


def _paired_ratios(workload: str, inject: str, pairs: int) -> dict:
    """Per metric, the median over alternating (plain, slowed) sample pairs
    of slowed / plain.  A pair runs back to back, so both halves see the
    same machine state; on a shared box that drifts over tens of seconds
    this cancels most of the drift that separate medians would keep."""
    ratios: dict = {}
    for _ in range(pairs):
        plain = run.run_worker(workload, 0, 0)
        slowed = run.run_worker(workload, 0, 0, inject)
        assert all(run.run_checks(plain + slowed, 2).values())
        before, after = run.end_to_end(plain), run.end_to_end(slowed)
        for metric in before:
            ratios.setdefault(metric, []).append(after[metric] / before[metric])
    return {metric: stats.median(values) for metric, values in ratios.items()}


def _worse(metric: str, ratio: float) -> float:
    """How much worse a slowed/plain ratio is, as a share of plain."""
    lower_is_better = run.END_TO_END[metric] in ("s", "ms", "MB")
    return ratio - 1.0 if lower_is_better else 1.0 - ratio


def _busy(sample: dict, *layers: str) -> float:
    return sum(sample["layers"]["stats"][layer]["busy_s"] for layer in layers)


def test_a_doubled_frame_codec_shows_in_its_layer_and_crosses_the_live_bounds():
    ratios = _paired_ratios(run.LIVE, "rlpx_frame", pairs=4)
    for metric in ("crawl_dials_per_s", "pipeline_events_per_s"):
        assert _worse(metric, ratios[metric]) > BOUNDS[metric], (metric, ratios)

    plain = run.run_worker(run.LIVE, 0, 1)[0]
    slowed = run.run_worker(run.LIVE, 0, 1, "rlpx_frame")[0]
    frames = ("rlpx.frame_encode", "rlpx.frame_decode")
    layer_added = _busy(slowed, *frames) - _busy(plain, *frames)
    loop_added = _busy(slowed, "nodefinder.crawl") - _busy(plain, "nodefinder.crawl")
    # the traced run puts the added time in the slowed layer: its own time
    # doubles and accounts for the harvest loop's extra time
    assert 0.6 < layer_added / _busy(plain, *frames) < 1.6
    assert 0.6 < layer_added / loop_added < 1.4


def test_a_doubled_keccak_batch_moves_setup_on_10k_but_not_the_live_harvest():
    ratios = _paired_ratios(run.SIM_10K, "keccak256_batch", pairs=2)
    assert _worse("setup_s", ratios["setup_s"]) > BOUNDS["setup_s"], ratios

    # the live path never batch-hashes: the bypass reads "no change"
    ratios = _paired_ratios(run.LIVE, "keccak256_batch", pairs=3)
    for metric, bound in BOUNDS.items():
        assert _worse(metric, ratios[metric]) <= bound, (metric, ratios)
