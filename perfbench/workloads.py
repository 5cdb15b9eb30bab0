"""One sample of each benchmark workload, driven through the public APIs.

A *sample* is one pass of a workload in the calling interpreter:

* ``build_world`` builds a ``SimWorld``; ``crawl_sample`` crawls a built
  world with ``run_fleet`` into journals, replays them with
  ``replay_journals`` and renders the ``nodefinder analyze`` report with
  ``render_crawl_report``; ``sim_sample`` is the two in a row;
* ``live_samples`` starts a localhost network with
  ``start_localhost_network`` and runs closed-loop passes of full §4
  harvests (``repro.nodefinder.wire.harvest``) against it.

Each sample returns the timings, the output digests and the results of
its output checks.  ``worker.py`` runs the samples of one cold set-up in
a fresh interpreter; ``run.py`` aggregates them.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import resource
import time
from contextlib import nullcontext
from pathlib import Path

from repro.analysis.ingest import replay_journals
from repro.analysis.report import render_crawl_report
from repro.chain.genesis import MAINNET_GENESIS_HASH
from repro.crypto.keys import PrivateKey
from repro.fullnode import start_localhost_network
from repro.nodefinder import wire
from repro.nodefinder.database import NodeDB
from repro.nodefinder.fleet import run_fleet
from repro.nodefinder.scanner import NodeFinderConfig
from repro.simnet.clock import SECONDS_PER_DAY
from repro.simnet.node import DialOutcome
from repro.simnet.population import PopulationConfig
from repro.simnet.world import SimWorld, WorldConfig
from repro.telemetry import EventJournal, Telemetry
from specs import LiveSpec, SimSpec, live_blocks, sim_seeds


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _report_days(db: NodeDB) -> float:
    # derived the way ``nodefinder analyze`` derives it, for both inputs
    last = max((entry.last_attempt for entry in db), default=0.0)
    return last / SECONDS_PER_DAY


def _render(db: NodeDB) -> str:
    return render_crawl_report(db, head_height=0, total_days=_report_days(db))


def _entries_equal(left: NodeDB, right: NodeDB) -> bool:
    if len(left) != len(right):
        return False
    return all(right.get(entry.node_id) == entry for entry in left)


def build_world(spec: SimSpec, seed: int, hooks=None) -> tuple[SimWorld, float]:
    """Build the world for ``seed`` cold; returns it and the build time.

    ``hooks`` (tracing) maps a stage name to a context-manager factory
    wrapped around that stage.
    """
    stage = hooks or {}
    population_seed, world_seed, _ = sim_seeds(seed)
    started = time.perf_counter()
    with stage.get("build", nullcontext)():
        world = SimWorld(
            WorldConfig(
                population=PopulationConfig(
                    total_nodes=spec.nodes,
                    seed=population_seed,
                    measurement_days=max(1.0, spec.days),
                ),
                seed=world_seed,
            )
        )
        world.enable_gc_hygiene()
    return world, time.perf_counter() - started


def sim_sample(
    spec: SimSpec, seed: int, workdir: Path, profiler=None, hooks=None
) -> dict:
    """Build, crawl, replay and render once; time each stage and check it."""
    world, setup_s = build_world(spec, seed, hooks)
    return crawl_sample(world, setup_s, spec, seed, workdir, profiler, hooks)


def crawl_sample(
    world: SimWorld,
    setup_s: float,
    spec: SimSpec,
    seed: int,
    workdir: Path,
    profiler=None,
    hooks=None,
) -> dict:
    """Crawl a freshly built ``world``, replay the journal and render the
    report; time each stage and check the outputs.

    ``setup_s`` is the build time of ``world``, the start of the pipeline;
    ``profiler`` is passed to ``run_fleet``.
    """
    stage = hooks or {}
    _, _, crawler_seed = sim_seeds(seed)
    built = time.perf_counter()
    journal_dir = workdir / "journals"
    with stage.get("crawl", nullcontext)():
        fleet = run_fleet(
            world,
            instance_count=1,
            days=spec.days,
            config=NodeFinderConfig(seed=crawler_seed),
            telemetry_dir=journal_dir,
            profiler=profiler,
        )
    crawled = time.perf_counter()
    with stage.get("replay", nullcontext)():
        replayed = replay_journals(fleet.journal_paths)
    with stage.get("report", nullcontext)():
        report = _render(replayed.db)
    finished = time.perf_counter()

    stats = fleet.merged_stats
    dials = int(
        stats.total("dynamic_dial_attempts") + stats.total("static_dial_attempts")
    )
    merged = fleet.merged_db
    dump_path = workdir / "nodes.jsonl"
    merged.dump_jsonl(str(dump_path))
    round_trip = _render(NodeDB.load_jsonl(str(dump_path)))
    journal_bytes = b"".join(path.read_bytes() for path in fleet.journal_paths)
    journal_lines = journal_bytes.count(b"\n")
    digest = {
        "db_entries": len(merged),
        "journal_events": replayed.events_replayed,
        "report_sha256": _sha256(report.encode()),
        "journal_sha256": _sha256(journal_bytes),
        "db_sha256": _sha256(dump_path.read_bytes()),
    }
    checks = {
        "replayed NodeDB equals the crawled NodeDB": _entries_equal(
            merged, replayed.db
        ),
        "report from the journal equals the report from a dump_jsonl round trip": (
            report == round_trip
        ),
        "every journal line replayed": journal_lines == replayed.events_replayed,
        "crawl made progress": dials > 0 and len(merged) > 0,
    }
    if seed == 0:
        entries, events, report_sha = spec.pins
        checks["pinned db_entries"] = digest["db_entries"] == entries
        checks["pinned journal_events"] = digest["journal_events"] == events
        checks["pinned report sha256"] = digest["report_sha256"] == report_sha
    return {
        "counts": {
            "clock_events": world.clock.events_processed,
            "journal_bytes": len(journal_bytes),
        },
        "metrics": {
            "setup_s": setup_s,
            "pipeline_events_per_s": replayed.events_replayed / (finished - built),
            "crawl_to_report_s": finished - built,
            "crawl_dials_per_s": dials / (crawled - built),
            "replay_events_per_s": replayed.events_replayed / (finished - crawled),
            "peak_rss_mb": peak_rss_mb(),
        },
        "digest": digest,
        "checks": checks,
    }


def _harvest_problems(result, best_hash: bytes) -> list[str]:
    problems = []
    if result.outcome is not DialOutcome.FULL_HARVEST:
        problems.append(f"outcome {result.outcome.value}")
    if result.network_id != 1:
        problems.append(f"network id {result.network_id}")
    if result.genesis_hash != MAINNET_GENESIS_HASH:
        problems.append("genesis is not mainnet")
    if result.best_hash != best_hash:
        problems.append("best hash is not the mined chain's")
    # localhost chains are far below the DAO fork height, so a correct DAO
    # check gets zero headers back: the "empty" side
    if result.dao_side != "empty":
        problems.append(f"dao side {result.dao_side!r}")
    return problems


async def _ticker(lags: list, period: float = 0.005) -> None:
    """Record how late each wake-up runs: work waiting for the one loop."""
    while True:
        due = time.perf_counter() + period
        await asyncio.sleep(period)
        lags.append((time.perf_counter() - due) * 1000.0)


def _harvest_fields(result) -> tuple:
    """What a harvest learned about its peer (timing-free)."""
    return (
        result.node_id.hex(),
        result.outcome.value,
        result.client_id,
        json.dumps(result.capabilities),
        result.network_id,
        (result.genesis_hash or b"").hex(),
        result.total_difficulty,
        (result.best_hash or b"").hex(),
        result.dao_side,
    )


def another(done: int, longest: float, deadline: float | None, minimum: int) -> bool:
    """Whether to take another sample: ``done`` taken so far, the longest
    took ``longest`` seconds, and the next must end by ``deadline`` (a
    ``time.time()`` value; ``None`` takes ``minimum`` samples)."""
    if done < minimum:
        return True
    return deadline is not None and time.time() + longest <= deadline


async def _harvest_pass(
    spec: LiveSpec, seed: int, nodes, setup_s: float, workdir: Path, hooks,
    loop_lag: bool,
) -> dict:
    """One closed loop of ``spec.harvests`` harvests against ``nodes`` into
    a fresh journal, then the replay and the report; timed and checked."""
    stage = hooks or {}
    workdir.mkdir(parents=True, exist_ok=True)
    built = time.perf_counter()
    lags: list[float] = []
    ticker = asyncio.ensure_future(_ticker(lags)) if loop_lag else None
    journal_path = workdir / "harvests.jsonl"
    journal = EventJournal.open(journal_path)
    try:
        best_hash = nodes[0].chain.best_hash
        key = PrivateKey(1 + seed)
        targets = [node.enode for node in nodes]
        telemetry = Telemetry(journal=journal, clock=time.time)
        folded = NodeDB()
        latencies: list[float] = []
        slot_waits: list[float] = []
        problems: list[str] = []
        fields = set()
        dialed = 0

        async def client() -> None:
            nonlocal dialed
            while dialed < spec.harvests:
                freed = time.perf_counter()
                target = targets[(dialed + seed) % len(targets)]
                dialed += 1
                await asyncio.sleep(0)  # the freed slot goes back to the loop
                slot_waits.append(time.perf_counter() - freed)
                result = await wire.harvest(
                    target, key, clock=time.time, telemetry=telemetry
                )
                done = time.perf_counter()
                folded.observe(result)
                found = _harvest_problems(result, best_hash)
                if found:
                    problems.append(f"{target.short_id()}: {', '.join(found)}")
                    latencies.append(float("inf"))
                else:
                    latencies.append(done - freed)
                fields.add(_harvest_fields(result))

        with stage.get("crawl", nullcontext)():
            await asyncio.gather(*(client() for _ in range(spec.in_flight)))
        crawled = time.perf_counter()
    finally:
        journal.close()
        if ticker is not None:
            ticker.cancel()
            await asyncio.gather(ticker, return_exceptions=True)
    with stage.get("replay", nullcontext)():
        replayed = replay_journals([journal_path])
    with stage.get("report", nullcontext)():
        report = _render(replayed.db)
    finished = time.perf_counter()
    failed = sum(1 for value in latencies if value == float("inf"))
    checks = {
        "every harvest is a correct full harvest": not problems,
        "replayed NodeDB equals the harvested NodeDB": _entries_equal(
            folded, replayed.db
        ),
        "report renders": "Table 1" in report,
    }
    return {
        "counts": {
            "dials": len(latencies),
            "failed": failed,
            "journal_bytes": journal_path.stat().st_size,
        },
        "metrics": {
            "setup_s": setup_s,
            "pipeline_events_per_s": replayed.events_replayed / (finished - built),
            "crawl_to_report_s": finished - built,
            "crawl_dials_per_s": len(latencies) / (crawled - built),
            "replay_events_per_s": replayed.events_replayed / (finished - crawled),
            "peak_rss_mb": peak_rss_mb(),
        },
        "harvest_ms": [value * 1000.0 for value in latencies],
        "slot_waits": slot_waits,
        "loop_lags_ms": lags,
        "digest": {
            "harvest_fields_sha256": _sha256(json.dumps(sorted(fields)).encode()),
        },
        "checks": checks,
        "problems": problems[:5],
    }


async def _harvest_passes(
    spec: LiveSpec, seed: int, workdir: Path, hooks, loop_lag: bool,
    deadline: float | None, minimum: int,
) -> list[dict]:
    stage = hooks or {}
    started = time.perf_counter()
    with stage.get("build", nullcontext)():
        nodes = await start_localhost_network(spec.nodes, blocks=live_blocks(seed))
    setup_s = time.perf_counter() - started
    samples: list[dict] = []
    longest = 0.0
    try:
        while another(len(samples), longest, deadline, minimum):
            began = time.time()
            samples.append(await _harvest_pass(
                spec, seed, nodes, setup_s, workdir / f"pass{len(samples)}",
                hooks, loop_lag,
            ))
            longest = max(longest, time.time() - began)
    finally:
        for node in nodes:
            await node.stop()
    return samples


def live_samples(
    spec: LiveSpec,
    seed: int,
    workdir: Path,
    hooks=None,
    loop_lag: bool = False,
    deadline: float | None = None,
    minimum: int = 1,
) -> list[dict]:
    """Set up a localhost network, then harvest it in closed-loop passes
    until ``deadline`` (at least ``minimum`` passes), each into its own
    journal, which is replayed and rendered into the report."""
    return asyncio.run(_harvest_passes(
        spec, seed, workdir, hooks, loop_lag, deadline, minimum
    ))
