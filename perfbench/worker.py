"""Benchmark samples from one cold set-up, in a fresh interpreter.

    python3 perfbench/worker.py --workload sim-world-10k --seed 0 --trace 0

``run.py`` starts one of these per set-up, so module-level caches (the
synthetic-chain hash memo, the node-ID ``lru_cache``) start empty every
time, as they do for a user's ``nodefinder`` process.  By default the
worker takes one sample.  With ``--deadline`` it samples its set-up again
and again until the deadline: a simnet worker builds the world once and
crawls it in one forked child after another, each starting from the
just-built world; a live worker starts its network once and harvests
it in one pass after another; either takes at least ``MIN_SAMPLES``.
The last stdout line is ``{"samples": [...]}`` as JSON.  ``--inject
LAYER`` doubles the cost of one layer (the sensitivity self-test).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import sys
import time
import traceback
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402
from specs import WORKLOADS, LiveSpec  # noqa: E402
from tracing import Tracer, install_layers  # noqa: E402

from repro.chain import synthetic  # noqa: E402
from repro.discovery import enode  # noqa: E402
from repro.telemetry.profiler import Profiler  # noqa: E402

#: profiler scopes read from a wall-clock ``Profiler`` in traced sim runs
PROFILER_SCOPES = (
    "scanner.lookup",
    "scanner.dial",
    "scanner.static_tick",
    "writer.fold",
    "journal.append",
    "world.deliver_incoming",
    "world.grow_chain",
)

#: layers ``--inject`` can slow down: name → (module, class or None, attribute)
INJECTABLE = {
    "rlpx_frame": [
        ("repro.rlpx.frame", "FrameCodec", "encode_frame"),
        ("repro.rlpx.frame", "FrameCodec", "decode_header"),
        ("repro.rlpx.frame", "FrameCodec", "decode_body"),
    ],
    "keccak256_batch": [("repro.crypto.keccak", None, "keccak256_batch")],
}


#: samples a ``--deadline`` worker takes even when it is late
MIN_SAMPLES = 2


def cold_state() -> dict:
    """Sizes of the module-level caches a warm process would reuse."""
    return {
        "pid": os.getpid(),
        "hash_memo": len(synthetic._HASH_MEMO),
        "id_hash_cache": enode._cached_id_hash.cache_info().currsize,
    }


def _doubled(original):
    """``original``, taking twice its own time: each call spins afterwards
    for as long as the call itself took."""

    def doubled(*args, **kwargs):
        started = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            until = 2 * time.perf_counter() - started
            while time.perf_counter() < until:
                pass

    return doubled


def inject_slowdown(tracer: Tracer, layer: str) -> None:
    """Double the cost of every public function of ``layer``."""
    for module_name, class_name, attr in INJECTABLE[layer]:
        module = importlib.import_module(module_name)
        if class_name:
            owner = getattr(module, class_name)
            tracer.patch_method(owner, attr, _doubled(getattr(owner, attr)))
        else:
            original = getattr(module, attr)
            tracer.patch_function(original, _doubled(original))


def _rss_bytes() -> int:
    with open("/proc/self/statm", encoding="ascii") as handle:
        return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


@contextmanager
def traced_stage(tracer: Tracer, name: str, memory: str = ""):
    """Time one pipeline stage as one call of layer ``name``.

    ``memory="tracemalloc"`` records the stage's traced-allocation peak;
    ``memory="rss"`` records how far the stage raised the process's RSS
    high-water mark — for the world build, where tracemalloc would trace
    every integer the pure-Python keccak allocates and slow it >100x.
    """
    before = _rss_bytes() if memory == "rss" else 0
    if memory == "tracemalloc":
        tracemalloc.start()
    try:
        with tracer.busy(name):
            yield
    finally:
        if memory == "tracemalloc":
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            tracer.stat(name).items = peak
        elif memory == "rss":
            high = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
            tracer.stat(name).items = max(0, high - before)


def layer_report(tracer: Tracer) -> dict:
    return {
        "stats": {
            name: {"calls": s.calls, "busy_s": s.busy_s, "items": s.items}
            for name, s in tracer.stats.items()
        },
        "spans": {
            name: tracer.span_stats(name)
            for name in sorted({span.name for span in tracer.spans})
        },
    }


def _hooks(tracer: Tracer | None) -> dict | None:
    if tracer is None:
        return None
    return {
        "build": lambda: traced_stage(tracer, "simnet.build", "rss"),
        "crawl": lambda: traced_stage(tracer, "nodefinder.crawl"),
        "replay": lambda: traced_stage(tracer, "analysis.replay", "tracemalloc"),
        "report": lambda: traced_stage(tracer, "analysis.report"),
    }


def run_samples(args, tracer: Tracer | None, workdir: Path) -> list[dict]:
    """The samples of one set-up, taken in this process."""
    spec = WORKLOADS[args.workload]
    hooks = _hooks(tracer)
    if isinstance(spec, LiveSpec):
        if hooks is not None:
            del hooks["build"]  # a localhost network is not the simnet build
        samples = workloads.live_samples(
            spec, args.seed, workdir, hooks, loop_lag=tracer is not None,
            deadline=args.deadline, minimum=MIN_SAMPLES if args.deadline else 1,
        )
        return [dict(sample, pid=os.getpid()) for sample in samples]
    profiler = Profiler() if tracer is not None else None
    sample = workloads.sim_sample(spec, args.seed, workdir, profiler, hooks)
    if profiler is not None:
        sample["scopes"] = {
            name: [stat.calls, stat.self_time]
            for name, stat in profiler.stats.items()
            if name in PROFILER_SCOPES
        }
    return [dict(sample, pid=os.getpid())]


def in_child(task) -> dict:
    """``task()`` in a forked child; returns its JSON-able result.

    The child starts from this process's memory as it is, so it sees the
    built world exactly as a crawl in this process would, and leaves this
    process's copy untouched for the next child.
    """
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: run, report through the pipe, never return
        os.close(read_end)
        code = 1
        try:
            with os.fdopen(write_end, "wb") as out:
                out.write(json.dumps(task()).encode())
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(code)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        raise RuntimeError(f"crawl child {pid} failed (wait status {status})")
    return json.loads(data)


def repeated_crawls(args, workdir: Path) -> list[dict]:
    """Build once, then crawl the built world in forked children until
    ``args.deadline`` (at least ``MIN_SAMPLES``)."""
    spec = WORKLOADS[args.workload]
    world, setup_s = workloads.build_world(spec, args.seed)
    # a child's high-water mark starts at the RSS it was forked with, below
    # the build's own transient peak
    build_peak_mb = workloads.peak_rss_mb()

    def crawl(crawl_dir: Path) -> dict:
        sample = workloads.crawl_sample(world, setup_s, spec, args.seed, crawl_dir)
        metrics = sample["metrics"]
        metrics["peak_rss_mb"] = max(metrics["peak_rss_mb"], build_peak_mb)
        return dict(sample, pid=os.getpid())

    samples: list[dict] = []
    longest = 0.0
    while workloads.another(len(samples), longest, args.deadline, MIN_SAMPLES):
        started = time.time()
        crawl_dir = workdir / f"crawl{len(samples)}"
        samples.append(in_child(lambda: crawl(crawl_dir)))
        shutil.rmtree(crawl_dir, ignore_errors=True)
        longest = max(longest, time.time() - started)
    return samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", choices=sorted(INJECTABLE))
    parser.add_argument(
        "--deadline",
        type=float,
        help="untraced: repeat samples of the one set-up until this "
        "time.time() value (simnet crawls in forked children)",
    )
    args = parser.parse_args(argv)
    if args.trace:
        args.deadline = None  # a traced run takes one sample
    fork = args.deadline is not None and not isinstance(
        WORKLOADS[args.workload], LiveSpec
    )

    state = cold_state()
    workdir = ROOT / ".perfbench_tmp" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    try:
        if args.inject:
            inject_slowdown(tracer, args.inject)
        layers = None
        if args.trace:
            layers = Tracer()
            install_layers(layers)
        try:
            if fork:
                samples = repeated_crawls(args, workdir)
            else:
                samples = run_samples(args, layers, workdir)
        finally:
            if layers is not None:
                layers.restore()
        if layers is not None:
            samples[0]["layers"] = layer_report(layers)
    finally:
        tracer.restore()
        shutil.rmtree(workdir, ignore_errors=True)
    for sample in samples:
        sample["cold_state"] = state
    print(json.dumps({"samples": samples}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
