"""The benchmark's workloads, as data (no program imports)."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SimSpec:
    """A simnet pipeline: world size and crawl length."""

    nodes: int
    days: float
    #: pinned outputs for ``--seed 0``: (db entries, journal events,
    #: sha256 of the rendered report)
    pins: tuple


@dataclass(frozen=True)
class LiveSpec:
    """A localhost harvest pipeline: network size, dials in flight and
    harvests per pass."""

    nodes: int
    in_flight: int
    harvests: int


WORKLOADS = {
    "sim-world-10k": SimSpec(
        nodes=10_000,
        days=0.25,
        pins=(
            2777,
            35770,
            "fc6b36c444fe3e784189dab3928d75fee9be40672ed1f3dbeb770250f2619213",
        ),
    ),
    "live-harvest": LiveSpec(nodes=8, in_flight=2, harvests=75),
}


def sim_seeds(seed: int) -> tuple[int, int, int]:
    """(population, world, crawler) seeds; ``--seed 0`` is the documented
    default world (population 2018, world 7, crawler 1)."""
    return 2018 + seed, 7 + seed, 1 + seed


def live_blocks(seed: int) -> int:
    """Length of the localhost network's mined chain for ``seed``."""
    return 16 + seed % 17
