"""Per-layer tracing from outside the program.

A :class:`Tracer` wraps each layer's public functions and methods in
place and unwraps them afterwards.  Functions are rebound on *every*
module that holds them — ``from repro.crypto.keccak import keccak256``
leaves a second binding in each caller, so patching only the defining
module would miss most calls.  Methods are patched on their class.

Synchronous calls aggregate into ``calls`` / ``busy_s`` (time inside the
call, nested layers included) plus optional item or byte counts.
Coroutines record spans — name, start, end, parent — kept in memory;
each harvest's stage spans share the harvest span as their parent.
"""

from __future__ import annotations

import contextvars
import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

_MISSING = object()
_current_span: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None
)


@dataclass
class LayerStat:
    calls: int = 0
    busy_s: float = 0.0
    items: int = 0


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    failed: bool = False


@dataclass
class Tracer:
    """Installs wrappers, collects layer stats and spans, restores names."""

    stats: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    _undo: list = field(default_factory=list)

    # -- recording -----------------------------------------------------------

    def stat(self, name: str) -> LayerStat:
        found = self.stats.get(name)
        if found is None:
            found = self.stats[name] = LayerStat()
        return found

    @contextmanager
    def busy(self, name: str):
        """Time a block as one synchronous call of layer ``name``."""
        stat = self.stat(name)
        started = time.perf_counter()
        try:
            yield stat
        finally:
            stat.busy_s += time.perf_counter() - started
            stat.calls += 1

    def sync_wrapper(self, name: str, original, measure=None):
        stat = self.stat(name)
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            started = clock()
            try:
                return original(*args, **kwargs)
            finally:
                stat.busy_s += clock() - started
                stat.calls += 1
                if measure is not None:
                    stat.items += measure(args)

        return traced

    def async_wrapper(self, name: str, original, when=None, failed=None):
        spans = self.spans
        stat = self.stat(name)

        @functools.wraps(original)
        async def traced(*args, **kwargs):
            if when is not None and not when(args):
                return await original(*args, **kwargs)
            index = len(spans)
            span = Span(name, time.perf_counter(), 0.0, _current_span.get())
            spans.append(span)
            token = _current_span.set(index)
            try:
                result = await original(*args, **kwargs)
                if failed is not None and failed(result):
                    span.failed = True
                return result
            finally:
                _current_span.reset(token)
                span.end = time.perf_counter()
                stat.calls += 1
                stat.busy_s += span.end - span.start

        return traced

    # -- installing ------------------------------------------------------------

    def patch_function(self, original, wrapper) -> int:
        """Rebind every module-level name bound to ``original``."""
        rebound = 0
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace:
                continue
            for attr, value in list(namespace.items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapper)
                    rebound += 1
        if not rebound:
            raise LookupError(f"{original.__qualname__} is bound nowhere")
        return rebound

    def patch_method(self, cls, attr: str, wrapper) -> None:
        self._undo.append((cls, attr, cls.__dict__.get(attr, _MISSING)))
        setattr(cls, attr, wrapper)

    def trace_function(self, name: str, original, measure=None) -> None:
        self.patch_function(original, self.sync_wrapper(name, original, measure))

    def trace_method(self, name: str, cls, attr: str, measure=None) -> None:
        original = getattr(cls, attr)
        # measure sees (self, *args); shift so callers index real arguments
        shifted = (lambda args: measure(args[1:])) if measure is not None else None
        self.patch_method(cls, attr, self.sync_wrapper(name, original, shifted))

    def restore(self) -> None:
        """Put every patched name back, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- reading ---------------------------------------------------------------

    def span_stats(self, name: str) -> tuple[int, float, int]:
        """(count, mean seconds, failed) over the spans called ``name``."""
        chosen = [span for span in self.spans if span.name == name]
        if not chosen:
            return 0, 0.0, 0
        total = sum(span.end - span.start for span in chosen)
        return len(chosen), total / len(chosen), sum(s.failed for s in chosen)


def _initiator(args) -> bool:
    return args[0].session.is_initiator


def install_layers(tracer: Tracer) -> None:
    """Wrap the public entry points of every traced layer."""
    from repro.crypto import ecies, keccak
    from repro.crypto.aes import AES, AESCTR
    from repro.crypto.keys import PrivateKey, Signature
    from repro.devp2p.peer import DevP2PPeer
    from repro.ethproto.handshake import harvest_dao_check, run_eth_handshake
    from repro.nodefinder import wire
    from repro.nodefinder.database import NodeDB
    from repro.rlp import codec
    from repro.rlpx import session
    from repro.rlpx.frame import FrameCodec
    from repro.simnet.node import DialOutcome
    from repro.telemetry.journal import EventJournal

    function = tracer.trace_function
    method = tracer.trace_method
    function("crypto.keccak256", keccak.keccak256)
    function(
        "crypto.keccak256_batch", keccak.keccak256_batch, lambda a: len(a[0])
    )
    method("crypto.keccak_mac", keccak.Keccak256, "update")
    method("crypto.sign", PrivateKey, "sign")
    method("crypto.recover", Signature, "recover")
    method("crypto.ecdh", PrivateKey, "ecdh")
    function("crypto.ecies_encrypt", ecies.ecies_encrypt)
    function("crypto.ecies_decrypt", ecies.ecies_decrypt)
    method("crypto.aes_block", AES, "encrypt_block")
    method("crypto.aes_ctr", AESCTR, "process", lambda a: len(a[0]))
    function("rlp.encode", codec.encode)
    function("rlp.decode", codec.decode)
    method("rlpx.frame_encode", FrameCodec, "encode_frame")
    method("rlpx.frame_decode", FrameCodec, "decode_header")
    method("rlpx.frame_decode", FrameCodec, "decode_body")
    method("nodefinder.db_observe", NodeDB, "observe")
    method("telemetry.journal_emit", EventJournal, "emit")

    wrap = tracer.async_wrapper
    tracer.patch_function(
        session.open_session, wrap("rlpx.open_session", session.open_session)
    )
    tracer.patch_function(
        session.accept_session, wrap("rlpx.accept_session", session.accept_session)
    )
    tracer.patch_method(
        DevP2PPeer,
        "handshake",
        wrap("devp2p.hello", DevP2PPeer.handshake, when=_initiator),
    )
    tracer.patch_function(
        run_eth_handshake, wrap("ethproto.status", run_eth_handshake)
    )
    tracer.patch_function(
        harvest_dao_check, wrap("ethproto.dao_check", harvest_dao_check)
    )
    tracer.patch_function(
        wire.harvest,
        wrap(
            "nodefinder.harvest",
            wire.harvest,
            failed=lambda result: result.outcome is not DialOutcome.FULL_HARVEST,
        ),
    )
