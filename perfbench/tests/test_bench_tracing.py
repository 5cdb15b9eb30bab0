"""The tracer wraps the names callers bind, records spans, and restores."""

import asyncio
import sys

import pytest

from tracing import Tracer, install_layers

from repro.chain import synthetic
from repro.chain.chain import HeaderChain
from repro.chain.genesis import mainnet_genesis
from repro.crypto import aes, ecies, keccak
from repro.crypto.keys import PrivateKey
from repro.fullnode import FullNode
from repro.nodefinder import wire
from repro.rlpx import handshake


def bindings():
    """Every (module, name) → object binding in the program's modules."""
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name.startswith("repro")
        for attr, value in list(vars(module).items())
        if callable(value)
    }


def test_callers_bindings_are_wrapped_and_then_restored():
    before = bindings()
    batch, encrypt = keccak.keccak256_batch, ecies.ecies_encrypt
    process = aes.AESCTR.process
    tracer = Tracer()
    install_layers(tracer)
    try:
        # the names callers bound with from-imports, not just the definitions
        assert synthetic.keccak256_batch.__wrapped__ is batch
        assert handshake.ecies_encrypt.__wrapped__ is encrypt
        assert aes.AESCTR.process.__wrapped__ is process
    finally:
        tracer.restore()
    assert bindings() == before
    assert aes.AESCTR.process is process
    assert "update" not in keccak.Keccak256.__dict__


def test_binding_nowhere_is_an_error():
    def orphan():
        return None

    with pytest.raises(LookupError):
        Tracer().patch_function(orphan, lambda: None)


def test_sync_layers_count_calls_items_and_busy_time():
    tracer = Tracer()
    install_layers(tracer)
    try:
        digests = synthetic.keccak256_batch([b"a", b"b", b"c"])
        assert digests[0] == keccak.keccak256(b"a")
    finally:
        tracer.restore()
    batch = tracer.stats["crypto.keccak256_batch"]
    assert (batch.calls, batch.items) == (1, 3)
    assert batch.busy_s > 0
    assert tracer.stats["crypto.keccak256"].calls == 1


def test_a_harvest_records_stage_spans_under_its_harvest_span():
    async def one_harvest():
        chain = HeaderChain(mainnet_genesis())
        chain.mine(4)
        node = FullNode(PrivateKey(77), chain=chain)
        await node.start()
        try:
            return await wire.harvest(node.enode, PrivateKey(78))
        finally:
            await node.stop()

    tracer = Tracer()
    install_layers(tracer)
    try:
        result = asyncio.run(one_harvest())
    finally:
        tracer.restore()
    assert result.outcome.value == "full-harvest"
    spans = {span.name: (index, span) for index, span in enumerate(tracer.spans)}
    harvest_index, harvest = spans["nodefinder.harvest"]
    assert not harvest.failed
    for stage in ("rlpx.open_session", "devp2p.hello", "ethproto.status",
                  "ethproto.dao_check"):
        index, span = spans[stage]
        assert span.parent == harvest_index, stage
        assert harvest.start <= span.start <= span.end <= harvest.end
    # the served side runs in the same process but is not the harvest's child
    assert spans["rlpx.accept_session"][1].parent is None
    assert [s.name for s in tracer.spans].count("devp2p.hello") == 1
    assert tracer.stats["crypto.aes_ctr"].items > 0
