"""secp256k1 arithmetic, ECDSA, recovery, and ECDH tests.

Cross-checks against the `cryptography` package where available keep our
pure-Python implementation honest.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import secp256k1 as ec
from repro.crypto.keccak import keccak256
from repro.crypto.keys import KeyPair, PrivateKey, PublicKey, Signature
from repro.errors import InvalidPrivateKey, InvalidPublicKey, InvalidSignature

scalars = st.integers(min_value=1, max_value=ec.N - 1)


class TestCurveArithmetic:
    def test_generator_on_curve(self):
        assert ec.is_on_curve(ec.GENERATOR)

    def test_infinity_identity(self):
        assert ec.point_add(ec.GENERATOR, ec.INFINITY) == ec.GENERATOR
        assert ec.point_add(ec.INFINITY, ec.GENERATOR) == ec.GENERATOR

    def test_point_plus_negation_is_infinity(self):
        point = ec.generator_multiply(12345)
        assert ec.point_add(point, ec.point_negate(point)).is_infinity

    def test_order_times_generator_is_infinity(self):
        assert ec.generator_multiply(ec.N).is_infinity

    def test_known_multiple(self):
        # 2G, from the SEC test vectors
        twice = ec.generator_multiply(2)
        assert twice.x == 0xC6047F9441ED7D6D3045406E95C07CD85C778E4B8CEF3CA7ABAC09B95C709EE5

    @settings(max_examples=15)
    @given(scalars, scalars)
    def test_multiplication_distributes(self, a, b):
        left = ec.point_add(ec.generator_multiply(a), ec.generator_multiply(b))
        right = ec.generator_multiply((a + b) % ec.N)
        assert left == right

    def test_doubling_matches_addition(self):
        point = ec.generator_multiply(7)
        assert ec.point_add(point, point) == ec.generator_multiply(14)


class TestPointCodec:
    def test_uncompressed_roundtrip(self):
        point = ec.generator_multiply(999)
        assert ec.decode_point(ec.encode_point(point)) == point

    def test_compressed_roundtrip(self):
        for scalar in (1, 2, 3, 999, ec.N - 1):
            point = ec.generator_multiply(scalar)
            assert ec.decode_point(ec.encode_point(point, compressed=True)) == point

    def test_raw_64_byte_node_id(self):
        point = ec.generator_multiply(424242)
        raw = point.x.to_bytes(32, "big") + point.y.to_bytes(32, "big")
        assert ec.decode_point(raw) == point

    def test_off_curve_rejected(self):
        with pytest.raises(InvalidPublicKey):
            ec.decode_point(b"\x04" + b"\x01" * 64)

    def test_bad_length_rejected(self):
        with pytest.raises(InvalidPublicKey):
            ec.decode_point(b"\x04" + b"\x01" * 10)

    def test_infinity_not_encodable(self):
        with pytest.raises(InvalidPublicKey):
            ec.encode_point(ec.INFINITY)


class TestECDSA:
    def test_sign_verify_roundtrip(self):
        key = PrivateKey(0xDEADBEEF)
        digest = keccak256(b"message")
        signature = key.sign(digest)
        assert key.public_key.verify(digest, signature)

    def test_wrong_digest_fails(self):
        key = PrivateKey(0xDEADBEEF)
        signature = key.sign(keccak256(b"message"))
        assert not key.public_key.verify(keccak256(b"other"), signature)

    def test_wrong_key_fails(self):
        key = PrivateKey(0xDEADBEEF)
        digest = keccak256(b"message")
        signature = key.sign(digest)
        assert not PrivateKey(0xCAFE).public_key.verify(digest, signature)

    def test_low_s_normalisation(self):
        key = PrivateKey(7)
        for index in range(8):
            signature = key.sign(keccak256(bytes([index])))
            assert signature.s <= ec.N // 2

    def test_signature_deterministic(self):
        key = PrivateKey(42)
        digest = keccak256(b"rfc6979")
        assert key.sign(digest).to_bytes() == key.sign(digest).to_bytes()

    def test_recovery(self):
        key = PrivateKey(0x123456789)
        digest = keccak256(b"recover me")
        signature = key.sign(digest)
        assert signature.recover(digest) == key.public_key

    @settings(max_examples=8, deadline=None)
    @given(scalars, st.binary(min_size=1, max_size=64))
    def test_recovery_property(self, secret, message):
        key = PrivateKey(secret)
        digest = keccak256(message)
        assert key.sign(digest).recover(digest) == key.public_key

    def test_signature_byte_roundtrip(self):
        key = PrivateKey(5)
        signature = key.sign(keccak256(b"x"))
        assert Signature.from_bytes(signature.to_bytes()).to_bytes() == signature.to_bytes()

    @pytest.mark.parametrize("v", [0, 1])
    def test_signature_v27_accepted(self, v):
        key = PrivateKey(5)
        # the first message whose signature carries recovery id v
        digest = next(
            keccak256(bytes([i]))
            for i in range(64)
            if key.sign(keccak256(bytes([i]))).v == v
        )
        raw = bytearray(key.sign(digest).to_bytes())
        raw[64] += 27  # Ethereum tx-style recovery id: 27 or 28
        parsed = Signature.from_bytes(bytes(raw))
        assert parsed.v == v
        assert parsed.recover(digest) == key.public_key

    def test_malformed_signature_rejected(self):
        with pytest.raises(InvalidSignature):
            Signature.from_bytes(b"\x00" * 64)
        with pytest.raises(InvalidSignature):
            Signature.from_bytes(b"\x00" * 64 + b"\x09")

    def test_bad_digest_length(self):
        key = PrivateKey(5)
        with pytest.raises(InvalidSignature):
            key.sign(b"short")

    def test_zero_rs_rejected_on_recovery(self):
        with pytest.raises(InvalidSignature):
            ec.recover_digest(b"\x00" * 32, ec.RawSignature(0, 1, 0))
        with pytest.raises(InvalidSignature):
            ec.recover_digest(b"\x00" * 32, ec.RawSignature(1, 0, 0))


class TestCrossValidation:
    """Check against the `cryptography` package's secp256k1."""

    def test_ecdsa_interop(self):
        cec = pytest.importorskip("cryptography.hazmat.primitives.asymmetric.ec")
        from cryptography.hazmat.primitives import hashes
        from cryptography.hazmat.primitives.asymmetric.utils import (
            Prehashed,
            encode_dss_signature,
        )

        key = PrivateKey(0xA5A5A5A5)
        digest = keccak256(b"interop")
        signature = key.sign(digest)
        ckey = cec.derive_private_key(key.secret, cec.SECP256K1())
        ckey.public_key().verify(
            encode_dss_signature(signature.r, signature.s),
            digest,
            cec.ECDSA(Prehashed(hashes.SHA256())),
        )

    def test_public_key_interop(self):
        cec = pytest.importorskip("cryptography.hazmat.primitives.asymmetric.ec")
        key = PrivateKey(0x1337)
        ckey = cec.derive_private_key(key.secret, cec.SECP256K1())
        numbers = ckey.public_key().public_numbers()
        assert (numbers.x, numbers.y) == (key.public_key.point.x, key.public_key.point.y)

    def test_ecdh_interop(self):
        cec = pytest.importorskip("cryptography.hazmat.primitives.asymmetric.ec")
        ours_a, ours_b = PrivateKey(111), PrivateKey(222)
        theirs_a = cec.derive_private_key(111, cec.SECP256K1())
        theirs_b = cec.derive_private_key(222, cec.SECP256K1())
        expected = theirs_a.exchange(cec.ECDH(), theirs_b.public_key())
        assert ours_a.ecdh(ours_b.public_key) == expected


class TestECDH:
    def test_symmetry(self):
        alice, bob = PrivateKey(314159), PrivateKey(271828)
        assert alice.ecdh(bob.public_key) == bob.ecdh(alice.public_key)

    @settings(max_examples=8, deadline=None)
    @given(scalars, scalars)
    def test_symmetry_property(self, a, b):
        ka, kb = PrivateKey(a), PrivateKey(b)
        assert ka.ecdh(kb.public_key) == kb.ecdh(ka.public_key)


class TestKeyObjects:
    def test_private_key_range(self):
        with pytest.raises(InvalidPrivateKey):
            PrivateKey(0)
        with pytest.raises(InvalidPrivateKey):
            PrivateKey(ec.N)

    def test_key_byte_roundtrip(self):
        key = PrivateKey(0xABCDEF)
        assert PrivateKey.from_bytes(key.to_bytes()).secret == key.secret

    def test_public_key_byte_roundtrip(self):
        key = PrivateKey(99)
        public = key.public_key
        assert PublicKey.from_bytes(public.to_bytes()) == public
        assert PublicKey.from_bytes(public.to_compressed_bytes()) == public
        assert PublicKey.from_bytes(public.to_sec1_bytes()) == public

    def test_node_id_is_64_bytes(self):
        pair = KeyPair(PrivateKey(7))
        assert len(pair.node_id) == 64
        assert len(pair.public_key.keccak()) == 32

    def test_generate_produces_valid_keys(self):
        key = PrivateKey.generate()
        digest = keccak256(b"fresh")
        assert key.public_key.verify(digest, key.sign(digest))

    def test_repr_redacts_secret(self):
        assert "redacted" in repr(PrivateKey(12345))
        assert "12345" not in repr(PrivateKey(12345))
