"""Crypto fast-path equivalence harness: comb/wNAF and T-table AES vs the
reference implementations.

secp256k1 computes ``k*G`` with a fixed-base comb and ``k*Q`` with
width-5 wNAF, and AES runs its rounds through 32-bit T-tables.  The plain
double-and-add (``secp256k1._j_multiply_reference``) and the byte-wise
FIPS 197 rounds (``aes.ReferenceAES``) stay in the source as executable
specs, the way ``ReferenceClock`` backs the event wheel
(``tests/test_clock_equivalence.py``).  This harness demands

* the same point from both multiplications for every scalar, including
  the edges 0, 1..64, N-64..N+1 and 2^256-1;
* byte-identical signatures (RFC 6979 nonces are deterministic), the same
  recovered key or the same rejection for recovery ids 0-3, the same
  verdict from ``verify`` and the same ECDH secret as the pre-comb
  formulas built on the reference multiplication;
* the same AES-128/192/256 blocks both ways, and the same CTR stream
  however it is split;
* signatures, an ECIES envelope (pinned key and IV) and RLPx frames
  (pinned secrets) byte-identical to sha256 pins taken before the fast
  paths existed;
* hostile input still ending in a ``ReproError``.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import aes
from repro.crypto import secp256k1 as ec
from repro.crypto.aes import AES, AESCTR, ReferenceAES
from repro.crypto.ecies import ecies_decrypt, ecies_encrypt
from repro.crypto.keccak import Keccak256, keccak256
from repro.crypto.keys import PrivateKey, PublicKey, Signature
from repro.errors import InvalidSignature, ReproError
from repro.rlpx.frame import FrameCodec, Secrets

N, P = ec.N, ec.P
G = (ec.GX, ec.GY, 1)

EDGE_SCALARS = (
    [0]
    + list(range(1, 65))
    + list(range(N - 64, N + 2))
    + [2**256 - 1]
)
scalars = st.one_of(st.sampled_from(EDGE_SCALARS), st.integers(0, 2**256 - 1))
secrets_ = st.one_of(
    st.sampled_from([1, 2, 3, N - 2, N - 1]), st.integers(1, N - 1)
)
digests = st.binary(min_size=32, max_size=32)


# --- the pre-comb formulas, on the reference multiplication -----------------

def reference_multiply(point: ec.AffinePoint, scalar: int) -> ec.AffinePoint:
    return ec._from_jacobian(ec._j_multiply_reference(ec._to_jacobian(point), scalar))


def reference_sign(digest: bytes, secret: int) -> ec.RawSignature:
    """``sign_digest`` with ``k*G`` by double-and-add.  The retry branches
    for ``r == 0`` or ``s == 0`` (probability ~2^-256) are left out."""
    z = int.from_bytes(digest, "big")
    k = ec._rfc6979_nonce(digest, secret)
    point = reference_multiply(ec.GENERATOR, k)
    r = point.x % N
    s = pow(k, N - 2, N) * (z + r * secret) % N
    assert r and s
    v = (point.y & 1) | (2 if point.x >= N else 0)
    if s > N // 2:
        s, v = N - s, v ^ 1
    return ec.RawSignature(r, s, v)


def reference_recover(digest: bytes, signature: ec.RawSignature) -> ec.AffinePoint:
    """Q = r^-1 (s*R - z*G) in three double-and-add passes."""
    r, s, v = signature
    if not (1 <= r < N and 1 <= s < N):
        raise InvalidSignature("r or s out of range")
    x = r + N if v & 2 else r
    if x >= P:
        raise InvalidSignature("invalid x coordinate for recovery")
    y_squared = (pow(x, 3, P) + 7) % P
    y = pow(y_squared, (P + 1) // 4, P)
    if y * y % P != y_squared:
        raise InvalidSignature("no square root")
    if y & 1 != v & 1:
        y = P - y
    z = int.from_bytes(digest, "big")
    zg_x, zg_y, zg_z = ec._j_multiply_reference(G, z)
    s_r = ec._j_multiply_reference((x, y, 1), s)
    q = ec._from_jacobian(
        ec._j_multiply_reference(ec._j_add(s_r, (zg_x, (-zg_y) % P, zg_z)), pow(r, N - 2, N))
    )
    if q.is_infinity:
        raise InvalidSignature("recovered point at infinity")
    return q


def reference_verify(digest: bytes, signature: ec.RawSignature, public: ec.AffinePoint) -> bool:
    r, s = signature.r, signature.s
    if not (1 <= r < N and 1 <= s < N):
        return False
    z = int.from_bytes(digest, "big")
    w = pow(s, N - 2, N)
    point = ec._from_jacobian(
        ec._j_add(
            ec._j_multiply_reference(G, z * w),
            ec._j_multiply_reference(ec._to_jacobian(public), r * w),
        )
    )
    return not point.is_infinity and point.x % N == r


def outcome(function, *args):
    """A call's result, or the ReproError class it raised."""
    try:
        return function(*args)
    except ReproError as exc:
        return type(exc)


# --- scalar multiplication --------------------------------------------------

class TestScalarMultiplication:
    @pytest.mark.parametrize("scalar", EDGE_SCALARS)
    def test_comb_and_wnaf_match_double_and_add_on_edge_scalars(self, scalar):
        assert ec.generator_multiply(scalar) == reference_multiply(ec.GENERATOR, scalar)
        point = ec.generator_multiply(0xA11CE)
        assert ec.point_multiply(point, scalar) == reference_multiply(point, scalar)

    @settings(max_examples=60, deadline=None)
    @given(scalars)
    def test_comb_matches_double_and_add(self, scalar):
        assert ec.generator_multiply(scalar) == reference_multiply(ec.GENERATOR, scalar)

    @settings(max_examples=60, deadline=None)
    @given(secrets_, scalars)
    def test_wnaf_matches_double_and_add(self, base, scalar):
        point = reference_multiply(ec.GENERATOR, base)
        assert ec.point_multiply(point, scalar) == reference_multiply(point, scalar)

    @settings(max_examples=200)
    @given(st.integers(0, 2**256 - 1))
    def test_wnaf_digits_recompose_the_scalar(self, scalar):
        digits = ec._wnaf(scalar)
        assert sum(d << i for i, d in enumerate(digits)) == scalar
        for i, digit in enumerate(digits):
            if digit:
                assert digit % 2 == 1 and -15 <= digit <= 15
                assert not any(digits[i + 1 : i + 5])

    def test_comb_table_rows_are_window_multiples_of_g(self):
        table = ec._comb_table()
        assert len(table) == 64 and all(len(row) == 15 for row in table)
        for window in (0, 1, 31, 63):
            for digit in (1, 2, 15):
                expected = reference_multiply(ec.GENERATOR, digit << (4 * window))
                assert table[window][digit - 1] == (expected.x, expected.y)

    def test_infinity_input_and_output(self):
        assert ec.point_multiply(ec.INFINITY, 5).is_infinity
        assert ec.point_multiply(ec.GENERATOR, N).is_infinity
        assert ec.generator_multiply(2 * N).is_infinity

    def test_references_are_unreachable_at_run_time(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("reference implementation called at run time")

        monkeypatch.setattr(ec, "_j_multiply_reference", forbidden)
        monkeypatch.setattr(aes, "ReferenceAES", forbidden)
        key, other = PrivateKey(0x5EED), PrivateKey(0xFEED)
        digest = keccak256(b"run time")
        signature = key.sign(digest)
        assert signature.recover(digest) == key.public_key
        assert key.public_key.verify(digest, signature)
        assert key.ecdh(other.public_key) == other.ecdh(key.public_key)
        assert ecies_decrypt(ecies_encrypt(b"m", key.public_key), key) == b"m"


# --- ECDSA and ECDH ----------------------------------------------------------

class TestSignatures:
    @settings(max_examples=30, deadline=None)
    @given(secrets_, digests)
    def test_sign_is_byte_identical(self, secret, digest):
        signature = ec.sign_digest(digest, secret)
        assert signature.to_bytes() == reference_sign(digest, secret).to_bytes()

    @settings(max_examples=30, deadline=None)
    @given(secrets_, digests)
    def test_verify_agrees_on_real_and_tampered_signatures(self, secret, digest):
        public = reference_multiply(ec.GENERATOR, secret)
        signature = ec.sign_digest(digest, secret)
        assert ec.verify_digest(digest, signature, public)
        assert reference_verify(digest, signature, public)
        tampered = signature._replace(s=signature.s ^ 1)
        assert ec.verify_digest(digest, tampered, public) == reference_verify(
            digest, tampered, public
        )

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, N - 1), st.integers(1, N - 1), digests, secrets_)
    def test_verify_agrees_on_arbitrary_r_s(self, r, s, digest, secret):
        public = reference_multiply(ec.GENERATOR, secret)
        signature = ec.RawSignature(r, s, 0)
        assert ec.verify_digest(digest, signature, public) == reference_verify(
            digest, signature, public
        )

    @pytest.mark.parametrize("v", [0, 1])
    def test_real_signatures_recover_for_both_parities(self, v):
        key = PrivateKey(0xC0FFEE)
        for index in range(64):
            digest = keccak256(bytes([index]))
            signature = ec.sign_digest(digest, key.secret)
            if signature.v == v:
                break
        assert signature.v == v
        assert ec.recover_digest(digest, signature) == key.public_key.point
        assert reference_recover(digest, signature) == key.public_key.point

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.integers(0, 3), digests)
    def test_recover_agrees_for_every_recovery_id(self, data, v, digest):
        # ids 2 and 3 mean R.x = r + N, which exists only for r < P - N
        r = data.draw(st.integers(1, N - 1 if v < 2 else P - N - 1), label="r")
        s = data.draw(st.integers(1, N - 1), label="s")
        signature = ec.RawSignature(r, s, v)
        assert outcome(ec.recover_digest, digest, signature) == outcome(
            reference_recover, digest, signature
        )

    @settings(max_examples=30, deadline=None)
    @given(secrets_, secrets_)
    def test_ecdh_matches_reference(self, secret, peer):
        public = reference_multiply(ec.GENERATOR, peer)
        expected = reference_multiply(public, secret).x.to_bytes(32, "big")
        assert ec.ecdh(secret, public) == expected


# --- AES ---------------------------------------------------------------------

class TestAES:
    @settings(max_examples=60)
    @given(
        st.sampled_from([16, 24, 32]).flatmap(lambda n: st.binary(min_size=n, max_size=n)),
        st.binary(min_size=16, max_size=16),
    )
    def test_t_table_blocks_match_byte_wise_rounds(self, key, block):
        fast, reference = AES(key), ReferenceAES(key)
        assert fast.encrypt_block(block) == reference.encrypt_block(block)
        assert fast.decrypt_block(block) == reference.decrypt_block(block)

    @settings(max_examples=40)
    @given(
        st.sampled_from([16, 32]).flatmap(lambda n: st.binary(min_size=n, max_size=n)),
        st.binary(min_size=16, max_size=16),
        st.lists(st.integers(0, 70), max_size=8),
    )
    def test_ctr_stream_matches_reference_however_split(self, key, counter, sizes):
        data = bytes(range(256)) * 3
        data = data[: sum(sizes)]
        reference = ReferenceAES(key)
        start = int.from_bytes(counter, "big")
        keystream = b"".join(
            reference.encrypt_block(((start + i) % (1 << 128)).to_bytes(16, "big"))
            for i in range(len(data) // 16 + 1)
        )
        expected = bytes(a ^ b for a, b in zip(data, keystream))
        stream = AESCTR(key, counter)
        pieces, offset = [], 0
        for size in sizes:
            pieces.append(stream.process(data[offset : offset + size]))
            offset += size
        assert b"".join(pieces) == expected

    def test_ctr_calls_encrypt_block_once_per_keystream_block(self, monkeypatch):
        calls = []
        original = AES.encrypt_block

        def counted(self, block):
            calls.append(block)
            return original(self, block)

        monkeypatch.setattr(AES, "encrypt_block", counted)
        stream = AESCTR(b"\x01" * 16, b"\x00" * 16)
        for size in (3, 13, 1, 31, 0, 16):
            stream.process(b"\x00" * size)
        assert len(calls) == 4  # 64 bytes of keystream


# --- byte-identical outputs --------------------------------------------------
#
# sha256 of outputs taken from the double-and-add / byte-wise-AES code.

PINNED_SIGNATURES = "50e5a5ae4f3d62754af294928f4129bfdb0e353187dcd64d6b3f18c2d49fa74c"
PINNED_ECIES = "c2e737c62ce3da5cf70dfa49933d37a6566674a645ecc8bf41d2b20270a5764e"
PINNED_FRAMES = "0883f0d5de33dd2a657b77b3c37d1f5c3b742b1b02b0c35ec114fc86c0d045c8"
FRAMES = [(0, 0), (1, 5), (16, 31), (17, 200), (3, 700)]


def pinned_secrets(egress: bytes, ingress: bytes) -> Secrets:
    return Secrets(
        bytes(range(32)), bytes(range(32, 64)), Keccak256(egress), Keccak256(ingress)
    )


def payload(size: int) -> bytes:
    return bytes(range(size % 256)) * (1 + size // 256)


class TestPinnedBytes:
    def test_signatures(self):
        key = PrivateKey(0xC0FFEE)
        joined = b"".join(key.sign(keccak256(bytes([i]))).to_bytes() for i in range(8))
        assert hashlib.sha256(joined).hexdigest() == PINNED_SIGNATURES

    def test_ecies_envelope_with_pinned_key_and_iv(self):
        recipient = PrivateKey(0xBEEF)
        envelope = ecies_encrypt(
            b"pinned plaintext " * 7,
            recipient.public_key,
            b"\x01\x94",
            ephemeral_key=PrivateKey(0xE1),
            iv=bytes(range(16)),
        )
        assert len(envelope) == 232
        assert hashlib.sha256(envelope).hexdigest() == PINNED_ECIES
        assert ecies_decrypt(envelope, recipient, b"\x01\x94") == b"pinned plaintext " * 7

    def test_frames_with_pinned_secrets(self):
        sender = FrameCodec(pinned_secrets(b"egress", b"ingress"))
        frames = [sender.encode_frame(code, payload(size)) for code, size in FRAMES]
        assert hashlib.sha256(b"".join(frames)).hexdigest() == PINNED_FRAMES
        receiver = FrameCodec(pinned_secrets(b"ingress", b"egress"))
        for frame, (code, size) in zip(frames, FRAMES):
            assert receiver.decode_frame(frame) == (code, payload(size))

    def test_a_frame_takes_four_mac_digests(self, monkeypatch):
        """Header seed and header MAC, body seed and body MAC: the body seed
        is also the block the MAC cipher encrypts, so it is taken once."""
        calls = []
        original = Keccak256.digest

        def counted(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(Keccak256, "digest", counted)
        sender = FrameCodec(pinned_secrets(b"egress", b"ingress"))
        receiver = FrameCodec(pinned_secrets(b"ingress", b"egress"))
        frame = sender.encode_frame(16, payload(40))
        assert len(calls) == 4
        receiver.decode_frame(frame)
        assert len(calls) == 8


# --- hostile input -----------------------------------------------------------

def _x_without_square_root() -> int:
    x = 1
    while pow((x**3 + 7) % P, (P - 1) // 2, P) == 1:
        x += 1
    return x


class TestHostileInput:
    @pytest.mark.parametrize("r, s", [(0, 1), (1, 0), (N, 1), (1, N), (N + 5, 2**256 - 1)])
    def test_r_or_s_out_of_range(self, r, s):
        signature = ec.RawSignature(r, s, 0)
        with pytest.raises(ReproError):
            ec.recover_digest(b"\x01" * 32, signature)
        assert not ec.verify_digest(b"\x01" * 32, signature, ec.GENERATOR)

    @pytest.mark.parametrize("v", [2, 3])
    def test_x_at_or_past_p(self, v):
        with pytest.raises(ReproError):
            ec.recover_digest(b"\x01" * 32, ec.RawSignature(P - N, 1, v))

    def test_x_without_a_square_root(self):
        r = _x_without_square_root()
        assert r < N
        for v in (0, 1):
            with pytest.raises(ReproError):
                ec.recover_digest(b"\x01" * 32, ec.RawSignature(r, 5, v))

    def test_recovery_landing_on_infinity(self):
        # with R = k*G and z = s*k, s*R - z*G is the point at infinity
        k, s = 3, 7
        point = ec.generator_multiply(k)
        assert point.x < N
        digest = (s * k % N).to_bytes(32, "big")
        signature = ec.RawSignature(point.x, s, point.y & 1)
        with pytest.raises(ReproError):
            ec.recover_digest(digest, signature)
        with pytest.raises(ReproError):
            reference_recover(digest, signature)

    @pytest.mark.parametrize("v", [4, 26, 31, 255])
    def test_recovery_id_out_of_range(self, v):
        with pytest.raises(ReproError):
            Signature.from_bytes(b"\x01" * 64 + bytes([v]))

    def test_ecdh_with_bad_points(self):
        off_curve = ec.AffinePoint(1, 1)
        with pytest.raises(ReproError):
            ec.ecdh(5, off_curve)
        with pytest.raises(ReproError):
            ec.ecdh(5, ec.INFINITY)
        with pytest.raises(ReproError):
            PublicKey.from_bytes(b"\x04" + b"\x01" * 64)

    def test_ecies_with_off_curve_ephemeral_key(self):
        key = PrivateKey(0x777)
        envelope = bytearray(ecies_encrypt(b"payload", key.public_key))
        envelope[5] ^= 0x01
        with pytest.raises(ReproError):
            ecies_decrypt(bytes(envelope), key)
