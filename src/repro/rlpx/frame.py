"""RLPx frame encryption and MAC.

After the handshake, every message is carried in a frame:

``header_ciphertext(16) || header_mac(16) || body_ciphertext(16n) || body_mac(16)``

* the header holds a 3-byte big-endian frame size plus padded RLP header
  data; it is encrypted with AES-256-CTR keyed by ``aes_secret`` (zero IV,
  stream shared across all frames in one direction);
* the body is the RLP-encoded message code followed by the RLP payload,
  zero-padded to 16 bytes, on the same CTR stream;
* MACs come from a *running* Keccak-256 state per direction: for each chunk,
  the current digest is AES-ECB-encrypted with ``mac_secret``, XORed with a
  seed (the header ciphertext, or the digest after absorbing the body
  ciphertext), absorbed back into the state, and the first 16 digest bytes
  emitted.  This chains every frame to the whole connection history.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.aes import AES, AESCTR
from repro.crypto.keccak import Keccak256
from repro.errors import FramingError
from repro.rlp import codec

HEADER_LEN = 16
MAC_LEN = 16

#: Padded RLP header data [capability-id, context-id] — always zero in
#: practice (Geth sends the constant below).
HEADER_DATA = bytes([0xC2, 0x80, 0x80])

_ZERO_IV = b"\x00" * 16

#: Upper bound on frame body size (Geth rejects > 16MB frames).
MAX_FRAME_SIZE = (1 << 24) - 1


@dataclass
class Secrets:
    """Connection secrets produced by the handshake."""

    aes_secret: bytes
    mac_secret: bytes
    egress_mac: Keccak256
    ingress_mac: Keccak256


class FrameCodec:
    """Stateful encoder/decoder for one RLPx connection side."""

    def __init__(self, secrets: Secrets) -> None:
        self._egress_mac = secrets.egress_mac
        self._ingress_mac = secrets.ingress_mac
        self._mac_cipher = AES(secrets.mac_secret)
        self._encryptor = AESCTR(secrets.aes_secret, _ZERO_IV)
        self._decryptor = AESCTR(secrets.aes_secret, _ZERO_IV)

    # -- MAC plumbing -------------------------------------------------------

    def _update_mac(self, mac: Keccak256, seed: bytes, digest: bytes) -> bytes:
        """Geth's updateMAC: absorb AES(mac_digest[:16]) XOR seed, emit 16 bytes.

        ``digest`` is ``mac.digest()[:16]``, which every caller has at hand.
        """
        encrypted = int.from_bytes(self._mac_cipher.encrypt_block(digest), "big")
        mac.update((encrypted ^ int.from_bytes(seed[:16], "big")).to_bytes(16, "big"))
        return mac.digest()[:16]

    def _header_mac(self, mac: Keccak256, header_ciphertext: bytes) -> bytes:
        return self._update_mac(mac, header_ciphertext, mac.digest()[:16])

    def _body_mac(self, mac: Keccak256, body_ciphertext: bytes) -> bytes:
        """Absorb the body ciphertext; its digest is both the seed and the
        block ``_update_mac`` encrypts."""
        mac.update(body_ciphertext)
        seed = mac.digest()[:16]
        return self._update_mac(mac, seed, seed)

    # -- writing -------------------------------------------------------------

    def encode_frame(self, code: int, payload: bytes) -> bytes:
        """Frame a message: RLP-encoded code followed by the raw payload."""
        body = codec.encode(code) + payload
        if len(body) > MAX_FRAME_SIZE:
            raise FramingError(f"frame body too large: {len(body)}")
        header = len(body).to_bytes(3, "big") + HEADER_DATA
        header += b"\x00" * (HEADER_LEN - len(header))
        header_ciphertext = self._encryptor.process(header)
        header_mac = self._header_mac(self._egress_mac, header_ciphertext)
        padding = (-len(body)) % 16
        body_ciphertext = self._encryptor.process(body + b"\x00" * padding)
        body_mac = self._body_mac(self._egress_mac, body_ciphertext)
        return header_ciphertext + header_mac + body_ciphertext + body_mac

    # -- reading ---------------------------------------------------------------

    def decode_header(self, header_bytes: bytes) -> int:
        """Verify and decrypt a 32-byte header block; return the body size."""
        if len(header_bytes) != HEADER_LEN + MAC_LEN:
            raise FramingError("header block must be 32 bytes")
        header_ciphertext = header_bytes[:HEADER_LEN]
        header_mac = header_bytes[HEADER_LEN:]
        expected = self._header_mac(self._ingress_mac, header_ciphertext)
        if expected != header_mac:
            raise FramingError("header MAC mismatch")
        header = self._decryptor.process(header_ciphertext)
        return int.from_bytes(header[:3], "big")

    @staticmethod
    def padded_body_len(body_size: int) -> int:
        """Bytes on the wire for a body of ``body_size`` (padding + MAC)."""
        return body_size + ((-body_size) % 16) + MAC_LEN

    def decode_body(self, body_bytes: bytes, body_size: int) -> tuple[int, bytes]:
        """Verify and decrypt a body block; return (message code, payload)."""
        expected_len = self.padded_body_len(body_size)
        if len(body_bytes) != expected_len:
            raise FramingError(
                f"body block must be {expected_len} bytes, got {len(body_bytes)}"
            )
        body_ciphertext = body_bytes[:-MAC_LEN]
        body_mac = body_bytes[-MAC_LEN:]
        expected = self._body_mac(self._ingress_mac, body_ciphertext)
        if expected != body_mac:
            raise FramingError("body MAC mismatch")
        body = self._decryptor.process(body_ciphertext)[:body_size]
        if not body:
            raise FramingError("empty frame body")
        code_item, consumed = codec.decode_lazy(body)
        if not isinstance(code_item, bytes) or len(code_item) > 4:
            raise FramingError("frame does not start with a message code")
        code = int.from_bytes(code_item, "big")
        return code, body[consumed:]

    def decode_frame(self, frame: bytes) -> tuple[int, bytes]:
        """Decode a complete frame held in memory (tests / simulator)."""
        if len(frame) < HEADER_LEN + MAC_LEN:
            raise FramingError("frame shorter than header block")
        body_size = self.decode_header(frame[: HEADER_LEN + MAC_LEN])
        return self.decode_body(frame[HEADER_LEN + MAC_LEN :], body_size)
