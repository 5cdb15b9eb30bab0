"""AES block cipher (128/192/256) with CTR and single-block ECB modes.

The RLPx transport needs exactly two AES constructions:

* **AES-CTR** as the frame body/header cipher and the ECIES bulk cipher;
* **single-block AES-ECB** (AES-256) inside the frame MAC construction,
  which encrypts the running egress/ingress MAC digest.

:class:`AES` is the 32-bit T-table form of FIPS 197: a round is 16 table
lookups on four column words, against about 200 byte operations in the
byte-wise rounds that :class:`ReferenceAES` keeps as the test oracle.  It
is deliberately simple rather than constant-time: the threat model of a
measurement reproduction is correctness, not side channels, and tests
validate it against the FIPS 197 / NIST SP 800-38A vectors.
"""

from __future__ import annotations

import struct

from repro.errors import CryptoError

_SBOX = bytes.fromhex(
    "637c777bf26b6fc53001672bfed7ab76ca82c97dfa5947f0add4a2af9ca472c0"
    "b7fd9326363ff7cc34a5e5f171d8311504c723c31896059a071280e2eb27b275"
    "09832c1a1b6e5aa0523bd6b329e32f8453d100ed20fcb15b6acbbe394a4c58cf"
    "d0efaafb434d338545f9027f503c9fa851a3408f929d38f5bcb6da2110fff3d2"
    "cd0c13ec5f974417c4a77e3d645d197360814fdc222a908846eeb814de5e0bdb"
    "e0323a0a4906245cc2d3ac629195e479e7c8376d8dd54ea96c56f4ea657aae08"
    "ba78252e1ca6b4c6e8dd741f4bbd8b8a703eb5664803f60e613557b986c11d9e"
    "e1f8981169d98e949b1e87e9ce5528df8ca1890dbfe6426841992d0fb054bb16"
)

_inv = bytearray(256)
for _i, _v in enumerate(_SBOX):
    _inv[_v] = _i
_INV_SBOX = bytes(_inv)

_RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36, 0x6C, 0xD8, 0xAB, 0x4D)


def _xtime(value: int) -> int:
    value <<= 1
    if value & 0x100:
        value ^= 0x11B
    return value & 0xFF


# Precompute GF(2^8) multiplication tables for MixColumns coefficients.
_MUL = {}
for _coef in (1, 2, 3, 9, 11, 13, 14):
    table = bytearray(256)
    for _x in range(256):
        result, a, b = 0, _x, _coef
        while b:
            if b & 1:
                result ^= a
            a = _xtime(a)
            b >>= 1
        table[_x] = result
    _MUL[_coef] = bytes(table)


def _rotations(column: list[int]) -> tuple[tuple[int, ...], ...]:
    """The four byte rotations of a table of 32-bit words."""
    return tuple(
        tuple(((w >> 8 * n) | (w << 32 - 8 * n)) & 0xFFFFFFFF for w in column)
        for n in range(4)
    )


# 32-bit T-tables: one round's SubBytes, ShiftRows and MixColumns for one
# state byte, as the column word it contributes (FIPS 197 section 5.2.1's
# "table lookup" form).  _TE[0][x] is the column (2s, s, s, 3s) for
# s = S(x); _TE[n] is that word rotated right by n bytes.  _TD is the same
# for the inverse cipher: (14s', 9s', 13s', 11s') for s' = S^-1(x).
_TE = _rotations(
    [
        _MUL[2][s] << 24 | s << 16 | s << 8 | _MUL[3][s]
        for s in _SBOX
    ]
)
_TD = _rotations(
    [
        _MUL[14][s] << 24 | _MUL[9][s] << 16 | _MUL[13][s] << 8 | _MUL[11][s]
        for s in _INV_SBOX
    ]
)


def _sub_word(word: int) -> int:
    return (
        _SBOX[word >> 24] << 24
        | _SBOX[word >> 16 & 0xFF] << 16
        | _SBOX[word >> 8 & 0xFF] << 8
        | _SBOX[word & 0xFF]
    )


class AES:
    """The AES block cipher for a fixed key; 16-byte blocks.

    Rounds run on four 32-bit column words through the T-tables, 16 table
    lookups per round.  :class:`ReferenceAES` keeps the byte-wise FIPS 197
    rounds as the oracle that tests hold this class to.
    """

    def __init__(self, key: bytes) -> None:
        if len(key) not in (16, 24, 32):
            raise CryptoError(f"AES key must be 16/24/32 bytes, got {len(key)}")
        self.key = bytes(key)
        self.rounds = {16: 10, 24: 12, 32: 14}[len(key)]
        self._round_keys = self._expand_key(self.key)
        self._inverse_keys: tuple[int, ...] | None = None

    def _expand_key(self, key: bytes) -> tuple[int, ...]:
        nk = len(key) // 4
        words = list(struct.unpack(f">{nk}I", key))
        for i in range(nk, 4 * (self.rounds + 1)):
            temp = words[i - 1]
            if i % nk == 0:
                temp = _sub_word((temp << 8 | temp >> 24) & 0xFFFFFFFF)
                temp ^= _RCON[i // nk - 1] << 24
            elif nk > 6 and i % nk == 4:
                temp = _sub_word(temp)
            words.append(words[i - nk] ^ temp)
        return tuple(words)

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != 16:
            raise CryptoError(f"AES block must be 16 bytes, got {len(block)}")
        t0, t1, t2, t3 = _TE
        keys = self._round_keys
        s0, s1, s2, s3 = struct.unpack(">4I", block)
        s0 ^= keys[0]
        s1 ^= keys[1]
        s2 ^= keys[2]
        s3 ^= keys[3]
        for k in range(4, 4 * self.rounds, 4):
            s0, s1, s2, s3 = (
                t0[s0 >> 24] ^ t1[s1 >> 16 & 0xFF] ^ t2[s2 >> 8 & 0xFF] ^ t3[s3 & 0xFF]
                ^ keys[k],
                t0[s1 >> 24] ^ t1[s2 >> 16 & 0xFF] ^ t2[s3 >> 8 & 0xFF] ^ t3[s0 & 0xFF]
                ^ keys[k + 1],
                t0[s2 >> 24] ^ t1[s3 >> 16 & 0xFF] ^ t2[s0 >> 8 & 0xFF] ^ t3[s1 & 0xFF]
                ^ keys[k + 2],
                t0[s3 >> 24] ^ t1[s0 >> 16 & 0xFF] ^ t2[s1 >> 8 & 0xFF] ^ t3[s2 & 0xFF]
                ^ keys[k + 3],
            )
        k = 4 * self.rounds
        box = _SBOX
        return struct.pack(
            ">4I",
            (box[s0 >> 24] << 24 | box[s1 >> 16 & 0xFF] << 16
             | box[s2 >> 8 & 0xFF] << 8 | box[s3 & 0xFF]) ^ keys[k],
            (box[s1 >> 24] << 24 | box[s2 >> 16 & 0xFF] << 16
             | box[s3 >> 8 & 0xFF] << 8 | box[s0 & 0xFF]) ^ keys[k + 1],
            (box[s2 >> 24] << 24 | box[s3 >> 16 & 0xFF] << 16
             | box[s0 >> 8 & 0xFF] << 8 | box[s1 & 0xFF]) ^ keys[k + 2],
            (box[s3 >> 24] << 24 | box[s0 >> 16 & 0xFF] << 16
             | box[s1 >> 8 & 0xFF] << 8 | box[s2 & 0xFF]) ^ keys[k + 3],
        )

    def _decryption_keys(self) -> tuple[int, ...]:
        """Round keys of the equivalent inverse cipher (FIPS 197 section
        5.3.5): encryption keys in reverse round order, with InvMixColumns
        applied to every round but the first and the last."""
        if self._inverse_keys is None:
            t0, t1, t2, t3 = _TD
            keys = self._round_keys
            last = 4 * self.rounds
            inverse = list(keys[last : last + 4])
            for k in range(last - 4, 0, -4):
                # _TD includes S^-1, so feeding it S(b) leaves InvMixColumns
                inverse.extend(
                    t0[_SBOX[w >> 24]] ^ t1[_SBOX[w >> 16 & 0xFF]]
                    ^ t2[_SBOX[w >> 8 & 0xFF]] ^ t3[_SBOX[w & 0xFF]]
                    for w in keys[k : k + 4]
                )
            inverse.extend(keys[:4])
            self._inverse_keys = tuple(inverse)
        return self._inverse_keys

    def decrypt_block(self, block: bytes) -> bytes:
        if len(block) != 16:
            raise CryptoError(f"AES block must be 16 bytes, got {len(block)}")
        t0, t1, t2, t3 = _TD
        keys = self._decryption_keys()
        s0, s1, s2, s3 = struct.unpack(">4I", block)
        s0 ^= keys[0]
        s1 ^= keys[1]
        s2 ^= keys[2]
        s3 ^= keys[3]
        for k in range(4, 4 * self.rounds, 4):
            s0, s1, s2, s3 = (
                t0[s0 >> 24] ^ t1[s3 >> 16 & 0xFF] ^ t2[s2 >> 8 & 0xFF] ^ t3[s1 & 0xFF]
                ^ keys[k],
                t0[s1 >> 24] ^ t1[s0 >> 16 & 0xFF] ^ t2[s3 >> 8 & 0xFF] ^ t3[s2 & 0xFF]
                ^ keys[k + 1],
                t0[s2 >> 24] ^ t1[s1 >> 16 & 0xFF] ^ t2[s0 >> 8 & 0xFF] ^ t3[s3 & 0xFF]
                ^ keys[k + 2],
                t0[s3 >> 24] ^ t1[s2 >> 16 & 0xFF] ^ t2[s1 >> 8 & 0xFF] ^ t3[s0 & 0xFF]
                ^ keys[k + 3],
            )
        k = 4 * self.rounds
        box = _INV_SBOX
        return struct.pack(
            ">4I",
            (box[s0 >> 24] << 24 | box[s3 >> 16 & 0xFF] << 16
             | box[s2 >> 8 & 0xFF] << 8 | box[s1 & 0xFF]) ^ keys[k],
            (box[s1 >> 24] << 24 | box[s0 >> 16 & 0xFF] << 16
             | box[s3 >> 8 & 0xFF] << 8 | box[s2 & 0xFF]) ^ keys[k + 1],
            (box[s2 >> 24] << 24 | box[s1 >> 16 & 0xFF] << 16
             | box[s0 >> 8 & 0xFF] << 8 | box[s3 & 0xFF]) ^ keys[k + 2],
            (box[s3 >> 24] << 24 | box[s2 >> 16 & 0xFF] << 16
             | box[s1 >> 8 & 0xFF] << 8 | box[s0 & 0xFF]) ^ keys[k + 3],
        )


class ReferenceAES:
    """The byte-wise FIPS 197 rounds (executable spec).

    Nothing uses this at run time: it is the oracle that the equivalence
    tests hold :class:`AES` to, the way ``ReferenceClock`` backs the
    event wheel.
    """

    def __init__(self, key: bytes) -> None:
        if len(key) not in (16, 24, 32):
            raise CryptoError(f"AES key must be 16/24/32 bytes, got {len(key)}")
        self.key = bytes(key)
        self.rounds = {16: 10, 24: 12, 32: 14}[len(key)]
        self._round_keys = self._expand_key(self.key)

    def _expand_key(self, key: bytes) -> list[bytes]:
        nk = len(key) // 4
        words = [key[4 * i : 4 * i + 4] for i in range(nk)]
        total_words = 4 * (self.rounds + 1)
        for i in range(nk, total_words):
            temp = words[i - 1]
            if i % nk == 0:
                temp = temp[1:] + temp[:1]
                temp = bytes(_SBOX[b] for b in temp)
                temp = bytes([temp[0] ^ _RCON[i // nk - 1]]) + temp[1:]
            elif nk > 6 and i % nk == 4:
                temp = bytes(_SBOX[b] for b in temp)
            words.append(bytes(a ^ b for a, b in zip(words[i - nk], temp)))
        return [b"".join(words[4 * r : 4 * r + 4]) for r in range(self.rounds + 1)]

    @staticmethod
    def _add_round_key(state: bytearray, round_key: bytes) -> None:
        for i in range(16):
            state[i] ^= round_key[i]

    @staticmethod
    def _sub_bytes(state: bytearray, box: bytes) -> None:
        for i in range(16):
            state[i] = box[state[i]]

    @staticmethod
    def _shift_rows(state: bytearray) -> None:
        # state is column-major: byte (row, col) at index 4*col + row.
        for row in range(1, 4):
            column = [state[4 * col + row] for col in range(4)]
            column = column[row:] + column[:row]
            for col in range(4):
                state[4 * col + row] = column[col]

    @staticmethod
    def _inv_shift_rows(state: bytearray) -> None:
        for row in range(1, 4):
            column = [state[4 * col + row] for col in range(4)]
            column = column[-row:] + column[:-row]
            for col in range(4):
                state[4 * col + row] = column[col]

    @staticmethod
    def _mix_columns(state: bytearray) -> None:
        m2, m3 = _MUL[2], _MUL[3]
        for col in range(4):
            i = 4 * col
            a0, a1, a2, a3 = state[i : i + 4]
            state[i] = m2[a0] ^ m3[a1] ^ a2 ^ a3
            state[i + 1] = a0 ^ m2[a1] ^ m3[a2] ^ a3
            state[i + 2] = a0 ^ a1 ^ m2[a2] ^ m3[a3]
            state[i + 3] = m3[a0] ^ a1 ^ a2 ^ m2[a3]

    @staticmethod
    def _inv_mix_columns(state: bytearray) -> None:
        m9, m11, m13, m14 = _MUL[9], _MUL[11], _MUL[13], _MUL[14]
        for col in range(4):
            i = 4 * col
            a0, a1, a2, a3 = state[i : i + 4]
            state[i] = m14[a0] ^ m11[a1] ^ m13[a2] ^ m9[a3]
            state[i + 1] = m9[a0] ^ m14[a1] ^ m11[a2] ^ m13[a3]
            state[i + 2] = m13[a0] ^ m9[a1] ^ m14[a2] ^ m11[a3]
            state[i + 3] = m11[a0] ^ m13[a1] ^ m9[a2] ^ m14[a3]

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != 16:
            raise CryptoError(f"AES block must be 16 bytes, got {len(block)}")
        state = bytearray(block)
        self._add_round_key(state, self._round_keys[0])
        for rnd in range(1, self.rounds):
            self._sub_bytes(state, _SBOX)
            self._shift_rows(state)
            self._mix_columns(state)
            self._add_round_key(state, self._round_keys[rnd])
        self._sub_bytes(state, _SBOX)
        self._shift_rows(state)
        self._add_round_key(state, self._round_keys[self.rounds])
        return bytes(state)

    def decrypt_block(self, block: bytes) -> bytes:
        if len(block) != 16:
            raise CryptoError(f"AES block must be 16 bytes, got {len(block)}")
        state = bytearray(block)
        self._add_round_key(state, self._round_keys[self.rounds])
        for rnd in range(self.rounds - 1, 0, -1):
            self._inv_shift_rows(state)
            self._sub_bytes(state, _INV_SBOX)
            self._add_round_key(state, self._round_keys[rnd])
            self._inv_mix_columns(state)
        self._inv_shift_rows(state)
        self._sub_bytes(state, _INV_SBOX)
        self._add_round_key(state, self._round_keys[0])
        return bytes(state)


class AESCTR:
    """AES in counter mode with a streaming interface.

    Encryption and decryption are the same operation; the object keeps its
    keystream position so successive calls continue the stream, matching how
    the RLPx frame ciphers are used.
    """

    def __init__(self, key: bytes, initial_counter: bytes) -> None:
        if len(initial_counter) != 16:
            raise CryptoError("CTR counter block must be 16 bytes")
        self._aes = AES(key)
        self._counter = int.from_bytes(initial_counter, "big")
        self._keystream = b""

    def process(self, data: bytes) -> bytes:
        """Encrypt or decrypt ``data``, advancing the keystream."""
        size = len(data)
        if len(self._keystream) < size:
            blocks = [self._keystream]
            missing = size - len(self._keystream)
            for _ in range((missing + 15) // 16):
                blocks.append(self._aes.encrypt_block(self._counter.to_bytes(16, "big")))
                self._counter = (self._counter + 1) % (1 << 128)
            self._keystream = b"".join(blocks)
        # XOR the whole message at once as one big integer
        stream = int.from_bytes(self._keystream[:size], "big")
        self._keystream = self._keystream[size:]
        return (int.from_bytes(data, "big") ^ stream).to_bytes(size, "big")


def aes_ctr(key: bytes, counter: bytes, data: bytes) -> bytes:
    """One-shot AES-CTR (used by ECIES, where the IV is the counter)."""
    return AESCTR(key, counter).process(data)
