"""secp256k1 elliptic-curve arithmetic, ECDSA, and ECDH.

RLPx node IDs are uncompressed secp256k1 public keys (64 bytes), discv4
packets carry recoverable ECDSA signatures, and the ECIES handshake derives
shared secrets via ECDH — all implemented here over plain Python integers.

Curve: ``y^2 = x^3 + 7`` over GF(p), p = 2^256 - 2^32 - 977.
Point arithmetic uses Jacobian projective coordinates; signing uses the
deterministic nonce construction of RFC 6979 (HMAC-SHA256), as Geth does.

Scalar multiplication takes one of two paths, both held to the plain
double-and-add :func:`_j_multiply_reference` by the equivalence tests:

* ``k*G`` (key generation, signing, the ``z*G`` term of recovery and
  verification) by a fixed-base comb over a table built on first use;
* ``k*Q`` for any other point (ECDH, the ``R`` and public-key terms of
  recovery and verification) by width-5 wNAF.
"""

from __future__ import annotations

import functools
import hashlib
import hmac
from typing import NamedTuple

from repro.errors import InvalidPublicKey, InvalidPrivateKey, InvalidSignature

# Curve parameters (SEC 2).
P = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F
N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
A = 0
B = 7
GX = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
GY = 0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8

_HALF_N = N // 2


class AffinePoint(NamedTuple):
    """An affine curve point; ``None`` coordinates encode the point at infinity."""

    x: int | None
    y: int | None

    @property
    def is_infinity(self) -> bool:
        return self.x is None


INFINITY = AffinePoint(None, None)
GENERATOR = AffinePoint(GX, GY)


def is_on_curve(point: AffinePoint) -> bool:
    """Check the curve equation for an affine point."""
    if point.is_infinity:
        return True
    x, y = point.x, point.y
    return (y * y - x * x * x - B) % P == 0


# --- Jacobian arithmetic -------------------------------------------------
#
# A Jacobian point (X, Y, Z) represents affine (X/Z^2, Y/Z^3); it avoids a
# modular inverse per addition, which dominates pure-Python cost.

_Jacobian = tuple[int, int, int]
_Affine = tuple[int, int]

_J_INFINITY: _Jacobian = (0, 1, 0)


def _to_jacobian(point: AffinePoint) -> _Jacobian:
    if point.is_infinity:
        return _J_INFINITY
    return (point.x, point.y, 1)


def _from_jacobian(point: _Jacobian) -> AffinePoint:
    x, y, z = point
    if z == 0:
        return INFINITY
    z_inv = pow(z, -1, P)
    z_inv2 = z_inv * z_inv % P
    return AffinePoint(x * z_inv2 % P, y * z_inv2 * z_inv % P)


def _to_affine_batch(points: list[_Jacobian]) -> list[_Affine]:
    """Normalise finite Jacobian points with one shared inversion.

    Montgomery's trick: invert the product of every Z, then peel each
    inverse off it with two multiplications.
    """
    prefix = []
    product = 1
    for _, _, z in points:
        prefix.append(product)
        product = product * z % P
    inverse = pow(product, -1, P)
    affine: list[_Affine] = []
    for (x, y, z), before in zip(reversed(points), reversed(prefix)):
        z_inv = inverse * before % P
        inverse = inverse * z % P
        z_inv2 = z_inv * z_inv % P
        affine.append((x * z_inv2 % P, y * z_inv2 * z_inv % P))
    affine.reverse()
    return affine


def _j_double(point: _Jacobian) -> _Jacobian:
    x, y, z = point
    if z == 0 or y == 0:
        return _J_INFINITY
    ysq = y * y % P
    s = 4 * x * ysq % P
    m = 3 * x * x % P  # a == 0 so no a*z^4 term
    nx = (m * m - 2 * s) % P
    ny = (m * (s - nx) - 8 * ysq * ysq) % P
    nz = 2 * y * z % P
    return (nx, ny, nz)


def _j_add(p: _Jacobian, q: _Jacobian) -> _Jacobian:
    if p[2] == 0:
        return q
    if q[2] == 0:
        return p
    x1, y1, z1 = p
    x2, y2, z2 = q
    z1z1 = z1 * z1 % P
    z2z2 = z2 * z2 % P
    u1 = x1 * z2z2 % P
    u2 = x2 * z1z1 % P
    s1 = y1 * z2z2 * z2 % P
    s2 = y2 * z1z1 * z1 % P
    if u1 == u2:
        if s1 != s2:
            return _J_INFINITY
        return _j_double(p)
    h = (u2 - u1) % P
    i = 4 * h * h % P
    j = h * i % P
    r = 2 * (s2 - s1) % P
    v = u1 * i % P
    nx = (r * r - j - 2 * v) % P
    ny = (r * (v - nx) - 2 * s1 * j) % P
    nz = 2 * h * z1 * z2 % P
    return (nx, ny, nz)


def _j_add_affine(p: _Jacobian, q: _Affine) -> _Jacobian:
    """``p + q`` for a finite affine ``q`` (a mixed addition: Z2 = 1 saves
    five of the general addition's multiplications)."""
    x1, y1, z1 = p
    x2, y2 = q
    if z1 == 0:
        return (x2, y2, 1)
    z1z1 = z1 * z1 % P
    h = (x2 * z1z1 - x1) % P
    r = (y2 * z1z1 * z1 - y1) % P
    if h == 0:
        if r == 0:
            return _j_double(p)
        return _J_INFINITY
    hh = h * h % P
    hhh = h * hh % P
    v = x1 * hh % P
    nx = (r * r - hhh - 2 * v) % P
    ny = (r * (v - nx) - y1 * hhh) % P
    return (nx, ny, z1 * h % P)


def _j_multiply_reference(point: _Jacobian, scalar: int) -> _Jacobian:
    """Plain right-to-left double-and-add (executable spec).

    Nothing calls this at run time: it is the oracle that the equivalence
    tests hold :func:`_generator_multiply` and :func:`_point_multiply` to.
    """
    scalar %= N
    if scalar == 0 or point[2] == 0:
        return _J_INFINITY
    result = _J_INFINITY
    addend = point
    while scalar:
        if scalar & 1:
            result = _j_add(result, addend)
        addend = _j_double(addend)
        scalar >>= 1
    return result


# --- Fixed-base comb for k*G ------------------------------------------------
#
# k = sum of d_i * 16^i over 64 four-bit digits, so k*G is the sum of one
# table entry d_i * (16^i * G) per nonzero digit: at most 64 mixed
# additions and no doubling.  For k < N no partial sum can equal or negate
# the entry added to it, but the addition handles both cases anyway.

_COMB_BITS = 4
_COMB_DIGITS = (1 << _COMB_BITS) - 1


@functools.cache
def _comb_table() -> tuple[tuple[_Affine, ...], ...]:
    """``table[i][d - 1] = d * 16^i * G`` for i in 0..63 and d in 1..15.

    Built on first use (about 15 ms, 960 affine points) and kept for the
    life of the process.
    """
    rows = []
    base: _Affine = (GX, GY)
    for _ in range(256 // _COMB_BITS):
        multiples = [(base[0], base[1], 1)]
        for _ in range(_COMB_DIGITS):  # 2 * base .. 16 * base
            multiples.append(_j_add_affine(multiples[-1], base))
        affine = _to_affine_batch(multiples)
        rows.append(tuple(affine[:_COMB_DIGITS]))
        base = affine[_COMB_DIGITS]
    return tuple(rows)


def _generator_multiply(scalar: int) -> _Jacobian:
    """``scalar * G`` by the fixed-base comb."""
    scalar %= N
    result = _J_INFINITY
    for row in _comb_table():
        if not scalar:
            break
        digit = scalar & _COMB_DIGITS
        if digit:
            result = _j_add_affine(result, row[digit - 1])
        scalar >>= _COMB_BITS
    return result


# --- wNAF for k*Q ----------------------------------------------------------

_WNAF_WIDTH = 5
_WNAF_MODULUS = 1 << _WNAF_WIDTH
_WNAF_ODD_MULTIPLES = 1 << (_WNAF_WIDTH - 2)  # Q, 3Q, ..., 15Q


def _wnaf(scalar: int) -> list[int]:
    """Width-5 non-adjacent form of ``scalar >= 0``, least significant
    digit first.  Every nonzero digit is odd, lies in -15..15 and is
    followed by at least four zeros."""
    digits = []
    while scalar:
        if scalar & 1:
            digit = scalar & (_WNAF_MODULUS - 1)
            if digit >= _WNAF_MODULUS >> 1:
                digit -= _WNAF_MODULUS
            scalar -= digit
        else:
            digit = 0
        digits.append(digit)
        scalar >>= 1
    return digits


def _point_multiply(point: _Affine, scalar: int) -> _Jacobian:
    """``scalar * point`` for a finite curve point, by width-5 wNAF.

    The odd multiples are normalised to affine with one batched inversion,
    so each of the ~43 additions is a mixed one.
    """
    scalar %= N
    if scalar == 0:
        return _J_INFINITY
    x, y = point
    twice = _j_double((x, y, 1))
    odd = [(x, y, 1)]
    for _ in range(_WNAF_ODD_MULTIPLES - 1):
        odd.append(_j_add(odd[-1], twice))
    positive = _to_affine_batch(odd)
    negative = [(px, P - py) for px, py in positive]
    result = _J_INFINITY
    for digit in reversed(_wnaf(scalar)):
        result = _j_double(result)
        if digit > 0:
            result = _j_add_affine(result, positive[digit >> 1])
        elif digit < 0:
            result = _j_add_affine(result, negative[-digit >> 1])
    return result


def point_add(p: AffinePoint, q: AffinePoint) -> AffinePoint:
    """Affine point addition."""
    return _from_jacobian(_j_add(_to_jacobian(p), _to_jacobian(q)))


def point_multiply(point: AffinePoint, scalar: int) -> AffinePoint:
    """Affine scalar multiplication ``scalar * point``."""
    if point.is_infinity:
        return INFINITY
    return _from_jacobian(_point_multiply(point, scalar))


def point_negate(point: AffinePoint) -> AffinePoint:
    if point.is_infinity:
        return point
    return AffinePoint(point.x, (-point.y) % P)


def generator_multiply(scalar: int) -> AffinePoint:
    """``scalar * G``."""
    return _from_jacobian(_generator_multiply(scalar))


# --- Encoding -------------------------------------------------------------

def encode_point(point: AffinePoint, compressed: bool = False) -> bytes:
    """SEC 1 point encoding (65-byte uncompressed or 33-byte compressed)."""
    if point.is_infinity:
        raise InvalidPublicKey("cannot encode point at infinity")
    if compressed:
        prefix = 0x02 | (point.y & 1)
        return bytes([prefix]) + point.x.to_bytes(32, "big")
    return b"\x04" + point.x.to_bytes(32, "big") + point.y.to_bytes(32, "big")


def decode_point(data: bytes) -> AffinePoint:
    """Decode a SEC 1 point (accepts compressed, uncompressed, and the raw
    64-byte X||Y form RLPx uses for node IDs)."""
    if len(data) == 64:
        data = b"\x04" + data
    if len(data) == 65 and data[0] == 0x04:
        x = int.from_bytes(data[1:33], "big")
        y = int.from_bytes(data[33:], "big")
        point = AffinePoint(x, y)
        if x >= P or y >= P or not is_on_curve(point):
            raise InvalidPublicKey("point not on curve")
        return point
    if len(data) == 33 and data[0] in (0x02, 0x03):
        x = int.from_bytes(data[1:], "big")
        if x >= P:
            raise InvalidPublicKey("x coordinate out of range")
        y = solve_y(x, data[0] & 1)
        return AffinePoint(x, y)
    raise InvalidPublicKey(f"cannot decode point from {len(data)} bytes")


def solve_y(x: int, parity: int) -> int:
    """Solve the curve equation for y with the given parity bit."""
    y_squared = (pow(x, 3, P) + B) % P
    y = pow(y_squared, (P + 1) // 4, P)
    if y * y % P != y_squared:
        raise InvalidPublicKey(f"no curve point with x={x:#x}")
    if y & 1 != parity:
        y = P - y
    return y


# --- ECDSA ----------------------------------------------------------------

class RawSignature(NamedTuple):
    """A recoverable ECDSA signature: (r, s, recovery id v in {0,1})."""

    r: int
    s: int
    v: int

    def to_bytes(self) -> bytes:
        """65-byte r || s || v encoding used by discv4 and the RLPx handshake."""
        return self.r.to_bytes(32, "big") + self.s.to_bytes(32, "big") + bytes([self.v])

    @classmethod
    def from_bytes(cls, data: bytes) -> "RawSignature":
        if len(data) != 65:
            raise InvalidSignature(f"signature must be 65 bytes, got {len(data)}")
        r = int.from_bytes(data[:32], "big")
        s = int.from_bytes(data[32:64], "big")
        v = data[64]
        if v >= 27:  # legacy Ethereum encoding: 27 + recovery id
            v -= 27
        if v not in (0, 1, 2, 3):
            raise InvalidSignature(f"invalid recovery id {data[64]}")
        return cls(r, s, v)


def _rfc6979_nonce(digest: bytes, private_key: int, extra: bytes = b"") -> int:
    """Deterministic nonce per RFC 6979 with HMAC-SHA256."""
    holen = 32
    x = private_key.to_bytes(32, "big")
    h1 = digest
    v = b"\x01" * holen
    k = b"\x00" * holen
    k = hmac.new(k, v + b"\x00" + x + h1 + extra, hashlib.sha256).digest()
    v = hmac.new(k, v, hashlib.sha256).digest()
    k = hmac.new(k, v + b"\x01" + x + h1 + extra, hashlib.sha256).digest()
    v = hmac.new(k, v, hashlib.sha256).digest()
    while True:
        v = hmac.new(k, v, hashlib.sha256).digest()
        nonce = int.from_bytes(v, "big")
        if 1 <= nonce < N:
            return nonce
        k = hmac.new(k, v + b"\x00", hashlib.sha256).digest()
        v = hmac.new(k, v, hashlib.sha256).digest()


def sign_digest(digest: bytes, private_key: int) -> RawSignature:
    """Sign a 32-byte digest, returning a recoverable low-s signature."""
    if len(digest) != 32:
        raise InvalidSignature(f"digest must be 32 bytes, got {len(digest)}")
    if not 1 <= private_key < N:
        raise InvalidPrivateKey("private key out of range")
    z = int.from_bytes(digest, "big")
    attempt = 0
    while True:
        extra = attempt.to_bytes(4, "big") if attempt else b""
        k = _rfc6979_nonce(digest, private_key, extra)
        point = _from_jacobian(_generator_multiply(k))
        if point.is_infinity:
            attempt += 1
            continue
        r = point.x % N
        if r == 0:
            attempt += 1
            continue
        s = pow(k, -1, N) * (z + r * private_key) % N
        if s == 0:
            attempt += 1
            continue
        v = (point.y & 1) | (2 if point.x >= N else 0)
        if s > _HALF_N:
            s = N - s
            v ^= 1
        return RawSignature(r, s, v)


def verify_digest(digest: bytes, signature: RawSignature, public_key: AffinePoint) -> bool:
    """Verify ``signature`` over a 32-byte ``digest`` against ``public_key``."""
    if len(digest) != 32:
        return False
    r, s = signature.r, signature.s
    if not (1 <= r < N and 1 <= s < N):
        return False
    if public_key.is_infinity or not is_on_curve(public_key):
        return False
    z = int.from_bytes(digest, "big")
    w = pow(s, -1, N)
    point = _from_jacobian(
        _j_add(
            _generator_multiply(z * w),
            _point_multiply(public_key, r * w),
        )
    )
    if point.is_infinity:
        return False
    return point.x % N == r


def recover_digest(digest: bytes, signature: RawSignature) -> AffinePoint:
    """Recover the signing public key from a recoverable signature.

    This is how discv4 learns the sender's node ID from a datagram.
    """
    if len(digest) != 32:
        raise InvalidSignature("digest must be 32 bytes")
    r, s, v = signature
    if not (1 <= r < N and 1 <= s < N):
        raise InvalidSignature("r or s out of range")
    x = r + N if v & 2 else r
    if x >= P:
        raise InvalidSignature("invalid x coordinate for recovery")
    try:
        y = solve_y(x, v & 1)
    except InvalidPublicKey as exc:
        raise InvalidSignature(str(exc)) from exc
    z = int.from_bytes(digest, "big")
    r_inv = pow(r, -1, N)
    # Q = r^-1 (s*R - z*G) = (-z/r)*G + (s/r)*R
    q = _from_jacobian(
        _j_add(_generator_multiply(-z * r_inv), _point_multiply((x, y), s * r_inv))
    )
    if q.is_infinity or not is_on_curve(q):
        raise InvalidSignature("recovered point not on curve")
    return q


def ecdh(private_key: int, public_key: AffinePoint) -> bytes:
    """ECDH shared secret: the 32-byte x-coordinate of ``d * Q``.

    This matches Geth's ``ecies.GenerateShared`` (x-coordinate only).
    """
    if not 1 <= private_key < N:
        raise InvalidPrivateKey("private key out of range")
    if public_key.is_infinity or not is_on_curve(public_key):
        raise InvalidPublicKey("invalid public key for ECDH")
    shared = point_multiply(public_key, private_key)
    if shared.is_infinity:
        raise InvalidPublicKey("ECDH produced point at infinity")
    return shared.x.to_bytes(32, "big")
