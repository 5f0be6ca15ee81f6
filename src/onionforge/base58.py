"""Base58Check encoding/decoding with the Bitcoin alphabet."""

import hashlib

ALPHABET = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"
_INDEX = {c: i for i, c in enumerate(ALPHABET)}


class Base58Error(ValueError):
    pass


def b58decode(s: str) -> bytes:
    """Decode a base58 string to bytes. Leading '1's become leading zero bytes."""
    if not s:
        return b""
    n = 0
    for c in s:
        if c not in _INDEX:
            raise Base58Error("invalid base58 character %r" % c)
        n = n * 58 + _INDEX[c]
    body = n.to_bytes((n.bit_length() + 7) // 8, "big") if n else b""
    pad = 0
    for c in s:
        if c == ALPHABET[0]:
            pad += 1
        else:
            break
    return b"\x00" * pad + body


def b58encode(data: bytes) -> str:
    if not data:
        return ""
    n = int.from_bytes(data, "big")
    out = []
    while n:
        n, rem = divmod(n, 58)
        out.append(ALPHABET[rem])
    pad = 0
    for b in data:
        if b == 0:
            pad += 1
        else:
            break
    return ALPHABET[0] * pad + "".join(reversed(out))


def checksum(payload: bytes) -> bytes:
    """First 4 bytes of double-SHA256."""
    return hashlib.sha256(hashlib.sha256(payload).digest()).digest()[:4]


def b58check_encode(payload: bytes) -> str:
    return b58encode(payload + checksum(payload))
