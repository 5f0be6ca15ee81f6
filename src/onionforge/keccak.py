"""Keccak-256 (the pre-NIST variant used for Ethereum address checksums).

Differs from hashlib's sha3_256 only in the padding byte (0x01 vs 0x06),
so it has to be implemented here: stdlib hashlib cannot produce it.

Keccak-f uses only XOR, AND, NOT and rotations of 64-bit lanes, so one
Python int can carry the same lane of k messages side by side, and one pass
of the 24 rounds permutes all k states (SIMD within a register): message j
holds bits 128j to 128j + 63 of each lane, and the 64 bits above them stay
zero. A rotation written `((t << r) | (t >> (64 - r))) & mask`, with the
mask keeping the low 64 bits of every 128, then rotates every field at once:
what each term pushes out of a field lands in a gap and is masked away.
"""

_ROUND_CONSTANTS = (
    0x0000000000000001, 0x0000000000008082, 0x800000000000808A, 0x8000000080008000,
    0x000000000000808B, 0x0000000080000001, 0x8000000080008081, 0x8000000000008009,
    0x000000000000008A, 0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
    0x000000008000808B, 0x800000000000008B, 0x8000000000008089, 0x8000000000008003,
    0x8000000000008002, 0x8000000000000080, 0x000000000000800A, 0x800000008000000A,
    0x8000000080008081, 0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
)

_RATE = 136  # bytes; 1088-bit rate / 512-bit capacity
_LANE = 0xFFFFFFFFFFFFFFFF
# messages per state: past a few thousand, a message costs more, and each
# takes 16 bytes of every one of the state's ints
_MAX_FIELDS = 1024


def _keccak_f(state: list, m: int = _LANE, rcs=_ROUND_CONSTANTS) -> list:
    """Keccak-f[1600] on 25 lanes, lane (x, y) at index x + 5*y.

    One message's lanes are 64-bit ints, with the defaults. A batch's lanes
    carry a field per message (see the module docstring); `m` is the mask
    of their low halves, and `rcs` the round constants, one copy per field.
    Written out with the lanes in locals: each rotation offset and pi
    destination is a literal, and `m` masks a rotation back to its field
    (chi's `~b & c` needs no mask, since c is non-negative).
    """
    (a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12,
     a13, a14, a15, a16, a17, a18, a19, a20, a21, a22, a23, a24) = state
    for rc in rcs:
        # theta
        c0 = a0 ^ a5 ^ a10 ^ a15 ^ a20
        c1 = a1 ^ a6 ^ a11 ^ a16 ^ a21
        c2 = a2 ^ a7 ^ a12 ^ a17 ^ a22
        c3 = a3 ^ a8 ^ a13 ^ a18 ^ a23
        c4 = a4 ^ a9 ^ a14 ^ a19 ^ a24
        d0 = c4 ^ (((c1 << 1) | (c1 >> 63)) & m)
        d1 = c0 ^ (((c2 << 1) | (c2 >> 63)) & m)
        d2 = c1 ^ (((c3 << 1) | (c3 >> 63)) & m)
        d3 = c2 ^ (((c4 << 1) | (c4 >> 63)) & m)
        d4 = c3 ^ (((c0 << 1) | (c0 >> 63)) & m)
        # rho + pi, lane (x, y) moves to (y, 2x + 3y)
        b0 = a0 ^ d0
        t = a5 ^ d0
        b16 = ((t << 36) | (t >> 28)) & m
        t = a10 ^ d0
        b7 = ((t << 3) | (t >> 61)) & m
        t = a15 ^ d0
        b23 = ((t << 41) | (t >> 23)) & m
        t = a20 ^ d0
        b14 = ((t << 18) | (t >> 46)) & m
        t = a1 ^ d1
        b10 = ((t << 1) | (t >> 63)) & m
        t = a6 ^ d1
        b1 = ((t << 44) | (t >> 20)) & m
        t = a11 ^ d1
        b17 = ((t << 10) | (t >> 54)) & m
        t = a16 ^ d1
        b8 = ((t << 45) | (t >> 19)) & m
        t = a21 ^ d1
        b24 = ((t << 2) | (t >> 62)) & m
        t = a2 ^ d2
        b20 = ((t << 62) | (t >> 2)) & m
        t = a7 ^ d2
        b11 = ((t << 6) | (t >> 58)) & m
        t = a12 ^ d2
        b2 = ((t << 43) | (t >> 21)) & m
        t = a17 ^ d2
        b18 = ((t << 15) | (t >> 49)) & m
        t = a22 ^ d2
        b9 = ((t << 61) | (t >> 3)) & m
        t = a3 ^ d3
        b5 = ((t << 28) | (t >> 36)) & m
        t = a8 ^ d3
        b21 = ((t << 55) | (t >> 9)) & m
        t = a13 ^ d3
        b12 = ((t << 25) | (t >> 39)) & m
        t = a18 ^ d3
        b3 = ((t << 21) | (t >> 43)) & m
        t = a23 ^ d3
        b19 = ((t << 56) | (t >> 8)) & m
        t = a4 ^ d4
        b15 = ((t << 27) | (t >> 37)) & m
        t = a9 ^ d4
        b6 = ((t << 20) | (t >> 44)) & m
        t = a14 ^ d4
        b22 = ((t << 39) | (t >> 25)) & m
        t = a19 ^ d4
        b13 = ((t << 8) | (t >> 56)) & m
        t = a24 ^ d4
        b4 = ((t << 14) | (t >> 50)) & m
        # chi + iota
        a0 = (b0 ^ (~b1 & b2)) ^ rc
        a1 = b1 ^ (~b2 & b3)
        a2 = b2 ^ (~b3 & b4)
        a3 = b3 ^ (~b4 & b0)
        a4 = b4 ^ (~b0 & b1)
        a5 = b5 ^ (~b6 & b7)
        a6 = b6 ^ (~b7 & b8)
        a7 = b7 ^ (~b8 & b9)
        a8 = b8 ^ (~b9 & b5)
        a9 = b9 ^ (~b5 & b6)
        a10 = b10 ^ (~b11 & b12)
        a11 = b11 ^ (~b12 & b13)
        a12 = b12 ^ (~b13 & b14)
        a13 = b13 ^ (~b14 & b10)
        a14 = b14 ^ (~b10 & b11)
        a15 = b15 ^ (~b16 & b17)
        a16 = b16 ^ (~b17 & b18)
        a17 = b17 ^ (~b18 & b19)
        a18 = b18 ^ (~b19 & b15)
        a19 = b19 ^ (~b15 & b16)
        a20 = b20 ^ (~b21 & b22)
        a21 = b21 ^ (~b22 & b23)
        a22 = b22 ^ (~b23 & b24)
        a23 = b23 ^ (~b24 & b20)
        a24 = b24 ^ (~b20 & b21)
    return [a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12,
            a13, a14, a15, a16, a17, a18, a19, a20, a21, a22, a23, a24]


def _sponge(padded: list, size: int) -> list[bytes]:
    """The digests of messages padded to `size` bytes each, in one state."""
    k, per = len(padded), size // 8
    ones = int.from_bytes((b"\x01" + bytes(15)) * k, "little")  # a 1 in every field
    m, rcs = _LANE * ones, [rc * ones for rc in _ROUND_CONSTANTS]
    # the messages' 8-byte lanes, copied as they are (no byte order is read):
    # lane i of the block that starts at unit b of message j is units[j*per + b + i]
    units = memoryview(b"".join(padded)).cast("Q")
    packed = bytearray(16 * k)  # one lane of every message, each followed by its gap
    fields = memoryview(packed).cast("Q")[::2]
    state = [0] * 25
    for block in range(0, per, _RATE // 8):
        for i in range(_RATE // 8):
            fields[:] = units[block + i::per]
            state[i] ^= int.from_bytes(packed, "little")
        state = _keccak_f(state, m, rcs)
    out = bytearray(32 * k)
    digests = memoryview(out).cast("Q")
    for i in range(4):
        digests[i::4] = memoryview(state[i].to_bytes(16 * k, "little")).cast("Q")[::2]
    return [bytes(out[32 * j:32 * j + 32]) for j in range(k)]


def keccak256_batch(messages) -> list[bytes]:
    """The Keccak-256 digest of each message, in order.

    Messages of the same padded length share one state, and so one
    permutation per block: a batch of one-block messages costs about one
    permutation per `_MAX_FIELDS` messages.
    """
    digests = [b""] * len(messages)
    groups: dict[int, list] = {}
    for index, data in enumerate(messages):
        padded = bytearray(data)
        padded.append(0x01)
        padded.extend(bytes(-len(padded) % _RATE))
        padded[-1] |= 0x80
        groups.setdefault(len(padded), []).append((index, padded))
    for size, group in groups.items():
        for start in range(0, len(group), _MAX_FIELDS):
            chunk = group[start:start + _MAX_FIELDS]
            for (index, _), digest in zip(chunk, _sponge([p for _, p in chunk], size)):
                digests[index] = digest
    return digests


def keccak256(data: bytes) -> bytes:
    return keccak256_batch([data])[0]
