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

# lane i = x + 5*y: its rho rotation, and the lane (y, 2x + 3y) pi moves it to
_LANES = tuple(
    (i, r, i // 5 + 5 * ((2 * (i % 5) + 3 * (i // 5)) % 5))
    for i, r in enumerate((0, 1, 62, 28, 27, 36, 44, 6, 55, 20, 3, 10, 43, 25, 39,
                           41, 45, 15, 21, 8, 18, 2, 61, 56, 14))
)


def _keccak_f(state: list, m: int = _LANE, rcs=_ROUND_CONSTANTS) -> list:
    """Keccak-f[1600] on 25 lanes, lane (x, y) at index x + 5*y.

    One message's lanes are 64-bit ints, with the defaults. A batch's lanes
    carry a field per message (see the module docstring); `m` is the mask
    of their low halves, and `rcs` the round constants, one copy per field.
    `m` masks a rotation back to its field, also the rotation by 0, whose
    `t >> 64` lands in a gap; chi's `~b1 & b2` needs no mask, since b2 is
    non-negative.
    """
    a, b = list(state), [0] * 25
    for rc in rcs:
        # theta; c[x - 1] and c[x - 4] are c[(x + 4) % 5] and c[(x + 1) % 5]
        c = [a[x] ^ a[x + 5] ^ a[x + 10] ^ a[x + 15] ^ a[x + 20] for x in range(5)]
        d = [c[x - 1] ^ (((c[x - 4] << 1) | (c[x - 4] >> 63)) & m) for x in range(5)]
        for i, r, dest in _LANES:  # theta's XOR, rho + pi
            t = a[i] ^ d[i % 5]
            b[dest] = ((t << r) | (t >> (64 - r))) & m
        for y in range(0, 25, 5):  # chi, a row at a time
            b0, b1, b2, b3, b4 = b[y:y + 5]
            a[y:y + 5] = (b0 ^ (~b1 & b2), b1 ^ (~b2 & b3), b2 ^ (~b3 & b4),
                          b3 ^ (~b4 & b0), b4 ^ (~b0 & b1))
        a[0] ^= rc  # iota
    return a


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
