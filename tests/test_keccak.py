"""The permutation is checked two ways: published Keccak-256 digests for
short inputs, and equivalence with hashlib's SHA3-256 (same sponge, only
the padding byte differs) across random multi-block inputs. A batch is
checked against the one-message sponge, message by message."""

import hashlib
import random

from hypothesis import given, settings, strategies as st

from onionforge import keccak
from onionforge.keccak import _RATE, _keccak_f, keccak256, keccak256_batch

VECTORS = {
    b"": "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470",
    b"abc": "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45",
    b"The quick brown fox jumps over the lazy dog":
        "4d741b6f1eb29cb2a9b9911c82f56fa8d73b04959d3d9d222895df6c0b28aa15",
}


def test_published_vectors():
    for data, digest in VECTORS.items():
        assert keccak256(data).hex() == digest


def test_published_vectors_in_one_batch():
    assert [d.hex() for d in keccak256_batch(list(VECTORS) * 2)] == list(VECTORS.values()) * 2


def _sponge_with_pad(data: bytes, pad_byte: int) -> bytes:
    state = [0] * 25
    padded = bytearray(data)
    padded.append(pad_byte)
    while len(padded) % _RATE:
        padded.append(0x00)
    padded[-1] |= 0x80
    for block in range(0, len(padded), _RATE):
        for i in range(_RATE // 8):
            state[i] ^= int.from_bytes(padded[block + 8 * i:block + 8 * i + 8], "little")
        state = _keccak_f(state)
    out = bytearray()
    for i in range(4):
        out += state[i].to_bytes(8, "little")
    return bytes(out)


def test_permutation_matches_sha3_on_multiblock_inputs():
    rng = random.Random(4242)
    for length in [0, 1, 135, 136, 137, 271, 272, 273, 500]:
        data = bytes(rng.randrange(256) for _ in range(length))
        assert _sponge_with_pad(data, 0x06) == hashlib.sha3_256(data).digest()


def test_keccak_differs_from_sha3():
    # same sponge, different domain padding
    assert keccak256(b"abc") != hashlib.sha3_256(b"abc").digest()


def test_batch_equals_the_one_message_sponge_at_every_size():
    rng = random.Random(55)
    lengths = [0, 1, 40, 135, 136, 137, 271, 272, 400]
    for k in range(1, 71):
        messages = [bytes(rng.randrange(256) for _ in range(rng.choice(lengths)))
                    for _ in range(k)]
        assert keccak256_batch(messages) == [_sponge_with_pad(m, 0x01) for m in messages], k


@settings(max_examples=40, deadline=None)
@given(st.lists(st.binary(max_size=400), min_size=1, max_size=70))
def test_batch_equals_the_one_message_sponge(messages):
    assert keccak256_batch(messages) == [_sponge_with_pad(m, 0x01) for m in messages]


def test_a_group_larger_than_one_state_is_split(monkeypatch):
    monkeypatch.setattr(keccak, "_MAX_FIELDS", 3)
    messages = [bytes([i]) * (29 * i) for i in range(12)]  # 1 to 3 blocks, interleaved
    assert keccak256_batch(messages) == [_sponge_with_pad(m, 0x01) for m in messages]
