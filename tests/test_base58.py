import pytest
from hypothesis import given, strategies as st

from onionforge import base58

# validity of each frozen address confirmed with an independent big-int +
# double-SHA256 checker before being added here
KNOWN_VALID = [
    "1CHvWk36MR5aCz72jViS7jSub9utJf3jii",
    "1EKrfiWZoABz17DWJxUrycQKg3Fo4zZ2Z2",
    "1Gs7Aztizk2rNNSE6AbpK4K7yAFTCZKV9a",
    "1ENrJ77ubXo5eeip2XpohC4jQgKwLWxfuA",
    "1FvftoUHVpFZaasCnPTUcbccqi5PYnm5S6",
    "1KRkAWDH5q7U5rdTM1rREmepk1pxpCAVKE",
    "112FWGSL2q7rVTgabQuJbo3WwKid8dMEtj",
    "1QATskw4LGVjhfB5UPZwiyVLKP9zdPcKir",
    "1AYnoFpTbfVXYpADgzidDCJHE1X5UhyGqu",
    "15BiCbHPscR6VXnJKkRg2W6UeEFCsjRGjs",
    "1A1zP1eP5QGefi2DMPTfTL5SLmv7DivfNa",   # genesis coinbase
    "3J98t1WpEZ73CNmQviecrnyiWrnqRhWNLy",   # P2SH
]


@pytest.mark.parametrize("addr", KNOWN_VALID)
def test_known_valid_decode(addr):
    raw = base58.b58decode(addr)
    payload = raw[:-4]
    assert len(payload) == 21
    assert payload[0] in (0x00, 0x05)
    assert base58.checksum(payload) == raw[-4:]


def test_bad_alphabet_rejected():
    with pytest.raises(base58.Base58Error, match="character"):
        base58.b58decode("0OIl")


def test_leading_ones_are_zero_bytes():
    assert base58.b58decode("11").startswith(b"\x00\x00")
    assert base58.b58encode(b"\x00\x00\x01") == "112"


@pytest.mark.parametrize("addr", KNOWN_VALID[:3])
def test_roundtrip_known(addr):
    assert base58.b58check_encode(base58.b58decode(addr)[:-4]) == addr


@given(st.binary(min_size=0, max_size=40))
def test_roundtrip_random_payloads(payload):
    assert base58.b58decode(base58.b58check_encode(payload)) == payload + base58.checksum(payload)


@given(st.binary(min_size=0, max_size=40))
def test_plain_roundtrip(data):
    assert base58.b58decode(base58.b58encode(data)) == data


def test_empty():
    assert base58.b58decode("") == b""
    assert base58.b58encode(b"") == ""
