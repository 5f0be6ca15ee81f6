import re

import pytest
from growth import growth
from hypothesis import example, given, settings, strategies as st

from onionforge import base58, extract
from onionforge.extract import (
    eip55_checksums, find_candidates, find_emails, load_tlds, scan_page,
    scan_pages, validate_btc, validate_eth,
)
from onionforge.keccak import keccak256, keccak256_batch

ADDR = "1CHvWk36MR5aCz72jViS7jSub9utJf3jii"
TLDS = load_tlds()

# what the BTC candidates must agree with on any fixture text
REFERENCE_RE = re.compile(r"(?<![0-9a-zA-Z])[0-9a-zA-Z]{25,39}(?![0-9a-zA-Z])")


# the email pattern `find_emails` must agree with, and the scan it replaced
EMAIL_RE = re.compile(r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+")


def reference_find_emails(text):
    out = []
    for m in EMAIL_RE.finditer(text):
        local, _, host = m.group(0).rpartition("@")
        host = host.rstrip(".").lower()
        if local and extract._valid_hostname(host) and host.rsplit(".", 1)[-1] in TLDS:
            out.append("%s@%s" % (local, host))
    return list(dict.fromkeys(out))


def find_btc_candidates(text):
    return find_candidates(text)[0]


def find_eth_candidates(text):
    return find_candidates(text)[1]


class TestBtcCandidates:
    def test_single_address(self):
        found = find_btc_candidates("pay to %s today" % ADDR)
        assert found == [ADDR]

    def test_empty_page(self):
        assert find_btc_candidates("") == []

    def test_embedded_in_long_run_is_not_a_candidate(self):
        text = "x" * 13 + ADDR + "y" * 13  # one 60-char alphanumeric run
        assert find_btc_candidates(text) == []
        assert REFERENCE_RE.findall(text) == []

    def test_agrees_with_reference_regex(self):
        text = ("%s and %s but not abcdefghijklmnopqrstuvwxyz0123456789abcdef "
                "nor tiny123 words; trailing %s") % (ADDR, "b" * 30, "c" * 39)
        assert find_btc_candidates(text) == REFERENCE_RE.findall(text)

    def test_dedup_keeps_first_occurrence_order(self):
        other = "b" * 26
        text = "%s %s %s" % (ADDR, other, ADDR)
        assert find_btc_candidates(text) == [ADDR, other]

    def test_extraction_idempotent(self):
        text = "send %s please" % ADDR
        assert find_btc_candidates(text) == find_btc_candidates(text)


class TestValidateBtc:
    def test_accepts_p2pkh(self):
        assert validate_btc(ADDR) is None
        assert base58.b58decode(ADDR)[0] == 0x00

    def test_accepts_p2sh(self):
        p2sh = "3J98t1WpEZ73CNmQviecrnyiWrnqRhWNLy"
        assert validate_btc(p2sh) is None
        assert base58.b58decode(p2sh)[0] == 0x05

    def test_flipped_last_char_bad_checksum(self):
        assert validate_btc(ADDR[:-1] + "j") == "bad-checksum"

    def test_bad_alphabet(self):
        for s in ("0" + ADDR[1:], "O" + ADDR[1:], ADDR[:-1] + "I", ADDR[:-1] + "l"):
            assert validate_btc(s) == "bad-alphabet"

    def test_bad_length(self):
        assert validate_btc("1" * 30) == "bad-length"

    def test_bad_version(self):
        testnet = base58.b58check_encode(b"\x6f" + b"\x01" * 20)
        assert validate_btc(testnet) == "bad-version"

    def test_roundtrip_on_accept(self):
        payload = base58.b58decode(ADDR)[:-4]
        assert base58.b58check_encode(payload) == ADDR

    def test_every_single_char_mutation_rejected(self):
        for pos in range(len(ADDR)):
            for repl in base58.ALPHABET[:3]:
                if repl == ADDR[pos]:
                    continue
                mutated = ADDR[:pos] + repl + ADDR[pos + 1:]
                assert validate_btc(mutated) is not None, mutated

    @given(st.binary(min_size=20, max_size=20))
    def test_generated_p2pkh_accepted_and_roundtrips(self, payload):
        addr = base58.b58check_encode(b"\x00" + payload)
        assert validate_btc(addr) is None
        assert base58.b58check_encode(base58.b58decode(addr)[:-4]) == addr

    @settings(max_examples=500)
    @given(st.one_of(
        st.text(alphabet=base58.ALPHABET + "0OIl.-_:/ é", max_size=40),
        st.builds(lambda version, payload: base58.b58check_encode(bytes([version]) + payload),
                  st.sampled_from([0x00, 0x05, 0x6f]), st.binary(min_size=19, max_size=21)),
        st.builds(lambda pos, c: ADDR[:pos] + c + ADDR[pos + 1:],
                  st.integers(0, len(ADDR) - 1), st.sampled_from("0OIl" + base58.ALPHABET))))
    def test_same_verdict_as_an_alphabet_check_before_the_decode(self, text):
        assert validate_btc(text) == reference_validate_btc(text)


def reference_validate_btc(text):
    """`validate_btc` as it was with a per-character alphabet check before the decode."""
    for c in text:
        if c not in base58.ALPHABET:
            return "bad-alphabet"
    raw = base58.b58decode(text)
    if len(raw) != 25:
        return "bad-length"
    if base58.checksum(raw[:-4]) != raw[-4:]:
        return "bad-checksum"
    if raw[0] not in (0x00, 0x05):
        return "bad-version"
    return None


EIP55_VECTORS = [
    "5aAeb6053F3E94C9b9A09f33669435E7Ef1BeAed",
    "fB6916095ca1df60bB79Ce92cE3Ea74c37c5d359",
    "dbF03B407c01E7cD3CBea99509d93f8DDDC8C6FB",
    "D1220A0cf47c7B9Be7A2E6BA89F429762e7b9aDb",
]


def keccak_cased(body: str) -> str:
    """EIP-55's nibble rule applied to the one-message Keccak of a body."""
    digest = keccak256(body.lower().encode()).hex()
    return "".join(c.upper() if c.isalpha() and int(digest[i], 16) >= 8 else c
                   for i, c in enumerate(body.lower()))


class TestValidateEth:
    def test_lowercase_accepted(self):
        assert validate_eth("a" * 40) is None

    def test_uppercase_accepted(self):
        assert validate_eth("0x" + "A" * 40) is None

    def test_short_rejected(self):
        assert validate_eth("a" * 39) == "bad-length"

    def test_non_hex_rejected(self):
        assert validate_eth("g" * 40) == "bad-hex"

    @pytest.mark.parametrize("vector", EIP55_VECTORS)
    def test_reference_vectors_accepted(self, vector):
        assert validate_eth("0x" + vector) is None

    @pytest.mark.parametrize("vector", EIP55_VECTORS)
    def test_case_flip_rejected(self, vector):
        i = next(i for i, c in enumerate(vector) if c.isalpha())
        flipped = vector[:i] + vector[i].swapcase() + vector[i + 1:]
        assert validate_eth("0x" + flipped) == "bad-eip55"

    def test_derived_casing_from_keccak_oracle(self):
        # independent application of the nibble rule to fixed pseudo-random bodies
        import hashlib
        for seed in ("ethcase-1", "ethcase-2", "ethcase-3"):
            body = hashlib.sha256(seed.encode()).hexdigest()[:40]
            cased = keccak_cased(body)
            assert eip55_checksums([body]) == {body.lower(): cased}
            assert validate_eth(cased) is None
            if any(c.isalpha() for c in cased) and cased != cased.lower():
                broken = cased.lower()[:1] + cased[1:]
                if broken != cased and broken != broken.lower():
                    assert validate_eth(broken) == "bad-eip55"

    @settings(max_examples=300)
    @given(st.lists(st.text(alphabet="0123456789abcdefABCDEF", min_size=40, max_size=40),
                    max_size=8))
    def test_batched_checksums_equal_the_one_body_ones(self, bodies):
        assert eip55_checksums(bodies) == {body.lower(): keccak_cased(body) for body in bodies}

    def test_address_on_two_pages_is_hashed_once(self, monkeypatch):
        batches = []
        monkeypatch.setattr(extract, "keccak256_batch",
                            lambda messages: batches.append(messages) or keccak256_batch(messages))
        html = ("<p>pay 0x%s</p>" % EIP55_VECTORS[0]).encode()
        # the same page body at two paths
        found, texts = scan_pages([html, html], TLDS)
        assert found == [[("eth", "0x" + EIP55_VECTORS[0], None)]] * 2
        assert texts == ["pay 0x" + EIP55_VECTORS[0]] * 2
        assert batches == [[EIP55_VECTORS[0].lower().encode()]]


class TestEthCandidates:
    def test_plain_and_prefixed(self):
        text = "see 0x%s and %s" % ("ab" * 20, "cd" * 20)
        assert find_eth_candidates(text) == ["0x" + "ab" * 20, "cd" * 20]

    def test_inside_longer_hash_ignored(self):
        assert find_eth_candidates("deadbeef" * 8) == []  # one 64-char run


ETH_REFERENCE_RE = re.compile(r"(?<![0-9a-zA-Z])(?:0[xX])?[0-9a-fA-F]{40}(?![0-9a-zA-Z])")


def reference_find_candidates(text):
    """The all-runs loop `find_candidates` must agree with."""
    btc, eth = {}, {}
    for run in re.findall(r"[0-9a-zA-Z]+", text):
        if 25 <= len(run) <= 39:
            btc[run] = None
        elif len(run) == 40 and re.fullmatch(r"[0-9a-fA-F]{40}", run):
            eth[run] = None
        elif len(run) == 42 and re.fullmatch(r"0[xX][0-9a-fA-F]{40}", run):
            eth[run] = None
    return list(btc), list(eth)


# Unicode-only whitespace (NBSP, NEL, LINE SEPARATOR, IDEOGRAPHIC SPACE) and
# the ASCII separators str.split takes as whitespace, next to candidate runs
CANDIDATE_PIECES = ["\xa0", "\x85", "\x1c", "\u2028", "\u3000", "\u212a", "\u0130",
                    "\ud800", "\xe9", "a" * 25 + "\xe9", "0x", "0X", " ", "-", "\n",
                    ADDR, "c" * 24, "c" * 38, "d" * 40, "Ab" * 20]


class TestCandidates:
    def test_one_pass_finds_both_kinds_in_document_order(self):
        eth1, eth2 = "0X" + "Ab" * 20, "cd" * 20
        text = "%s %s %s x%s %s %s" % (eth1, ADDR, "e" * 41, "f" * 40, eth2, ADDR)
        btc, eth = find_candidates(text)
        assert btc == [ADDR]
        assert eth == [eth1, eth2]

    @given(st.lists(st.sampled_from(["0x", "0X", "ab", "AB", "9f", "g", "Z1",
                                     " ", "-", ADDR, "c" * 38, "d" * 40]),
                    max_size=60).map("".join))
    def test_agrees_with_reference_regexes(self, text):
        btc, eth = find_candidates(text)
        assert btc == list(dict.fromkeys(REFERENCE_RE.findall(text)))
        assert eth == list(dict.fromkeys(ETH_REFERENCE_RE.findall(text)))

    @settings(max_examples=500)
    @given(st.lists(st.one_of(st.sampled_from(CANDIDATE_PIECES), st.text(max_size=8)),
                    max_size=30).map("".join))
    @example("c" * 25 + "\u3000" + ADDR)  # two long words that must not be glued
    def test_agrees_with_the_all_runs_loop(self, text):
        assert find_candidates(text) == reference_find_candidates(text)


class TestEmails:
    def test_paper_examples(self):
        found = find_emails("contact ccbestshop@secmail.pro now", TLDS)
        assert found == ["ccbestshop@secmail.pro"]
        found = find_emails("mail user@email4tor.com", TLDS)
        assert found == ["user@email4tor.com"]

    def test_no_dot_dropped(self):
        assert find_emails("user@localhost", TLDS) == []

    def test_unknown_tld_dropped(self):
        assert find_emails("user@example.nosuchtld", TLDS) == []

    def test_dedup(self):
        text = "a@b.com a@b.com c@d.org"
        assert find_emails(text, TLDS) == ["a@b.com", "c@d.org"]

    def test_bad_hostname_label_dropped(self):
        assert find_emails("user@-bad-.com", TLDS) == []

    def test_empty_tlds_rejected(self):
        with pytest.raises(ValueError):
            find_emails("a@b.com", set())

    def test_fields(self):
        assert find_emails("Sales@Example.COM", TLDS) == ["Sales@example.com"]

    def test_local_part_starts_after_the_previous_match(self):
        # "b" is the first host; the second local part may not reach back into it
        found = find_emails("a@b_c@d.com x@y.org", TLDS)
        assert found == ["_c@d.com", "x@y.org"]

    @settings(max_examples=500)
    @given(st.text(alphabet="ab1_.%+-@ #é", max_size=40)
           | st.lists(st.sampled_from(["a", "b_c", "@", "@@", ".", "..", "-", "x@y.com",
                                       ".org", " ", "%+", "é", "COM"]), max_size=20)
           .map("".join))
    def test_same_matches_as_the_reference_regex(self, text):
        want = [tuple(m.group().split("@")) for m in EMAIL_RE.finditer(text)]
        assert list(extract._email_parts(text)) == want
        assert find_emails(text, TLDS) == reference_find_emails(text)

    @pytest.mark.parametrize("unit", ["a.", "a", "a@"])
    def test_time_grows_linearly(self, unit):
        assert growth(lambda text: find_emails(text, TLDS), lambda k: unit * k, 4000) < 8


class TestScanPage:
    def test_address_in_attribute_value(self):
        html = ('<a href="bitcoin:%s">pay</a>' % ADDR).encode()
        assert scan_page(html, TLDS) == [("btc", ADDR, None)]

    def test_rejected_candidate_reported(self):
        html = ("<p>%s</p>" % ("1" * 30)).encode()
        assert scan_page(html, TLDS) == [("btc", "1" * 30, "bad-length")]

    def test_btc_then_eth_then_email(self):
        eth = "0x" + EIP55_VECTORS[0]
        html = ("<p>mail a@b.com, pay %s or %s or %s</p>" % (eth, ADDR, "1" * 30)).encode()
        assert scan_page(html, TLDS) == [("btc", ADDR, None), ("btc", "1" * 30, "bad-length"),
                                         ("eth", eth, None), ("email", "a@b.com", None)]
