"""Candidate address extraction and validation.

Bitcoin candidates are 25-39 char alphanumeric runs validated with
Base58Check; Ethereum candidates are 40 hex chars (optional 0x) validated
with the EIP-55 mixed-case checksum; emails are kept only when the final
domain label is a known TLD. Bech32 (bc1...) addresses fall outside the
25-39 alphanumeric pattern and are not extracted.
"""

from __future__ import annotations

import re

from . import base58
from .artifacts import word_list
from .keccak import keccak256, keccak256_batch
from .pagetext import page_text_and_attrs

# maximal alphanumeric runs only: a candidate embedded in a longer run is noise
_ALNUM_RUN_RE = re.compile(r"[0-9a-zA-Z]+")
_HEX_RE = re.compile(r"[0-9a-fA-F]{40}$")
_EMAIL_LOCAL = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789._%+-")
_EMAIL_HOST_RE = re.compile(r"[A-Za-z0-9.-]+")
_HOST_LABEL_RE = re.compile(r"^[A-Za-z0-9](?:[A-Za-z0-9-]{0,61}[A-Za-z0-9])?$")

BTC_MIN_LEN = 25
BTC_MAX_LEN = 39
BTC_VERSIONS = (0x00, 0x05)  # P2PKH, P2SH

# a validator returns None for a valid address, else one reject reason:
# bad-alphabet | bad-checksum | bad-version | bad-length | bad-hex | bad-eip55


def load_tlds(path=None) -> set[str]:
    return word_list(path, "tlds.txt")


def find_candidates(text: str) -> tuple[list[str], list[str]]:
    """BTC and ETH candidates from one pass over the maximal alphanumeric runs.

    BTC: runs of 25-39 chars. ETH: runs of exactly 40 hex chars, or 0x/0X +
    40 hex chars. The length ranges are disjoint, so a run is at most one of
    the two. Each list is in document order, deduplicated.
    """
    btc: dict[str, None] = {}
    eth: dict[str, None] = {}
    for run in _ALNUM_RUN_RE.findall(text):
        n = len(run)
        if n < BTC_MIN_LEN:
            continue
        if n <= BTC_MAX_LEN:
            btc[run] = None
        elif n == 40:
            if _HEX_RE.match(run):
                eth[run] = None
        elif n == 42 and run[:2] in ("0x", "0X") and _HEX_RE.match(run, 2):
            eth[run] = None
    return list(btc), list(eth)


def validate_btc(text: str) -> str | None:
    """Base58Check validation; accepts only version 0x00 / 0x05 payloads."""
    try:
        raw = base58.b58decode(text)
    except base58.Base58Error:
        return "bad-alphabet"
    if len(raw) != 25:
        return "bad-length"
    if base58.checksum(raw[:-4]) != raw[-4:]:
        return "bad-checksum"
    if raw[0] not in BTC_VERSIONS:
        return "bad-version"
    return None


def _eip55_cased(lower: str, digest: bytes) -> str:
    """`lower` with each letter upper-cased where the digest's nibble is >= 8."""
    nibbles = digest.hex()
    return "".join(c.upper() if c.isalpha() and int(nibbles[i], 16) >= 8 else c
                   for i, c in enumerate(lower))


def eip55_checksum(hex_body: str) -> str:
    """Canonical mixed-case form of a 40-char hex address body."""
    lower = hex_body.lower()
    return _eip55_cased(lower, keccak256(lower.encode("ascii")))


def eip55_checksums(hex_bodies) -> dict[str, str]:
    """`eip55_checksum` of each body, keyed by the body lowercased: the
    distinct bodies are hashed once each, all in one Keccak batch."""
    lowers = list(dict.fromkeys(body.lower() for body in hex_bodies))
    digests = keccak256_batch([lower.encode("ascii") for lower in lowers])
    return dict(zip(lowers, map(_eip55_cased, lowers, digests)))


def _eth_body(candidate: str) -> str:
    return candidate[2:] if candidate[:2] in ("0x", "0X") else candidate


def _mixed_case(body: str) -> bool:
    """Whether the body carries an EIP-55 checksum: single-case bodies do not."""
    return body != body.lower() and body != body.upper()


def validate_eth(candidate: str, checksums: dict[str, str] | None = None) -> str | None:
    """Hex + EIP-55 validation. Single-case bodies carry no checksum.

    `checksums` is `eip55_checksums` of a batch that holds this body; without
    it, a mixed-case body is hashed on its own.
    """
    body = _eth_body(candidate)
    if len(body) != 40:
        return "bad-length"
    if not _HEX_RE.match(body):
        return "bad-hex"
    if not _mixed_case(body):
        return None
    canonical = eip55_checksum(body) if checksums is None else checksums[body.lower()]
    return None if body == canonical else "bad-eip55"


def _valid_hostname(host: str) -> bool:
    labels = host.split(".")
    if len(labels) < 2:
        return False
    return all(_HOST_LABEL_RE.match(label) for label in labels)


def _email_parts(text: str):
    """(local, host) of each `local@host` run, left to right, in one pass.

    The runs are those `re.finditer(r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+")`
    finds, without its quadratic retries on long runs with no "@": each "@"
    with a host character after it takes the longest host run, and the local
    part is the run of local characters just before it, cut at the end of the
    previous match (in "a@b_c@d.com" the second local part is "_c").
    """
    end = 0
    at = text.find("@")
    while at >= 0:
        host = _EMAIL_HOST_RE.match(text, at + 1)
        if host:
            start = at
            while start > end and text[start - 1] in _EMAIL_LOCAL:
                start -= 1
            if start < at:
                yield text[start:at], host.group()
                end = host.end()
        at = text.find("@", at + 1)


def find_emails(text: str, known_tlds: set[str]) -> list[str]:
    """Syntactically valid "local@host" addresses whose final domain label is
    a known TLD, host lowercased, first occurrences in order.

    Linear in the text: see `_email_parts`.
    """
    if not known_tlds:
        raise ValueError("known_tlds must be non-empty")
    out = []
    for local, host in _email_parts(text):
        host = host.rstrip(".").lower()
        if not _valid_hostname(host):
            continue
        if host.rsplit(".", 1)[-1] not in known_tlds:
            continue
        out.append("%s@%s" % (local, host))
    return list(dict.fromkeys(out))


def scan_pages(pages, known_tlds: set[str]) -> tuple[list[list[tuple[str, str, str | None]]],
                                                     list[str]]:
    """Each page's (kind, value, reject reason) triples, and each page's
    visible text (`page_text`), in page order. A page's triples are every BTC
    candidate, then every ETH candidate, then every email (always valid); a
    valid address has reason None.

    The mixed-case ETH bodies of all the pages are hashed in one Keccak batch,
    each distinct body once.
    """
    found, texts = [], []
    for html in pages:
        visible, text = page_text_and_attrs(html)
        texts.append(visible)
        btc, eth = find_candidates(text)
        found.append((btc, eth, find_emails(text, known_tlds)))
    checksums = eip55_checksums(body for _, eth, _ in found for body in map(_eth_body, eth)
                                if _mixed_case(body))
    return [[("btc", cand, validate_btc(cand)) for cand in btc]
            + [("eth", cand, validate_eth(cand, checksums)) for cand in eth]
            + [("email", email, None) for email in emails]
            for btc, eth, emails in found], texts


def scan_page(html: bytes, known_tlds: set[str]) -> list[tuple[str, str, str | None]]:
    """`scan_pages` of one page: its triples."""
    return scan_pages([html], known_tlds)[0][0]
