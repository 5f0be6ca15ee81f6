"""Offline snapshot corpus: onion names, pages, and the corpus.jsonl format.

A snapshot tree looks like

    <root>/<onion-domain>/<percent-encoded-path-or-"index">.html
    <root>/manifest.jsonl        (optional: {domain, path, fetched_at})

The pipeline never touches the live Tor network: pages come only from a
snapshot tree. A corpus is its pages, as `PageRecord` rows in (domain,
path) order, the order corpus.jsonl holds them in. The snapshot's signature
and digest are the fingerprint `artifacts` defines, over the files ingest
reads. `base64` and `datetime` load on first use, so a run that skips
ingest and reads no page loads neither.
"""

from __future__ import annotations

import hashlib
import os
import re
from itertools import groupby
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import TYPE_CHECKING, NamedTuple
from urllib.parse import unquote

from .artifacts import (
    NotJson, StatSignature, format_utc, jsonl_rows, parse_utc, read_jsonl, sorted_entries,
    write_file,
)
from .logs import Logger

if TYPE_CHECKING:
    from datetime import datetime

log = Logger("onionforge.corpus")

MANIFEST = "manifest.jsonl"
ONION_NAME_RE = re.compile(r"^([a-z2-7]{16}|[a-z2-7]{56})\.onion$")


class CorpusError(Exception):
    pass


def onion_name(name: str) -> str:
    """A syntactically valid v2/v3 .onion name, canonical lowercase."""
    canon = name.strip().lower()
    if not ONION_NAME_RE.match(canon):
        raise ValueError("not a v2/v3 onion name: %r" % name)
    return canon


class PageRecord(NamedTuple):
    domain: str         # an `onion_name`
    path: str
    html: bytes         # non-empty
    fetched_at: datetime


class Corpus(tuple):
    """One page per (domain, path), a later page replacing an earlier one, in
    (domain, path) order; the ingest warnings are in `skipped`, and the
    snapshot's [signature, digest], when `ingest_snapshot` read it, in `pair`.

    Phase 3 sums a site's page vectors in this order, so every corpus,
    however it is built, sorts its pages here.
    """

    def __new__(cls, pages=(), skipped=(), pair=None):
        by_key = {(page.domain, page.path): page for page in pages}
        corpus = super().__new__(cls, (by_key[key] for key in sorted(by_key)))
        corpus.skipped = list(skipped)
        corpus.pair = pair
        return corpus

    def sites(self):
        """(domain, pages) for each site, by domain."""
        return groupby(self, key=attrgetter("domain"))


def _nonempty(html: bytes) -> bytes:
    if not html:
        raise ValueError("empty page")
    return html


def _path_from_filename(name: str) -> str:
    stem = name[:-len(".html")]
    if stem == "index":
        return "/"
    # strict decoding so undecodable names are reported instead of mangled
    return unquote(stem, errors="strict")


def _snapshot_files(root, skip=lambda name, entry_name, reason: None):
    """Yield (relative name, DirEntry, domain) of each file `ingest_snapshot`
    reads under `root`, by name at each level: the manifest with domain
    None, and each `.html` entry of a site directory with its site's domain.

    A top-level link to a directory is entered. `skip(name, entry name,
    reason)` is told of each entry that is passed over, but for a top-level
    one that is no directory or a symlink loop.
    """
    for top in sorted_entries(root):
        try:
            is_dir = top.is_dir()
            is_manifest = not is_dir and top.name == MANIFEST and top.is_file()
        except OSError:  # a symlink loop
            continue
        if is_manifest:
            yield MANIFEST, top, None
        if not is_dir:
            continue
        try:
            domain = onion_name(top.name)
        except ValueError as exc:
            skip(top.name, top.name, exc)
            continue
        prefix = top.name + "/"
        for page in sorted_entries(top.path):
            if page.name.endswith(".html"):
                yield prefix + page.name, page, domain
            else:
                skip(prefix + page.name, page.name, "not a page file")


def snapshot_signature(root) -> tuple[str, int]:
    """(signature, newest) of the files `ingest_snapshot` reads under
    `root`, taken without reading a byte: the signature its read takes."""
    signature = StatSignature()
    for name, entry, _ in _snapshot_files(root):
        try:
            signature.add(name, entry.stat())
        except OSError:  # ingest skips a page it cannot stat
            pass
    return signature.taken()


def _read_manifest(data: bytes) -> dict[tuple[str, str], tuple[int, datetime]]:
    """(domain, path) -> (line number, fetched_at) of each usable manifest line."""
    manifest = {}
    for lineno, row in jsonl_rows([data], keep_bad_lines=True):
        try:
            if isinstance(row, NotJson):
                raise row
            if not (isinstance(row, dict) and all(
                    isinstance(row.get(k), str) for k in ("domain", "path", "fetched_at"))):
                raise ValueError("not an object with text domain, path and fetched_at")
            key = (onion_name(row["domain"]), row["path"])  # case-blind, as directories
            manifest[key] = lineno, parse_utc(row["fetched_at"])
        except (ValueError, OverflowError) as exc:  # a time past datetime's range overflows
            log.warning("manifest line %d unusable: %s", lineno, str(exc))
    return manifest


def ingest_snapshot(root) -> Corpus:
    """Load a snapshot tree into a Corpus, with the snapshot's (signature,
    digest) as its `pair`.

    Malformed domain directories are skipped with a warning; so are entries
    that are not non-empty, readable `.html` files with a percent-decodable
    name, and unusable manifest lines, such as one whose domain is not an
    onion name. A manifest line that matches no page is logged and listed in
    `skipped`. Duplicate (domain, path) entries are last-write-wins.

    One walk stats, reads, then hashes each file it reads, so an edit made
    during the read leaves a stale signature (`snapshot_signature`'s), never
    a stale digest. The digest hashes each file as `path_digest` does, then
    the name and mtime of each page without a manifest line: its `fetched_at`.
    """
    from datetime import datetime, timezone
    if not os.path.isdir(root):
        raise CorpusError("snapshot root not readable: %s" % root)
    signature, digest = StatSignature(), hashlib.sha256()
    skipped: list[str] = []

    def skip(name, entry_name, reason):
        skipped.append(name)
        # the text only: a logged exception's traceback would keep the walk alive
        log.warning("skipping %r: %s", entry_name, str(reason))

    def read(name, entry) -> tuple[os.stat_result, bytes]:
        st = entry.stat()
        signature.add(name, st)
        digest.update(name.encode())
        with open(entry.path, "rb", buffering=0) as fh:
            data = fh.read()
        digest.update(data)
        return st, data

    manifest: dict[tuple[str, str], tuple[int, datetime]] = {}
    # (name, html, st_mtime, st_mtime_ns): a whole stat_result per page
    # would outweigh the page records the walk returns
    pages: dict[tuple[str, str], tuple[str, bytes, float, int]] = {}
    for name, entry, domain in _snapshot_files(root, skip):
        if domain is None:
            manifest = _read_manifest(read(name, entry)[1])
            continue
        try:
            st, html = read(name, entry)  # a directory or unreadable: OSError
            key = domain, _path_from_filename(entry.name)  # UnicodeDecodeError is a ValueError
            _nonempty(html)
        except (ValueError, OSError) as exc:
            skip(name, entry.name, exc)
            continue
        if key in pages:
            log.warning("duplicate page %s %s: keeping later file", *key)
        pages[key] = name, html, st.st_mtime, st.st_mtime_ns

    records = []
    for key, (name, html, mtime, mtime_ns) in pages.items():
        if key in manifest:
            fetched = manifest[key][1]
        else:
            fetched = datetime.fromtimestamp(mtime, tz=timezone.utc)
            digest.update(b"%s\0%d\n" % (name.encode(), mtime_ns))
        records.append(PageRecord(*key, html, fetched))
    for lineno in sorted(line for key, (line, _) in manifest.items() if key not in pages):
        skipped.append("manifest line %d" % lineno)
        log.warning("manifest line %d matches no page", lineno)
    return Corpus(records, skipped, [signature.taken()[0], digest.hexdigest()])


# --- corpus.jsonl inter-stage format ---

def write_corpus_jsonl(corpus: Corpus, out_path) -> str:
    """One row per page, in corpus order: the JSONL row `artifacts.write_jsonl`
    would write, {domain, fetched_at, html_b64, path, v} with sorted keys, built
    by one format because the base64 text needs no escaping. Returns the
    file's digest."""
    import base64
    return write_file(out_path, (
        '{"domain": %s, "fetched_at": %s, "html_b64": "%s", "path": %s, "v": 1}\n'
        % (encode_basestring_ascii(page.domain),
           encode_basestring_ascii(format_utc(page.fetched_at)),
           base64.b64encode(page.html).decode("ascii"),
           encode_basestring_ascii(page.path))
        for page in corpus))


def read_corpus_jsonl(path) -> Corpus:
    """The corpus a corpus.jsonl holds; a row whose domain is not an onion name
    or whose page is empty raises ValueError, and a later row for the same
    (domain, path) replaces an earlier one."""
    import base64
    return Corpus(PageRecord(onion_name(row["domain"]), row["path"],
                             _nonempty(base64.b64decode(row["html_b64"])),
                             parse_utc(row["fetched_at"]))
                  for row in read_jsonl(path))
