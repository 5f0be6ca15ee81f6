"""Offline snapshot corpus: onion names, pages, and the corpus.jsonl format.

A snapshot tree looks like

    <root>/<onion-domain>/<percent-encoded-path-or-"index">.html
    <root>/manifest.jsonl        (optional: {domain, path, fetched_at})

The pipeline never touches the live Tor network: pages come only from a
snapshot tree. A corpus is its pages, as `PageRecord` rows in (domain,
path) order, the order corpus.jsonl holds them in. `base64` and `datetime`
load on first use, so a run that skips ingest and reads no page loads neither.
"""

from __future__ import annotations

import json
import logging
import re
from itertools import groupby
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple
from urllib.parse import unquote

from .artifacts import format_utc, parse_utc, read_jsonl

if TYPE_CHECKING:
    from datetime import datetime

log = logging.getLogger("onionforge.corpus")

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
    (domain, path) order; the ingest warnings are in `skipped`.

    Phase 3 sums a site's page vectors in this order, so every corpus,
    however it is built, sorts its pages here.
    """

    def __new__(cls, pages=(), skipped=()):
        by_key = {(page.domain, page.path): page for page in pages}
        corpus = super().__new__(cls, (by_key[key] for key in sorted(by_key)))
        corpus.skipped = list(skipped)
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


def ingest_snapshot(root) -> Corpus:
    """Load a snapshot tree into a Corpus.

    Malformed domain directories are skipped with a warning; so are entries
    that are not non-empty, readable `.html` files with a percent-decodable
    name, and unusable manifest lines, such as one whose domain is not an
    onion name. Duplicate (domain, path) entries are last-write-wins.
    """
    from datetime import datetime, timezone
    root = Path(root)
    if not root.is_dir():
        raise CorpusError("snapshot root not readable: %s" % root)

    manifest: dict[tuple[str, str], datetime] = {}
    manifest_path = root / "manifest.jsonl"
    if manifest_path.is_file():
        for lineno, line in enumerate(manifest_path.read_text().splitlines(), 1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
                if not (isinstance(row, dict) and all(
                        isinstance(row.get(k), str) for k in ("domain", "path", "fetched_at"))):
                    raise ValueError("not an object with text domain, path and fetched_at")
                key = (onion_name(row["domain"]), row["path"])  # case-blind, as directories
                manifest[key] = parse_utc(row["fetched_at"])
            except (ValueError, OverflowError) as exc:  # a time past datetime's range overflows
                log.warning("manifest line %d unusable: %s", lineno, exc)

    pages: dict[tuple[str, str], PageRecord] = {}
    skipped: list[str] = []
    for entry in sorted(root.iterdir()):
        if not entry.is_dir():
            continue
        try:
            domain = onion_name(entry.name)
        except ValueError:
            skipped.append(entry.name)
            log.warning("skipping non-onion directory %r", entry.name)
            continue
        for page_file in sorted(entry.iterdir()):
            try:
                if not page_file.name.endswith(".html"):
                    raise ValueError("not a page file")
                path = _path_from_filename(page_file.name)  # UnicodeDecodeError is a ValueError
                html = _nonempty(page_file.read_bytes())  # a directory or unreadable: OSError
            except (ValueError, OSError) as exc:
                skipped.append("%s/%s" % (entry.name, page_file.name))
                log.warning("skipping %r: %s", page_file.name, exc)
                continue
            fetched = manifest.get((domain, path))
            if fetched is None:
                fetched = datetime.fromtimestamp(page_file.stat().st_mtime, tz=timezone.utc)
            if (domain, path) in pages:
                log.warning("duplicate page %s %s: keeping later file", domain, path)
            pages[domain, path] = PageRecord(domain, path, html, fetched)
    return Corpus(pages.values(), skipped)


# --- corpus.jsonl inter-stage format ---

def write_corpus_jsonl(corpus: Corpus, out_path):
    """One row per page, in corpus order: the JSONL row `artifacts.write_jsonl`
    would write, {domain, fetched_at, html_b64, path, v} with sorted keys, built
    by one format because the base64 text needs no escaping."""
    import base64
    with open(out_path, "w") as fh:
        fh.writelines(
            '{"domain": %s, "fetched_at": %s, "html_b64": "%s", "path": %s, "v": 1}\n'
            % (encode_basestring_ascii(page.domain),
               encode_basestring_ascii(format_utc(page.fetched_at)),
               base64.b64encode(page.html).decode("ascii"),
               encode_basestring_ascii(page.path))
            for page in corpus)


def read_corpus_jsonl(path) -> Corpus:
    """The corpus a corpus.jsonl holds; a row whose domain is not an onion name
    or whose page is empty raises ValueError, and a later row for the same
    (domain, path) replaces an earlier one."""
    import base64
    return Corpus(PageRecord(onion_name(row["domain"]), row["path"],
                             _nonempty(base64.b64decode(row["html_b64"])),
                             parse_utc(row["fetched_at"]))
                  for row in read_jsonl(path))
