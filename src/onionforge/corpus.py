"""Offline snapshot corpus: onion domains, pages, and the corpus.jsonl format.

A snapshot tree looks like

    <root>/<onion-domain>/<percent-encoded-path-or-"index">.html
    <root>/manifest.jsonl        (optional: {domain, path, fetched_at})

The pipeline never touches the live Tor network: pages come only from a
snapshot tree.
"""

from __future__ import annotations

import base64
import json
import logging
import re
from dataclasses import dataclass, field
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii
from pathlib import Path
from urllib.parse import unquote

from .artifacts import parse_utc, read_jsonl

log = logging.getLogger("onionforge.corpus")

ONION_NAME_RE = re.compile(r"^([a-z2-7]{16}|[a-z2-7]{56})\.onion$")


class CorpusError(Exception):
    pass


@dataclass(frozen=True, order=True)
class OnionDomain:
    """A syntactically valid .onion name, canonical lowercase."""

    name: str

    def __post_init__(self):
        canon = self.name.strip().lower()
        if not ONION_NAME_RE.match(canon):
            raise ValueError("not a v2/v3 onion name: %r" % self.name)
        object.__setattr__(self, "name", canon)

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class PageRecord:
    domain: OnionDomain
    path: str
    html: bytes
    fetched_at: datetime

    def __post_init__(self):
        if not self.html:
            raise ValueError("page html must be non-empty")


@dataclass
class Corpus:
    """Pages by domain and path; adding a page at a known (domain, path) replaces it."""

    index: dict[OnionDomain, dict[str, PageRecord]] = field(default_factory=dict)
    skipped: list[str] = field(default_factory=list)  # ingest warnings

    def add(self, page: PageRecord):
        self.index.setdefault(page.domain, {})[page.path] = page

    @property
    def pages(self) -> list[PageRecord]:
        return [page for bucket in self.index.values() for page in bucket.values()]

    def domains(self) -> list[OnionDomain]:
        return sorted(self.index)

    def pages_for(self, domain: OnionDomain) -> list[PageRecord]:
        return list(self.index.get(domain, {}).values())

    def in_path_order(self) -> Corpus:
        """The same pages by (domain, path), the order corpus.jsonl holds them in."""
        ordered = Corpus()
        for page in sorted(self.pages, key=_path_order):
            ordered.add(page)
        return ordered

    def __len__(self):
        return sum(len(bucket) for bucket in self.index.values())


def _path_order(page: PageRecord):
    return page.domain.name, page.path


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
    name, and unusable manifest lines.
    Duplicate (domain, path) entries are last-write-wins.
    """
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
                manifest[(row["domain"], row["path"])] = parse_utc(row["fetched_at"])
            except (ValueError, OverflowError) as exc:  # a time past datetime's range overflows
                log.warning("manifest line %d unusable: %s", lineno, exc)

    corpus = Corpus()
    for entry in sorted(root.iterdir()):
        if not entry.is_dir():
            continue
        try:
            domain = OnionDomain(entry.name)
        except ValueError:
            corpus.skipped.append(entry.name)
            log.warning("skipping non-onion directory %r", entry.name)
            continue
        for page_file in sorted(entry.iterdir()):
            try:
                if not page_file.name.endswith(".html"):
                    raise ValueError("not a page file")
                path = _path_from_filename(page_file.name)  # UnicodeDecodeError is a ValueError
                html = page_file.read_bytes()  # a directory or an unreadable file: OSError
                if not html:
                    raise ValueError("empty page")
            except (ValueError, OSError) as exc:
                corpus.skipped.append("%s/%s" % (entry.name, page_file.name))
                log.warning("skipping %r: %s", page_file.name, exc)
                continue
            fetched = manifest.get((domain.name, path))
            if fetched is None:
                fetched = datetime.fromtimestamp(page_file.stat().st_mtime, tz=timezone.utc)
            if path in corpus.index.get(domain, {}):
                log.warning("duplicate page %s %s: keeping later file", domain, path)
            corpus.add(PageRecord(domain=domain, path=path, html=html, fetched_at=fetched))
    return corpus


# --- corpus.jsonl inter-stage format ---

def write_corpus_jsonl(corpus: Corpus, out_path):
    """One row per page, by (domain, path): the JSONL row `artifacts.write_jsonl`
    would write, {domain, fetched_at, html_b64, path, v} with sorted keys, built
    by one format because the base64 text needs no escaping."""
    with open(out_path, "w") as fh:
        fh.writelines(
            '{"domain": %s, "fetched_at": %s, "html_b64": "%s", "path": %s, "v": 1}\n'
            % (encode_basestring_ascii(page.domain.name),
               encode_basestring_ascii(page.fetched_at.isoformat().replace("+00:00", "Z")),
               base64.b64encode(page.html).decode("ascii"),
               encode_basestring_ascii(page.path))
            for page in sorted(corpus.pages, key=_path_order))


def read_corpus_jsonl(path) -> Corpus:
    corpus = Corpus()
    for row in read_jsonl(path):
        corpus.add(PageRecord(
            domain=OnionDomain(row["domain"]),
            path=row["path"],
            html=base64.b64decode(row["html_b64"]),
            fetched_at=parse_utc(row["fetched_at"]),
        ))
    return corpus
