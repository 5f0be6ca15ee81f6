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
from pathlib import Path
from urllib.parse import unquote

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
    pages: list[PageRecord] = field(default_factory=list)
    index: dict[OnionDomain, list[PageRecord]] = field(default_factory=dict)
    skipped: list[str] = field(default_factory=list)  # ingest warnings

    def add(self, page: PageRecord, replace: bool = False):
        bucket = self.index.setdefault(page.domain, [])
        for i, existing in enumerate(bucket):
            if existing.path == page.path:
                if not replace:
                    raise CorpusError("duplicate page %s %s" % (page.domain, page.path))
                bucket[i] = page
                self.pages[self.pages.index(existing)] = page
                return
        bucket.append(page)
        self.pages.append(page)

    def domains(self) -> list[OnionDomain]:
        return sorted(self.index)

    def pages_for(self, domain: OnionDomain) -> list[PageRecord]:
        return list(self.index.get(domain, []))

    def __len__(self):
        return len(self.pages)


def _path_from_filename(name: str) -> str:
    stem = name[:-len(".html")]
    if stem == "index":
        return "/"
    # strict decoding so undecodable names are reported instead of mangled
    return unquote(stem, errors="strict")


def _parse_rfc3339(value: str) -> datetime:
    ts = datetime.fromisoformat(value.replace("Z", "+00:00"))
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


def ingest_snapshot(root) -> Corpus:
    """Load a snapshot tree into a Corpus.

    Malformed domain directories are skipped with a warning; so are files
    whose names cannot be percent-decoded. Duplicate (domain, path) entries
    are last-write-wins.
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
                manifest[(row["domain"], row["path"])] = _parse_rfc3339(row["fetched_at"])
            except (ValueError, KeyError) as exc:
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
            if not page_file.name.endswith(".html"):
                corpus.skipped.append("%s/%s" % (entry.name, page_file.name))
                log.warning("skipping non-page file %r", page_file.name)
                continue
            try:
                path = _path_from_filename(page_file.name)
            except UnicodeDecodeError:
                corpus.skipped.append("%s/%s" % (entry.name, page_file.name))
                log.warning("skipping undecodable file name %r", page_file.name)
                continue
            html = page_file.read_bytes()
            if not html:
                corpus.skipped.append("%s/%s" % (entry.name, page_file.name))
                log.warning("skipping empty page %r", page_file.name)
                continue
            fetched = manifest.get((domain.name, path))
            if fetched is None:
                fetched = datetime.fromtimestamp(page_file.stat().st_mtime, tz=timezone.utc)
            page = PageRecord(domain=domain, path=path, html=html, fetched_at=fetched)
            try:
                corpus.add(page)
            except CorpusError:
                log.warning("duplicate page %s %s: keeping later file", domain, path)
                corpus.add(page, replace=True)
    return corpus


# --- corpus.jsonl inter-stage format ---

def write_corpus_jsonl(corpus: Corpus, out_path):
    with open(out_path, "w") as fh:
        for page in sorted(corpus.pages, key=lambda p: (p.domain.name, p.path)):
            fh.write(json.dumps({
                "v": 1,
                "domain": page.domain.name,
                "path": page.path,
                "fetched_at": page.fetched_at.isoformat().replace("+00:00", "Z"),
                "html_b64": base64.b64encode(page.html).decode("ascii"),
            }, sort_keys=True) + "\n")


def read_corpus_jsonl(path) -> Corpus:
    corpus = Corpus()
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            row = json.loads(line)
            corpus.add(PageRecord(
                domain=OnionDomain(row["domain"]),
                path=row["path"],
                html=base64.b64decode(row["html_b64"]),
                fetched_at=_parse_rfc3339(row["fetched_at"]),
            ), replace=True)
    return corpus

