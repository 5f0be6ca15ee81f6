"""Surface-web tracing of illicit addresses (search fixtures or an HTTP
endpoint), plus analyst-annotation import (abuse reports, identity facts)."""

from __future__ import annotations

import json
import logging
from pathlib import Path
from typing import NamedTuple
from urllib.parse import urlparse

from .artifacts import NotJson, word_list
from .net import NOT_FOUND, Client

log = logging.getLogger("onionforge.trace")

ANALYST_KINDS = ("AbuseReport", "IllicitSite", "Benign")


class TraceError(Exception):
    pass


class SurfaceHit(NamedTuple):
    address: str
    url: str
    source: str = "search"
    kind: str = "Unreviewed"  # or "Explorer", or one of ANALYST_KINDS


class IdentityFact(NamedTuple):
    url: str
    ip: str | None = None
    registrant: str | None = None


def load_explorer_domains(path=None) -> set[str]:
    return word_list(path, "explorer_domains.txt")


class FixtureSearch:
    """Replay mode: <fixtures>/<address>.json holds an array of URLs (or {"url": ...})."""

    source = "fixtures"

    def __init__(self, fixtures_dir):
        self.fixtures_dir = Path(fixtures_dir)

    def results(self, address: str) -> list[str]:
        path = self.fixtures_dir / (address + ".json")
        if not path.is_file():
            return []
        rows = json.loads(path.read_text())
        if not isinstance(rows, list):
            raise TraceError("%s is not a JSON array" % path.name)
        return [row.get("url") if isinstance(row, dict) else row for row in rows]


class HttpSearch:
    """GET {base_url}?q={address} through `net.Client`, answered by {"results": [url, ...]}.

    A 404 or an answer of another shape (`{"error": ...}` too) raises
    TraceError; other failed requests raise the client's FetchError.
    """

    source = "http"

    def __init__(self, base_url: str, session=None, rate_limit: float | None = None):
        self.base_url = base_url
        self.client = Client(session, rate_limit)

    def results(self, address: str) -> list[str]:
        payload = self.client.get_json(self.base_url, params={"q": address})
        if payload is NOT_FOUND:
            raise TraceError("HTTP 404 from %s" % self.base_url)
        urls = payload.get("results") if isinstance(payload, dict) else None
        if not isinstance(urls, list):
            raise TraceError("malformed answer from %s: no results array" % self.base_url)
        return urls


def _host_matches(url: str, domains: set[str]) -> bool:
    host = urlparse(url).netloc.lower().split(":")[0]
    return any(host == d or host.endswith("." + d) for d in domains)


def _is_web_url(url: str) -> bool:
    try:
        parsed = urlparse(url)
    except ValueError:  # such as an unclosed "[" around an IPv6 host
        return False
    return parsed.scheme in ("http", "https") and bool(parsed.netloc)


def search_address(address: str, provider, explorer_domains: set[str]) -> list[SurfaceHit]:
    """Deduplicated hits for one address, explorer URLs auto-marked; a result
    that is not a string http(s) URL with a host raises TraceError."""
    hits = []
    seen = set()
    for url in provider.results(address):
        if not isinstance(url, str) or not _is_web_url(url):
            raise TraceError("search result is not an http(s) URL with a host: %r" % (url,))
        if url in seen:
            continue
        seen.add(url)
        hits.append(SurfaceHit(address=address, url=url, source=provider.source))
    return filter_explorer_urls(hits, explorer_domains)


def search_all(addresses, provider, explorer_domains: set[str]):
    """Search every address; failures are recorded, not fatal."""
    hits: list[SurfaceHit] = []
    failures: dict[str, str] = {}
    for address in sorted(set(addresses)):
        try:
            hits.extend(search_address(address, provider, explorer_domains))
        except Exception as exc:
            failures[address] = str(exc)
            log.warning("search failed for %s: %s", address, exc)
    return hits, failures


def filter_explorer_urls(hits, explorer_domains: set[str]) -> list[SurfaceHit]:
    """Mark unreviewed hits on explorer hosts; analyst kinds stay untouched."""
    return [hit._replace(kind="Explorer")
            if hit.kind == "Unreviewed" and _host_matches(hit.url, explorer_domains) else hit
            for hit in hits]


def import_annotations(rows, hits):
    """Apply analyst rows {url, kind?, ip?, registrant?, note?} to hits.

    A line that is not JSON (a `NotJson` row), a row that is not an object,
    that names a URL absent from the hit list, or whose kind is unknown or
    whose ip or registrant is not text, is skipped with a warning. A URL's
    last kind applies to every hit of that URL.
    Returns (updated hits, identity facts, skipped row count).
    """
    known_urls = {h.url for h in hits}
    kinds: dict[str, str] = {}
    facts: list[IdentityFact] = []
    skipped = 0
    for row in rows:
        problem = _annotation_problem(row, known_urls)
        if problem:
            log.warning("%s", problem)
            skipped += 1
            continue
        url, kind, ip, registrant = (row["url"], row.get("kind"), row.get("ip"),
                                     row.get("registrant"))
        if kind is not None:
            kinds[url] = kind
        if ip or registrant:
            facts.append(IdentityFact(url=url, ip=ip, registrant=registrant))
    updated = [h._replace(kind=kinds[h.url]) if h.url in kinds else h for h in hits]
    return updated, facts, skipped


def _annotation_problem(row, known_urls) -> str | None:
    """Why `import_annotations` skips `row`, or None if it applies."""
    if isinstance(row, NotJson):
        return "annotation %s; skipped" % (row,)
    if not isinstance(row, dict):
        return "annotation that is not an object skipped: %r" % (row,)
    url = row.get("url")
    if not isinstance(url, str) or url not in known_urls:  # a list is unhashable
        return "annotation for unknown url skipped: %r" % (url,)
    kind = row.get("kind")
    if kind is not None and kind not in ANALYST_KINDS:
        return "annotation with unknown kind %r skipped" % (kind,)
    if not all(v is None or isinstance(v, str) for v in (row.get("ip"), row.get("registrant"))):
        return "annotation with a non-text ip or registrant skipped: %r" % (row,)
    return None


def surface_links(hits, facts) -> list[dict]:
    """Join identity facts with the addresses seen at each URL.

    Produces the surface.jsonl rows {v, url, ip, registrant, addresses}, by
    URL, that identity clustering consumes.
    """
    addrs_by_url: dict[str, set[str]] = {}
    for hit in hits:
        addrs_by_url.setdefault(hit.url, set()).add(hit.address)
    merged: dict[str, dict] = {}
    for fact in facts:
        row = merged.setdefault(fact.url, {"v": 1, "url": fact.url, "ip": None,
                                           "registrant": None})
        if fact.ip:
            row["ip"] = fact.ip
        if fact.registrant:
            row["registrant"] = fact.registrant
    for url, row in merged.items():
        row["addresses"] = sorted(addrs_by_url.get(url, ()))
    return [merged[url] for url in sorted(merged)]


def hit_rows(hits, failures) -> list[dict]:
    """The hits.jsonl rows: each hit by (address, url), then each failed address."""
    rows = [{"v": 1, "address": hit.address, "url": hit.url, "source": hit.source,
             "kind": hit.kind} for hit in sorted(hits, key=lambda h: (h.address, h.url))]
    return rows + [{"v": 1, "address": a, "error": failures[a]} for a in sorted(failures)]
