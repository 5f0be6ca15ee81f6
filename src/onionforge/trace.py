"""Surface-web tracing of illicit addresses (search fixtures or an HTTP
endpoint), plus analyst-annotation import (abuse reports, identity facts)."""

from __future__ import annotations

import logging
from urllib.parse import urlparse

from .artifacts import NotJson, read_replay, word_list
from .net import NOT_FOUND, Client

log = logging.getLogger("onionforge.trace")

ANALYST_KINDS = ("AbuseReport", "IllicitSite", "Benign")


class TraceError(Exception):
    pass


def load_explorer_domains(path=None) -> set[str]:
    return word_list(path, "explorer_domains.txt")


class FixtureSearch:
    """Replay mode: <fixtures>/<address>.json holds an array of URLs (or
    {"url": ...}); with no fixtures directory, no address has a result."""

    source = "fixtures"

    def __init__(self, fixtures_dir):
        self.fixtures_dir = fixtures_dir

    def results(self, address: str) -> list[str]:
        return [row.get("url") if isinstance(row, dict) else row
                for row in read_replay(self.fixtures_dir, address)]


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


def url_host(url: str) -> str:
    """The URL's host, lowercased and without userinfo, port or [ ]; the
    lowercased netloc of a URL without a host, such as `http://:80/`."""
    parsed = urlparse(url)
    return parsed.hostname or parsed.netloc.lower()


def _host_matches(url: str, domains: set[str]) -> bool:
    host = url_host(url)
    return any(host == d or host.endswith("." + d) for d in domains)


def _is_web_url(url: str) -> bool:
    try:
        parsed = urlparse(url)
    except ValueError:  # such as an unclosed "[" around an IPv6 host
        return False
    return parsed.scheme in ("http", "https") and bool(parsed.netloc)


def search_address(address: str, provider, explorer_domains: set[str]) -> list[dict]:
    """The hits.jsonl rows {v, address, url, source, kind} of each distinct
    URL found for one address, of kind "Explorer" on an explorer host and
    "Unreviewed" elsewhere; a result that is not a string http(s) URL with
    a host raises TraceError."""
    hits = []
    seen = set()
    for url in provider.results(address):
        if not isinstance(url, str) or not _is_web_url(url):
            raise TraceError("search result is not an http(s) URL with a host: %r" % (url,))
        if url in seen:
            continue
        seen.add(url)
        kind = "Explorer" if _host_matches(url, explorer_domains) else "Unreviewed"
        hits.append({"v": 1, "address": address, "url": url, "source": provider.source,
                     "kind": kind})
    return hits


def search_all(addresses, provider, explorer_domains: set[str]):
    """Search every address; failures are recorded, not fatal."""
    hits: list[dict] = []
    failures: dict[str, str] = {}
    for address in sorted(set(addresses)):
        try:
            hits.extend(search_address(address, provider, explorer_domains))
        except Exception as exc:
            failures[address] = str(exc)
            log.warning("search failed for %s: %s", address, failures[address])
    return hits, failures


def import_annotations(rows, hits):
    """Apply analyst rows {url, kind?, ip?, registrant?, note?} to the hit rows.

    A line that is not JSON (a `NotJson` row), a row that is not an object,
    that names a URL absent from the hit rows, or whose kind is unknown or
    whose ip or registrant is not text, is skipped with a warning. A URL's
    last kind is set on every hit row of that URL. Each URL with an
    identity fact gets a surface.jsonl row {v, url, ip, registrant,
    addresses}: its last non-empty ip and registrant (None if it has none)
    and the addresses of its hits, which identity clustering consumes.
    Returns (surface rows by URL, skipped row count).
    """
    hits_by_url: dict[str, list[dict]] = {}
    for hit in hits:
        hits_by_url.setdefault(hit["url"], []).append(hit)
    facts: dict[str, dict] = {}
    skipped = 0
    for row in rows:
        problem = _annotation_problem(row, hits_by_url)
        if problem:
            log.warning("%s", problem)
            skipped += 1
            continue
        url, kind = row["url"], row.get("kind")
        if kind is not None:
            for hit in hits_by_url[url]:
                hit["kind"] = kind
        for key in ("ip", "registrant"):
            if row.get(key):
                facts.setdefault(url, {"v": 1, "url": url, "ip": None, "registrant": None})
                facts[url][key] = row[key]
    surface = [dict(facts[url], addresses=sorted({hit["address"] for hit in hits_by_url[url]}))
               for url in sorted(facts)]
    return surface, skipped


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


def hit_rows(hits, failures) -> list[dict]:
    """The hits.jsonl rows: the hit rows by (address, url), then each failed address."""
    return (sorted(hits, key=lambda hit: (hit["address"], hit["url"]))
            + [{"v": 1, "address": a, "error": failures[a]} for a in sorted(failures)])
