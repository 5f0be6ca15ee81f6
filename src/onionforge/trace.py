"""Surface-web tracing of illicit addresses (search fixtures or an HTTP
endpoint), plus analyst-annotation import (abuse reports, identity facts)."""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, replace
from pathlib import Path
from urllib.parse import urlparse

from .artifacts import read_jsonl, word_list, write_jsonl
from .net import NOT_FOUND, Client

log = logging.getLogger("onionforge.trace")

HIT_KINDS = ("Explorer", "AbuseReport", "IllicitSite", "Benign", "Unreviewed")
ANALYST_KINDS = ("AbuseReport", "IllicitSite", "Benign")


class TraceError(Exception):
    pass


@dataclass(frozen=True)
class SurfaceHit:
    address: str
    url: str
    source: str = "search"
    kind: str = "Unreviewed"

    def __post_init__(self):
        if self.kind not in HIT_KINDS:
            raise TraceError("unknown hit kind %r" % self.kind)
        parsed = urlparse(self.url)
        if parsed.scheme not in ("http", "https") or not parsed.netloc:
            raise TraceError("not a usable URL: %r" % self.url)


@dataclass(frozen=True)
class IdentityFact:
    url: str
    ip: str | None = None
    registrant: str | None = None

    def __post_init__(self):
        if not self.ip and not self.registrant:
            raise TraceError("identity fact for %s carries neither ip nor registrant"
                             % self.url)


def load_explorer_domains(path=None) -> set[str]:
    return word_list(path, "explorer_domains.txt")


class FixtureSearch:
    """Replay mode: <fixtures>/<address>.json holds an array of URLs."""

    source = "fixtures"

    def __init__(self, fixtures_dir):
        self.fixtures_dir = Path(fixtures_dir)

    def results(self, address: str) -> list[str]:
        path = self.fixtures_dir / (address + ".json")
        if not path.is_file():
            return []
        rows = json.loads(path.read_text())
        return [row if isinstance(row, str) else row["url"] for row in rows]


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


def search_address(address: str, provider, explorer_domains: set[str]) -> list[SurfaceHit]:
    """Deduplicated hits for one address, explorer URLs auto-marked."""
    hits = []
    seen = set()
    for url in provider.results(address):
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
    out = []
    for hit in hits:
        if hit.kind == "Unreviewed" and _host_matches(hit.url, explorer_domains):
            out.append(replace(hit, kind="Explorer"))
        else:
            out.append(hit)
    return out


def import_annotations(rows, hits):
    """Apply analyst rows {url, kind?, ip?, registrant?, note?} to hits.

    Rows naming a URL absent from the hit list are skipped with a warning.
    Returns (updated hits, identity facts, skipped row count).
    """
    known_urls = {h.url for h in hits}
    updated = list(hits)
    facts: list[IdentityFact] = []
    skipped = 0
    for row in rows:
        url = row.get("url")
        if url not in known_urls:
            log.warning("annotation for unknown url skipped: %r", url)
            skipped += 1
            continue
        kind = row.get("kind")
        if kind is not None and kind not in ANALYST_KINDS:
            log.warning("annotation with unknown kind %r skipped", kind)
            skipped += 1
            continue
        if kind is not None:
            updated = [replace(h, kind=kind) if h.url == url else h for h in updated]
        if row.get("ip") or row.get("registrant"):
            facts.append(IdentityFact(url=url, ip=row.get("ip"),
                                      registrant=row.get("registrant")))
    return updated, facts, skipped


def surface_links(hits, facts) -> list[dict]:
    """Join identity facts with the addresses seen at each URL.

    Produces the surface-facts rows consumed by identity clustering:
    {url, ip, registrant, addresses}.
    """
    addrs_by_url: dict[str, set[str]] = {}
    for hit in hits:
        addrs_by_url.setdefault(hit.url, set()).add(hit.address)
    merged: dict[str, dict] = {}
    for fact in facts:
        row = merged.setdefault(fact.url, {"url": fact.url, "ip": None,
                                           "registrant": None, "addresses": ()})
        if fact.ip:
            row["ip"] = fact.ip
        if fact.registrant:
            row["registrant"] = fact.registrant
    for url, row in merged.items():
        row["addresses"] = tuple(sorted(addrs_by_url.get(url, ())))
    return [merged[url] for url in sorted(merged)]


# --- hits.jsonl inter-stage format ---

def write_hits_jsonl(hits, failures, out_path):
    rows = [{"v": 1, "address": hit.address, "url": hit.url, "source": hit.source,
             "kind": hit.kind} for hit in sorted(hits, key=lambda h: (h.address, h.url))]
    rows += [{"v": 1, "address": a, "error": failures[a]} for a in sorted(failures)]
    write_jsonl(out_path, rows)


def write_surface_jsonl(out_path, links):
    write_jsonl(out_path, ({"v": 1, "url": row["url"], "ip": row["ip"],
                            "registrant": row["registrant"],
                            "addresses": list(row["addresses"])} for row in links))


def read_surface_jsonl(path) -> list[dict]:
    return [{"url": row["url"], "ip": row.get("ip"), "registrant": row.get("registrant"),
             "addresses": tuple(row.get("addresses", ()))} for row in read_jsonl(path)]
