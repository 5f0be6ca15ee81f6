"""Trace and filter build their artifacts' rows directly; these properties
check them against the record-type path they replaced.

The reference below is that path: search hits as `SurfaceHit` records,
marked by a separate explorer pass, annotated, then joined with identity
facts and converted to rows; and each site's `FilterResult`, converted to
audit rows and merged into illicit.jsonl rows by the filter stage. Both
paths must write the same JSONL bytes.
"""

import json
from typing import NamedTuple

from hypothesis import given, settings, strategies as st

from onionforge import chain, report, trace
from onionforge.artifacts import NotJson
from onionforge.classify import OTHER

EXPLORERS = trace.load_explorer_domains()


def jsonl(rows) -> bytes:
    """The bytes `artifacts.write_jsonl` writes for `rows`."""
    return "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows).encode()


# --- the reference: trace through records ---

class SurfaceHit(NamedTuple):
    address: str
    url: str
    source: str = "search"
    kind: str = "Unreviewed"


class IdentityFact(NamedTuple):
    url: str
    ip: str | None = None
    registrant: str | None = None


def filter_explorer_urls(hits, explorer_domains):
    def on_explorer(url):
        host = trace.url_host(url)
        return any(host == d or host.endswith("." + d) for d in explorer_domains)
    return [hit._replace(kind="Explorer")
            if hit.kind == "Unreviewed" and on_explorer(hit.url) else hit
            for hit in hits]


def import_annotations(rows, hits):
    known_urls = {h.url for h in hits}
    kinds, facts, skipped = {}, [], 0
    for row in rows:
        if trace._annotation_problem(row, known_urls):
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


def surface_links(hits, facts):
    addrs_by_url = {}
    for hit in hits:
        addrs_by_url.setdefault(hit.url, set()).add(hit.address)
    merged = {}
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


def hit_rows(hits, failures):
    rows = [{"v": 1, "address": hit.address, "url": hit.url, "source": hit.source,
             "kind": hit.kind} for hit in sorted(hits, key=lambda h: (h.address, h.url))]
    return rows + [{"v": 1, "address": a, "error": failures[a]} for a in sorted(failures)]


# --- the reference: filter through records ---

class AddressAnnotation(NamedTuple):
    domain: str
    address: str
    zone: str
    prior_tx_with_payment: bool = False
    note: str = ""


class FilterResult(NamedTuple):
    retained: dict
    removed: dict


def filter_illicit_addresses(domain, category, addresses, annotations):
    result = FilterResult({}, {})
    for address in addresses:
        ann = annotations.get((domain, address))
        if ann is None:
            result.retained[address] = "unreviewed"
        elif ann.zone == "payment":
            result.retained[address] = "reviewed"
        elif ann.zone == "forum":
            result.removed[address] = "forum-visitor"
        elif ann.zone == "other":
            result.removed[address] = "non-payment-hash"
        elif ann.zone == "listing":
            if category == "PrivateKey":
                result.removed[address] = "sold-wallet"
            elif ann.prior_tx_with_payment:
                result.removed[address] = "prior-tx-with-payment"
            else:
                result.retained[address] = "reviewed"
    return result


def stage_filter(annotations_path, inputs):
    labels = report.labels_by_site(inputs["labels.jsonl"])
    annotations = {key: AddressAnnotation(row["domain"], row["address"], row["zone"],
                                          row.get("prior_tx_with_payment", False),
                                          row.get("note", ""))
                   for key, row in chain.load_annotations(annotations_path).items()}
    by_site = report.valid_by_site(inputs["addresses.jsonl"], "btc")
    retained, audit = {}, []
    for domain in sorted(by_site):
        category = labels.get(domain, OTHER)
        if category == OTHER:
            continue
        result = filter_illicit_addresses(domain, category, by_site[domain], annotations)
        for address, flag in sorted(result.retained.items()):
            sites, cats, flags = retained.setdefault(address, (set(), set(), set()))
            sites.add(domain)
            cats.add(category)
            flags.add(flag)
            audit.append({"v": 1, "domain": domain, "address": address,
                          "action": "retained", "flag": flag})
        for address, reason in sorted(result.removed.items()):
            audit.append({"v": 1, "domain": domain, "address": address,
                          "action": "removed", "reason": reason})
    illicit = {address: {"v": 1, "address": address, "sites": sorted(sites),
                         "categories": sorted(cats), "flags": sorted(flags)}
               for address, (sites, cats, flags) in sorted(retained.items())}
    return {"illicit.jsonl": illicit, "filter_audit.jsonl": audit}


# --- the properties ---

ADDRESSES = ["A", "B", "C", "D"]
# explorer hosts, other hosts (one whose name only contains an explorer's),
# and a result that is not a web URL, which fails its address
URLS = ["https://btc.com/a", "https://www.blockchain.com/btc/x", "https://blockchair.com/y",
        "https://news.example.com/a", "https://forum.example.org/t",
        "https://notbtc.com.example.com/z"]


class Replay:
    """A search provider that answers each address with the drawn URLs."""

    source = "fixtures"

    def __init__(self, results):
        self.found = results

    def results(self, address):
        return self.found.get(address, [])


@st.composite
def trace_inputs(draw):
    """Search results for up to four addresses, an address failing for one
    result in seven on average, and analyst rows, mostly on the URLs found:
    repeated rows with conflicting kinds, an ip or registrant overridden or
    left empty, unknown URLs, and unusable rows."""
    results = draw(st.dictionaries(
        st.sampled_from(ADDRESSES),
        st.lists(st.sampled_from(URLS + ["not a url"]), max_size=4), max_size=4))
    found = sorted({url for urls in results.values() for url in urls} - {"not a url"})
    rows = draw(st.lists(st.fixed_dictionaries(
        {"url": st.sampled_from(found * 3 + ["https://unknown.example.net/"])},
        optional={"kind": st.sampled_from([None, "AbuseReport", "IllicitSite", "Benign",
                                           "Explorer"]),
                  "ip": st.sampled_from([None, "", "203.0.113.5", "198.51.100.7", 5]),
                  "registrant": st.sampled_from([None, "", "Org A", "Org B", ["x"]]),
                  "note": st.just("seen twice")}), max_size=10))
    for bad in draw(st.lists(st.sampled_from([NotJson("line 9 is not JSON: '{'"), [1], "x",
                                              None]), max_size=2)):
        rows.insert(draw(st.integers(0, len(rows))), bad)
    return results, rows


@settings(max_examples=300)
@given(trace_inputs())
def test_trace_rows_are_the_record_paths_rows(drawn):
    results, rows = drawn
    hits, failures = trace.search_all(results, Replay(results), EXPLORERS)
    ref_hits = filter_explorer_urls(
        [SurfaceHit(hit["address"], hit["url"], hit["source"]) for hit in hits], EXPLORERS)
    ref_hits, facts, ref_skipped = import_annotations(rows, ref_hits)

    surface, skipped = trace.import_annotations(rows, hits)
    assert jsonl(trace.hit_rows(hits, failures)) == jsonl(hit_rows(ref_hits, failures))
    assert jsonl(surface) == jsonl(surface_links(ref_hits, facts))
    assert skipped == ref_skipped


SITES = [letter * 16 + ".onion" for letter in "stu"]  # valid v2 onion names


@st.composite
def filter_inputs(draw):
    """Address rows, label rows and chain-annotation rows of up to three sites:
    a site may be unlabelled, and each of its valid BTC addresses may be
    unannotated or annotated in any zone, with or without the prior flag."""
    address_rows, label_rows, annotation_rows = [], [], []
    for site in SITES:
        category = draw(st.sampled_from([None, "PrivateKey", "Drugs", "Shop", "Other"]))
        if category:
            label_rows.append({"v": 1, "domain": site, "category": category})
        for address in draw(st.lists(st.sampled_from(ADDRESSES), max_size=4)):
            kind, valid = draw(st.sampled_from([("btc", True)] * 4 + [("btc", False),
                                                                      ("eth", True)]))
            address_rows.append({"v": 1, "domain": site, "path": "/", "kind": kind,
                                 "value": address, "valid": valid})
            zone = draw(st.sampled_from((None,) + chain.ZONES))
            if zone:
                row = {"domain": site, "address": address, "zone": zone}
                prior = draw(st.sampled_from([None, False, True]))
                if prior is not None:
                    row["prior_tx_with_payment"] = prior
                annotation_rows.append(row)
    return address_rows, label_rows, draw(st.permutations(annotation_rows))


@settings(max_examples=300)
@given(filter_inputs())
def test_filter_rows_are_the_record_paths_rows(tmp_path_factory, drawn):
    addresses, labels, anns = drawn
    path = tmp_path_factory.getbasetemp() / "chain_annotations.jsonl"
    path.write_text("".join(json.dumps(row) + "\n" for row in anns), encoding="utf-8")
    inputs = {"labels.jsonl": labels, "addresses.jsonl": addresses}

    ref = stage_filter(path, inputs)
    out = report.stage_filter(report.PipelineConfig(chain_annotations=str(path)), inputs)
    assert jsonl(out["illicit.jsonl"].values()) == jsonl(ref["illicit.jsonl"].values())
    assert jsonl(out["filter_audit.jsonl"]) == jsonl(ref["filter_audit.jsonl"])
