"""Entity resolution: five concatenated merge phases over sites, addresses,
emails, and surface-web identity facts.

Each phase is a list of (kind, u, v) edges. Every edge is recorded in the
entity graph and merges its two ends, so the partition is the connected
components of the graph's edges and every phase only merges: clustered-site
counts can never shrink. The partition is a union-find whose extracted
components are keyed by their lexicographically smallest member, which makes
results independent of the order edges are processed in.
"""

from __future__ import annotations

import logging
from typing import NamedTuple
from urllib.parse import urlparse

from . import chain
from .chain import Transaction
from .classify import Category

log = logging.getLogger("onionforge.cluster")

MIXING_MIN_PARTICIPANTS = 3

# node id prefixes
SITE, BTC, EMAIL, IP, REG, URL = "site", "btc", "email", "ip", "reg", "url"


def node_id(kind: str, value: str) -> str:
    return "%s:%s" % (kind, value)


def node_kind(nid: str) -> str:
    return nid.split(":", 1)[0]


def node_value(nid: str) -> str:
    return nid.split(":", 1)[1]


class UnionFind:
    """Disjoint sets over string ids with path compression."""

    def __init__(self, members=()):
        self.parent: dict[str, str] = {}
        for m in members:
            self.add(m)

    def add(self, item: str):
        self.parent.setdefault(item, item)

    def find(self, item: str) -> str:
        self.add(item)
        root = item
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[item] != root:
            self.parent[item], item = root, self.parent[item]
        return root

    def union(self, a: str, b: str):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # deterministic orientation: smaller id becomes the root
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra

    def components(self) -> dict[str, list[str]]:
        """Canonical representative (lexicographically smallest) -> sorted members."""
        groups: dict[str, list[str]] = {}
        for item in self.parent:
            groups.setdefault(self.find(item), []).append(item)
        return {min(members): sorted(members) for members in groups.values()}

    def partition(self) -> frozenset[frozenset[str]]:
        return frozenset(frozenset(m) for m in self.components().values())


EDGE_KINDS = ("site-hosts-addr", "site-lists-email", "common-input", "internal-tx",
              "url-resolves-ip", "url-registered-by", "addr-found-at-url")


class EntityGraph:
    def __init__(self):
        self.nodes: dict[str, dict] = {}
        self.edges: set[tuple[str, str, str]] = set()  # (kind, min, max)

    def add_node(self, nid: str, **attrs):
        node = self.nodes.setdefault(nid, {"type": node_kind(nid)})
        node.update(attrs)
        return nid

    def add_edge(self, kind: str, u: str, v: str):
        if kind not in EDGE_KINDS:
            raise ValueError("unknown edge kind %r" % kind)
        if u == v:
            return
        self.add_node(u)
        self.add_node(v)
        self.edges.add((kind, u, v) if u <= v else (kind, v, u))

    def edges_of_kind(self, kind: str) -> list[tuple[str, str, str]]:
        return sorted(e for e in self.edges if e[0] == kind)


def build_entity_graph(labels: dict[str, Category],
                       illicit: dict[str, dict],
                       site_emails: dict[str, set[str]] | None = None) -> EntityGraph:
    """Seed graph: labeled non-Other sites, their addresses and emails.

    `illicit` is the illicit.jsonl value, {address: row} in address order.
    """
    graph = EntityGraph()
    for domain in sorted(labels):
        if labels[domain] is Category.OTHER:
            continue
        graph.add_node(node_id(SITE, domain), category=labels[domain].label)
    for address, row in illicit.items():
        graph.add_node(node_id(BTC, address))
        for site in row["sites"]:
            graph.add_edge("site-hosts-addr", node_id(SITE, site), node_id(BTC, address))
    for domain, emails in sorted((site_emails or {}).items()):
        if labels.get(domain, Category.OTHER) is Category.OTHER:
            continue
        for email in sorted(emails):
            graph.add_edge("site-lists-email", node_id(SITE, domain), node_id(EMAIL, email))
    return graph


def detect_mixing(tx: Transaction, min_participants: int = MIXING_MIN_PARTICIPANTS) -> bool:
    """JoinMarket-style CoinJoin signature: many distinct inputs feeding a
    block of equal-value outputs. Approximate by design; a false positive
    only suppresses a merge."""
    if len(tx.inputs) < min_participants:
        return False
    if len({i.address for i in tx.inputs}) < min_participants:
        return False
    counts: dict[int, int] = {}
    for out in tx.outputs:
        counts[out.value] = counts.get(out.value, 0) + 1
    return any(n >= min_participants for n in counts.values())


def transaction_edges(ledgers: dict[str, tuple[Transaction, ...]],
                      members) -> tuple[list, list]:
    """Common-input and internal-tx edges among member addresses, in one pass.

    Multi-input heuristic: the member inputs of a transaction merge. Internal
    transactions (a member input and a member output, as `is_internal` has
    it) also merge each member input with each member output. Mixing
    transactions contribute no edges; non-member addresses are never pulled in.
    """
    common, internal = [], []
    for tx in chain.unique_transactions(ledgers):
        ins = sorted({i.address for i in tx.inputs if i.address in members})
        if not ins or detect_mixing(tx):  # no member input: no edge
            continue
        outs = sorted({o.address for o in tx.outputs if o.address in members})
        common += [("common-input", node_id(BTC, ins[0]), node_id(BTC, other))
                   for other in ins[1:]]
        internal += [("internal-tx", node_id(BTC, src), node_id(BTC, dst))
                     for src in ins for dst in outs if src != dst]
    return common, internal


def _url_host(url: str) -> str:
    return urlparse(url).netloc.lower()


def _norm_registrant(name: str) -> str:
    return name.strip().casefold()


def identity_edges(surface_links, public_threshold: int, members) -> tuple[list, list]:
    """Edges linking addresses exposed on URLs that share a non-public IP or registrant.

    `surface_links` are the surface.jsonl rows {url, ip, registrant, addresses}.
    IPs/registrants behind more than public_threshold distinct hosts are
    treated as shared infrastructure and returned as (kind, value, url)
    exclusions for manual review; URLs with no remaining identity fact
    contribute nothing.
    """
    hosts_by_ip: dict[str, set[str]] = {}
    hosts_by_reg: dict[str, set[str]] = {}
    for row in surface_links:
        host = _url_host(row["url"])
        if row["ip"]:
            hosts_by_ip.setdefault(row["ip"], set()).add(host)
        if row["registrant"]:
            hosts_by_reg.setdefault(_norm_registrant(row["registrant"]), set()).add(host)
    public_ips = {ip for ip, hosts in hosts_by_ip.items() if len(hosts) > public_threshold}
    public_regs = {r for r, hosts in hosts_by_reg.items() if len(hosts) > public_threshold}

    edges, excluded = [], []
    for row in sorted(surface_links, key=lambda r: r["url"]):
        url, ip, registrant = row["url"], row["ip"], row["registrant"]
        url_node = node_id(URL, url)
        facts = []
        if ip:
            if ip in public_ips:
                excluded.append(("ip", ip, url))
            else:
                facts.append(("url-resolves-ip", url_node, node_id(IP, ip)))
        if registrant:
            norm = _norm_registrant(registrant)
            if norm in public_regs:
                excluded.append(("registrant", registrant, url))
            else:
                facts.append(("url-registered-by", url_node, node_id(REG, norm)))
        if not facts:
            continue
        edges += facts
        edges += [("addr-found-at-url", url_node, node_id(BTC, address))
                  for address in sorted(set(row["addresses"])) if address in members]
    if excluded:
        log.info("identity phase excluded %d public facts (flagged for review)",
                 len(excluded))
    return edges, excluded


def vanity_groups(domains, min_prefix: int) -> list[tuple[str, list[str]]]:
    """Report-only: onion names sharing a leading prefix of >= min_prefix chars."""
    buckets: dict[str, list[str]] = {}
    for domain in sorted({str(d) for d in domains}):
        label = domain.split(".")[0]
        if len(label) >= min_prefix:
            buckets.setdefault(label[:min_prefix], []).append(domain)
    groups = []
    for names in buckets.values():
        if len(names) < 2:
            continue
        labels = [n.split(".")[0] for n in names]
        prefix = labels[0]
        for other in labels[1:]:
            while not other.startswith(prefix):
                prefix = prefix[:-1]
        groups.append((prefix, names))
    return sorted(groups)


# --- campaign extraction and the per-phase trace ---

def _component_counts(members) -> dict[str, int]:
    counts = {SITE: 0, BTC: 0, EMAIL: 0, IP: 0, URL: 0, REG: 0}
    for nid in members:
        kind = node_kind(nid)
        if kind in counts:
            counts[kind] += 1
    return counts


def _is_cluster(counts: dict[str, int]) -> bool:
    # a grouping worth the name: sites sharing an address, or one site
    # commanding several addresses
    return counts[SITE] >= 2 or counts[BTC] >= 2


def snapshot(partition: UnionFind, phase: str) -> dict:
    """The phase_trace.json row of the clustered components after one phase."""
    row = {"phase": phase, "clusters": 0, "onions": 0, "btc_addresses": 0,
           "email_addresses": 0, "ips": 0}
    for members in partition.components().values():
        counts = _component_counts(members)
        if not _is_cluster(counts):
            continue
        row["clusters"] += 1
        row["onions"] += counts[SITE]
        row["btc_addresses"] += counts[BTC]
        row["email_addresses"] += counts[EMAIL]
        row["ips"] += counts[IP]
    return row


def campaign_stats(partition: UnionFind, labels: dict[str, Category],
                   received: dict[str, int]) -> tuple[list[dict], dict]:
    """Campaigns = clustered components holding at least one address.

    `received` maps each address to its income in satoshis. Returns the
    campaigns.json rows sorted by received (desc) plus exclusion counters
    (clusters dropped for having no blockchain address). A campaign lists
    its sites, addresses, emails, IPs and URLs, not its registrants.
    """
    raw = []
    excluded_no_btc = 0
    for members in partition.components().values():
        counts = _component_counts(members)
        if not _is_cluster(counts):
            continue
        if counts[BTC] == 0:
            excluded_no_btc += 1
            continue
        values = {kind: sorted(node_value(n) for n in members if node_kind(n) == kind)
                  for kind in (SITE, BTC, EMAIL, IP, URL)}
        sites, addrs = values[SITE], values[BTC]
        raw.append({
            "v": 1, "id": "", "sites": sites, "btc_addresses": addrs,
            "emails": values[EMAIL], "ips": values[IP], "urls": values[URL],
            "categories": sorted({labels[s].label for s in sites
                                  if labels.get(s, Category.OTHER) is not Category.OTHER}),
            "received": sum(received.get(a, 0) for a in addrs),
        })
    raw.sort(key=lambda c: (-c["received"], -len(c["sites"]), c["sites"][0] if c["sites"] else ""))
    for i, campaign in enumerate(raw, 1):
        campaign["id"] = "c%03d" % i
    stats = {"clusters_before_exclusion": len(raw) + excluded_no_btc,
             "excluded_no_btc_address": excluded_no_btc}
    return raw, stats


class ClusterResult(NamedTuple):
    campaigns: list[dict]  # campaigns.json rows
    trace: list[dict]      # phase_trace.json rows
    partition: UnionFind
    graph: EntityGraph
    vanity: list[tuple[str, list[str]]]
    exclusions: dict


def run_clustering(labels: dict[str, Category], illicit: dict[str, dict],
                   ledgers: dict[str, tuple[Transaction, ...]],
                   site_emails: dict[str, set[str]], surface_links,
                   public_threshold: int, vanity_prefix: int) -> ClusterResult:
    """All five phases in order, tracing counts after each.

    The partition starts as the graph's sites and addresses; each phase's
    edges are added to the graph and merge their ends. Each address node
    gets its `received` satoshis, and each node a campaign lists (every
    member but a registrant) gets that campaign's `campaign` id.
    """
    graph = build_entity_graph(labels, illicit, site_emails)
    members = set(illicit)
    common, internal = transaction_edges(ledgers, members)
    identity, public_facts = identity_edges(surface_links, public_threshold, members)
    partition = UnionFind(nid for nid, attrs in sorted(graph.nodes.items())
                          if attrs["type"] in (SITE, BTC))
    trace = []
    for phase, edges in (("shared-site", graph.edges_of_kind("site-hosts-addr")),
                         ("common-input", common),
                         ("internal-tx", internal),
                         ("email", graph.edges_of_kind("site-lists-email")),
                         ("identity", identity)):
        for kind, u, v in edges:
            graph.add_edge(kind, u, v)
            partition.union(u, v)
        trace.append(snapshot(partition, phase))

    received = chain.estimate_income(illicit, ledgers).per_address
    for address, satoshi in received.items():
        graph.nodes[node_id(BTC, address)]["received"] = satoshi
    campaigns, exclusions = campaign_stats(partition, labels, received)
    # a campaign holds an address, so that address's root names its component
    campaign_of = {partition.find(node_id(BTC, c["btc_addresses"][0])): c["id"]
                   for c in campaigns}
    for nid, attrs in graph.nodes.items():
        root = partition.find(nid)
        if root in campaign_of and node_kind(nid) != REG:
            attrs["campaign"] = campaign_of[root]
    if public_facts:
        exclusions["public_identity_facts"] = [
            {"kind": k, "value": v, "url": u} for k, v, u in public_facts]
    vanity = vanity_groups([s for s in labels
                            if labels[s] is not Category.OTHER], vanity_prefix)
    return ClusterResult(campaigns=campaigns, trace=trace, partition=partition,
                         graph=graph, vanity=vanity, exclusions=exclusions)

