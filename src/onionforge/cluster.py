"""Entity resolution: five concatenated merge phases over sites, addresses,
emails, and surface-web identity facts.

Each phase is a list of (kind, u, v) edges, and one loop records every edge
and merges its two ends. The entity graph is the partition's members plus
those edges, so the partition is the connected components of the seed
sites and addresses and the recorded edges, and every phase only merges:
clustered-site counts can never shrink. The partition is a union-find whose
extracted components are keyed by their lexicographically smallest member,
which makes results independent of the order edges are processed in.
"""

from __future__ import annotations

from typing import NamedTuple

from . import chain
from .chain import Transaction
from .classify import OTHER
from .logs import Logger
from .trace import url_host

log = Logger("onionforge.cluster")

MIXING_MIN_PARTICIPANTS = 3

# node id prefixes
SITE, BTC, EMAIL, IP, REG, URL = "site", "btc", "email", "ip", "reg", "url"


def node_id(kind: str, value: str) -> str:
    return "%s:%s" % (kind, value)


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


def seed_edges(labels: dict[str, str], illicit: dict[str, dict],
               site_emails: dict[str, set[str]]) -> tuple[list, list]:
    """Site-hosts-addr and site-lists-email edges, each list sorted.

    `illicit` is the illicit.jsonl value, {address: row}, and each site a
    row names hosts its address. Only a labeled non-Other site's emails
    make edges.
    """
    hosts = {("site-hosts-addr", node_id(BTC, address), node_id(SITE, site))
             for address, row in illicit.items() for site in row["sites"]}
    emails = {("site-lists-email", node_id(EMAIL, email), node_id(SITE, domain))
              for domain, found in site_emails.items()
              if labels.get(domain, OTHER) != OTHER for email in found}
    return sorted(hosts), sorted(emails)


def detect_mixing(tx: Transaction) -> bool:
    """JoinMarket-style CoinJoin signature: many distinct inputs feeding a
    block of equal-value outputs. Approximate by design; a false positive
    only suppresses a merge."""
    if len(tx.inputs) < MIXING_MIN_PARTICIPANTS:
        return False
    if len({i.address for i in tx.inputs}) < MIXING_MIN_PARTICIPANTS:
        return False
    counts: dict[int, int] = {}
    for out in tx.outputs:
        counts[out.value] = counts.get(out.value, 0) + 1
    return any(n >= MIXING_MIN_PARTICIPANTS for n in counts.values())


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
        host = url_host(row["url"])
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

def clusters(partition: UnionFind):
    """Each clustered component's member values by node kind, each list sorted.

    A clustered component is a grouping worth the name: sites sharing an
    address, or one site commanding several addresses.
    """
    for members in partition.components().values():
        values = {SITE: [], BTC: [], EMAIL: [], IP: [], REG: [], URL: []}
        for nid in members:  # sorted ids, so each kind's values come sorted
            kind, value = nid.split(":", 1)
            values[kind].append(value)
        if len(values[SITE]) >= 2 or len(values[BTC]) >= 2:
            yield values


def snapshot(partition: UnionFind, phase: str) -> dict:
    """The phase_trace.json row of the clustered components after one phase."""
    row = {"phase": phase, "clusters": 0, "onions": 0, "btc_addresses": 0,
           "email_addresses": 0, "ips": 0}
    for values in clusters(partition):
        row["clusters"] += 1
        row["onions"] += len(values[SITE])
        row["btc_addresses"] += len(values[BTC])
        row["email_addresses"] += len(values[EMAIL])
        row["ips"] += len(values[IP])
    return row


# the node kinds a campaign lists, each with its campaigns.json field
CAMPAIGN_FIELDS = ((SITE, "sites"), (BTC, "btc_addresses"), (EMAIL, "emails"),
                   (IP, "ips"), (URL, "urls"))


def campaign_stats(partition: UnionFind, labels: dict[str, str],
                   received: dict[str, int]) -> tuple[list[dict], dict]:
    """Campaigns = clustered components holding at least one address.

    `received` maps each address to its income in satoshis. Returns the
    campaigns.json rows sorted by received (desc) plus exclusion counters
    (clusters dropped for having no blockchain address). A campaign lists
    its sites, addresses, emails, IPs and URLs, not its registrants.
    """
    raw = []
    excluded_no_btc = 0
    for values in clusters(partition):
        sites, addrs = values[SITE], values[BTC]
        if not addrs:
            excluded_no_btc += 1
            continue
        raw.append({
            "v": 1, "id": "", **{field: values[kind] for kind, field in CAMPAIGN_FIELDS},
            "categories": sorted({labels[s] for s in sites if labels.get(s, OTHER) != OTHER}),
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
    nodes: dict[str, dict]  # every partition member -> its attributes
    edges: set[tuple[str, str, str]]  # every phase's (kind, min, max) edges
    vanity: list[tuple[str, list[str]]]
    exclusions: dict
    income: chain.IncomeReport  # what `chain.estimate_income` made of the ledgers


def run_clustering(labels: dict[str, str], illicit: dict[str, dict],
                   ledgers: dict[str, tuple[Transaction, ...]],
                   site_emails: dict[str, set[str]], surface_links,
                   public_threshold: int, vanity_prefix: int) -> ClusterResult:
    """All five phases in order, tracing counts after each.

    The partition starts as the labeled non-Other sites, the illicit
    addresses and the sites their rows name; each phase's edges are
    recorded and merge their ends. Every member is a node with its `type`;
    a labeled site also has its `category`, an address its `received`
    satoshis, and each node a campaign lists (every member but a
    registrant) that campaign's `campaign` id.
    """
    hosts, emails = seed_edges(labels, illicit, site_emails)
    members = set(illicit)
    common, internal = transaction_edges(ledgers, members)
    identity, public_facts = identity_edges(surface_links, public_threshold, members)
    labeled = [domain for domain, label in labels.items() if label != OTHER]
    sites = {site for row in illicit.values() for site in row["sites"]}.union(labeled)
    partition = UnionFind(sorted([node_id(SITE, s) for s in sites]
                                 + [node_id(BTC, a) for a in illicit]))
    edges: set[tuple[str, str, str]] = set()
    trace = []
    for phase, phase_edges in (("shared-site", hosts), ("common-input", common),
                               ("internal-tx", internal), ("email", emails),
                               ("identity", identity)):
        for kind, u, v in phase_edges:
            edges.add((kind, u, v) if u <= v else (kind, v, u))
            partition.union(u, v)
        trace.append(snapshot(partition, phase))

    income = chain.estimate_income(illicit, ledgers)
    received = income.per_address
    campaigns, exclusions = campaign_stats(partition, labels, received)
    nodes = {}
    for nid in partition.parent:
        kind, value = nid.split(":", 1)
        attrs = nodes[nid] = {"type": kind}
        if kind == SITE and labels.get(value, OTHER) != OTHER:
            attrs["category"] = labels[value]
        elif kind == BTC:
            attrs["received"] = received[value]
    for campaign in campaigns:
        for kind, field in CAMPAIGN_FIELDS:
            for value in campaign[field]:
                nodes[node_id(kind, value)]["campaign"] = campaign["id"]
    if public_facts:
        exclusions["public_identity_facts"] = [
            {"kind": k, "value": v, "url": u} for k, v, u in public_facts]
    vanity = vanity_groups(labeled, vanity_prefix)
    return ClusterResult(campaigns=campaigns, trace=trace, partition=partition,
                         nodes=nodes, edges=edges, vanity=vanity,
                         exclusions=exclusions, income=income)
