import random
from datetime import datetime, timedelta, timezone

import networkx as nx

from onionforge import chain
from onionforge.chain import Transaction, TxIO
from onionforge.cluster import (
    BTC, EMAIL, SITE, EntityGraph, UnionFind, build_entity_graph, campaign_stats,
    detect_mixing, identity_edges, node_id, run_clustering, transaction_edges,
    vanity_groups,
)

from rows import illicit_of, input_from, output_to

T0 = datetime(2020, 1, 1, tzinfo=timezone.utc)
PUBLIC_THRESHOLD, VANITY_PREFIX = 50, 7  # PipelineConfig's defaults


def txid(n):
    return "%064x" % n


def mktx(n, ins, outs):
    return Transaction(txid=txid(n), timestamp=T0 + timedelta(hours=n),
                       inputs=tuple(TxIO(a, v) for a, v in ins),
                       outputs=tuple(TxIO(a, v) for a, v in outs))


def ledgers_for(illicit, txs):
    out = {}
    for addr in illicit:
        mine = [t for t in txs if output_to(t, addr) or input_from(t, addr)]
        spent = sum(input_from(t, addr) for t in mine)
        recv = sum(output_to(t, addr) for t in mine)
        if spent > recv:
            mine.append(mktx(5000 + list(illicit).index(addr),
                             [("fund", spent)], [(addr, spent)]))
        out[addr] = chain.ledger(addr, mine)
    return out


def simple_illicit(pairs):
    return illicit_of(*((addr, site, "Drugs") for addr, site in pairs))


def dom(i):
    return "x%s%s%s.onion" % (chr(97 + i // 26), chr(97 + i % 26), "a" * 13)


def merge(uf, edges):
    for _, u, v in edges:
        uf.union(u, v)
    return uf


class TestUnionFind:
    def test_components_keyed_by_smallest(self):
        uf = UnionFind(["c", "a", "b", "z"])
        uf.union("c", "a")
        uf.union("b", "c")
        assert uf.components() == {"a": ["a", "b", "c"], "z": ["z"]}

    def test_edge_order_invariance(self):
        edges = [("a", "b"), ("c", "d"), ("b", "c"), ("e", "f")]
        partitions = set()
        rng = random.Random(3)
        for _ in range(10):
            shuffled = edges[:]
            rng.shuffle(shuffled)
            uf = UnionFind("abcdef")
            for u, v in shuffled:
                uf.union(u, v)
            partitions.add(uf.partition())
        assert len(partitions) == 1


class TestSharedSite:
    def test_transitive_shared_address(self):
        graph = EntityGraph()
        graph.add_edge("site-hosts-addr", "site:s", "btc:A1")
        graph.add_edge("site-hosts-addr", "site:s", "btc:A2")
        graph.add_edge("site-hosts-addr", "site:t", "btc:A2")
        uf = merge(UnionFind(graph.nodes), graph.edges_of_kind("site-hosts-addr"))
        assert uf.components() == {"btc:A1": ["btc:A1", "btc:A2", "site:s", "site:t"]}

    def test_disjoint_pairs_stay_apart(self):
        graph = EntityGraph()
        graph.add_edge("site-hosts-addr", "site:s", "btc:A")
        graph.add_edge("site-hosts-addr", "site:t", "btc:B")
        uf = merge(UnionFind(graph.nodes), graph.edges_of_kind("site-hosts-addr"))
        assert len(uf.components()) == 2

    def test_random_bipartite_vs_nx_oracle(self):
        rng = random.Random(30)
        graph = EntityGraph()
        oracle = nx.Graph()
        for i in range(15):
            oracle.add_node("site:s%d" % i)
            oracle.add_node("btc:a%d" % i)
            graph.add_node("site:s%d" % i)
            graph.add_node("btc:a%d" % i)
        for _ in range(18):
            u = "site:s%d" % rng.randrange(15)
            v = "btc:a%d" % rng.randrange(15)
            graph.add_edge("site-hosts-addr", u, v)
            oracle.add_edge(u, v)
        uf = merge(UnionFind(graph.nodes), graph.edges_of_kind("site-hosts-addr"))
        expected = {frozenset(c) for c in nx.connected_components(oracle)}
        assert uf.partition() == frozenset(expected)


class TestDetectMixing:
    def test_two_input_payment_with_change(self):
        tx = mktx(1, [("a", 50), ("b", 60)], [("m", 100), ("a", 10)])
        assert not detect_mixing(tx)

    def test_joinmarket_pattern(self):
        coin = 10 ** 7
        tx = mktx(2, [("i%d" % k, 3 * coin) for k in range(5)],
                  [("o%d" % k, coin) for k in range(5)]
                  + [("c%d" % k, coin + k + 1) for k in range(5)])
        equal_values = [o.value for o in tx.outputs].count(coin)
        assert equal_values == 5
        assert detect_mixing(tx)

    def test_three_inputs_distinct_outputs(self):
        tx = mktx(3, [("a", 10), ("b", 20), ("c", 30)],
                  [("x", 11), ("y", 22), ("z", 27)])
        assert not detect_mixing(tx)

    def test_repeated_input_address_not_enough(self):
        tx = mktx(4, [("a", 10), ("a", 20), ("b", 30)],
                  [("x", 5), ("y", 5), ("z", 5)])
        assert not detect_mixing(tx)  # only two distinct input addresses


class TestCommonInput:
    def test_illicit_pair_merges(self):
        illicit = simple_illicit([("A", dom(0)), ("B", dom(1))])
        txs = [mktx(1, [("A", 5), ("B", 5)], [("ext", 10)])]
        common, _ = transaction_edges(ledgers_for(illicit, txs), set(illicit))
        uf = merge(UnionFind([node_id(BTC, "A"), node_id(BTC, "B")]), common)
        assert uf.find("btc:A") == uf.find("btc:B")

    def test_mixing_tx_contributes_nothing(self):
        illicit = simple_illicit([("A", dom(0)), ("B", dom(1))])
        coin = 10 ** 7
        txs = [mktx(1, [("A", 3 * coin), ("B", 3 * coin), ("C", 3 * coin)],
                    [("o1", coin), ("o2", coin), ("o3", coin)])]
        members = set(illicit)
        assert transaction_edges(ledgers_for(illicit, txs), members) == ([], [])

    def test_unknown_address_not_expanded(self):
        illicit = simple_illicit([("A", dom(0))])
        txs = [mktx(1, [("A", 5), ("X", 5)], [("ext", 10)])]
        common, _ = transaction_edges(ledgers_for(illicit, txs), set(illicit))
        uf = merge(UnionFind([node_id(BTC, "A")]), common)
        assert "btc:X" not in uf.parent


class TestInternalTx:
    def test_internal_merges(self):
        illicit = simple_illicit([("A", dom(0)), ("B", dom(1))])
        txs = [mktx(1, [("A", 5)], [("B", 5)])]
        _, internal = transaction_edges(ledgers_for(illicit, txs), set(illicit))
        uf = merge(UnionFind([node_id(BTC, "A"), node_id(BTC, "B")]), internal)
        assert uf.find("btc:A") == uf.find("btc:B")

    def test_external_output_no_merge(self):
        illicit = simple_illicit([("A", dom(0)), ("B", dom(1))])
        txs = [mktx(1, [("A", 5)], [("ext", 5)])]
        _, internal = transaction_edges(ledgers_for(illicit, txs), set(illicit))
        uf = merge(UnionFind([node_id(BTC, "A"), node_id(BTC, "B")]), internal)
        assert uf.find("btc:A") != uf.find("btc:B")

    def test_chain_collapses_to_one_cluster(self):
        illicit = simple_illicit([("A", dom(0)), ("B", dom(1)), ("C", dom(2))])
        txs = [mktx(1, [("A", 9)], [("B", 9)]), mktx(2, [("B", 4)], [("C", 4)])]
        _, internal = transaction_edges(ledgers_for(illicit, txs), set(illicit))
        uf = merge(UnionFind([node_id(BTC, a) for a in "ABC"]), internal)
        oracle = nx.Graph([("A", "B"), ("B", "C")])
        oracle.add_nodes_from("ABC")
        expected = {frozenset("btc:%s" % m for m in c)
                    for c in nx.connected_components(oracle)}
        assert uf.partition() == frozenset(expected)


class TestEmailPhase:
    def test_addressless_site_joins_cluster(self):
        labels = {dom(0): "Drugs", dom(1): "Drugs"}
        illicit = simple_illicit([("A", dom(0))])
        emails = {dom(0): {"ops@secmail.pro"}, dom(1): {"ops@secmail.pro"}}
        graph = build_entity_graph(labels, illicit, emails)
        uf = merge(merge(UnionFind(graph.nodes), graph.edges_of_kind("site-hosts-addr")),
                   graph.edges_of_kind("site-lists-email"))
        root = uf.find(node_id(SITE, dom(0)))
        assert uf.find(node_id(SITE, dom(1))) == root
        assert uf.find(node_id(EMAIL, "ops@secmail.pro")) == root

    def test_email_only_cluster_excluded_from_campaigns(self):
        labels = {dom(0): "Drugs", dom(1): "Drugs"}
        illicit = {}
        emails = {dom(0): {"x@secmail.pro"}, dom(1): {"x@secmail.pro"}}
        graph = build_entity_graph(labels, illicit, emails)
        uf = merge(merge(UnionFind(graph.nodes), graph.edges_of_kind("site-hosts-addr")),
                   graph.edges_of_kind("site-lists-email"))
        campaigns, stats = campaign_stats(uf, labels, {})
        assert campaigns == []
        assert stats["excluded_no_btc_address"] == 1
        assert stats["clusters_before_exclusion"] == 1

    def test_three_sites_one_email(self):
        labels = {dom(i): "Drugs" for i in range(3)}
        emails = {dom(i): {"z@secmail.pro"} for i in range(3)}
        graph = build_entity_graph(labels, {}, emails)
        uf = merge(merge(UnionFind(graph.nodes), graph.edges_of_kind("site-hosts-addr")),
                   graph.edges_of_kind("site-lists-email"))
        roots = {uf.find(node_id(SITE, dom(i))) for i in range(3)}
        assert len(roots) == 1


class TestIdentityPhase:
    def test_shared_nonpublic_ip_merges(self):
        uf = UnionFind(["btc:A", "btc:B"])
        links = [
            {"url": "https://one.example.com/x", "ip": "198.51.100.9",
             "registrant": None, "addresses": ("A",)},
            {"url": "https://two.example.org/y", "ip": "198.51.100.9",
             "registrant": None, "addresses": ("B",)},
        ]
        edges, _ = identity_edges(links, 50, {"A", "B"})
        merge(uf, edges)
        assert uf.find("btc:A") == uf.find("btc:B")

    def test_public_ip_contributes_no_merges(self):
        links = [{"url": "https://h%d.example.com/" % i, "ip": "203.0.113.1",
                  "registrant": None, "addresses": ("A" if i == 0 else "B",)}
                 for i in range(60)]
        edges, excluded = identity_edges(links, 50, {"A", "B"})
        assert edges == []
        assert excluded  # flagged for manual review

    def test_no_surface_facts_no_change(self):
        assert identity_edges([], 50, {"A", "B"}) == ([], [])

    def test_registrant_comparison_case_insensitive(self):
        uf = UnionFind(["btc:A", "btc:B"])
        links = [
            {"url": "https://one.example.com/", "ip": None,
             "registrant": "  Shadow Ops LLC ", "addresses": ("A",)},
            {"url": "https://two.example.org/", "ip": None,
             "registrant": "shadow ops llc", "addresses": ("B",)},
        ]
        edges, _ = identity_edges(links, 50, {"A", "B"})
        merge(uf, edges)
        assert uf.find("btc:A") == uf.find("btc:B")


class TestVanity:
    def test_deepmar_pair(self):
        groups = vanity_groups(["deepmar27rpxago5.onion", "deepmar3k3qtzszd.onion"],
                               VANITY_PREFIX)
        assert groups == [("deepmar", ["deepmar27rpxago5.onion",
                                       "deepmar3k3qtzszd.onion"])]

    def test_numeric_prefix_pair(self):
        groups = vanity_groups(["22222222sty2trl2.onion", "22222222gkxknocu.onion"],
                               VANITY_PREFIX)
        assert len(groups) == 1
        assert groups[0][0] == "22222222"

    def test_random_names_no_groups(self):
        assert vanity_groups(["edx2f26lcagct5po.onion", "vsmgkgnltwzrc7tx.onion"],
                             VANITY_PREFIX) == []

    def test_never_merges_anything(self):
        labels = {"deepmar27rpxago5.onion": "Drugs",
                  "deepmar3k3qtzszd.onion": "Weapons"}
        illicit = illicit_of(("A", "deepmar27rpxago5.onion", "Drugs"),
                             ("B", "deepmar3k3qtzszd.onion", "Weapons"))
        result = run_clustering(labels, illicit, {}, {}, (), PUBLIC_THRESHOLD, VANITY_PREFIX)
        assert len(result.vanity) == 1
        assert len(result.campaigns) == 0  # two isolated site+addr pairs


class TestCampaignStats:
    def test_single_address_many_sites(self):
        labels = {dom(i): "InvestmentScams" for i in range(31)}
        illicit = illicit_of(*(("A", site, cat) for site, cat in labels.items()))
        txs = chain.ledger("A", [mktx(1, [("e", 14_640_000)], [("A", 14_640_000)])])
        result = run_clustering(labels, illicit, {"A": txs}, {}, (),
                                PUBLIC_THRESHOLD, VANITY_PREFIX)
        [campaign] = result.campaigns
        assert len(campaign["sites"]) == 31
        assert campaign["btc_addresses"] == ["A"]
        assert campaign["categories"] == ["InvestmentScams"]
        assert campaign["received"] == 14_640_000

    def test_empty_partition(self):
        campaigns, _ = campaign_stats(UnionFind(), {}, {})
        assert campaigns == []

    def test_trace_counts_non_decreasing(self):
        labels = {dom(0): "Drugs", dom(1): "Drugs",
                  dom(2): "Weapons", dom(3): "Weapons"}
        illicit = illicit_of(("A", dom(0), "Drugs"), ("A", dom(1), "Drugs"),
                             ("B", dom(2), "Weapons"), ("C", dom(3), "Weapons"))
        txs = [mktx(1, [("B", 5)], [("C", 5)])]
        result = run_clustering(labels, illicit, ledgers_for(illicit, txs), {}, (),
                                PUBLIC_THRESHOLD, VANITY_PREFIX)
        sites_series = [s["onions"] for s in result.trace]
        assert sites_series == sorted(sites_series)
        assert sites_series[0] == 2 and sites_series[-1] == 4


class TestPlantedMixingIsLoadBearing:
    """Prove the planted JoinMarket tx would merge two campaigns if the
    mixing gate were broken, i.e. the end-to-end assertion is not vacuous."""

    def _planted_world(self):
        import planted
        from onionforge.chain import parse_transaction

        illicit = illicit_of(
            (planted.A1, planted.S1, "CloneCard"),
            (planted.A1, planted.S2, "CloneCard"),
            (planted.A2, planted.S2, "CloneCard"),
            (planted.B1, planted.S3, "InvestmentScams"),
            (planted.B2, planted.S4, "InvestmentScams"))
        ledgers = {
            addr: chain.ledger(
                addr, [parse_transaction(t) for t in txs])
            for addr, txs in planted.LEDGER_FIXTURES.items()
            if addr in illicit
        }
        labels = {s: "CloneCard" for s in (planted.S1, planted.S2)}
        labels.update({s: "InvestmentScams" for s in (planted.S3, planted.S4)})
        return labels, illicit, ledgers

    def test_suppressed(self):
        import planted
        labels, illicit, ledgers = self._planted_world()
        result = run_clustering(labels, illicit, ledgers, {}, (),
                                PUBLIC_THRESHOLD, VANITY_PREFIX)
        # only the shared-address cards pair clusters; the mixing tx must
        # not pull the investment sites in
        [campaign] = result.campaigns
        assert campaign["sites"] == sorted([planted.S1, planted.S2])

    def test_without_gate_the_campaigns_would_merge(self, monkeypatch):
        import planted
        labels, illicit, ledgers = self._planted_world()
        monkeypatch.setattr("onionforge.cluster.detect_mixing",
                            lambda tx, min_participants=3: False)
        result = run_clustering(labels, illicit, ledgers, {}, (),
                                PUBLIC_THRESHOLD, VANITY_PREFIX)
        # the common-input heuristic now links A1 (cards) with B1 (deepmar)
        [campaign] = result.campaigns
        assert {planted.S1, planted.S2, planted.S3} <= set(campaign["sites"])
        assert planted.B1 in campaign["btc_addresses"]


# --- randomized full-pipeline invariants ---

def random_world(rng, n_sites=14, n_addrs=12):
    labels = {dom(i): rng.choice(["Drugs", "CloneCard",
                                  "Weapons", "Other"])
              for i in range(n_sites)}
    entries = []
    addrs = ["a%02d" % i for i in range(n_addrs)]
    for addr in addrs:
        candidates = [d for d, c in labels.items() if c != "Other"]
        if not candidates:
            labels[dom(0)] = "Drugs"
            candidates = [dom(0)]
        for site in rng.sample(candidates, rng.randint(1, min(2, len(candidates)))):
            entries.append((addr, site, labels[site]))
    illicit = illicit_of(*entries)
    txs = []
    n = 0
    for _ in range(rng.randint(3, 10)):
        n += 1
        kind = rng.random()
        pool = addrs + ["ext%d" % i for i in range(5)]
        if kind < 0.25:  # mixing-shaped
            ins = [(rng.choice(pool), 30) for _ in range(3)]
            while len({a for a, _ in ins}) < 3:
                ins = [(rng.choice(pool), 30) for _ in range(3)]
            outs = [("m%d" % i, 10) for i in range(3)]
            txs.append(mktx(n, ins, outs))
        elif kind < 0.6:  # common input
            ins = [(rng.choice(pool), rng.randint(1, 50)) for _ in range(2)]
            txs.append(mktx(n, ins, [("chg", 10)]))
        else:  # possibly internal
            txs.append(mktx(n, [(rng.choice(pool), rng.randint(1, 50))],
                            [(rng.choice(pool), rng.randint(1, 40))]))
    emails = {}
    for _ in range(rng.randint(0, 4)):
        site = rng.choice(list(labels))
        emails.setdefault(site, set()).add("e%d@secmail.pro" % rng.randint(0, 3))
    links = []
    for i in range(rng.randint(0, 4)):
        links.append({"url": "https://host%d.example.com/p" % rng.randint(0, 5),
                      "ip": rng.choice(["198.51.100.1", "198.51.100.2", None]),
                      "registrant": rng.choice(["org one", None]),
                      "addresses": tuple(rng.sample(addrs, rng.randint(0, 2)))})
        links = [l for l in links if l["ip"] or l["registrant"]]
    return labels, illicit, ledgers_for(illicit, txs), emails, links


def oracle_edge_union(labels, illicit, ledgers, emails, links, public_threshold=50):
    """Independent reconstruction of the non-excluded edge relations."""
    from collections import Counter
    from urllib.parse import urlparse
    g = nx.Graph()
    for site, cat in labels.items():
        if cat != "Other":
            g.add_node("site:" + site)
    for addr, row in illicit.items():
        g.add_node("btc:" + addr)
        for site in row["sites"]:
            g.add_edge("site:" + site, "btc:" + addr)
    for site, mails in emails.items():
        if labels.get(site, "Other") == "Other":
            continue
        for m in mails:
            g.add_edge("site:" + site, "email:" + m)
    members = set(illicit)
    seen = {}
    for txs in ledgers.values():
        for tx in txs:
            seen.setdefault(tx.txid, tx)
    for tx in seen.values():
        in_addrs = {i.address for i in tx.inputs}
        mixing = (len(tx.inputs) >= 3 and len(in_addrs) >= 3
                  and max(Counter(o.value for o in tx.outputs).values(), default=0) >= 3)
        if mixing:
            continue
        ill_in = sorted(in_addrs & members)
        for a in ill_in[1:]:
            g.add_edge("btc:" + ill_in[0], "btc:" + a)
        out_addrs = {o.address for o in tx.outputs}
        if ill_in and out_addrs & members:
            for src in ill_in:
                for dst in sorted(out_addrs & members):
                    if src != dst:
                        g.add_edge("btc:" + src, "btc:" + dst)
    ip_hosts, reg_hosts = {}, {}
    for row in links:
        host = urlparse(row["url"]).netloc.lower()
        if row["ip"]:
            ip_hosts.setdefault(row["ip"], set()).add(host)
        if row["registrant"]:
            reg_hosts.setdefault(row["registrant"].strip().casefold(), set()).add(host)
    for row in links:
        facts = []
        if row["ip"] and len(ip_hosts[row["ip"]]) <= public_threshold:
            facts.append("ip:" + row["ip"])
        if row["registrant"]:
            norm = row["registrant"].strip().casefold()
            if len(reg_hosts[norm]) <= public_threshold:
                facts.append("reg:" + norm)
        if not facts:
            continue
        u = "url:" + row["url"]
        for f in facts:
            g.add_edge(u, f)
        for addr in row["addresses"]:
            if addr in members:
                g.add_edge(u, "btc:" + addr)
    return g


class TestWholePipelineInvariants:
    def test_partition_matches_nx_components(self):
        rng = random.Random(77)
        for trial in range(25):
            labels, illicit, ledgers, emails, links = random_world(rng)
            result = run_clustering(labels, illicit, ledgers, emails, links,
                                    PUBLIC_THRESHOLD, VANITY_PREFIX)
            oracle = oracle_edge_union(labels, illicit, ledgers, emails, links)
            expected = frozenset(frozenset(c) for c in nx.connected_components(oracle))
            assert result.partition.partition() == expected, trial
            # the partition is the components of the recorded edges
            recorded = nx.Graph()
            recorded.add_nodes_from(n for n, attrs in result.graph.nodes.items()
                                    if attrs["type"] in (SITE, BTC))
            recorded.add_edges_from((u, v) for _, u, v in result.graph.edges)
            assert result.partition.partition() == frozenset(
                frozenset(c) for c in nx.connected_components(recorded)), trial

    def test_phases_only_merge(self):
        rng = random.Random(78)
        labels, illicit, ledgers, emails, links = random_world(rng)
        graph = build_entity_graph(labels, illicit, emails)
        members = set(illicit)
        common, internal = transaction_edges(ledgers, members)
        identity, _ = identity_edges(links, 50, members)
        uf = UnionFind(n for n, attrs in graph.nodes.items() if attrs["type"] in (SITE, BTC))
        history = [uf.partition()]
        for edges in (graph.edges_of_kind("site-hosts-addr"), common, internal,
                      graph.edges_of_kind("site-lists-email"), identity):
            merge(uf, edges)
            history.append(uf.partition())
        for before, after in zip(history, history[1:]):
            for old_cluster in before:
                assert any(old_cluster <= new_cluster for new_cluster in after)

    def test_surface_link_order_irrelevant(self):
        rng = random.Random(79)
        labels, illicit, ledgers, emails, links = random_world(rng)
        r1 = run_clustering(labels, illicit, ledgers, emails, links,
                            PUBLIC_THRESHOLD, VANITY_PREFIX)
        shuffled = links[:]
        rng.shuffle(shuffled)
        r2 = run_clustering(labels, illicit, ledgers, emails, shuffled,
                            PUBLIC_THRESHOLD, VANITY_PREFIX)
        assert r1.partition.partition() == r2.partition.partition()
