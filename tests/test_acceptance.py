"""Acceptance suite: one test per criterion, every tolerance pinned.

Run `pytest -v tests/test_acceptance.py` for one pass/fail line per
criterion (add -s for the explicit ACCEPTANCE lines).
"""

import json
import random
import time
from collections import Counter
from datetime import datetime, timedelta, timezone

import networkx as nx
import pytest

from onionforge import base58, chain
from onionforge.chain import Transaction, TxIO, estimate_income
from onionforge.classify import (
    CATEGORIES, build_feature_set, classify_corpus, cosine,
    ground_truth_index, load_stopwords, term_vector, tfidf_vectors,
)
from onionforge.cluster import (
    detect_mixing, run_clustering, transaction_edges, vanity_groups,
)
from onionforge.corpus import Corpus, PageRecord, onion_name
from onionforge.extract import validate_btc
from onionforge.report import parse_config, run_pipeline

from planted import (
    B2, EXPECTED_CAMPAIGNS, GT_SHOP_MIX_DOMAIN, TEMPLATES, build_planted_corpus,
)
from rows import illicit_of, input_from, output_to

STOPWORDS = load_stopwords()
NOW = datetime(2022, 3, 1, tzinfo=timezone.utc)


def ok(n, text):
    print("ACCEPTANCE %02d PASS — %s" % (n, text))


@pytest.fixture(scope="module")
def planted_pipeline(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("acceptance")
    planted = build_planted_corpus(tmp / "planted")
    out = tmp / "out"
    cfg_file = tmp / "run.cfg"
    cfg_file.write_text(planted.config_text(out))
    config = parse_config(cfg_file)
    started = time.perf_counter()
    run_pipeline(config)
    elapsed = time.perf_counter() - started
    return planted, out, elapsed, tmp


# the three profitable addresses quoted in the source material, plus two more
ACCEPT_ADDRESSES = [
    "1CHvWk36MR5aCz72jViS7jSub9utJf3jii",
    "1EKrfiWZoABz17DWJxUrycQKg3Fo4zZ2Z2",
    "1Gs7Aztizk2rNNSE6AbpK4K7yAFTCZKV9a",
    "1ENrJ77ubXo5eeip2XpohC4jQgKwLWxfuA",
    "1KRkAWDH5q7U5rdTM1rREmepk1pxpCAVKE",
]


def test_criterion_01_base58check_validation():
    started = time.perf_counter()
    mutations = 0
    for addr in ACCEPT_ADDRESSES:
        assert validate_btc(addr) is None, addr
        for pos in range(len(addr)):
            for repl in base58.ALPHABET:
                if repl == addr[pos]:
                    continue
                mutated = addr[:pos] + repl + addr[pos + 1:]
                assert validate_btc(mutated) is not None, mutated
                mutations += 1
    elapsed = time.perf_counter() - started
    assert mutations >= 5 * 33
    assert elapsed < 1.0, "took %.3fs" % elapsed
    ok(1, "5 known-valid accepted; %d single-char mutations rejected in %.3fs"
       % (mutations, elapsed))


def test_criterion_02_cosine_properties():
    rng = random.Random(20240201)
    vocab = ["w%02d" % i for i in range(40)]

    def sparse_vector():
        size = rng.randint(1, 8)
        return {rng.choice(vocab): rng.uniform(0.01, 100.0) for _ in range(size)}

    for _ in range(1000):
        v1, v2 = sparse_vector(), sparse_vector()
        s = cosine(v1, v2)
        assert 0.0 <= s <= 1.0 + 1e-12
        assert abs(s - cosine(v2, v1)) < 1e-12
        assert abs(cosine(v1, v1) - 1.0) < 1e-12
        k = rng.uniform(0.01, 50.0)
        assert abs(cosine({t: k * w for t, w in v1.items()}, v2) - s) < 1e-9
    assert abs(cosine({"a": 1, "b": 2}, {"a": 2, "b": 1}) - 0.8) < 1e-12
    ok(2, "symmetry, range, self-similarity, scale invariance over 1000 vectors; "
          "hand-computed 0.8 exact to 1e-12")


def test_criterion_03_tfidf_toy_oracle():
    docs = [term_vector(["apple", "banana", "apple"]),
            term_vector(["banana", "cherry"]),
            term_vector(["cherry", "durian", "apple"])]
    weighted, idf = tfidf_vectors(docs)
    # hand-computed: tf * (ln(3/df) + 1)
    expected = [
        {"apple": 2.8109302162163288, "banana": 1.4054651081081644},
        {"banana": 1.4054651081081644, "cherry": 1.4054651081081644},
        {"cherry": 1.4054651081081644, "durian": 2.09861228866811,
         "apple": 1.4054651081081644},
    ]
    for got, want in zip(weighted, expected):
        assert set(got) == set(want)
        for term, weight in want.items():
            assert abs(got[term] - weight) < 1e-9, term

    gt = []
    for i, (cat, words) in enumerate(TEMPLATES.items()):
        html = ("<p>%s</p>" % " ".join(words * 3)).encode()
        page = PageRecord(domain=onion_name("gt%saaaaaaaaaaaaa.onion"
                                            % "abcdefghijkl"[i]),
                          path="/", html=html, fetched_at=NOW)
        gt.append((page, cat))
    fs = build_feature_set(ground_truth_index(gt, STOPWORDS))
    assert len(fs.keywords) <= 240
    ok(3, "3-document weights match the hand table to 1e-9; feature set <= 240 words")


def _mkpage(domain, text):
    html = ("<html><body><p>%s</p></body></html>" % text).encode()
    return PageRecord(domain=onion_name(domain), path="/", html=html, fetched_at=NOW)


def _dom(prefix, i):
    label = "%s%s%s" % (prefix, chr(97 + i // 26), chr(97 + i % 26))
    return label + "a" * (16 - len(label)) + ".onion"


def test_criterion_04_classifier_planted():
    gt = [(_mkpage(_dom("gt", i), " ".join(words * 3)), cat)
          for i, (cat, words) in enumerate(TEMPLATES.items())]
    pages = [page for page, _ in gt]

    rng = random.Random(8080)
    noise_vocab = ["banana", "orange", "melon", "grape", "kiwi", "papaya",
                   "lemon", "mango", "plum", "pear", "fig", "date"]
    truth = {}
    idx = 0
    for cat, words in TEMPLATES.items():
        for _ in range(5):
            body = words * 3 + [rng.choice(noise_vocab) for _ in range(3)]
            rng.shuffle(body)
            domain = _dom("np", idx)
            pages.append(_mkpage(domain, " ".join(body)))
            truth[domain] = cat
            idx += 1
    for _ in range(20):
        domain = _dom("np", idx)
        pages.append(_mkpage(domain, " ".join(
            rng.choice(noise_vocab) for _ in range(15))))
        truth[domain] = "Other"
        idx += 1
    dup_domains = {}
    for i, (cat, words) in enumerate(TEMPLATES.items()):
        domain = _dom("dp", i)
        pages.append(_mkpage(domain, " ".join(words * 3)))  # byte-exact duplicate text
        dup_domains[domain] = cat

    corpus = Corpus(pages)
    results = {r["domain"]: r for r in classify_corpus(corpus, gt, 0.5, STOPWORDS)}
    hits = sum(1 for d, cat in truth.items()
               if results[d]["category"] == cat)
    accuracy = hits / len(truth)
    assert accuracy >= 0.95, accuracy
    for domain, cat in dup_domains.items():
        r = results[domain]
        assert r["category"] == cat and r["phase"] == "cosine" and r["score"] >= 0.999
    again = {r["domain"]: r for r in classify_corpus(corpus, gt, 0.5, STOPWORDS)}
    for domain, r in results.items():
        if r["phase"] == "cosine":
            assert again[domain]["category"] == r["category"]
            assert again[domain]["phase"] == "cosine"
    ok(4, "accuracy %.1f%% on 80 planted sites (threshold 0.5); duplicates 100%%; "
          "cosine labels never overwritten" % (100 * accuracy))


def _txid(n):
    return "%064x" % n


def _mktx(n, ins, outs):
    return Transaction(txid=_txid(n), timestamp=NOW + timedelta(hours=n),
                       inputs=tuple(TxIO(a, v) for a, v in ins),
                       outputs=tuple(TxIO(a, v) for a, v in outs))


def _random_ledger_world(rng, max_txs=30):
    n_addr = rng.randint(2, 8)
    cats = list(CATEGORIES)
    addrs = ["a%02d" % i for i in range(n_addr)]
    illicit = illicit_of(*((a, "site%s.onion" % a, rng.choice(cats)) for a in addrs))
    pool = addrs + ["e%d" % i for i in range(5)]
    txs = []
    for n in range(rng.randint(1, max_txs)):
        ins = [(rng.choice(pool), rng.randint(1, 10 ** 6))
               for _ in range(rng.randint(1, 3))]
        outs = [(rng.choice(pool), rng.randint(1, 10 ** 6))
                for _ in range(rng.randint(1, 4))]
        txs.append(_mktx(n, ins, outs))
    ledgers = {}
    for i, addr in enumerate(addrs):
        mine = [t for t in txs if output_to(t, addr) or input_from(t, addr)]
        recv = sum(output_to(t, addr) for t in mine)
        spent = sum(input_from(t, addr) for t in mine)
        if spent > recv:  # top up so the ledger invariant holds
            mine.append(_mktx(10000 + i, [("efund", spent)], [(addr, spent)]))
        ledgers[addr] = chain.ledger(addr, mine)
    return illicit, ledgers


def _oracle_income(illicit, ledgers):
    seen = set()
    total = 0
    for txs in ledgers.values():
        for tx in txs:
            if tx.txid in seen:
                continue
            seen.add(tx.txid)
            if (any(i.address in illicit for i in tx.inputs)
                    and any(o.address in illicit for o in tx.outputs)):
                continue
            for out in tx.outputs:
                if out.address in illicit:
                    total += out.value
    return total


def test_criterion_05_income_oracle():
    rng = random.Random(515151)
    internal_seen = equality_seen = False
    for trial in range(50):
        illicit, ledgers = _random_ledger_world(rng)
        report = estimate_income(illicit, ledgers)
        assert report.total == _oracle_income(illicit, ledgers), trial
        gross = sum(output_to(tx, a) for a, txs in ledgers.items() for tx in txs)
        assert report.total <= gross
        if report.internal_txids:
            internal_seen = True
            assert report.total < gross
        else:
            equality_seen = True
            assert report.total == gross
    assert internal_seen and equality_seen  # both branches exercised
    ok(5, "50 random ledger sets: integer equality with the per-output oracle; "
          "total <= gross with equality iff no internal txs")


def _random_entity_world(rng):
    n_sites = rng.randint(5, 60)
    n_addrs = rng.randint(5, 60)
    cats = ["Drugs", "CloneCard", "Weapons", "Other"]
    labels = {_dom("rw", i): rng.choice(cats) for i in range(n_sites)}
    illicit_sites = [d for d, c in labels.items() if c != "Other"]
    if not illicit_sites:
        labels[_dom("rw", 0)] = "Drugs"
        illicit_sites = [_dom("rw", 0)]
    addrs = ["a%03d" % i for i in range(n_addrs)]
    illicit = illicit_of(*((a, s, labels[s]) for a in addrs for s in rng.sample(
        illicit_sites, rng.randint(1, min(2, len(illicit_sites))))))
    pool = addrs + ["ext%d" % i for i in range(6)]
    txs = []
    for n in range(rng.randint(0, 25)):
        style = rng.random()
        if style < 0.2:  # mixing-shaped: >=3 distinct ins, >=3 equal outs
            ins = [("mi%d_%d" % (n, k), 30) for k in range(2)]
            ins.append((rng.choice(addrs), 30))
            outs = [("mo%d_%d" % (n, k), 10) for k in range(3)]
            txs.append(_mktx(n, ins, outs))
        elif style < 0.55:
            ins = [(rng.choice(pool), rng.randint(1, 50)) for _ in range(rng.randint(2, 3))]
            txs.append(_mktx(n, ins, [("chg%d" % n, 5)]))
        else:
            txs.append(_mktx(n, [(rng.choice(pool), rng.randint(1, 50))],
                             [(rng.choice(pool), rng.randint(1, 40))]))
    ledgers = {}
    for i, addr in enumerate(addrs):
        mine = [t for t in txs if output_to(t, addr) or input_from(t, addr)]
        recv = sum(output_to(t, addr) for t in mine)
        spent = sum(input_from(t, addr) for t in mine)
        if spent > recv:
            mine.append(_mktx(20000 + i, [("efund", spent)], [(addr, spent)]))
        if mine:
            ledgers[addr] = chain.ledger(addr, mine)
    emails = {}
    for _ in range(rng.randint(0, 6)):
        emails.setdefault(rng.choice(list(labels)), set()).add(
            "e%d@secmail.pro" % rng.randint(0, 4))
    links = []
    for i in range(rng.randint(0, 8)):
        ip = rng.choice(["198.51.100.1", "198.51.100.2", "203.0.113.9", None])
        reg = rng.choice(["org one", "Org Two", None])
        if not ip and not reg:
            continue
        links.append({"url": "https://h%d.example.com/p%d" % (rng.randint(0, 9), i),
                      "ip": ip, "registrant": reg,
                      "addresses": tuple(rng.sample(addrs, rng.randint(0, 2)))})
    threshold = rng.choice([2, 3, 50])
    return labels, illicit, ledgers, emails, links, threshold


def _oracle_component_graph(labels, illicit, ledgers, emails, links, threshold):
    from urllib.parse import urlparse
    g = nx.Graph()
    for site, cat in labels.items():
        if cat != "Other":
            g.add_node("site:" + site)
    members = set(illicit)
    for addr in members:
        g.add_node("btc:" + addr)
        for site in illicit[addr]["sites"]:
            g.add_edge("site:" + site, "btc:" + addr)
    for site, mails in emails.items():
        if labels.get(site, "Other") == "Other":
            continue
        for m in mails:
            g.add_edge("site:" + site, "email:" + m)
    unique = {}
    for txs in ledgers.values():
        for tx in txs:
            unique.setdefault(tx.txid, tx)
    for tx in unique.values():
        distinct_ins = {i.address for i in tx.inputs}
        mixing = (len(tx.inputs) >= 3 and len(distinct_ins) >= 3 and
                  max(Counter(o.value for o in tx.outputs).values(), default=0) >= 3)
        if mixing:
            continue
        ill_in = sorted(distinct_ins & members)
        for other in ill_in[1:]:
            g.add_edge("btc:" + ill_in[0], "btc:" + other)
        ill_out = sorted({o.address for o in tx.outputs} & members)
        if ill_in and ill_out:
            for a in ill_in:
                for b in ill_out:
                    if a != b:
                        g.add_edge("btc:" + a, "btc:" + b)
    ip_hosts, reg_hosts = {}, {}
    for row in links:
        host = urlparse(row["url"]).netloc.lower()
        if row["ip"]:
            ip_hosts.setdefault(row["ip"], set()).add(host)
        if row["registrant"]:
            reg_hosts.setdefault(row["registrant"].strip().casefold(), set()).add(host)
    for row in links:
        facts = []
        if row["ip"] and len(ip_hosts[row["ip"]]) <= threshold:
            facts.append("ip:" + row["ip"])
        if row["registrant"]:
            norm = row["registrant"].strip().casefold()
            if len(reg_hosts[norm]) <= threshold:
                facts.append("reg:" + norm)
        if not facts:
            continue
        for f in facts:
            g.add_edge("url:" + row["url"], f)
        for addr in row["addresses"]:
            if addr in members:
                g.add_edge("url:" + row["url"], "btc:" + addr)
    return g


def test_criterion_06_clustering_oracle():
    rng = random.Random(606060)
    for trial in range(100):
        labels, illicit, ledgers, emails, links, threshold = _random_entity_world(rng)
        result = run_clustering(labels, illicit, ledgers, emails, links, threshold, 7)
        oracle = _oracle_component_graph(labels, illicit, ledgers, emails, links,
                                         threshold)
        expected = frozenset(frozenset(c) for c in nx.connected_components(oracle))
        assert result.partition.partition() == expected, trial

        sites_series = [s["onions"] for s in result.trace]
        assert sites_series == sorted(sites_series), trial

        if trial % 10 == 0:
            shuffled_links = links[:]
            rng.shuffle(shuffled_links)
            shuffled_ledgers = dict(sorted(ledgers.items(), reverse=True))
            again = run_clustering(labels, illicit, shuffled_ledgers, emails,
                                   shuffled_links, threshold, 7)
            assert again.partition.partition() == result.partition.partition(), trial
    ok(6, "100 random entity graphs: partition equals brute-force components; "
          "clustered-site counts non-decreasing; edge order irrelevant")


def test_criterion_07_mixing_suppression():
    coin = 25 * 10 ** 6
    jm = _mktx(1, [("a%d" % k, 30 * 10 ** 6) for k in range(5)],
               [("o%d" % k, coin) for k in range(5)]
               + [("c%d" % k, 7 * 10 ** 6 + k) for k in range(5)])
    assert detect_mixing(jm)
    payment = _mktx(2, [("a0", 10), ("a1", 20)], [("m", 25), ("a0", 5)])
    assert not detect_mixing(payment)

    illicit = illicit_of(*(("a%d" % k, _dom("mx", k), "CloneCard") for k in range(5)))
    ledgers = {}
    for k in range(5):
        addr = "a%d" % k
        fund = _mktx(100 + k, [("efund", 50 * 10 ** 6)], [(addr, 50 * 10 ** 6)])
        ledgers[addr] = chain.ledger(addr, [fund, jm])
    # zero merge edges from the flagged tx
    assert transaction_edges(ledgers, set(illicit)) == ([], [])
    ok(7, "JoinMarket-pattern tx flagged and contributes zero merges; "
          "a 2-in/2-out payment is not flagged")


def test_criterion_08_end_to_end_planted(planted_pipeline):
    _, out, elapsed, _ = planted_pipeline
    doc = json.loads((out / "campaigns.json").read_text())
    got = [{k: c[k] for k in ("sites", "btc_addresses", "emails", "ips",
                              "urls", "categories", "received")}
           for c in doc["campaigns"]]
    assert got == EXPECTED_CAMPAIGNS
    assert elapsed < 30.0, "took %.1fs" % elapsed
    ok(8, "planted corpus -> exactly 3 campaigns with exact membership and "
          "satoshi income in %.1fs" % elapsed)


def test_criterion_09_determinism(planted_pipeline, tmp_path):
    planted, out1, _, _ = planted_pipeline
    out2 = tmp_path / "second"
    cfg_file = tmp_path / "run2.cfg"
    cfg_file.write_text(planted.config_text(out2))
    run_pipeline(parse_config(cfg_file))
    rel1 = {p.relative_to(out1) for p in out1.rglob("*") if p.is_file()}
    rel2 = {p.relative_to(out2) for p in out2.rglob("*") if p.is_file()}
    assert rel1 == rel2
    compared = 0
    for rel in sorted(rel1):
        if rel.name == "run.json":
            continue  # run manifest echoes the caller's out_dir path verbatim
        assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel
        compared += 1
    assert compared >= 10
    ok(9, "two full runs byte-identical across %d artifacts" % compared)


def test_criterion_10_paper_pattern_smoke(planted_pipeline):
    _, out, _, _ = planted_pipeline

    labels = {}
    for line in (out / "labels.jsonl").read_text().splitlines():
        row = json.loads(line)
        labels[row["domain"]] = row["category"]
    assert labels[GT_SHOP_MIX_DOMAIN] == "Shop"  # two distinct page labels collapse

    index = {}
    for line in (out / "ledgers" / "_index.jsonl").read_text().splitlines():
        row = json.loads(line)
        index[row["address"]] = row
    assert index[B2]["active_days"] == 1
    assert index[B2]["transactions"] == 2

    vanity = json.loads((out / "vanity.json").read_text())
    prefixes = {g["prefix"]: g["domains"] for g in vanity["groups"]}
    assert prefixes == {"deepmar": ["deepmarxaaaaaaaa.onion", "deepmaryaaaaaaaa.onion"]}

    groups = vanity_groups(["deepmar27rpxago5.onion", "deepmar3k3qtzszd.onion"], 7)
    assert groups == [("deepmar", ["deepmar27rpxago5.onion", "deepmar3k3qtzszd.onion"])]
    ok(10, "Shop collapse, single-day active period = 1, and deepmar-style "
           "vanity grouping all hold")
