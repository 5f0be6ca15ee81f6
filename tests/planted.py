"""Synthetic planted-campaign corpus shared by unit and acceptance tests.

Three campaigns with known membership and satoshi income:
  c1 "cards":   two sites bridged by a shared payment address, plus an
                internal transfer and a common-input spend inside it
  c2 "deepmar": two vanity-named sites bridged only by a shared email
  c3 "members": two sites bridged only by a shared surface-web IP
A JoinMarket-pattern transaction spends from c1 and c2 inputs and must
never merge them. One forum-zone address must be filtered out.
"""

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from urllib.parse import unquote

from onionforge.base58 import b58check_encode
from onionforge.report import parse_config

SAT = 1  # readability for satoshi literals

TEMPLATES = {
    "InvestmentScams": ["flaw", "multiply", "bitcoins", "client", "transaction",
                        "innovative", "digital", "investment", "found", "history"],
    "PrivateKey": ["balance", "electrum", "privkey", "lordpay", "wallet",
                   "private", "wallets", "key", "accounts", "price"],
    "CloneCard": ["buyed", "says", "transfer", "product", "cards", "money",
                  "western", "card", "paypal", "union"],
    "CounterfeitBills": ["bills", "euro", "value", "price", "usd", "bill",
                         "dollar", "amounts", "costs", "ship"],
    "Citizenship": ["dateofbirth", "addresscity", "ahmet", "erdogan",
                    "motherfirst", "addressdistrict", "addressneighborhood",
                    "birthcity", "doororentrancenumber", "fatherfirst"],
    "Drugs": ["name", "courses", "middle", "effects", "extreme", "zip",
              "contacts", "city", "country", "drug"],
    "Hacker": ["hack", "tutorials", "programs", "confirmation", "begin",
               "archive", "automatically", "message", "zip", "send"],
    "Hitmen": ["target", "hitmen", "provide", "information", "identifying",
               "identify", "murder", "profile", "address", "job"],
    "SexualAbuse": ["porno", "porn", "video", "sex", "free", "teen", "film",
                    "gay", "online", "russian"],
    "Memberships": ["access", "pin", "payment", "redirect", "page", "deposit",
                    "authorization", "creation", "reversed", "red"],
    "Weapons": ["darkseid", "armour", "calibers", "drkseid", "modify",
                "succesfully", "arms", "guns", "years", "expertise"],
    "Shop": ["onion", "index", "hidden", "marketplace", "cards", "tor",
             "card", "credit", "hosting", "service"],
}

GT_DOMAINS = {cat: "gt%saaaaaaaaaaaaa.onion" % "abcdefghijkl"[i]
              for i, cat in enumerate(TEMPLATES)}
GT_SHOP_MIX_DOMAIN = "gtmaaaaaaaaaaaaa.onion"

S1 = "cardsalphaaaaaaa.onion"
S2 = "cardsbravoaaaaaa.onion"
S3 = "deepmarxaaaaaaaa.onion"
S4 = "deepmaryaaaaaaaa.onion"
S5 = "c3siteoneaaaaaaa.onion"
S6 = "c3sitetwoaaaaaaa.onion"
NOISE = "zzznoiseaaaaaaaa.onion"

EMAIL = "support@secmail.pro"
URL1 = "https://members-mirror-one.example.com/pay"
URL2 = "https://members-mirror-two.example.org/pay"
SHARED_IP = "203.0.113.7"


def planted_address(tag: str) -> str:
    """Deterministic valid P2PKH address derived from a tag."""
    return b58check_encode(b"\x00" + hashlib.sha256(tag.encode()).digest()[:20])


A1 = planted_address("planted-a1")
A2 = planted_address("planted-a2")
B1 = planted_address("planted-b1")
B2 = planted_address("planted-b2")
M1 = planted_address("planted-m1")
M2 = planted_address("planted-m2")
FORUM_ADDR = planted_address("planted-forum")

EXT = {name: planted_address("planted-ext-" + name)
       for name in ("x0", "x0b", "x1", "x2", "x3", "x4", "x5", "x6", "x7",
                    "xc", "xd", "xe", "xf", "xg")}


def tx_id(tag: str) -> str:
    return hashlib.sha256(tag.encode()).hexdigest()


def tx(tag, when, inputs, outputs):
    return {
        "txid": tx_id(tag),
        "timestamp": when,
        "inputs": [{"address": a, "value": v} for a, v in inputs],
        "outputs": [{"address": a, "value": v} for a, v in outputs],
    }


M = 10 ** 6  # 0.01 BTC in satoshis

TX1 = tx("planted-tx1", "2020-01-01T00:00:00Z", [(EXT["x0"], 150 * M)], [(A1, 150 * M)])
TX2 = tx("planted-tx2", "2020-01-05T00:00:00Z", [(EXT["x0b"], 50 * M)], [(A2, 50 * M)])
TX3 = tx("planted-tx3", "2020-02-01T00:00:00Z", [(A1, 30 * M)], [(A2, 30 * M)])  # internal
TX4 = tx("planted-tx4", "2020-03-01T00:00:00Z",
         [(A1, 20 * M), (A2, 10 * M)], [(EXT["x7"], 30 * M)])  # common input
TX5 = tx("planted-tx5", "2020-06-01T00:00:00Z",  # JoinMarket pattern: must not merge
         [(A1, 40 * M), (B1, 30 * M), (EXT["x1"], 20 * M)],
         [(EXT["x2"], 25 * M), (EXT["x3"], 25 * M), (EXT["x4"], 25 * M),
          (EXT["x5"], 7 * M), (EXT["x6"], 8 * M)])
TX6 = tx("planted-tx6", "2020-04-01T00:00:00Z", [(EXT["xc"], 80 * M)], [(B1, 80 * M)])
TX7 = tx("planted-tx7", "2020-05-01T12:00:00Z", [(EXT["xd"], 12 * M)], [(B2, 12 * M)])
TX8 = tx("planted-tx8", "2020-05-01T13:00:00Z", [(EXT["xe"], 8 * M)], [(B2, 8 * M)])
TX9 = tx("planted-tx9", "2021-01-01T00:00:00Z", [(EXT["xf"], 10 * M)], [(M1, 10 * M)])
TX10 = tx("planted-tx10", "2021-01-02T00:00:00Z", [(EXT["xg"], 5 * M)], [(M2, 5 * M)])

LEDGER_FIXTURES = {
    A1: [TX1, TX3, TX4, TX5],
    A2: [TX2, TX3, TX4],
    B1: [TX6, TX5],
    B2: [TX7, TX8],
    M1: [TX9],
    M2: [TX10],
}

EXPECTED_INCOME = {A1: 150 * M, A2: 50 * M, B1: 80 * M, B2: 20 * M, M1: 10 * M, M2: 5 * M}

EXPECTED_CAMPAIGNS = [
    {"sites": sorted([S1, S2]), "btc_addresses": sorted([A1, A2]), "emails": [],
     "ips": [], "urls": [], "categories": ["CloneCard"], "received": 200 * M},
    {"sites": sorted([S3, S4]), "btc_addresses": sorted([B1, B2]), "emails": [EMAIL],
     "ips": [], "urls": [], "categories": ["InvestmentScams"], "received": 100 * M},
    {"sites": sorted([S5, S6]), "btc_addresses": sorted([M1, M2]), "emails": [],
     "ips": [SHARED_IP], "urls": sorted([URL1, URL2]),
     "categories": ["Memberships"], "received": 15 * M},
]


def _page_html(words, extra=""):
    body = " ".join(words * 3)
    return ("<html><body><p>%s</p>%s</body></html>" % (body, extra)).encode()


def _write_page(root, domain, filename, html):
    site = root / domain
    site.mkdir(parents=True, exist_ok=True)
    (site / filename).write_bytes(html)


@dataclass
class PlantedCorpus:
    root: Path
    snapshot: Path = None
    ground_truth: Path = None
    tx_fixtures: Path = None
    search_fixtures: Path = None
    chain_annotations: Path = None
    trace_annotations: Path = None
    manifest_rows: list = field(default_factory=list)

    def config_text(self, out_dir) -> str:
        return "\n".join([
            "corpus_root = %s" % self.snapshot,
            "ground_truth = %s" % self.ground_truth,
            "out_dir = %s" % out_dir,
            "threshold = 0.5",
            "provider = fixtures",
            "tx_fixtures = %s" % self.tx_fixtures,
            "search_fixtures = %s" % self.search_fixtures,
            "chain_annotations = %s" % self.chain_annotations,
            "trace_annotations = %s" % self.trace_annotations,
        ]) + "\n"


def build_planted_corpus(root) -> PlantedCorpus:
    root = Path(root)
    planted = PlantedCorpus(root=root)
    snapshot = root / "snapshot"
    snapshot.mkdir(parents=True, exist_ok=True)
    planted.snapshot = snapshot

    gt_rows = []
    for cat, domain in GT_DOMAINS.items():
        _write_page(snapshot, domain, "index.html", _page_html(TEMPLATES[cat]))
        gt_rows.append({"domain": domain, "path": "/", "category": cat})
    # one ground-truth site whose pages span two categories (collapses to Shop)
    _write_page(snapshot, GT_SHOP_MIX_DOMAIN, "%2Fdrugs.html",
                _page_html(TEMPLATES["Drugs"]))
    _write_page(snapshot, GT_SHOP_MIX_DOMAIN, "%2Fweapons.html",
                _page_html(TEMPLATES["Weapons"]))
    gt_rows.append({"domain": GT_SHOP_MIX_DOMAIN, "path": "/drugs",
                    "category": "Drugs"})
    gt_rows.append({"domain": GT_SHOP_MIX_DOMAIN, "path": "/weapons",
                    "category": "Weapons"})

    planted.ground_truth = root / "gt.jsonl"
    planted.ground_truth.write_text(
        "".join(json.dumps(r, sort_keys=True) + "\n" for r in gt_rows))

    cards = TEMPLATES["CloneCard"]
    invest = TEMPLATES["InvestmentScams"]
    members = TEMPLATES["Memberships"]
    _write_page(snapshot, S1, "index.html",
                _page_html(cards, "<p>pay here %s</p><a href=\"http://%s/\">mirror</a>"
                           % (A1, S2)))
    _write_page(snapshot, S1, "%2Fforum.html",
                ("<html><body>guest board visitor donations welcome %s"
                 "</body></html>" % FORUM_ADDR).encode())
    _write_page(snapshot, S2, "index.html",
                _page_html(cards, "<p>pay %s or %s</p>" % (A1, A2)))
    _write_page(snapshot, S3, "index.html",
                _page_html(invest, "<p>deposit %s contact %s</p>" % (B1, EMAIL)))
    _write_page(snapshot, S4, "index.html",
                _page_html(invest, "<p>deposit %s contact %s</p>" % (B2, EMAIL)))
    _write_page(snapshot, S5, "index.html",
                _page_html(members, "<p>unlock %s</p>" % M1))
    _write_page(snapshot, S6, "index.html",
                _page_html(members, "<p>unlock %s</p>" % M2))
    _write_page(snapshot, NOISE, "index.html",
                _page_html(["banana", "orange", "melon", "grape", "kiwi", "papaya",
                            "lemon", "mango", "plum", "pear"]))

    manifest = []
    for site_dir in sorted(snapshot.iterdir()):
        if not site_dir.is_dir():
            continue
        for page in sorted(site_dir.iterdir()):
            stem = page.name[:-len(".html")]
            path = "/" if stem == "index" else unquote(stem)
            manifest.append({"domain": site_dir.name, "path": path,
                             "fetched_at": "2022-03-01T00:00:00Z"})
    (snapshot / "manifest.jsonl").write_text(
        "".join(json.dumps(r, sort_keys=True) + "\n" for r in manifest))
    planted.manifest_rows = manifest

    txdir = root / "txs"
    txdir.mkdir(exist_ok=True)
    for address, txs in LEDGER_FIXTURES.items():
        (txdir / (address + ".json")).write_text(json.dumps(txs, indent=2))
    planted.tx_fixtures = txdir

    searchdir = root / "search"
    searchdir.mkdir(exist_ok=True)
    (searchdir / (M1 + ".json")).write_text(json.dumps(
        [URL1, "https://btc.com/btc/address/" + M1]))
    (searchdir / (M2 + ".json")).write_text(json.dumps([URL2]))
    planted.search_fixtures = searchdir

    chain_ann = [
        {"domain": S1, "address": FORUM_ADDR, "zone": "forum",
         "note": "visitor donation address on the guest board"},
        {"domain": S1, "address": A1, "zone": "payment"},
        {"domain": S2, "address": A1, "zone": "payment"},
        {"domain": S2, "address": A2, "zone": "payment"},
        {"domain": S3, "address": B1, "zone": "payment"},
        {"domain": S4, "address": B2, "zone": "payment"},
        {"domain": S5, "address": M1, "zone": "payment"},
        {"domain": S6, "address": M2, "zone": "payment"},
    ]
    planted.chain_annotations = root / "chain_annotations.jsonl"
    planted.chain_annotations.write_text(
        "".join(json.dumps(r, sort_keys=True) + "\n" for r in chain_ann))

    trace_ann = [
        {"url": URL1, "kind": "IllicitSite", "ip": SHARED_IP},
        {"url": URL2, "kind": "IllicitSite", "ip": SHARED_IP},
    ]
    planted.trace_annotations = root / "trace_annotations.jsonl"
    planted.trace_annotations.write_text(
        "".join(json.dumps(r, sort_keys=True) + "\n" for r in trace_ann))
    return planted


def plant(root, *lines):
    """Build the planted corpus under `root`/planted and write its config to
    `root`/run.cfg, out_dir `root`/out, with `lines` appended. Returns the
    corpus, the parsed config and the out dir."""
    root = Path(root)
    planted = build_planted_corpus(root / "planted")
    (root / "run.cfg").write_text(planted.config_text(root / "out") + "".join(
        line + "\n" for line in lines), encoding="utf-8")
    return planted, parse_config(root / "run.cfg"), root / "out"


def assert_same_artifacts(out1, out2):
    """Both out dirs hold the same files, byte for byte, apart from run.json."""
    names1 = {p.relative_to(out1) for p in out1.rglob("*") if p.is_file()}
    names2 = {p.relative_to(out2) for p in out2.rglob("*") if p.is_file()}
    assert names1 == names2
    for rel in sorted(names1):
        if rel.name == "run.json":
            continue  # echoes the caller-chosen out_dir path verbatim
        assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel
