"""Seeded input generator for the onionforge benchmark.

`generate(workload, seed, root)` writes everything one `onionforge run`
needs under `root` (snapshot tree, ground truth, transaction and search
fixtures, chain and trace annotations; `config_text` makes the run config)
plus `expected.json`, the results the pipeline must reproduce. Expected results
are known by construction: the planted category of each site, the planted
campaigns with their satoshi income from the generator's own ledger
bookkeeping, and the verdict each address candidate was built to get. No
pipeline stage is called; valid addresses are minted with the package's
own Base58Check and Keccak-256 kernels, which their test vectors pin.

Every workload carries the per-item faults the pipeline promises to
contain: a non-onion directory, a non-.html file, an empty page, an
undecodable file name, an over-spending ledger and an address without a
fixture.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace
from pathlib import Path

from onionforge.base58 import ALPHABET, b58check_encode, b58decode, checksum
from onionforge.keccak import keccak256

CATEGORIES = ("InvestmentScams", "PrivateKey", "CloneCard", "CounterfeitBills",
              "Citizenship", "Drugs", "Hacker", "Hitmen", "SexualAbuse",
              "Memberships", "Weapons", "Shop")
OTHER = "Other"

TOPICAL_WORDS = 20      # per category; the only words a category's pages share
COMMON_WORDS = 200      # shared by every category's pages
NOISE_WORDS = 3000      # never in ground truth
GT_WORDS = 150          # visible words per ground-truth page
PUBLIC_THRESHOLD = 4    # config value; the planted public facts exceed it
EMAIL_HOSTS = ("secmail.pro", "mailbox.org", "cock.li", "onionmail.net")
EXPLORER_HOST = "blockchair.com"


@dataclass(frozen=True)
class Shape:
    """Input size and mix of one workload."""

    strong: int              # topical sites, expected phase-2 (cosine) labels
    weak: int                # weakly topical sites, expected phase-3 (tfidf) labels
    noise: int               # off-topic sites, expected Other
    pages: int               # pages per site
    gt_pages: int            # ground-truth pages per category
    words: int               # visible words per page
    weak_share: float = 0.15  # topical share of a weak site's words
    markup: int = 0          # attribute-heavy blocks per page
    script_lines: int = 0    # script lines per page (dropped from text)
    cand_pages: int = 1      # pages per site that carry address candidates
    cands: dict = field(default_factory=dict)  # candidates per candidate page
    campaigns: int = 12      # planted campaigns, link kinds in rotation
    campaign_sites: int = 2
    tx_in: int = 2           # incoming payments per illicit address
    batches: int = 10        # multi-recipient payouts across illicit addresses
    spends: int = 1          # outgoing spends per illicit address
    coinjoins: int = 3
    publics: int = 6         # URLs sharing one public IP (and as many one registrant)
    searched: float = 0.3    # share of singleton addresses with search results
    trace_rows: int = 0      # extra kind-only trace annotation rows


# Candidate kinds and the verdict each is built to get: (valid, reject_reason).
VERDICTS = {
    "btc_visitor": (True, None),        # valid; on illicit sites annotated away
    "btc_bad_checksum": (False, "bad-checksum"),
    "btc_bad_alphabet": (False, "bad-alphabet"),
    "btc_bad_version": (False, "bad-version"),
    "btc_bad_length": (False, "bad-length"),
    "eth_mixed": (True, None),
    "eth_lower": (True, None),
    "eth_bad_eip55": (False, "bad-eip55"),
}

# a few candidates of every kind that needs no Keccak-256, so the address
# checks stay cheap where extraction is not the layer under test
LIGHT_CANDS = {"btc_bad_checksum": 1, "btc_bad_alphabet": 1, "eth_lower": 1, "email": 1}

WORKLOADS = {
    # phase-2 all-pairs cosine dominates: many small text-only sites scored
    # against many ground-truth pages per category
    "similarity-wide": Shape(strong=40, weak=28, noise=40, pages=3, gt_pages=20,
                             words=90, cands=LIGHT_CANDS),
    # large attribute- and script-heavy pages dense with candidates; one
    # ground-truth page per category keeps classify a minor share
    "markup-dense": Shape(strong=25, weak=13, noise=40, gt_pages=1,
                          words=250, weak_share=0.1, markup=50, script_lines=1200,
                          pages=1, cand_pages=1,
                          cands={"btc_visitor": 3, "btc_bad_checksum": 3,
                                 "btc_bad_alphabet": 2, "btc_bad_version": 1,
                                 "btc_bad_length": 1, "eth_mixed": 1, "eth_lower": 3,
                                 "eth_bad_eip55": 1, "email": 4},
                          campaigns=6, tx_in=2, batches=5, coinjoins=2),
    # a small corpus with long, overlapping ledgers, shared identity facts and
    # many annotations: chain, trace, cluster and report tables do the work
    "ledger-deep": Shape(strong=100, weak=14, noise=20, pages=1, gt_pages=1,
                         words=80, cands=LIGHT_CANDS, campaigns=32, campaign_sites=3,
                         tx_in=25, batches=300, spends=4, coinjoins=35, publics=8,
                         searched=0.8, trace_rows=150),
}

SMOKE_SCALE = {"strong": 18, "weak": 8, "noise": 8, "campaigns": 6, "campaign_sites": 2,
               "gt_pages": 1, "tx_in": 3, "batches": 4, "coinjoins": 1,
               "publics": 5, "trace_rows": 4}


def shape_for(workload: str, smoke: bool = False) -> Shape:
    shape = WORKLOADS[workload]
    if smoke:
        shape = replace(shape, **SMOKE_SCALE, markup=min(shape.markup, 6),
                        words=min(shape.words, 60), pages=min(shape.pages, 2),
                        cand_pages=min(shape.cand_pages, 2))
    return shape


# --- vocabulary ---

_CONS = "bdfgklmnprstvz"
_VOW = "aeiou"


def _word(prefix: str, i: int) -> str:
    """Distinct alphabetic pseudo-word; three or more syllables keep it off
    the stopword list and out of every other class's vocabulary."""
    i += 70 * 70
    out = []
    while i:
        i, r = divmod(i, 70)
        out.append(_CONS[r // 5] + _VOW[r % 5])
    return prefix + "".join(out)


TOPICAL = {cat: [_word("t" + "abcdefghijkl"[c], j) for j in range(TOPICAL_WORDS)]
           for c, cat in enumerate(CATEGORIES)}
COMMON = [_word("co", j) for j in range(COMMON_WORDS)]
NOISE = [_word("nu", j) for j in range(NOISE_WORDS)]
MARKUP = [_word("mk", j) for j in range(300)]


# --- addresses ---

class Minter:
    """Seeded address candidates, each built to get one known verdict."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.eth_mixed = [self._eth_checksummed() for _ in range(48)]
        self.eth_lower = ["0x" * (i % 2) + self._hex40() for i in range(24)]
        self.eth_bad = [self._eth_bad(a) for a in self.eth_mixed[:24]]

    def _payload(self, n=20) -> bytes:
        return self.rng.randbytes(n)

    def btc(self) -> str:
        return b58check_encode(self.rng.choice((b"\x00", b"\x05")) + self._payload())

    def btc_bad_version(self) -> str:
        return b58check_encode(b"\x30" + self._payload())

    def btc_bad_alphabet(self) -> str:
        addr = self.btc()
        pos = self.rng.randrange(1, len(addr))
        return addr[:pos] + self.rng.choice("0OIl") + addr[pos + 1:]

    def btc_bad_checksum(self) -> str:
        while True:
            addr = self.btc()
            pos = self.rng.randrange(2, len(addr))
            repl = self.rng.choice(ALPHABET.replace(addr[pos], ""))
            bad = addr[:pos] + repl + addr[pos + 1:]
            raw = b58decode(bad)
            if len(raw) == 25 and raw[0] in (0, 5) and checksum(raw[:-4]) != raw[-4:]:
                return bad

    def btc_bad_length(self) -> str:
        return "1" + "".join(self.rng.choice(ALPHABET) for _ in range(37))

    def _hex40(self) -> str:
        return self._payload().hex()

    def _eth_checksummed(self) -> str:
        while True:
            body = self._hex40()
            digest = keccak256(body.encode("ascii")).hex()
            mixed = "".join(c.upper() if c.isalpha() and int(digest[i], 16) >= 8 else c
                            for i, c in enumerate(body))
            if mixed != mixed.lower() and mixed != mixed.upper():
                return self.rng.choice(("0x", "")) + mixed

    def _eth_bad(self, valid: str) -> str:
        prefix, body = (valid[:2], valid[2:]) if valid[:2] == "0x" else ("", valid)
        letters = [i for i, c in enumerate(body) if c.isalpha()]
        while True:
            i = self.rng.choice(letters)
            bad = body[:i] + body[i].swapcase() + body[i + 1:]
            if bad != bad.lower() and bad != bad.upper():
                return prefix + bad

    def candidate(self, kind: str) -> str:
        if kind == "btc_visitor":
            return self.btc()
        if kind == "eth_mixed":
            return self.rng.choice(self.eth_mixed)
        if kind == "eth_lower":
            return self.rng.choice(self.eth_lower)
        if kind == "eth_bad_eip55":
            return self.rng.choice(self.eth_bad)
        return getattr(self, kind)()


def _onion(rng: random.Random, taken: set) -> str:
    while True:
        name = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz234567") for _ in range(56))
        if name not in taken:
            taken.add(name)
            return name + ".onion"


def _txid(rng: random.Random) -> str:
    return "%064x" % rng.getrandbits(256)


# --- pages ---

def _balanced(rng, vocab, k) -> list[str]:
    """k words cycling through shuffled copies of vocab, so every word's
    count is within one of every other's: cosine scores then sit far from
    the threshold whatever the seed."""
    out = []
    while len(out) < k:
        block = list(vocab)
        rng.shuffle(block)
        out.extend(block)
    return out[:k]


def _text(rng, kind, cat, n, weak_share=0.0) -> list[str]:
    """Visible words: ground-truth and strong pages are mostly topical, weak
    pages a little, noise pages not at all."""
    if kind in ("gt", "strong"):
        k = round(n * 0.7)
        words = _balanced(rng, TOPICAL[cat], k) + rng.choices(COMMON, k=n - k)
    else:
        k = round(n * weak_share) if kind == "weak" else 0
        words = (_balanced(rng, TOPICAL[cat], k) if k else []) + rng.choices(NOISE, k=n - k)
    rng.shuffle(words)
    return words


def _render(rng, shape: Shape, words, placed, links, minter) -> bytes:
    """One page. `placed` is a list of (value, where) to put in visible text
    or an attribute; script bodies carry decoy addresses that text
    extraction must drop."""
    out = ["<!DOCTYPE html><html><head><meta charset=\"utf-8\">",
           "<title>%s</title>" % " ".join(words[:4])]
    if shape.script_lines:
        out.append("<style>.item{margin:0}.t{font-weight:bold}</style><script>")
        for i in range(shape.script_lines):
            decoy = minter.btc() if i % 25 == 0 else rng.choice(MARKUP)
            out.append("var k%d = \"%s\"; // %s" % (i, rng.choice(MARKUP), decoy))
        out.append("</script>")
    out.append("</head><body><div class=\"nav\">")
    for link in links:
        out.append("<a href=\"http://%s/\" title=\"%s\">%s</a>"
                   % (link, rng.choice(MARKUP), rng.choice(MARKUP)))
    out.append("</div>")
    blocks = max(shape.markup, 1)
    per = max(1, len(words) // blocks)
    chunks = [words[i:i + per] for i in range(0, len(words), per)] or [[]]
    slots = {}
    for value, where in placed:
        slots.setdefault(rng.randrange(len(chunks)), []).append((value, where))
    for i, chunk in enumerate(chunks):
        if shape.markup:
            out.append("<div class=\"item\" data-id=\"i%d\" data-sku=\"%s\" title=\"%s %s\">"
                       "<span class=\"t\">%s</span><img src=\"/img/%s.png\" alt=\"%s\"></div>"
                       % (i, rng.choice(MARKUP), rng.choice(MARKUP), rng.choice(MARKUP),
                          " ".join(chunk), rng.choice(MARKUP), rng.choice(MARKUP)))
        else:
            out.append("<p>%s</p>" % " ".join(chunk))
        for value, where in slots.get(i, ()):
            if where == "text":
                out.append("<p>pay to <b>%s</b></p>" % value)
            elif where == "mailto":
                out.append("<a href=\"mailto:%s\">contact</a>" % value)
            else:
                out.append("<input type=\"text\" readonly value=\"%s\">" % value)
    out.append("</body></html>\n")
    return "\n".join(out).encode()


# --- the generator ---

@dataclass
class Site:
    domain: str
    kind: str                 # gt | strong | weak | noise
    category: str             # planted label
    addresses: list = field(default_factory=list)   # payment addresses (illicit)
    emails: list = field(default_factory=list)


class Ledgers:
    """Fixture transactions plus the generator's own income bookkeeping."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.txs: list[dict] = []
        self.day = 0

    def add(self, inputs, outputs):
        self.day += 1
        when = "20%02d-%02d-%02dT%02d:%02d:%02dZ" % (
            18 + self.day % 5, 1 + self.day % 12, 1 + self.day % 28,
            self.rng.randrange(24), self.rng.randrange(60), self.rng.randrange(60))
        self.txs.append({"txid": _txid(self.rng), "timestamp": when,
                         "inputs": [{"address": a, "value": v} for a, v in inputs],
                         "outputs": [{"address": a, "value": v} for a, v in outputs]})

    def by_address(self) -> dict[str, list[dict]]:
        out: dict[str, list[dict]] = {}
        for tx in self.txs:
            for addr in {io["address"] for io in tx["inputs"] + tx["outputs"]}:
                out.setdefault(addr, []).append(tx)
        return out

    def income(self, illicit: set[str]) -> dict[str, int]:
        """Satoshis each illicit address received outside internal transfers."""
        out = dict.fromkeys(illicit, 0)
        for tx in self.txs:
            if (any(i["address"] in illicit for i in tx["inputs"])
                    and any(o["address"] in illicit for o in tx["outputs"])):
                continue
            for o in tx["outputs"]:
                if o["address"] in illicit:
                    out[o["address"]] += o["value"]
        return out


def _jsonl(path: Path, rows):
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in rows))


def generate(workload: str, seed: int, root, smoke: bool = False) -> dict:
    """Write the workload's inputs under `root`; return the expected results."""
    shape = shape_for(workload, smoke)
    rng = random.Random("%s/%d" % (workload, seed))
    root = Path(root)
    snapshot = root / "snapshot"
    snapshot.mkdir(parents=True)
    minter = Minter(rng)
    taken: set = set()

    # sites
    sites: list[Site] = []
    for cat in CATEGORIES:
        sites.append(Site(_onion(rng, taken), "gt", cat))
    shop_mix = Site(_onion(rng, taken), "gt", "Shop")  # Drugs + Weapons pages collapse to Shop
    sites.append(shop_mix)
    tests = []
    for kind, n in (("strong", shape.strong), ("weak", shape.weak)):
        for i in range(n):
            tests.append(Site(_onion(rng, taken), kind, CATEGORIES[i % len(CATEGORIES)]))
    illicit_sites = list(tests)
    for _ in range(shape.noise):
        tests.append(Site(_onion(rng, taken), "noise", OTHER))
    sites.extend(tests)

    # payment structure: planted campaigns, then singletons
    rng.shuffle(illicit_sites)
    ledgers = Ledgers(rng)
    chain_ann, trace_ann, search = [], [], {}
    campaigns = []
    link_kinds = ("shared", "common-input", "internal", "email", "ip", "registrant")
    pos = 0
    for c in range(shape.campaigns):
        kind = link_kinds[c % len(link_kinds)]
        members = illicit_sites[pos:pos + shape.campaign_sites]
        pos += shape.campaign_sites
        camp = {"kind": kind, "sites": [s.domain for s in members], "btc": [],
                "emails": [], "ips": [], "urls": []}
        for s in members:
            s.addresses.append(minter.btc())
        if kind == "shared":
            shared = minter.btc()
            for s in members:
                s.addresses.append(shared)
        elif kind == "email":
            email = "ops%d.%d@%s" % (c, seed, rng.choice(EMAIL_HOSTS))
            for s in members:
                s.emails.append(email)
        elif kind in ("ip", "registrant"):
            fact = ("198.51.%d.%d" % (c // 250, c % 250 + 1) if kind == "ip"
                    else "Registrant %d-%d LLC" % (c, seed))
            for j, s in enumerate(members):
                url = "https://mirror-%d-%d.example.net/pay" % (c, j)
                search[s.addresses[0]] = [url]
                trace_ann.append({"url": url, "kind": "IllicitSite", kind: fact})
                camp["urls"].append(url)
            if kind == "ip":
                camp["ips"].append(fact)
        for s in members:
            for a in s.addresses:
                if a not in camp["btc"]:
                    camp["btc"].append(a)
                chain_ann.append({"domain": s.domain, "address": a, "zone": "payment"})
        campaigns.append(camp)
    singles = illicit_sites[pos:]
    for s in singles:
        s.addresses.append(minter.btc())
    if len(singles) < 2 * shape.publics + 2:
        raise ValueError("workload %s has too few singleton sites" % workload)
    overspend, no_fixture = singles[0].addresses[0], singles[1].addresses[0]

    # public facts: more hosts than public_threshold share one IP / registrant
    for j, s in enumerate(singles[2:2 + 2 * shape.publics]):
        url = "https://host%d.bulletproof-%d.example.com/" % (j, seed)
        search[s.addresses[0]] = [url]
        fact = ({"ip": "192.0.2.200"} if j % 2 == 0
                else {"registrant": "Public Hosting Ltd"})
        trace_ann.append({"url": url, **fact})
    # ordinary search results: explorer pages and surface mentions
    for s in singles[2 + 2 * shape.publics:]:
        if rng.random() < shape.searched:
            a = s.addresses[0]
            search[a] = ["https://%s/bitcoin/address/%s" % (EXPLORER_HOST, a),
                         "https://forum%d.example.org/t/%d"
                         % (rng.randrange(9), rng.randrange(10 ** 6))]
    urls = sorted({u for hits in search.values() for u in hits})
    for _ in range(shape.trace_rows):
        trace_ann.append({"url": rng.choice(urls),
                          "kind": rng.choice(("AbuseReport", "Benign"))})
    trace_ann.append({"url": "https://never-returned.example.com/", "kind": "AbuseReport"})

    illicit_set = {a for s in illicit_sites for a in s.addresses}
    payable = sorted(illicit_set - {overspend, no_fixture})
    by_campaign = {a: i for i, camp in enumerate(campaigns) for a in camp["btc"]}

    # ledgers
    for a in payable:
        for _ in range(shape.tx_in):
            value = rng.randrange(10 ** 5, 10 ** 8)
            ledgers.add([(minter.btc(), value)], [(a, value)])
    for _ in range(shape.batches):
        outs = [(a, rng.randrange(10 ** 5, 10 ** 7))
                for a in rng.sample(payable, min(len(payable), rng.randint(2, 4)))]
        ledgers.add([(minter.btc(), sum(v for _, v in outs))], outs)
    for camp in campaigns:
        btc = camp["btc"]
        if camp["kind"] == "common-input":
            ledgers.add([(a, 1000) for a in btc], [(minter.btc(), 1000 * len(btc))])
        elif camp["kind"] == "internal":
            for src, dst in zip(btc, btc[1:]):
                ledgers.add([(src, 5000)], [(dst, 5000)])
    for a in payable:
        for _ in range(shape.spends):
            ledgers.add([(a, 700)], [(minter.btc(), 700)])
    in_campaigns = sorted(by_campaign)
    for _ in range(shape.coinjoins):
        a, b = rng.sample(in_campaigns, 2)
        while by_campaign[a] == by_campaign[b]:
            a, b = rng.sample(in_campaigns, 2)
        ledgers.add([(a, 3000), (b, 3000), (minter.btc(), 3000)],
                    [(minter.btc(), 2500) for _ in range(3)] + [(minter.btc(), 1500)])
    ledgers.add([(minter.btc(), 1000)], [(overspend, 1000)])
    ledgers.add([(overspend, 5000)], [(minter.btc(), 5000)])

    income = ledgers.income(illicit_set)
    income[overspend] = 0          # its ledger fails to load
    for camp in campaigns:
        camp["received"] = sum(income[a] for a in camp["btc"])

    # pages
    gt_rows, manifest = [], []
    expected_rows = {}
    files = 0
    cand_count = 0

    def write_page(site: Site, path: str, html: bytes):
        nonlocal files
        d = snapshot / site.domain
        d.mkdir(exist_ok=True)
        name = "index.html" if path == "/" else path.replace("/", "%2F") + ".html"
        (d / name).write_bytes(html)
        manifest.append({"domain": site.domain, "path": path,
                         "fetched_at": "2022-03-%02dT00:00:00Z" % (1 + files % 28)})
        files += 1

    for c, cat in enumerate(CATEGORIES):
        site = sites[c]
        for p in range(shape.gt_pages):
            path = "/" if p == 0 else "/gt%d" % p
            html = _render(rng, shape, _text(rng, "gt", cat, GT_WORDS), [], [], minter)
            write_page(site, path, html)
            gt_rows.append({"domain": site.domain, "path": path, "category": cat})
    for path, cat in (("/drugs", "Drugs"), ("/weapons", "Weapons")):
        html = _render(rng, shape, _text(rng, "gt", cat, GT_WORDS), [], [], minter)
        write_page(shop_mix, path, html)
        gt_rows.append({"domain": shop_mix.domain, "path": path, "category": cat})

    illicit_domains = {s.domain for s in illicit_sites}
    for site in tests:
        for p in range(shape.pages):
            path = "/" if p == 0 else "/page%d" % p
            placed = []
            if p == 0:
                placed += [(a, "text") for a in site.addresses]
                placed += [(e, "mailto") for e in site.emails]
            if p < shape.cand_pages:
                for kind, n in shape.cands.items():
                    for _ in range(n):
                        if kind == "email":
                            email = "%s%d.%d@%s" % (site.domain[:12], p, len(site.emails),
                                                    rng.choice(EMAIL_HOSTS))
                            site.emails.append(email)
                            placed.append((email, "mailto"))
                            continue
                        value = minter.candidate(kind)
                        if any(value == v for v, _ in placed):
                            continue
                        placed.append((value, rng.choice(("text", "attr"))))
                        if kind == "btc_visitor" and site.domain in illicit_domains:
                            # a visitor's address on an illicit site: the filter drops it
                            chain_ann.append({"domain": site.domain, "address": value,
                                              "zone": rng.choice(("forum", "other"))})
                        valid, reason = VERDICTS[kind]
                        expected_rows["%s %s %s %s" % (site.domain, path, kind[:3], value)] = \
                            [valid, reason]
            for a in site.addresses if p == 0 else ():
                expected_rows["%s %s btc %s" % (site.domain, path, a)] = [True, None]
            cand_count += sum(1 for v, w in placed if w != "mailto")
            links = [rng.choice(sites).domain for _ in range(3 if shape.markup else 1)]
            words = _text(rng, site.kind, site.category, shape.words, shape.weak_share)
            write_page(site, path, _render(rng, shape, words, placed, links, minter))

    # a campaign holds every email its sites list, not only the linking one
    by_domain = {s.domain: s for s in sites}
    for camp in campaigns:
        camp["emails"] = sorted({e for d in camp["sites"] for e in by_domain[d].emails})

    # faults the pipeline must contain as per-item failures
    noise_dir = snapshot / tests[-1].domain
    (noise_dir / "notes.txt").write_text("not a page\n")
    (noise_dir / "empty.html").write_bytes(b"")
    (noise_dir / "%FF.html").write_bytes(b"<html><body>undecodable name</body></html>")
    bad_dir = snapshot / "not-an-onion.example"
    bad_dir.mkdir()
    (bad_dir / "index.html").write_bytes(b"<html><body>skipped directory</body></html>")
    snapshot_items = files + 4

    _jsonl(snapshot / "manifest.jsonl", manifest)
    _jsonl(root / "gt.jsonl", gt_rows)
    _jsonl(root / "chain_annotations.jsonl", chain_ann)
    _jsonl(root / "trace_annotations.jsonl", trace_ann)
    txdir, searchdir = root / "txs", root / "search"
    txdir.mkdir()
    searchdir.mkdir()
    tx_rows = 0
    for address, txs in sorted(ledgers.by_address().items()):
        if address in illicit_set and address != no_fixture:
            (txdir / (address + ".json")).write_text(json.dumps(txs))
            tx_rows += len(txs)
    for address, hits in sorted(search.items()):
        (searchdir / (address + ".json")).write_text(json.dumps(hits))

    expected = {
        "workload": workload,
        "seed": seed,
        "labels": {s.domain: s.category for s in sites},
        "campaigns": [{k: sorted(v) if isinstance(v, list) else v
                       for k, v in camp.items()} for camp in campaigns],
        "income_satoshi": sum(income.values()),
        "candidates": expected_rows,
        "snapshot_items": snapshot_items,
        "illicit_addresses": len(illicit_set),
        "sizes": {
            "sites": len(sites), "pages": files, "gt_pages": len(gt_rows),
            "candidates": cand_count, "illicit_addresses": len(illicit_set),
            "transactions": len(ledgers.txs), "ledger_rows": tx_rows,
            "chain_annotations": len(chain_ann), "trace_annotations": len(trace_ann),
            "campaigns": len(campaigns),
        },
    }
    (root / "expected.json").write_text(json.dumps(expected, sort_keys=True))
    return expected


def config_text(inputs, out_dir) -> str:
    inputs = Path(inputs)
    return "\n".join([
        "corpus_root = %s" % (inputs / "snapshot"),
        "ground_truth = %s" % (inputs / "gt.jsonl"),
        "out_dir = %s" % out_dir,
        "threshold = 0.5",
        "provider = fixtures",
        "tx_fixtures = %s" % (inputs / "txs"),
        "search_fixtures = %s" % (inputs / "search"),
        "chain_annotations = %s" % (inputs / "chain_annotations.jsonl"),
        "trace_annotations = %s" % (inputs / "trace_annotations.jsonl"),
        "public_threshold = %d" % PUBLIC_THRESHOLD,
    ]) + "\n"
