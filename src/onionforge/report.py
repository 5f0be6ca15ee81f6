"""Pipeline orchestration, paper-style tables, and campaign graph export.

Every inter-stage artifact is line-delimited JSON with a schema-version
field; stages are skipped on re-runs when their input digests match, which
makes a run resumable from any completed stage. Outputs carry no wall-clock
state, so identical inputs produce byte-identical outputs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import time
from collections import namedtuple
from collections.abc import Callable
from dataclasses import dataclass, field, fields
from pathlib import Path
from xml.sax.saxutils import escape, quoteattr

from . import chain, classify, cluster, extract, trace
from .classify import CATEGORIES, Category
from .corpus import ingest_snapshot, read_corpus_jsonl, write_corpus_jsonl

log = logging.getLogger("onionforge.report")

SATOSHI_PER_BTC = 10 ** 8


class ConfigError(Exception):
    pass


class StageError(Exception):
    def __init__(self, stage, cause):
        super().__init__("stage %r failed: %s" % (stage, cause))
        self.stage = stage
        self.cause = cause


class StageNotRun(Exception):
    def __init__(self, stage, missing):
        super().__init__("stage not run: %s (%s missing)" % (stage, missing))
        self.stage = stage


def format_btc(satoshi: int) -> str:
    """Satoshis to fixed 8-decimal BTC, the only place money leaves integers."""
    sign = "-" if satoshi < 0 else ""
    whole, frac = divmod(abs(satoshi), SATOSHI_PER_BTC)
    return "%s%d.%08d" % (sign, whole, frac)


@dataclass
class PipelineConfig:
    corpus_root: str = ""
    ground_truth: str = ""
    out_dir: str = ""
    threshold: float = classify.DEFAULT_THRESHOLD
    provider: str = "fixtures"                # fixtures | http
    base_url: str = ""
    rate_limit: float = 0.0
    tx_fixtures: str = ""
    search_fixtures: str = ""
    search_base_url: str = ""
    chain_annotations: str = ""
    trace_annotations: str = ""
    public_threshold: int = cluster.DEFAULT_PUBLIC_THRESHOLD
    vanity_prefix: int = cluster.DEFAULT_VANITY_PREFIX
    stopwords: str = ""
    tlds: str = ""
    explorer_domains: str = ""
    top_n: int = 10
    min_received: int = 0

    def validate(self):
        if not self.corpus_root:
            raise ConfigError("corpus_root is required")
        if not Path(self.corpus_root).is_dir():
            raise ConfigError("corpus_root is not a directory: %s" % self.corpus_root)
        if not self.ground_truth:
            raise ConfigError("ground_truth is required")
        if not Path(self.ground_truth).is_file():
            raise ConfigError("ground_truth file missing: %s" % self.ground_truth)
        if not self.out_dir:
            raise ConfigError("out_dir is required")
        if not 0.0 <= self.threshold <= 1.0:
            raise ConfigError("threshold must be within [0, 1]")
        if self.provider not in ("fixtures", "http"):
            raise ConfigError("provider must be 'fixtures' or 'http'")
        if self.provider == "http" and not self.base_url:
            raise ConfigError("provider=http requires base_url")
        for key in ("public_threshold", "vanity_prefix", "top_n"):
            if getattr(self, key) < 1:
                raise ConfigError("%s must be >= 1" % key)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


# config keys that name a file or directory whose contents a stage reads
PATH_KEYS = frozenset({"corpus_root", "ground_truth", "tx_fixtures", "search_fixtures",
                       "chain_annotations", "trace_annotations", "stopwords", "tlds",
                       "explorer_domains"})


def parse_config(path) -> PipelineConfig:
    """Read a key = value config file (#-comments allowed)."""
    types = {f.name: f.type for f in fields(PipelineConfig)}
    cfg = PipelineConfig()
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise ConfigError("cannot read config: %s" % exc) from exc
    for lineno, line in enumerate(lines, 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError("line %d is not key = value: %r" % (lineno, line))
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip().strip("'\"")
        if key not in types:
            raise ConfigError("unknown config key %r (line %d)" % (key, lineno))
        kind = types[key]
        try:
            if kind in ("float", float):
                setattr(cfg, key, float(value))
            elif kind in ("int", int):
                setattr(cfg, key, int(value))
            else:
                setattr(cfg, key, value)
        except ValueError:
            raise ConfigError("bad value for %s: %r (line %d)" % (key, value, lineno)) from None
    cfg.validate()
    return cfg


# --- content digests for stage skipping ---

def _file_digest(h, path: Path):
    h.update(path.name.encode())
    h.update(path.read_bytes())


def _path_digest(path) -> str:
    path = Path(path)
    h = hashlib.sha256()
    if path.is_file():
        _file_digest(h, path)
    elif path.is_dir():
        for sub in sorted(path.rglob("*")):
            if sub.is_file():
                h.update(str(sub.relative_to(path)).encode())
                h.update(sub.read_bytes())
    else:
        h.update(b"<absent>")
    return h.hexdigest()


def _stage_digest(name: str, config_subset: dict, input_paths) -> str:
    payload = {
        "stage": name,
        "config": config_subset,
        "inputs": {str(p): _path_digest(p) for p in input_paths},
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


@dataclass
class PipelineRun:
    config: PipelineConfig
    out_dir: Path
    run_id: str = ""
    stage_digests: dict = field(default_factory=dict)
    executed: list = field(default_factory=list)
    skipped: list = field(default_factory=list)
    # wall-clock times stay in memory and logs; persisted artifacts must be
    # byte-reproducible for identical inputs
    started_at: float = 0.0
    finished_at: float = 0.0

    def artifact(self, name: str) -> Path:
        return self.out_dir / name


# --- the stages ---

@dataclass(frozen=True)
class Stage:
    """One pipeline stage, declared once; `run_pipeline` and the CLI use it.

    `reads` and `writes` are artifact names under out_dir. The stage's
    digest covers its `config_keys` values, the artifacts it reads, and the
    contents of every file or directory that one of its config keys names.
    """

    name: str
    fn: Callable[[PipelineConfig, Path], None]
    reads: tuple[str, ...]
    writes: tuple[str, ...]
    config_keys: tuple[str, ...]

    def inputs(self, cfg: PipelineConfig, out: Path) -> list:
        paths = [out / name for name in self.reads]
        return paths + [getattr(cfg, k) for k in self.config_keys
                        if k in PATH_KEYS and getattr(cfg, k)]


STAGE_DECLS: dict[str, Stage] = {}


def stage(name: str, reads=(), writes=(), config_keys=()):
    """Declare the decorated function as the next stage of the pipeline."""
    def declare(fn):
        STAGE_DECLS[name] = Stage(name, fn, tuple(reads), tuple(writes),
                                  tuple(config_keys))
        return fn
    return declare


@stage("ingest", writes=["corpus.jsonl"], config_keys=["corpus_root"])
def stage_ingest(cfg: PipelineConfig, out: Path):
    """Load the snapshot tree into corpus.jsonl."""
    corpus = ingest_snapshot(cfg.corpus_root)
    write_corpus_jsonl(corpus, out / "corpus.jsonl")
    log.info("ingested %d pages from %d domains (%d entries skipped)",
             len(corpus), len(corpus.index), len(corpus.skipped))


@stage("extract", reads=["corpus.jsonl"], writes=["addresses.jsonl"],
       config_keys=["tlds"])
def stage_extract(cfg: PipelineConfig, out: Path):
    """Extract and validate BTC/ETH addresses and emails from every page."""
    corpus = read_corpus_jsonl(out / "corpus.jsonl")
    tlds = extract.load_tlds_from(cfg.tlds) if cfg.tlds else extract.load_tlds()
    with open(out / "addresses.jsonl", "w") as fh:
        for page in sorted(corpus.pages, key=lambda p: (p.domain.name, p.path)):
            source = (page.domain.name, page.path)
            scanned = extract.scan_page(page.html, source, tlds)
            for kind, accepted_type in (("btc", extract.BtcAddress),
                                        ("eth", extract.EthAddress)):
                for value, verdict in scanned[kind]:
                    row = {"v": 1, "domain": source[0], "path": source[1],
                           "kind": kind, "value": value,
                           "valid": isinstance(verdict, accepted_type)}
                    if not row["valid"]:
                        row["reject_reason"] = verdict.reason
                    fh.write(json.dumps(row, sort_keys=True) + "\n")
            for email in scanned["email"]:
                fh.write(json.dumps({"v": 1, "domain": source[0], "path": source[1],
                                     "kind": "email", "value": str(email), "valid": True},
                                    sort_keys=True) + "\n")


@stage("classify", reads=["corpus.jsonl"], writes=["labels.jsonl"],
       config_keys=["ground_truth", "threshold", "stopwords"])
def stage_classify(cfg: PipelineConfig, out: Path):
    """Label every site with the three-phase illicit-site classifier."""
    corpus = read_corpus_jsonl(out / "corpus.jsonl")
    stopwords = (classify.load_stopwords_from(cfg.stopwords) if cfg.stopwords
                 else classify.load_stopwords())
    gt = classify.load_ground_truth(cfg.ground_truth, corpus)
    results = classify.classify_corpus(corpus, gt, cfg.threshold, stopwords)
    classify.write_labels_jsonl(results, out / "labels.jsonl")


def read_address_rows(path) -> list[dict]:
    rows = []
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rows.append(json.loads(line))
    return rows


@stage("filter", reads=["labels.jsonl", "addresses.jsonl"],
       writes=["illicit.jsonl", "filter_audit.jsonl"],
       config_keys=["chain_annotations"])
def stage_filter(cfg: PipelineConfig, out: Path):
    """Keep the owner-linked addresses of each illicit site."""
    labels = classify.read_labels_jsonl(out / "labels.jsonl")
    rows = read_address_rows(out / "addresses.jsonl")
    annotations = (chain.load_annotations(cfg.chain_annotations)
                   if cfg.chain_annotations else {})
    by_site: dict[str, list[str]] = {}
    for row in rows:
        if row["kind"] == "btc" and row["valid"]:
            bucket = by_site.setdefault(row["domain"], [])
            if row["value"] not in bucket:
                bucket.append(row["value"])

    illicit = chain.IllicitAddressSet()
    audit = []
    site_stub = namedtuple("site_stub", "domain category")
    for domain in sorted(by_site):
        category = labels.get(domain, Category.OTHER)
        if category is Category.OTHER:
            continue
        result = chain.filter_illicit_addresses(site_stub(domain, category),
                                                by_site[domain], annotations)
        for address, flag in sorted(result.retained.items()):
            illicit.add(address, domain, category, flag)
            audit.append({"v": 1, "domain": domain, "address": address,
                          "action": "retained", "flag": flag})
        for address, reason in sorted(result.removed.items()):
            audit.append({"v": 1, "domain": domain, "address": address,
                          "action": "removed", "reason": reason})
    chain.write_illicit_jsonl(illicit, out / "illicit.jsonl")
    with open(out / "filter_audit.jsonl", "w") as fh:
        for row in audit:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


@stage("fetch-tx", reads=["illicit.jsonl"], writes=["ledgers"],
       config_keys=["provider", "base_url", "rate_limit", "tx_fixtures"])
def stage_fetch_tx(cfg: PipelineConfig, out: Path):
    """Fetch the transaction ledger of every illicit address."""
    illicit = chain.read_illicit_jsonl(out / "illicit.jsonl")
    if cfg.provider == "http":
        explorer = chain.HttpExplorer(cfg.base_url, rate_limit=cfg.rate_limit or None)
    else:
        explorer = chain.FixtureExplorer(cfg.tx_fixtures or ".")
    ledgers_dir = out / "ledgers"
    ledgers_dir.mkdir(exist_ok=True)
    ledgers, failures = chain.fetch_all(illicit.addresses(), explorer)
    index_rows = []
    for address in sorted(ledgers):
        ledger = ledgers[address]
        with open(ledgers_dir / (address + ".json"), "w") as fh:
            json.dump([chain.transaction_to_dict(t) for t in ledger.transactions],
                      fh, indent=2, sort_keys=True)
            fh.write("\n")
        index_rows.append({
            "v": 1, "address": address, "transactions": len(ledger.transactions),
            "received": ledger.received, "sent": ledger.sent,
            "balance": ledger.balance,
            "active_days": chain.active_period(ledger),
        })
    for address in sorted(failures):
        index_rows.append({"v": 1, "address": address, "error": failures[address]})
    with open(ledgers_dir / "_index.jsonl", "w") as fh:
        for row in index_rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    log.info("fetched %d ledgers, %d failures", len(ledgers), len(failures))


def read_ledgers(ledgers_dir) -> dict[str, chain.AddressLedger]:
    ledgers = {}
    for path in sorted(Path(ledgers_dir).glob("*.json")):
        address = path.stem
        txs = [chain.parse_transaction(row) for row in json.loads(path.read_text())]
        ledgers[address] = chain.AddressLedger.from_transactions(address, txs)
    return ledgers


@stage("trace", reads=["illicit.jsonl"], writes=["hits.jsonl", "surface.jsonl"],
       config_keys=["search_fixtures", "search_base_url", "trace_annotations",
                    "explorer_domains", "rate_limit"])
def stage_trace(cfg: PipelineConfig, out: Path):
    """Search the surface web for every illicit address."""
    illicit = chain.read_illicit_jsonl(out / "illicit.jsonl")
    domains = (trace.load_explorer_domains_from(cfg.explorer_domains)
               if cfg.explorer_domains else trace.load_explorer_domains())
    if cfg.search_base_url:
        provider = trace.HttpSearch(cfg.search_base_url, rate_limit=cfg.rate_limit or None)
    elif cfg.search_fixtures:
        provider = trace.FixtureSearch(cfg.search_fixtures)
    else:
        provider = trace.FixtureSearch(".")  # no results for anything
    hits, failures = trace.search_all(illicit.addresses(), provider, domains)
    facts = []
    if cfg.trace_annotations:
        hits, facts, _ = trace.import_annotations(cfg.trace_annotations, hits)
    trace.write_hits_jsonl(hits, failures, out / "hits.jsonl")
    trace.write_surface_jsonl(trace.surface_links(hits, facts), out / "surface.jsonl")


@stage("cluster",
       reads=["labels.jsonl", "illicit.jsonl", "ledgers", "addresses.jsonl",
              "surface.jsonl"],
       writes=["campaigns.json", "phase_trace.json", "vanity.json", "entity_graph.json"],
       config_keys=["public_threshold", "vanity_prefix"])
def stage_cluster(cfg: PipelineConfig, out: Path):
    """Merge sites, addresses and identity facts into campaigns in five phases."""
    labels = classify.read_labels_jsonl(out / "labels.jsonl")
    illicit = chain.read_illicit_jsonl(out / "illicit.jsonl")
    ledgers = read_ledgers(out / "ledgers")
    links = trace.read_surface_jsonl(out / "surface.jsonl")
    site_emails: dict[str, set[str]] = {}
    for row in read_address_rows(out / "addresses.jsonl"):
        if row["kind"] == "email" and row["valid"]:
            site_emails.setdefault(row["domain"], set()).add(row["value"])

    result = cluster.run_clustering(labels, illicit, ledgers, site_emails, links,
                                    cfg.public_threshold, cfg.vanity_prefix)
    for address, received in result.income.per_address.items():
        nid = cluster.node_id(cluster.BTC, address)
        if nid in result.graph.nodes:
            result.graph.nodes[nid]["received"] = received
    for campaign in result.campaigns:
        for kind, values in ((cluster.SITE, campaign.sites),
                             (cluster.BTC, campaign.btc_addresses),
                             (cluster.EMAIL, campaign.emails),
                             (cluster.IP, campaign.ips),
                             (cluster.URL, campaign.urls)):
            for value in values:
                nid = cluster.node_id(kind, value)
                if nid in result.graph.nodes:
                    result.graph.nodes[nid]["campaign"] = campaign.id

    cluster.write_campaigns_json(result.campaigns, result.exclusions,
                                 out / "campaigns.json")
    cluster.write_trace_json(result.trace, out / "phase_trace.json")
    with open(out / "vanity.json", "w") as fh:
        json.dump({"v": 1, "groups": [{"prefix": p, "domains": d}
                                      for p, d in result.vanity]},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(out / "entity_graph.json", "w") as fh:
        json.dump({"v": 1,
                   "nodes": {nid: result.graph.nodes[nid]
                             for nid in sorted(result.graph.nodes)},
                   "edges": sorted(result.graph.edges)},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
    log.info("%d campaigns", len(result.campaigns))


def read_entity_graph(path) -> cluster.EntityGraph:
    doc = json.loads(Path(path).read_text())
    graph = cluster.EntityGraph()
    for nid, attrs in doc["nodes"].items():
        graph.add_node(nid, **{k: v for k, v in attrs.items() if k != "type"})
    for kind, u, v in doc["edges"]:
        graph.add_edge(kind, u, v)
    return graph


def read_campaigns_json(path) -> list[cluster.Campaign]:
    doc = json.loads(Path(path).read_text())
    return [cluster.Campaign(
        id=c["id"], sites=c["sites"], btc_addresses=c["btc_addresses"],
        emails=c["emails"], ips=c["ips"], urls=c.get("urls", []),
        categories=c["categories"], received=c["received"],
    ) for c in doc["campaigns"]]


@stage("report",
       reads=["corpus.jsonl", "labels.jsonl", "addresses.jsonl", "illicit.jsonl",
              "ledgers", "campaigns.json", "phase_trace.json", "vanity.json",
              "entity_graph.json"],
       writes=["tables", "graph.graphml", "graph.dot", "summary.json"],
       config_keys=["top_n", "min_received"])
def stage_report(cfg: PipelineConfig, out: Path):
    """Write the paper-style tables, the summary and the campaign graph."""
    emit_tables(out, top_n=cfg.top_n, min_received=cfg.min_received)
    campaigns = read_campaigns_json(out / "campaigns.json")
    graph = read_entity_graph(out / "entity_graph.json")
    export_graph(campaigns, graph, out / "graph.graphml", out / "graph.dot")


# (name, function) pairs in pipeline order; `run_pipeline` reads this at call
# time, so a caller may wrap the functions
STAGES = tuple((s.name, s.fn) for s in STAGE_DECLS.values())


def run_pipeline(config: PipelineConfig, until: str | None = None) -> PipelineRun:
    """Execute the stages in order, skipping any whose inputs are unchanged.

    With `until` set to a stage name, stop after that stage.
    """
    config.validate()
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    run = PipelineRun(config=config, out_dir=out, started_at=time.time())

    manifest_path = out / "run.json"
    previous = {}
    if manifest_path.is_file():
        try:
            previous = json.loads(manifest_path.read_text()).get("stages", {})
        except ValueError:
            previous = {}

    for name, func in STAGES:
        decl = STAGE_DECLS[name]
        subset = {k: getattr(config, k) for k in decl.config_keys}
        digest = _stage_digest(name, subset, decl.inputs(config, out))
        outputs_exist = all((out / o).exists() for o in decl.writes)
        if previous.get(name) == digest and outputs_exist:
            run.skipped.append(name)
            run.stage_digests[name] = digest
            log.info("stage %s unchanged; skipping", name)
        else:
            log.info("stage %s running", name)
            try:
                func(config, out)
            except Exception as exc:
                _write_manifest(run, manifest_path)
                raise StageError(name, exc) from exc
            run.executed.append(name)
            run.stage_digests[name] = digest
        if name == until:
            break

    run.run_id = hashlib.sha256(json.dumps(
        {"config": config.to_dict(), "stages": run.stage_digests},
        sort_keys=True).encode()).hexdigest()[:16]
    run.finished_at = time.time()
    _write_manifest(run, manifest_path)
    log.info("run %s finished in %.2fs", run.run_id, run.finished_at - run.started_at)
    return run


def _write_manifest(run: PipelineRun, path: Path):
    with open(path, "w") as fh:
        json.dump({"v": 1, "run_id": run.run_id, "config": run.config.to_dict(),
                   "stages": run.stage_digests}, fh, indent=2, sort_keys=True)
        fh.write("\n")


# --- tables ---

def _require(out: Path, stage: str, artifact: str) -> Path:
    path = out / artifact
    if not path.exists():
        raise StageNotRun(stage, artifact)
    return path


def _write_table(rows: list[dict], headers: list[str], base: Path):
    with open(base.with_suffix(".csv"), "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=headers, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    with open(base.with_suffix(".json"), "w") as fh:
        json.dump({"v": 1, "rows": rows}, fh, indent=2, sort_keys=True)
        fh.write("\n")


def emit_tables(out_dir, top_n: int = 10, min_received: int = 0) -> dict:
    """Write the four paper-shaped tables plus a summary; returns the summary."""
    out = Path(out_dir)
    tables = out / "tables"
    tables.mkdir(exist_ok=True)

    corpus_path = _require(out, "ingest", "corpus.jsonl")
    labels_path = _require(out, "classify", "labels.jsonl")
    addresses_path = _require(out, "extract", "addresses.jsonl")
    illicit_path = _require(out, "filter", "illicit.jsonl")
    ledgers_dir = _require(out, "fetch-tx", "ledgers")
    campaigns_path = _require(out, "cluster", "campaigns.json")
    trace_path = _require(out, "cluster", "phase_trace.json")
    vanity_path = _require(out, "cluster", "vanity.json")

    labels = classify.read_labels_jsonl(labels_path)
    address_rows = read_address_rows(addresses_path)
    illicit = chain.read_illicit_jsonl(illicit_path)
    ledgers = read_ledgers(ledgers_dir)
    income = chain.estimate_income(illicit, ledgers)

    pages_per_domain: dict[str, int] = {}
    with open(corpus_path) as fh:
        for line in fh:
            if line.strip():
                row = json.loads(line)
                pages_per_domain[row["domain"]] = pages_per_domain.get(row["domain"], 0) + 1

    # table 3 shape: per-category onion/page/address counts
    sites_by_cat: dict[Category, list[str]] = {c: [] for c in list(CATEGORIES) + [Category.OTHER]}
    for domain, cat in labels.items():
        sites_by_cat[cat].append(domain)
    valid_btc_by_site: dict[str, set[str]] = {}
    for row in address_rows:
        if row["kind"] == "btc" and row["valid"]:
            valid_btc_by_site.setdefault(row["domain"], set()).add(row["value"])

    class_rows = []
    totals = {"onions": 0, "pages": 0, "btc_addresses": 0, "illicit_btc_addresses": 0}
    for cat in list(CATEGORIES) + [Category.OTHER]:
        sites = sorted(sites_by_cat[cat])
        extracted = set()
        for s in sites:
            extracted |= valid_btc_by_site.get(s, set())
        illicit_here = {a for a in illicit.addresses() if cat in illicit.categories_of(a)}
        row = {"category": cat.label,
               "onions": len(sites),
               "pages": sum(pages_per_domain.get(s, 0) for s in sites),
               "btc_addresses": len(extracted),
               "illicit_btc_addresses": len(illicit_here)}
        class_rows.append(row)
        for key in totals:
            totals[key] += row[key]
    class_rows.append({"category": "Total", **totals})
    _write_table(class_rows,
                 ["category", "onions", "pages", "btc_addresses", "illicit_btc_addresses"],
                 tables / "classification")

    # table 4 shape: top profitable addresses
    addr_rows = []
    for address in illicit.addresses():
        ledger = ledgers.get(address)
        if ledger is None:
            continue
        incoming = sum(1 for tx in ledger.transactions
                       if tx.output_to(address) > 0 and not chain.is_internal(tx, illicit))
        addr_rows.append({
            "address": address,
            "categories": "+".join(sorted(c.label for c in illicit.categories_of(address))),
            "incoming_transactions": incoming,
            "received_satoshi": income.per_address.get(address, 0),
            "received_btc": format_btc(income.per_address.get(address, 0)),
        })
    addr_rows.sort(key=lambda r: (-r["received_satoshi"], r["address"]))
    top_addr_rows = addr_rows[:top_n]
    for rank, row in enumerate(top_addr_rows, 1):
        row["rank"] = rank
    _write_table(top_addr_rows,
                 ["rank", "address", "categories", "incoming_transactions",
                  "received_satoshi", "received_btc"],
                 tables / "top_addresses")

    # table 5 shape: clustering phase trace
    trace_doc = json.loads(trace_path.read_text())
    _write_table(trace_doc["phases"],
                 ["phase", "clusters", "onions", "btc_addresses", "email_addresses", "ips"],
                 tables / "phase_trace")

    # table 6 shape: top profitable campaigns
    campaigns = read_campaigns_json(campaigns_path)
    camp_rows = []
    for rank, c in enumerate(campaigns[:top_n], 1):
        camp_rows.append({
            "rank": rank,
            "example_sites": ", ".join(c.sites[:2]),
            "sites": len(c.sites),
            "categories": "+".join(c.categories),
            "btc_addresses": len(c.btc_addresses),
            "emails": len(c.emails),
            "urls": len(c.urls),
            "received_satoshi": c.received,
            "received_btc": format_btc(c.received),
        })
    _write_table(camp_rows,
                 ["rank", "example_sites", "sites", "categories", "btc_addresses",
                  "emails", "urls", "received_satoshi", "received_btc"],
                 tables / "top_campaigns")

    vanity_doc = json.loads(vanity_path.read_text())
    dormant = chain.dormant_addresses(ledgers, min_received)
    multi = chain.multi_category(illicit, ledgers)
    summary = {
        "v": 1,
        "sites_total": len(pages_per_domain),
        "sites_illicit": sum(len(sites_by_cat[c]) for c in CATEGORIES),
        "pages_total": sum(pages_per_domain.values()),
        "btc_addresses_valid": len({r["value"] for r in address_rows
                                    if r["kind"] == "btc" and r["valid"]}),
        "btc_addresses_illicit": len(illicit),
        "income_satoshi": income.total,
        "income_btc": format_btc(income.total),
        "income_by_category_split": {c.label: v for c, v in
                                     sorted(income.by_category_split.items(),
                                            key=lambda kv: kv[0].value)},
        "income_by_category_full": {c.label: v for c, v in
                                    sorted(income.by_category_full.items(),
                                           key=lambda kv: kv[0].value)},
        "internal_transactions": len(income.internal_txids),
        "campaigns": len(campaigns),
        "multi_category_addresses": len(multi),
        "dormant_flagged": dormant,
        "vanity_groups": len(vanity_doc["groups"]),
    }
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary


# --- campaign graph export ---

_GRAPHML_KEYS = (
    ("d_type", "node", "type", "string"),
    ("d_category", "node", "category", "string"),
    ("d_campaign", "node", "campaign", "string"),
    ("d_received", "node", "received", "long"),
    ("d_size", "node", "size", "double"),
    ("d_kind", "edge", "kind", "string"),
)


def export_graph(campaigns: list[cluster.Campaign], graph: cluster.EntityGraph,
                 graphml_path, dot_path):
    """Emit the campaign graph as GraphML and DOT, deterministically ordered.

    Address node size is proportional to satoshis received.
    """
    members = set()
    for c in campaigns:
        for kind, values in ((cluster.SITE, c.sites), (cluster.BTC, c.btc_addresses),
                             (cluster.EMAIL, c.emails), (cluster.IP, c.ips),
                             (cluster.URL, c.urls)):
            members.update(cluster.node_id(kind, v) for v in values)
    node_ids = sorted(n for n in graph.nodes if n in members)
    edges = sorted(e for e in graph.edges if e[1] in members and e[2] in members)

    def node_attrs(nid):
        attrs = dict(graph.nodes[nid])
        if attrs.get("type") == cluster.BTC:
            received = int(attrs.get("received", 0))
            attrs["received"] = received
            attrs["size"] = "%.8f" % (received / SATOSHI_PER_BTC)
        return attrs

    with open(graphml_path, "w") as fh:
        fh.write('<?xml version="1.0" encoding="UTF-8"?>\n')
        fh.write('<graphml xmlns="http://graphml.graphdrawing.org/xmlns">\n')
        for key_id, target, name, kind in _GRAPHML_KEYS:
            fh.write('  <key id="%s" for="%s" attr.name="%s" attr.type="%s"/>\n'
                     % (key_id, target, name, kind))
        fh.write('  <graph id="campaigns" edgedefault="undirected">\n')
        for nid in node_ids:
            fh.write('    <node id=%s>\n' % quoteattr(nid))
            attrs = node_attrs(nid)
            for key_id, target, name, _ in _GRAPHML_KEYS:
                if target == "node" and name in attrs:
                    fh.write('      <data key="%s">%s</data>\n'
                             % (key_id, escape(str(attrs[name]))))
            fh.write('    </node>\n')
        for kind, u, v in edges:
            fh.write('    <edge source=%s target=%s>\n' % (quoteattr(u), quoteattr(v)))
            fh.write('      <data key="d_kind">%s</data>\n' % escape(kind))
            fh.write('    </edge>\n')
        fh.write('  </graph>\n</graphml>\n')

    def dot_quote(s):
        return '"%s"' % str(s).replace("\\", "\\\\").replace('"', '\\"')

    with open(dot_path, "w") as fh:
        fh.write("graph campaigns {\n")
        for nid in node_ids:
            attrs = node_attrs(nid)
            rendered = ", ".join("%s=%s" % (k, dot_quote(attrs[k]))
                                 for k in sorted(attrs))
            fh.write("  %s [%s];\n" % (dot_quote(nid), rendered))
        for kind, u, v in edges:
            fh.write("  %s -- %s [kind=%s];\n"
                     % (dot_quote(u), dot_quote(v), dot_quote(kind)))
        fh.write("}\n")
