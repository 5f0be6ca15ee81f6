"""Pipeline orchestration, paper-style tables, and campaign graph export.

Each stage is a computation: it takes the values of the artifacts it reads
and returns the values of those it writes. `ARTIFACTS` declares every
artifact once, with its writer and, if a stage reads it, its reader, in the
format that `artifacts` fixes. Only `run_pipeline` touches the disk: it
writes each output, hands it on in memory to the later stages of the run,
and reads an artifact back only when the stage that writes it was skipped,
once. Stages are skipped on re-runs when their input digests match, which
makes a run resumable from any completed stage. Outputs carry no wall-clock
state, so identical inputs produce byte-identical outputs.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
import math
import re
import time
from collections import namedtuple
from collections.abc import Callable
from dataclasses import dataclass, field, fields
from pathlib import Path

from . import chain, classify, cluster, extract, pagetext, trace
from .artifacts import read_jsonl, write_json, write_jsonl
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
        if not (math.isfinite(self.rate_limit) and self.rate_limit >= 0):
            raise ConfigError("rate_limit must be a finite number >= 0")
        for key in ("public_threshold", "vanity_prefix", "top_n"):
            if getattr(self, key) < 1:
                raise ConfigError("%s must be >= 1" % key)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


# config keys that name a file or directory whose contents a stage reads
PATH_KEYS = frozenset({"corpus_root", "ground_truth", "tx_fixtures", "search_fixtures",
                       "chain_annotations", "trace_annotations", "stopwords", "tlds",
                       "explorer_domains"})

# a "#" after whitespace starts a comment; "a#b" is a value
_INLINE_COMMENT = re.compile(r"\s#")


def parse_config(path) -> PipelineConfig:
    """Read a key = value config file.

    A line that starts with "#" is a comment, and so is the rest of a line
    from a "#" that follows whitespace.
    """
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
        value = _INLINE_COMMENT.split(value, 1)[0].strip().strip("'\"")
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

_HASH_CHUNK = 1 << 20  # files are hashed in pieces, so no input is held whole


def _hash_file(h, path: Path):
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(_HASH_CHUNK), b""):
            h.update(chunk)


def _path_digest(path) -> str:
    path = Path(path)
    h = hashlib.sha256()
    if path.is_file():
        h.update(path.name.encode())
        _hash_file(h, path)
    elif path.is_dir():
        for sub in sorted(path.rglob("*")):
            if sub.is_file():
                h.update(str(sub.relative_to(path)).encode())
                _hash_file(h, sub)
    else:
        h.update(b"<absent>")
    return h.hexdigest()


def _stage_digest(name: str, config_subset: dict, input_paths, memo: dict) -> str:
    """Digest of a stage's config and inputs; `memo` holds this run's path digests."""
    inputs = {}
    for p in input_paths:
        key = str(p)
        if key not in memo:
            memo[key] = _path_digest(p)
        inputs[key] = memo[key]
    payload = {"stage": name, "config": config_subset, "inputs": inputs}
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


# --- the artifacts ---

class Ledgers(dict):
    """Fetched ledgers by address; `failures` says why each other address has none."""

    def __init__(self, ledgers=(), failures=None):
        super().__init__(ledgers)
        self.failures = dict(failures or {})


def write_ledgers(ledgers_dir: Path, ledgers: Ledgers):
    """One JSON file per ledger plus `_index.jsonl`, replacing an earlier run's files."""
    ledgers_dir.mkdir(exist_ok=True)
    for stale in ledgers_dir.glob("*.json"):
        stale.unlink()  # read_ledgers reads every ledger file in the directory
    index_rows = []
    for address in sorted(ledgers):
        ledger = ledgers[address]
        with open(ledgers_dir / (address + ".json"), "w") as fh:
            fh.write(chain.ledger_json(ledger.transactions) + "\n")
        index_rows.append({
            "v": 1, "address": address, "transactions": len(ledger.transactions),
            "received": ledger.received, "sent": ledger.sent,
            "balance": ledger.balance,
            "active_days": chain.active_period(ledger),
        })
    for address in sorted(ledgers.failures):
        index_rows.append({"v": 1, "address": address, "error": ledgers.failures[address]})
    write_jsonl(ledgers_dir / "_index.jsonl", index_rows)


def read_ledgers(ledgers_dir) -> Ledgers:
    """The ledgers `write_ledgers` wrote under `ledgers_dir`."""
    ledgers_dir = Path(ledgers_dir)
    ledgers = {}
    for path in sorted(ledgers_dir.glob("*.json")):
        address = path.stem
        txs = [chain.parse_transaction(row) for row in json.loads(path.read_text())]
        ledgers[address] = chain.AddressLedger.from_transactions(address, txs)
    failures = {row["address"]: row["error"]
                for row in read_jsonl(ledgers_dir / "_index.jsonl") if "error" in row}
    return Ledgers(ledgers, failures)


def write_tables(tables_dir: Path, tables: dict[str, tuple[list[str], list[dict]]]):
    """Each table as `<name>.csv` and `<name>.json`; `tables` maps name to (headers, rows)."""
    tables_dir.mkdir(exist_ok=True)
    for name, (headers, rows) in tables.items():
        with open(tables_dir / (name + ".csv"), "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=headers, lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        write_json(tables_dir / (name + ".json"), {"v": 1, "rows": rows})


def _read_rows(path) -> list[dict]:
    return list(read_jsonl(path))


def _read_json(path) -> dict:
    return json.loads(Path(path).read_text())


@dataclass(frozen=True)
class Artifact:
    """One artifact under out_dir, declared once.

    `write(path, value)` stores a stage's output value. `read(path)` gives
    the same value back to a later stage; an artifact that no stage reads
    has no reader.
    """

    name: str
    write: Callable[[Path, object], None]
    read: Callable[[Path], object] | None = None


# a JSONL artifact's value is its rows, a JSON document's value the document,
# unless a typed value serves every consumer. The lambdas look their function
# up when called, so a caller may rebind it.
ARTIFACTS: dict[str, Artifact] = {a.name: a for a in (
    Artifact("corpus.jsonl", lambda path, corpus: write_corpus_jsonl(corpus, path),
             lambda path: read_corpus_jsonl(path)),
    Artifact("addresses.jsonl", write_jsonl, _read_rows),
    Artifact("labels.jsonl", write_jsonl, _read_rows),
    Artifact("illicit.jsonl", chain.write_illicit_jsonl, chain.read_illicit_jsonl),
    Artifact("filter_audit.jsonl", write_jsonl),
    Artifact("ledgers", write_ledgers, lambda path: read_ledgers(path)),
    Artifact("hits.jsonl", lambda path, found: trace.write_hits_jsonl(*found, path)),
    Artifact("surface.jsonl", trace.write_surface_jsonl, trace.read_surface_jsonl),
    Artifact("campaigns.json", write_json, _read_json),
    Artifact("phase_trace.json", write_json, _read_json),
    Artifact("vanity.json", write_json, _read_json),
    Artifact("entity_graph.json", write_json, _read_json),
    Artifact("tables", write_tables),
    Artifact("graph.graphml", Path.write_text),
    Artifact("graph.dot", Path.write_text),
    Artifact("summary.json", write_json),
)}


# --- the stages ---

@dataclass(frozen=True)
class Stage:
    """One pipeline stage, declared once; `run_pipeline` and the CLI use it.

    `fn(config, inputs)` takes the values of the artifacts named in `reads`
    and returns a dict with the value of each artifact named in `writes`.
    The stage's digest covers its `config_keys` values, the artifacts it
    reads, and the contents of every file or directory that one of its
    config keys names.
    """

    name: str
    fn: Callable[[PipelineConfig, dict], dict]
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
def stage_ingest(cfg: PipelineConfig, inputs: dict) -> dict:
    """Load the snapshot tree into corpus.jsonl."""
    corpus = ingest_snapshot(cfg.corpus_root)
    log.info("ingested %d pages from %d domains (%d entries skipped)",
             len(corpus), len(corpus.index), len(corpus.skipped))
    return {"corpus.jsonl": corpus.in_path_order()}  # what read_corpus_jsonl gives back


@stage("extract", reads=["corpus.jsonl"], writes=["addresses.jsonl"],
       config_keys=["tlds"])
def stage_extract(cfg: PipelineConfig, inputs: dict) -> dict:
    """Extract and validate BTC/ETH addresses and emails from every page."""
    tlds = extract.load_tlds(cfg.tlds)
    rows = []
    for page in sorted(inputs["corpus.jsonl"].pages, key=lambda p: (p.domain.name, p.path)):
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
                rows.append(row)
        for email in scanned["email"]:
            rows.append({"v": 1, "domain": source[0], "path": source[1],
                         "kind": "email", "value": str(email), "valid": True})
    return {"addresses.jsonl": rows}


@stage("classify", reads=["corpus.jsonl"], writes=["labels.jsonl"],
       config_keys=["ground_truth", "threshold", "stopwords"])
def stage_classify(cfg: PipelineConfig, inputs: dict) -> dict:
    """Label every site with the three-phase illicit-site classifier."""
    corpus = inputs["corpus.jsonl"]
    stopwords = classify.load_stopwords(cfg.stopwords)
    gt = classify.load_ground_truth(cfg.ground_truth, corpus)
    results = classify.classify_corpus(corpus, gt, cfg.threshold, stopwords)
    return {"labels.jsonl": classify.label_rows(results)}


@stage("filter", reads=["labels.jsonl", "addresses.jsonl"],
       writes=["illicit.jsonl", "filter_audit.jsonl"],
       config_keys=["chain_annotations"])
def stage_filter(cfg: PipelineConfig, inputs: dict) -> dict:
    """Keep the owner-linked addresses of each illicit site."""
    labels = classify.label_categories(inputs["labels.jsonl"])
    annotations = (chain.load_annotations(cfg.chain_annotations)
                   if cfg.chain_annotations else {})
    by_site: dict[str, list[str]] = {}
    for row in inputs["addresses.jsonl"]:
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
    return {"illicit.jsonl": illicit, "filter_audit.jsonl": audit}


@stage("fetch-tx", reads=["illicit.jsonl"], writes=["ledgers"],
       config_keys=["provider", "base_url", "rate_limit", "tx_fixtures"])
def stage_fetch_tx(cfg: PipelineConfig, inputs: dict) -> dict:
    """Fetch the transaction ledger of every illicit address."""
    if cfg.provider == "http":
        explorer = chain.HttpExplorer(cfg.base_url, rate_limit=cfg.rate_limit or None)
    else:
        explorer = chain.FixtureExplorer(cfg.tx_fixtures or ".")
    ledgers, failures = chain.fetch_all(inputs["illicit.jsonl"].addresses(), explorer)
    log.info("fetched %d ledgers, %d failures", len(ledgers), len(failures))
    return {"ledgers": Ledgers(ledgers, failures)}


@stage("trace", reads=["illicit.jsonl"], writes=["hits.jsonl", "surface.jsonl"],
       config_keys=["search_fixtures", "search_base_url", "trace_annotations",
                    "explorer_domains", "rate_limit"])
def stage_trace(cfg: PipelineConfig, inputs: dict) -> dict:
    """Search the surface web for every illicit address."""
    domains = trace.load_explorer_domains(cfg.explorer_domains)
    if cfg.search_base_url:
        provider = trace.HttpSearch(cfg.search_base_url, rate_limit=cfg.rate_limit or None)
    else:
        provider = trace.FixtureSearch(cfg.search_fixtures or ".")
    hits, failures = trace.search_all(inputs["illicit.jsonl"].addresses(), provider, domains)
    facts = []
    if cfg.trace_annotations:
        hits, facts, _ = trace.import_annotations(read_jsonl(cfg.trace_annotations), hits)
    return {"hits.jsonl": (hits, failures), "surface.jsonl": trace.surface_links(hits, facts)}


@stage("cluster",
       reads=["labels.jsonl", "illicit.jsonl", "ledgers", "addresses.jsonl",
              "surface.jsonl"],
       writes=["campaigns.json", "phase_trace.json", "vanity.json", "entity_graph.json"],
       config_keys=["public_threshold", "vanity_prefix"])
def stage_cluster(cfg: PipelineConfig, inputs: dict) -> dict:
    """Merge sites, addresses and identity facts into campaigns in five phases."""
    site_emails: dict[str, set[str]] = {}
    for row in inputs["addresses.jsonl"]:
        if row["kind"] == "email" and row["valid"]:
            site_emails.setdefault(row["domain"], set()).add(row["value"])

    result = cluster.run_clustering(
        classify.label_categories(inputs["labels.jsonl"]), inputs["illicit.jsonl"],
        inputs["ledgers"], site_emails, inputs["surface.jsonl"],
        cfg.public_threshold, cfg.vanity_prefix)
    nodes = result.graph.nodes
    for address, received in result.income.per_address.items():
        nid = cluster.node_id(cluster.BTC, address)
        if nid in nodes:
            nodes[nid]["received"] = received
    campaigns = [c.to_dict() for c in result.campaigns]
    for campaign in campaigns:
        for nid in cluster.member_ids(campaign):
            if nid in nodes:
                nodes[nid]["campaign"] = campaign["id"]
    log.info("%d campaigns", len(campaigns))
    return {
        "campaigns.json": {"v": 1, "campaigns": campaigns, **result.exclusions},
        "phase_trace.json": {"v": 1, "phases": [s.to_dict() for s in result.trace]},
        "vanity.json": {"v": 1, "groups": [{"prefix": p, "domains": d}
                                           for p, d in result.vanity]},
        "entity_graph.json": {"v": 1, "nodes": {nid: nodes[nid] for nid in sorted(nodes)},
                              "edges": sorted(result.graph.edges)},
    }


@stage("report",
       reads=["corpus.jsonl", "labels.jsonl", "addresses.jsonl", "illicit.jsonl",
              "ledgers", "campaigns.json", "phase_trace.json", "vanity.json",
              "entity_graph.json"],
       writes=["tables", "graph.graphml", "graph.dot", "summary.json"],
       config_keys=["top_n", "min_received"])
def stage_report(cfg: PipelineConfig, inputs: dict) -> dict:
    """Write the paper-style tables, the summary and the campaign graph."""
    tables, summary = emit_tables(inputs, top_n=cfg.top_n, min_received=cfg.min_received)
    graphml, dot = export_graph(inputs["campaigns.json"]["campaigns"],
                                inputs["entity_graph.json"])
    return {"tables": tables, "graph.graphml": graphml, "graph.dot": dot,
            "summary.json": summary}


# (name, function) pairs in pipeline order; `run_pipeline` reads this at call
# time, so a caller may wrap the functions
STAGES = tuple((s.name, s.fn) for s in STAGE_DECLS.values())


def run_pipeline(config: PipelineConfig, until: str | None = None) -> PipelineRun:
    """Execute the stages in order, skipping any whose inputs are unchanged.

    With `until` set to a stage name, stop after that stage. Each output
    is written once and handed on in memory to the later stages of the
    run that read it; an input whose stage was skipped is read from disk
    once.
    """
    config.validate()
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    run = PipelineRun(config=config, out_dir=out, started_at=time.time())

    manifest_path = out / "run.json"
    try:
        previous = json.loads(manifest_path.read_text())["stages"]
    except (OSError, ValueError, TypeError, KeyError):
        previous = {}
    if not isinstance(previous, dict):
        previous = {}  # a run.json of another shape counts as absent, as does none
    # stages this run does not reach keep their digests: each digest covers
    # that stage's own inputs, so a later run still re-runs exactly what changed
    run.stage_digests = {name: previous[name] for name, _ in STAGES if name in previous}

    names = [name for name, _ in STAGES]
    stages = STAGES[:names.index(until) + 1] if until in names else STAGES
    # each artifact a stage of this run reads -> the last stage that reads it
    last_reader = {a: name for name, _ in stages for a in STAGE_DECLS[name].reads}
    values: dict[str, object] = {}  # this run's artifacts, until their last reader is done
    # an input is hashed once per run, until a stage rewrites it
    digests: dict[str, str] = {}
    with pagetext.handoff():
        for name, func in stages:
            decl = STAGE_DECLS[name]
            subset = {k: getattr(config, k) for k in decl.config_keys}
            digest = _stage_digest(name, subset, decl.inputs(config, out), digests)
            outputs_exist = all((out / o).exists() for o in decl.writes)
            if previous.get(name) == digest and outputs_exist:
                run.skipped.append(name)
                run.stage_digests[name] = digest
                log.info("stage %s unchanged; skipping", name)
            else:
                log.info("stage %s running", name)
                if name in run.stage_digests:
                    # unrecord the stage first, so a kill while it runs or
                    # writes cannot leave its old digest over partial outputs
                    del run.stage_digests[name]
                    _write_manifest(run, manifest_path)
                try:
                    for artifact in decl.reads:
                        if artifact not in values:  # its stage was skipped in this run
                            values[artifact] = ARTIFACTS[artifact].read(out / artifact)
                    outputs = func(config, {a: values[a] for a in decl.reads})
                    for artifact in decl.writes:
                        ARTIFACTS[artifact].write(out / artifact, outputs[artifact])
                except Exception as exc:
                    _write_manifest(run, manifest_path)
                    raise StageError(name, exc) from exc
                for written in decl.writes:
                    digests.pop(str(out / written), None)
                    if written in last_reader:
                        values[written] = outputs[written]
                run.executed.append(name)
                run.stage_digests[name] = digest
            for artifact in decl.reads:
                if last_reader[artifact] == name:
                    values.pop(artifact, None)

    run.run_id = hashlib.sha256(json.dumps(
        {"config": config.to_dict(), "stages": run.stage_digests},
        sort_keys=True).encode()).hexdigest()[:16]
    run.finished_at = time.time()
    _write_manifest(run, manifest_path)
    log.info("run %s finished in %.2fs", run.run_id, run.finished_at - run.started_at)
    return run


def _write_manifest(run: PipelineRun, path: Path):
    write_json(path, {"v": 1, "run_id": run.run_id, "config": run.config.to_dict(),
                      "stages": run.stage_digests})


# --- tables ---

def emit_tables(inputs: dict, top_n: int = 10, min_received: int = 0) -> tuple[dict, dict]:
    """The four paper-shaped tables and the summary, from the report stage's inputs.

    Returns (tables, summary), the values of `tables` and `summary.json`.
    """
    labels = classify.label_categories(inputs["labels.jsonl"])
    address_rows = inputs["addresses.jsonl"]
    illicit = inputs["illicit.jsonl"]
    ledgers = inputs["ledgers"]
    income = chain.estimate_income(illicit, ledgers)

    pages_per_domain = {domain.name: len(pages)
                        for domain, pages in inputs["corpus.jsonl"].index.items()}

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

    # table 6 shape: top profitable campaigns
    campaigns = inputs["campaigns.json"]["campaigns"]
    camp_rows = []
    for rank, c in enumerate(campaigns[:top_n], 1):
        camp_rows.append({
            "rank": rank,
            "example_sites": ", ".join(c["sites"][:2]),
            "sites": len(c["sites"]),
            "categories": "+".join(c["categories"]),
            "btc_addresses": len(c["btc_addresses"]),
            "emails": len(c["emails"]),
            "urls": len(c["urls"]),
            "received_satoshi": c["received"],
            "received_btc": format_btc(c["received"]),
        })

    tables = {
        "classification": (["category", "onions", "pages", "btc_addresses",
                            "illicit_btc_addresses"], class_rows),
        "top_addresses": (["rank", "address", "categories", "incoming_transactions",
                           "received_satoshi", "received_btc"], top_addr_rows),
        # table 5 shape: clustering phase trace
        "phase_trace": (["phase", "clusters", "onions", "btc_addresses", "email_addresses",
                         "ips"], inputs["phase_trace.json"]["phases"]),
        "top_campaigns": (["rank", "example_sites", "sites", "categories", "btc_addresses",
                           "emails", "urls", "received_satoshi", "received_btc"], camp_rows),
    }

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
        "vanity_groups": len(inputs["vanity.json"]["groups"]),
    }
    return tables, summary


# --- campaign graph export ---

def escape(data: str) -> str:
    """XML character data; the same text as `xml.sax.saxutils.escape`."""
    return data.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def quoteattr(data: str) -> str:
    """A quoted XML attribute value; the same text as `xml.sax.saxutils.quoteattr`.

    Kept here because importing `xml.sax.saxutils` also imports
    `urllib.request` and with it `http.client`, `email` and `ssl`.
    """
    data = escape(data).replace("\n", "&#10;").replace("\r", "&#13;").replace("\t", "&#9;")
    if '"' not in data:
        return '"%s"' % data
    if "'" not in data:
        return "'%s'" % data
    return '"%s"' % data.replace('"', "&quot;")


_GRAPHML_KEYS = (
    ("d_type", "node", "type", "string"),
    ("d_category", "node", "category", "string"),
    ("d_campaign", "node", "campaign", "string"),
    ("d_received", "node", "received", "long"),
    ("d_size", "node", "size", "double"),
    ("d_kind", "edge", "kind", "string"),
)


def export_graph(campaigns: list[dict], graph: dict) -> tuple[str, str]:
    """The campaign graph as GraphML and DOT text, deterministically ordered.

    `campaigns` are campaign dicts as in campaigns.json and `graph` is the
    entity_graph.json document. Address node size is proportional to
    satoshis received.
    """
    members = {nid for c in campaigns for nid in cluster.member_ids(c)}
    nodes = graph["nodes"]
    node_ids = sorted(n for n in nodes if n in members)
    edges = sorted(e for e in graph["edges"] if e[1] in members and e[2] in members)

    def node_attrs(nid):
        attrs = dict(nodes[nid])
        if attrs.get("type") == cluster.BTC:
            received = int(attrs.get("received", 0))
            attrs["received"] = received
            attrs["size"] = "%.8f" % (received / SATOSHI_PER_BTC)
        return attrs

    graphml = io.StringIO()
    graphml.write('<?xml version="1.0" encoding="UTF-8"?>\n'
                  '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">\n')
    for key_id, target, name, kind in _GRAPHML_KEYS:
        graphml.write('  <key id="%s" for="%s" attr.name="%s" attr.type="%s"/>\n'
                       % (key_id, target, name, kind))
    graphml.write('  <graph id="campaigns" edgedefault="undirected">\n')
    for nid in node_ids:
        graphml.write('    <node id=%s>\n' % quoteattr(nid))
        attrs = node_attrs(nid)
        for key_id, target, name, _ in _GRAPHML_KEYS:
            if target == "node" and name in attrs:
                graphml.write('      <data key="%s">%s</data>\n'
                               % (key_id, escape(str(attrs[name]))))
        graphml.write('    </node>\n')
    for kind, u, v in edges:
        graphml.write('    <edge source=%s target=%s>\n' % (quoteattr(u), quoteattr(v)))
        graphml.write('      <data key="d_kind">%s</data>\n' % escape(kind))
        graphml.write('    </edge>\n')
    graphml.write('  </graph>\n</graphml>\n')

    def dot_quote(s):
        return '"%s"' % str(s).replace("\\", "\\\\").replace('"', '\\"')

    dot = io.StringIO()
    dot.write("graph campaigns {\n")
    for nid in node_ids:
        attrs = node_attrs(nid)
        rendered = ", ".join("%s=%s" % (k, dot_quote(attrs[k])) for k in sorted(attrs))
        dot.write("  %s [%s];\n" % (dot_quote(nid), rendered))
    for kind, u, v in edges:
        dot.write("  %s -- %s [kind=%s];\n" % (dot_quote(u), dot_quote(v), dot_quote(kind)))
    dot.write("}\n")
    return graphml.getvalue(), dot.getvalue()
