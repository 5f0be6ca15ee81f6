"""Pipeline orchestration, paper-style tables, and campaign graph export.

Each stage is a computation: it takes the values of the artifacts it reads
and returns the values of those it writes. `ARTIFACTS` declares every
artifact once, with its writer and, if a stage reads it, its reader, in the
format that `artifacts` fixes. Only the runner, `run_pipeline` and the
`RunRecord` that reads and writes run.json, touches the disk: it writes
each output, hands it on in memory to the later stages of the run, and
reads an artifact back only when the stage that writes it was skipped,
once. Stages are skipped on re-runs when their input digests match, which
makes a run resumable from any completed stage. `artifacts` defines that
fingerprint: each input's content digest, which an artifact's writer takes
as it writes it, and its stat signature, under which run.json keeps the
digest, so a re-run hashes only the inputs whose signature changed or that
are racily clean. Outputs carry no wall-clock state, so identical inputs
produce byte-identical outputs.

A stage's modules load when it first runs: each function here imports the
modules it calls in its own body (`csv` too), so a run loads only those of
the stages it executes, and looks their functions up when called.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import re
import time
from collections.abc import Callable
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

from .artifacts import (
    json_pieces, jsonl_pieces, read_jsonl, stat_signature, write_file, write_json, write_jsonl,
    write_tree,
)
from .artifacts import path_digest as _path_digest  # a global perfbench/tracer.py rebinds
from .corpus import ingest_snapshot, read_corpus_jsonl, snapshot_signature, write_corpus_jsonl
from .logs import Logger

log = Logger("onionforge.report")

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


class PipelineConfig(NamedTuple):
    corpus_root: str = ""
    ground_truth: str = ""
    out_dir: str = ""
    threshold: float = 0.5
    provider: str = "fixtures"                # fixtures | http
    base_url: str = ""
    rate_limit: float = 0.0
    tx_fixtures: str = ""
    search_fixtures: str = ""
    search_base_url: str = ""
    chain_annotations: str = ""
    trace_annotations: str = ""
    public_threshold: int = 50
    vanity_prefix: int = 7  # length of "deepmar"
    stopwords: str = ""
    tlds: str = ""
    explorer_domains: str = ""
    top_n: int = 10
    min_received: int = 0

    def validate(self):
        for key in self._fields:  # in field order: corpus_root is checked first
            value = getattr(self, key)
            if not value and key in ("corpus_root", "ground_truth", "out_dir"):
                raise ConfigError("%s is required" % key)
            if value and key in DIR_KEYS and not Path(value).is_dir():
                raise ConfigError("%s is not a directory: %s" % (key, value))
            if value and key in PATH_KEYS - DIR_KEYS and not Path(value).is_file():
                raise ConfigError("%s is not a file: %s" % (key, value))
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


# config keys that name a file or directory whose contents a stage reads;
# a set one must name a directory if it is in DIR_KEYS and a file if not
PATH_KEYS = frozenset({"corpus_root", "ground_truth", "tx_fixtures", "search_fixtures",
                       "chain_annotations", "trace_annotations", "stopwords", "tlds",
                       "explorer_domains"})
DIR_KEYS = frozenset({"corpus_root", "tx_fixtures", "search_fixtures"})

# a "#" after whitespace starts a comment; "a#b" is a value
_INLINE_COMMENT = re.compile(r"\s#")


def parse_config(path) -> PipelineConfig:
    """Read a key = value config file.

    A line that starts with "#" is a comment, and so is the rest of a line
    from a "#" that follows whitespace.
    """
    defaults = PipelineConfig._field_defaults
    values = {}
    try:
        # text mode has made every CR LF and CR an LF; no other character ends a line
        lines = Path(path).read_text(encoding="utf-8").split("\n")
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
        if key not in defaults:
            raise ConfigError("unknown config key %r (line %d)" % (key, lineno))
        try:
            values[key] = type(defaults[key])(value)  # each key has its default's type
        except ValueError:
            raise ConfigError("bad value for %s: %r (line %d)" % (key, value, lineno)) from None
    cfg = PipelineConfig(**values)
    cfg.validate()
    return cfg


class PipelineRun(NamedTuple):
    """What one run did: its id and the stages it executed and skipped, in order."""

    run_id: str
    executed: list[str]
    skipped: list[str]


# --- the artifacts ---

class Ledgers(dict):
    """The `chain.ledger` of each fetched address; `failures` says why each
    other address has none."""

    def __init__(self, ledgers=(), failures=None):
        super().__init__(ledgers)
        self.failures = dict(failures or {})


def write_ledgers(ledgers_dir: Path, ledgers: Ledgers) -> str:
    """One JSON file per ledger plus `_index.jsonl`; returns the directory's digest."""
    from . import chain
    index_rows = [{
        "v": 1, "address": address, "transactions": len(txs),
        "received": txs.received, "sent": txs.sent, "balance": txs.received - txs.sent,
        "active_days": chain.active_period(txs),
    } for address, txs in sorted(ledgers.items())]
    for address in sorted(ledgers.failures):
        index_rows.append({"v": 1, "address": address, "error": ledgers.failures[address]})
    # each ledger's text is made as its file is written, so one is held at a time
    files = {address + ".json": (chain.ledger_json(t) + "\n" for t in (txs,))
             for address, txs in ledgers.items()}
    files["_index.jsonl"] = jsonl_pieces(index_rows)
    return write_tree(ledgers_dir, files)


def read_ledgers(ledgers_dir) -> Ledgers:
    """The ledgers `write_ledgers` wrote under `ledgers_dir`."""
    from . import chain
    ledgers_dir = Path(ledgers_dir)
    ledgers = {}
    for path in sorted(ledgers_dir.glob("*.json")):
        address = path.stem
        txs = [chain.parse_transaction(row) for row in json.loads(path.read_text(encoding="utf-8"))]
        ledgers[address] = chain.ledger(address, txs)
    failures = {row["address"]: row["error"]
                for row in read_jsonl(ledgers_dir / "_index.jsonl") if "error" in row}
    return Ledgers(ledgers, failures)


def write_tables(tables_dir: Path, tables: dict[str, tuple[list[str], list[dict]]]) -> str:
    """Each table as `<name>.csv` and `<name>.json`; `tables` maps name to (headers, rows)."""
    import csv
    files = {}
    for name, (headers, rows) in tables.items():
        text = io.StringIO()
        writer = csv.DictWriter(text, fieldnames=headers, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        files[name + ".csv"] = [text.getvalue()]
        files[name + ".json"] = json_pieces({"v": 1, "rows": rows})
    return write_tree(tables_dir, files)


def read_illicit(path) -> dict[str, dict]:
    """illicit.jsonl's rows by address. A hand-edited row is read as the
    ground truth is: its categories become their labels, each once, sorted."""
    from .classify import parse_category
    rows = {}
    for row in read_jsonl(path):
        row["categories"] = sorted({parse_category(c) for c in row["categories"]})
        rows[row["address"]] = row
    return rows


def _read_rows(path) -> list[dict]:
    return list(read_jsonl(path))


def _read_json(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


class Artifact(NamedTuple):
    """One artifact under out_dir, declared once.

    `write(path, value)` stores a stage's output value and returns its
    digest. `read(path)` gives the same value back to a later stage; an
    artifact that no stage reads has no reader. A `tree` is a directory of
    files, any other artifact one regular file.
    """

    name: str
    write: Callable[[Path, object], str]
    read: Callable[[Path], object] | None = None
    tree: bool = False

    def present(self, path: Path) -> bool:
        """Whether `path` holds an entry of this artifact's kind."""
        return path.is_dir() if self.tree else path.is_file()


# a JSONL artifact's value is its rows (corpus.jsonl's `PageRecord`s in a
# `Corpus`, illicit.jsonl's keyed by address), a JSON document's value the
# document, and the ledgers' value each ledger file's rows by address. The
# lambdas look their function up when called, so a caller may rebind it.
ARTIFACTS: dict[str, Artifact] = {a.name: a for a in (
    Artifact("corpus.jsonl", lambda path, corpus: write_corpus_jsonl(corpus, path),
             lambda path: read_corpus_jsonl(path)),
    Artifact("addresses.jsonl", write_jsonl, _read_rows),
    Artifact("labels.jsonl", write_jsonl, _read_rows),
    Artifact("illicit.jsonl", lambda path, illicit: write_jsonl(path, illicit.values()),
             read_illicit),
    Artifact("filter_audit.jsonl", write_jsonl),
    Artifact("ledgers", write_ledgers, lambda path: read_ledgers(path), tree=True),
    Artifact("hits.jsonl", write_jsonl),
    Artifact("surface.jsonl", write_jsonl, _read_rows),
    Artifact("campaigns.json", write_json, _read_json),
    Artifact("phase_trace.json", write_json, _read_json),
    Artifact("vanity.json", write_json, _read_json),
    Artifact("entity_graph.json", write_json, _read_json),
    Artifact("tables", write_tables, tree=True),
    Artifact("graph.graphml", lambda path, text: write_file(path, [text])),
    Artifact("graph.dot", lambda path, text: write_file(path, [text])),
    Artifact("summary.json", write_json),
)}


# --- the stages ---

class Stage(NamedTuple):
    """One pipeline stage, declared once; `run_pipeline` and the CLI use it.

    `fn(config, inputs)` takes the values of the artifacts named in `reads`
    and of the hand-offs named in `takes`, and returns a dict with the value
    of each artifact named in `writes`. A hand-off is a value that is no
    artifact, such as one a stage returns beside its artifacts: the runner
    keeps it until the last stage of the run that takes it has had its turn,
    run or skipped, and a taker that finds none makes the value itself. In
    a run, `config` holds only the `config_keys` values, so reading another
    key fails the stage. The stage's digest covers its `config_keys`
    values, the artifacts it reads, and the contents of every file or
    directory that one of its config keys names.
    """

    name: str
    fn: Callable[[PipelineConfig, dict], dict]
    reads: tuple[str, ...]
    writes: tuple[str, ...]
    config_keys: tuple[str, ...]
    takes: tuple[str, ...]

    def inputs(self, cfg: PipelineConfig, out: Path) -> list[tuple[str, object]]:
        """(key, path) of each input: an artifact by its name, a file or
        directory by the config key that names it."""
        return [(name, out / name) for name in self.reads] + [
            (k, getattr(cfg, k)) for k in self.config_keys if k in PATH_KEYS and getattr(cfg, k)]


STAGE_DECLS: dict[str, Stage] = {}


def stage(name: str, reads=(), writes=(), config_keys=(), takes=()):
    """Declare the decorated function as the next stage of the pipeline."""
    def declare(fn):
        STAGE_DECLS[name] = Stage(name, fn, tuple(reads), tuple(writes),
                                  tuple(config_keys), tuple(takes))
        return fn
    return declare


@stage("ingest", writes=["corpus.jsonl"], config_keys=["corpus_root"], takes=["corpus_root"])
def stage_ingest(cfg: PipelineConfig, inputs: dict) -> dict:
    """Load the snapshot tree into corpus.jsonl.

    It takes the corpus under "corpus_root" when the run record read the
    snapshot to digest it; otherwise the snapshot is read here.
    """
    corpus = (inputs["corpus_root"] if "corpus_root" in inputs
              else ingest_snapshot(cfg.corpus_root))
    log.info("ingested %d pages from %d domains (%d entries skipped)",
             len(corpus), sum(1 for _ in corpus.sites()), len(corpus.skipped))
    return {"corpus.jsonl": corpus}


@stage("extract", reads=["corpus.jsonl"], writes=["addresses.jsonl"],
       config_keys=["tlds"])
def stage_extract(cfg: PipelineConfig, inputs: dict) -> dict:
    """Extract and validate BTC/ETH addresses and emails from every page.

    Also returns each page's visible text, in corpus order, under
    "page_texts", which classify takes so as not to scan the pages again.
    """
    from . import extract
    corpus = inputs["corpus.jsonl"]
    found, texts = extract.scan_pages([page.html for page in corpus],
                                      extract.load_tlds(cfg.tlds))
    rows = []
    for page, triples in zip(corpus, found):
        for kind, value, reason in triples:
            row = {"v": 1, "domain": page.domain, "path": page.path,
                   "kind": kind, "value": value, "valid": reason is None}
            if reason:
                row["reject_reason"] = reason
            rows.append(row)
    return {"addresses.jsonl": rows, "page_texts": texts}


def labels_by_site(rows) -> dict[str, str]:
    """Site domain to category label, from labels.jsonl rows; a hand-edited
    row is read as the ground truth is, so an alias names its category."""
    from .classify import parse_category
    return {row["domain"]: parse_category(row["category"]) for row in rows}


def valid_by_site(address_rows, kind: str) -> dict[str, set[str]]:
    """The valid values of one kind in addresses.jsonl rows, by site domain."""
    out: dict[str, set[str]] = {}
    for row in address_rows:
        if row["kind"] == kind and row["valid"]:
            out.setdefault(row["domain"], set()).add(row["value"])
    return out


@stage("classify", reads=["corpus.jsonl"], writes=["labels.jsonl"],
       config_keys=["ground_truth", "threshold", "stopwords"], takes=["page_texts"])
def stage_classify(cfg: PipelineConfig, inputs: dict) -> dict:
    """Label every site with the three-phase illicit-site classifier; the
    page texts extract returned in this run spare a second scan."""
    from . import classify
    corpus = inputs["corpus.jsonl"]
    stopwords = classify.load_stopwords(cfg.stopwords)
    gt = classify.load_ground_truth(cfg.ground_truth, corpus)
    return {"labels.jsonl": classify.classify_corpus(corpus, gt, cfg.threshold, stopwords,
                                                     inputs.get("page_texts"))}


@stage("filter", reads=["labels.jsonl", "addresses.jsonl"],
       writes=["illicit.jsonl", "filter_audit.jsonl"],
       config_keys=["chain_annotations"])
def stage_filter(cfg: PipelineConfig, inputs: dict) -> dict:
    """Keep the owner-linked addresses of each illicit site.

    The illicit.jsonl value is {address: row} in address order; each row
    merges the address's sites, category labels and flags.
    """
    from . import chain
    from .classify import OTHER
    labels = labels_by_site(inputs["labels.jsonl"])
    annotations = (chain.load_annotations(cfg.chain_annotations)
                   if cfg.chain_annotations else {})
    by_site = valid_by_site(inputs["addresses.jsonl"], "btc")
    retained: dict[str, tuple[set, set, set]] = {}  # address -> sites, labels, flags
    audit = []
    for domain in sorted(by_site):
        category = labels.get(domain, OTHER)
        if category == OTHER:
            continue
        rows = chain.filter_illicit_addresses(domain, category, by_site[domain], annotations)
        audit += rows
        for row in rows:
            if row["action"] == "retained":
                sites, cats, flags = retained.setdefault(row["address"], (set(), set(), set()))
                sites.add(domain)
                cats.add(category)
                flags.add(row["flag"])
    illicit = {address: {"v": 1, "address": address, "sites": sorted(sites),
                         "categories": sorted(cats), "flags": sorted(flags)}
               for address, (sites, cats, flags) in sorted(retained.items())}
    return {"illicit.jsonl": illicit, "filter_audit.jsonl": audit}


@stage("fetch-tx", reads=["illicit.jsonl"], writes=["ledgers"],
       config_keys=["provider", "base_url", "rate_limit", "tx_fixtures"])
def stage_fetch_tx(cfg: PipelineConfig, inputs: dict) -> dict:
    """Fetch the transaction ledger of every illicit address."""
    from . import chain
    if cfg.provider == "http":
        explorer = chain.HttpExplorer(cfg.base_url, rate_limit=cfg.rate_limit or None)
    else:
        explorer = chain.FixtureExplorer(cfg.tx_fixtures)
    ledgers, failures = chain.fetch_all(inputs["illicit.jsonl"], explorer)
    log.info("fetched %d ledgers, %d failures", len(ledgers), len(failures))
    return {"ledgers": Ledgers(ledgers, failures)}


@stage("trace", reads=["illicit.jsonl"], writes=["hits.jsonl", "surface.jsonl"],
       config_keys=["search_fixtures", "search_base_url", "trace_annotations",
                    "explorer_domains", "rate_limit"])
def stage_trace(cfg: PipelineConfig, inputs: dict) -> dict:
    """Search the surface web for every illicit address."""
    from . import trace
    domains = trace.load_explorer_domains(cfg.explorer_domains)
    if cfg.search_base_url:
        provider = trace.HttpSearch(cfg.search_base_url, rate_limit=cfg.rate_limit or None)
    else:
        provider = trace.FixtureSearch(cfg.search_fixtures)
    hits, failures = trace.search_all(inputs["illicit.jsonl"], provider, domains)
    surface = []
    if cfg.trace_annotations:
        surface, _ = trace.import_annotations(
            read_jsonl(cfg.trace_annotations, keep_bad_lines=True), hits)
    return {"hits.jsonl": trace.hit_rows(hits, failures), "surface.jsonl": surface}


@stage("cluster",
       reads=["labels.jsonl", "illicit.jsonl", "ledgers", "addresses.jsonl",
              "surface.jsonl"],
       writes=["campaigns.json", "phase_trace.json", "vanity.json", "entity_graph.json"],
       config_keys=["public_threshold", "vanity_prefix"])
def stage_cluster(cfg: PipelineConfig, inputs: dict) -> dict:
    """Merge sites, addresses and identity facts into campaigns in five phases.

    Also returns the `chain.IncomeReport` of the illicit addresses' ledgers
    under "income", which report takes so as not to estimate it again.
    """
    from . import cluster
    result = cluster.run_clustering(
        labels_by_site(inputs["labels.jsonl"]), inputs["illicit.jsonl"],
        inputs["ledgers"], valid_by_site(inputs["addresses.jsonl"], "email"),
        inputs["surface.jsonl"], cfg.public_threshold, cfg.vanity_prefix)
    nodes = result.nodes
    log.info("%d campaigns", len(result.campaigns))
    return {
        "campaigns.json": {"v": 1, "campaigns": result.campaigns, **result.exclusions},
        "phase_trace.json": {"v": 1, "phases": result.trace},
        "vanity.json": {"v": 1, "groups": [{"prefix": p, "domains": d}
                                           for p, d in result.vanity]},
        "entity_graph.json": {"v": 1, "nodes": {nid: nodes[nid] for nid in sorted(nodes)},
                              "edges": [list(e) for e in sorted(result.edges)]},
        "income": result.income,
    }


@stage("report",
       reads=["corpus.jsonl", "labels.jsonl", "addresses.jsonl", "illicit.jsonl",
              "ledgers", "campaigns.json", "phase_trace.json", "vanity.json",
              "entity_graph.json"],
       writes=["tables", "graph.graphml", "graph.dot", "summary.json"],
       config_keys=["top_n", "min_received"], takes=["income"])
def stage_report(cfg: PipelineConfig, inputs: dict) -> dict:
    """Write the paper-style tables, the summary and the campaign graph."""
    tables, summary = emit_tables(inputs, top_n=cfg.top_n, min_received=cfg.min_received)
    graphml, dot = export_graph(inputs["entity_graph.json"])
    return {"tables": tables, "graph.graphml": graphml, "graph.dot": dot,
            "summary.json": summary}


# (name, function) pairs in pipeline order; `run_pipeline` reads this at call
# time, so a caller may wrap the functions
STAGES = tuple((s.name, s.fn) for s in STAGE_DECLS.values())


class RunRecord:
    """run.json: each stage's digest and each input's [signature, digest] pair.

    It is read once, from `out`, when the record is built; a file, `stages`
    or `inputs` of another shape counts as absent. `stages` holds the last
    run's stage digests, each replaced as this run completes its stage: a
    stage the run does not reach keeps its digest, which covers only that
    stage's own inputs, so a later run still re-runs exactly what changed.

    `recorded` holds the last run's pairs by path, from a run.json last
    modified at `written_ns`. A recorded digest is reused when the input's
    signature is unchanged and none of its files was modified at or after
    `written_ns` (git's racy-clean rule); any other input is hashed, at
    most once per run. The signature is taken before the input is read, so
    an edit made while it is hashed leaves a stale signature, never a stale
    digest. `taken` holds this run's pairs.

    The pair of the corpus root covers what `ingest_snapshot` reads, and is
    taken by the read that gives ingest its corpus: `digest` puts that
    corpus in the runner's `values`, as the hand-off "corpus_root", which
    ingest takes.
    """

    def __init__(self, config: PipelineConfig, out: Path, values: dict):
        self.config, self.out, self.values = config, out, values
        try:
            with open(out / "run.json", "rb") as fh:
                manifest = json.load(fh)
                self.written_ns = os.fstat(fh.fileno()).st_mtime_ns
        except (OSError, ValueError, RecursionError):  # nested too deeply to parse
            manifest, self.written_ns = {}, 0
        if not isinstance(manifest, dict):
            manifest = {}
        previous, self.recorded = (value if isinstance(value, dict) else {}
                                   for value in (manifest.get("stages"), manifest.get("inputs")))
        self.stages = {name: previous[name] for name, _ in STAGES if name in previous}
        self.taken: dict[str, list[str]] = {}

    def _check(self, key: str) -> tuple[str, str | None]:
        """`key`'s signature, and its recorded digest if that pair still holds."""
        signature, newest = (snapshot_signature if key == self.config.corpus_root
                             else stat_signature)(key)
        pair = self.recorded.get(key)  # an entry of another shape counts as absent
        if (isinstance(pair, list) and len(pair) == 2 and pair[0] == signature
                and isinstance(pair[1], str) and newest < self.written_ns):
            return signature, pair[1]
        return signature, None

    def digest(self, path) -> str:
        key = str(path)
        if key in self.taken:
            return self.taken[key][1]
        if key != self.config.corpus_root:
            signature, digest = self._check(key)
            self.taken[key] = [signature, digest or _path_digest(path)]
        elif key in self.recorded and (held := self._check(key))[1]:
            self.taken[key] = list(held)
        else:  # a snapshot with no pair to trust is read at once; its walk takes the pair
            corpus = self.values["corpus_root"] = ingest_snapshot(key)
            self.taken[key] = corpus.pair
        return self.taken[key][1]

    def stage_digest(self, decl: Stage) -> str:
        """Digest of a stage's config values and its inputs. Inputs are keyed
        by name, not path, so an out dir that is moved or copied keeps its digests."""
        payload = {"stage": decl.name,
                   "config": {k: getattr(self.config, k) for k in decl.config_keys},
                   "inputs": {key: self.digest(path)
                              for key, path in decl.inputs(self.config, self.out)}}
        return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()

    def record(self, path, digest: str):
        """Take the pair of an artifact just written, with its writer's digest."""
        self.taken[str(path)] = [stat_signature(path)[0], digest]

    def write(self, run_id: str = "", carry: bool = True):
        """Write run.json, whole or not at all as every artifact is.

        With `carry`, each input of a stage that the run did not consult
        keeps its recorded pair, as the stage keeps its digest, if `digest`
        would still trust it; checking one reads no bytes, and one that
        cannot be checked is not trusted. The interim write before a stage
        re-runs records only this run's own pairs: a run killed there
        re-hashes the rest next time, and the final write still carries them.
        """
        pairs = dict(self.taken)
        for decl in STAGE_DECLS.values() if carry else ():
            for key in (str(path) for _, path in decl.inputs(self.config, self.out)):
                with contextlib.suppress(OSError):
                    if key not in pairs and key in self.recorded and self._check(key)[1]:
                        pairs[key] = self.recorded[key]
        write_json(self.out / "run.json", {"v": 1, "run_id": run_id,
                                           "config": self.config._asdict(),
                                           "stages": self.stages, "inputs": pairs})


def run_pipeline(config: PipelineConfig, until: str | None = None) -> PipelineRun:
    """Execute the stages in order, skipping any whose inputs are unchanged.

    With `until` set to a stage name, stop after that stage; an `until`
    that names no stage is a ConfigError, raised before `out_dir` is made.
    Each output is written once and handed on in memory to the later
    stages of the run that read it; an input whose stage was skipped is
    read from disk once.
    """
    started = time.time()  # wall-clock time stays in the log, never in an artifact
    config.validate()
    names = [name for name, _ in STAGES]
    if until is not None and until not in names:
        raise ConfigError("unknown stage %r (choose from %s)" % (until, ", ".join(names)))
    out = Path(config.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError("out_dir cannot be made: %s" % exc) from exc

    values: dict[str, object] = {}  # artifacts and hand-offs, until their last user's turn
    record = RunRecord(config, out, values)
    executed, skipped = [], []
    stages = STAGES if until is None else STAGES[:names.index(until) + 1]
    # each artifact or hand-off a stage of this run reads or takes -> the last such stage
    last_user = {key: name for name, _ in stages
                 for key in STAGE_DECLS[name].reads + STAGE_DECLS[name].takes}
    for name, func in stages:
        decl = STAGE_DECLS[name]
        used = decl.reads + decl.takes
        try:
            digest = record.stage_digest(decl)
            if record.stages.get(name) == digest and all(ARTIFACTS[o].present(out / o)
                                                         for o in decl.writes):
                skipped.append(name)
                log.info("stage %s unchanged; skipping", name)
            else:
                log.info("stage %s running", name)
                if name in record.stages:
                    # unrecord the stage first, so a kill while it runs or
                    # writes cannot leave its old digest over partial outputs
                    del record.stages[name]
                    record.write(carry=False)
                for artifact in decl.reads:
                    if artifact not in values:  # its stage was skipped in this run
                        values[artifact] = ARTIFACTS[artifact].read(out / artifact)
                outputs = func(SimpleNamespace(**{k: getattr(config, k) for k in decl.config_keys}),
                               {k: values[k] for k in used if k in values})
                for artifact in decl.writes:
                    written = ARTIFACTS[artifact].write(out / artifact, outputs[artifact])
                    if ARTIFACTS[artifact].read:  # run.json keeps pairs only of what a stage reads
                        record.record(out / artifact, written)
                values.update({k: v for k, v in outputs.items() if k in last_user})
                del outputs  # so that what no later stage uses is dropped now
                executed.append(name)
        except Exception as exc:
            try:  # a run.json that cannot be written must not hide the stage's failure
                record.write()
            except OSError as unwritten:
                log.error("run.json not written: %s", str(unwritten))
            raise StageError(name, exc) from exc
        record.stages[name] = digest
        for key in used:
            if last_user[key] == name:
                values.pop(key, None)

    run_id = hashlib.sha256(json.dumps({"config": config._asdict(), "stages": record.stages},
                                       sort_keys=True).encode()).hexdigest()[:16]
    try:
        record.write(run_id)
    except OSError as exc:
        raise StageError("run.json", exc) from exc
    log.info("run %s finished in %.2fs", run_id, time.time() - started)
    return PipelineRun(run_id, executed, skipped)


# --- tables ---

def emit_tables(inputs: dict, top_n: int, min_received: int) -> tuple[dict, dict]:
    """The four paper-shaped tables and the summary, from the report stage's inputs.

    The income report is the one cluster returned in this run, under
    "income", or else estimated here. Returns (tables, summary), the values
    of `tables` and `summary.json`.
    """
    from . import chain
    from .classify import CATEGORIES, OTHER
    labels = labels_by_site(inputs["labels.jsonl"])
    illicit = inputs["illicit.jsonl"]
    ledgers = inputs["ledgers"]
    income = (inputs["income"] if "income" in inputs
              else chain.estimate_income(illicit, ledgers))

    pages_per_domain = {domain: sum(1 for _ in pages)
                        for domain, pages in inputs["corpus.jsonl"].sites()}

    # table 3 shape: per-category onion/page/address counts
    sites_by_cat: dict[str, list[str]] = {c: [] for c in CATEGORIES + (OTHER,)}
    for domain, cat in labels.items():
        sites_by_cat[cat].append(domain)
    valid_btc_by_site = valid_by_site(inputs["addresses.jsonl"], "btc")

    class_rows = []
    totals = {"onions": 0, "pages": 0, "btc_addresses": 0, "illicit_btc_addresses": 0}
    for cat in CATEGORIES + (OTHER,):
        sites = sorted(sites_by_cat[cat])
        extracted = set()
        for s in sites:
            extracted |= valid_btc_by_site.get(s, set())
        row = {"category": cat,
               "onions": len(sites),
               "pages": sum(pages_per_domain.get(s, 0) for s in sites),
               "btc_addresses": len(extracted),
               "illicit_btc_addresses": sum(cat in entry["categories"]
                                            for entry in illicit.values())}
        class_rows.append(row)
        for key in totals:
            totals[key] += row[key]
    class_rows.append({"category": "Total", **totals})

    # table 4 shape: top profitable addresses
    addr_rows = []
    for address, row in illicit.items():
        if address not in ledgers:
            continue
        addr_rows.append({
            "address": address,
            "categories": "+".join(row["categories"]),
            "incoming_transactions": income.incoming[address],
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
    summary = {
        "v": 1,
        "sites_total": len(pages_per_domain),
        "sites_illicit": sum(len(sites_by_cat[c]) for c in CATEGORIES),
        "pages_total": sum(pages_per_domain.values()),
        "btc_addresses_valid": len(set().union(*valid_btc_by_site.values())),
        "btc_addresses_illicit": len(illicit),
        "income_satoshi": income.total,
        "income_btc": format_btc(income.total),
        "income_by_category_split": income.by_category_split,
        "income_by_category_full": income.by_category_full,
        "internal_transactions": len(income.internal_txids),
        "campaigns": len(campaigns),
        "multi_category_addresses": chain.multi_category(illicit),
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


def export_graph(graph: dict) -> tuple[str, str]:
    """The campaign graph as GraphML and DOT text, deterministically ordered.

    `graph` is the entity_graph.json document; the campaign graph is its
    nodes that carry a `campaign` id and the edges between them. Address
    node size is proportional to satoshis received.
    """
    from . import cluster
    nodes = graph["nodes"]
    node_ids = sorted(n for n in nodes if "campaign" in nodes[n])
    members = set(node_ids)
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
