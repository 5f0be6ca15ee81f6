#!/usr/bin/env python3
"""onionforge benchmark: seeded workloads, end-to-end metrics, correctness gate.

    python3 perfbench/run.py --workload similarity-wide --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root. For one workload and seed it generates the
inputs, then for `--seconds` seconds runs `onionforge run --config ...` in
a fresh child process on a fresh output directory, each followed by reruns
over the unchanged output directory, one process at a time; between fresh
runs it times the input generation again (`setup_s`). Every run goes
through the correctness gate: exit code, the correctness metrics against
the generator's expected results, byte-identical deterministic artifacts
across runs, and a rerun that rewrites nothing.

The speed of a shared machine drifts by up to 2x within a minute, so before
every fresh run the benchmark times a fixed task, reference.py, in a child
process, and the timing metrics are given at reference speed: each measured
wall (CPU) time is scaled by REF_S over the mean wall (CPU) time of the
reference children around it. The raw times are printed beside them.

With `--trace 1` it instead makes a few untraced runs for reference, then
one traced run and one traced rerun (see tracer.py), and reports per-layer
metrics computed from the recorded spans.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. `attempted` and `failed`
count pipeline invocations; a failed one exited non-zero or failed the gate.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"

RERUNS = 2               # reruns after each fresh run; rerun_ref_s is their median
SETUP_EVERY = 2          # set-up is timed again after every this many fresh runs
MIN_ITERATIONS = 3       # fresh runs per measurement, however long they take
TRACE_BASELINE_RUNS = 3  # untraced runs that the traced run is compared with
CHILD_TIMEOUT_S = 150
STAGES = ("ingest", "extract", "classify", "filter", "fetch-tx", "trace", "cluster",
          "report")
REF_S = 0.15             # reference.py's wall and CPU time at reference speed

# measured timing -> the end-to-end metric that gives it at reference speed
REPORTED = {"setup_s": "setup_s", "run_s": "run_ref_s", "run_cpu_s": "run_cpu_ref_s",
            "rerun_s": "rerun_ref_s"}
END_TO_END = {
    "setup_s": "s", "run_ref_s": "s", "run_cpu_ref_s": "s", "peak_rss_mb": "MB",
    "rerun_ref_s": "s",
    "failed_share": "ratio", "label_accuracy": "ratio", "campaign_exact_share": "ratio",
    "income_accuracy": "ratio", "address_verdict_accuracy": "ratio",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for stage in STAGES:
        units.update({"stage.%s.wall_s" % stage: "s", "stage.%s.cpu_s" % stage: "s",
                      "stage.%s.maxrss_mb" % stage: "MB"})
    for name in ("report.emit_tables.s", "report.export_graph.s", "report.read_ledgers.s",
                 "report.path_digest.s", "corpus.ingest_snapshot.s",
                 "corpus.write_corpus_jsonl.s", "corpus.read_corpus_jsonl.s",
                 "pagetext.page_text.s", "pagetext.page_text_and_attrs.s",
                 "extract.scan_page.s", "extract.validate_btc.s", "extract.validate_eth.s",
                 "classify.classify_corpus.s", "classify.tokenize.s",
                 "classify.build_feature_set.s", "chain.fetch_all.s",
                 "chain.estimate_income.s", "chain.unique_transactions.s",
                 "trace.search_all.s", "trace.import_annotations.s",
                 "cluster.run_clustering.s", "report.rerun.s",
                 "bench.traced_run_s", "bench.tracing_overhead_s", "bench.reference_s"):
        units[name] = "s"
    for name in ("report.read_ledgers.calls", "corpus.read_corpus_jsonl.calls",
                 "pagetext.page_text.calls", "pagetext.page_text_and_attrs.calls",
                 "extract.validate_btc.calls", "extract.validate_eth.calls", "extract.emails",
                 "base58.b58decode.calls", "keccak.keccak256.calls", "classify.cosine.calls",
                 "classify.labels.ground-truth", "classify.labels.cosine",
                 "classify.labels.tfidf", "classify.labels.none",
                 "chain.parse_transaction.calls", "chain.estimate_income.calls",
                 "chain.unique_transactions.calls", "chain.ledgers", "chain.transactions",
                 "chain.fetch_failures", "trace.hits", "trace.search_failures",
                 "cluster.union.calls", "cluster.graph_nodes", "cluster.graph_edges",
                 "cluster.campaigns", "cluster.public_facts_excluded", "corpus.pages",
                 "corpus.skipped"):
        units[name] = "count"
    for name in ("report.rerun.bytes_hashed", "corpus.jsonl_bytes", "chain.ledgers_bytes"):
        units[name] = "bytes"
    for name in ("extract.btc.valid_share", "extract.eth.valid_share",
                 "classify.cosine.nonzero_share"):
        units[name] = "ratio"
    for name in ("base58.b58decode.us_per_op", "keccak.keccak256.us_per_op",
                 "classify.cosine.us_per_op"):
        units[name] = "us"
    return units


# --- machine speed ---

def at_reference_speed(samples: list[tuple[float, int]], refs: list[float]) -> list[float]:
    """Each (seconds, i) sample scaled to reference speed.

    A sample taken between reference runs i and i + 1 is scaled by REF_S
    over the mean of reference runs i - 1 .. i + 2: the runs on either side
    track the machine's speed, and averaging four damps their own jitter.
    """
    return [v * REF_S / statistics.mean(refs[max(0, i - 1):i + 3]) for v, i in samples]


# --- child processes ---

def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, log_path):
    """Run one child to completion; return (exit code, wall s, cpu s, maxrss MB).

    os.wait4 gives the rusage of exactly this child, so CPU and peak RSS
    are the child's own, not a high-water mark over every child so far.
    """
    with open(log_path, "ab") as log:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=log, env=_child_env(), cwd=ROOT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024


def pipeline_argv(cfg: Path, trace_file: Path | None = None) -> list[str]:
    if trace_file is None:
        return [sys.executable, "-m", "onionforge.cli", "run", "--config", str(cfg)]
    return [sys.executable, str(BENCH / "tracer.py"), str(trace_file),
            "run", "--config", str(cfg)]


# --- artifacts and the correctness gate ---

def artifact_digest(out: Path) -> str:
    """Digest of every deterministic artifact: all but run.json."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        rel = str(path.relative_to(out))
        if rel != "run.json":
            h.update(rel.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def artifact_mtimes(out: Path) -> dict[str, int]:
    return {str(p.relative_to(out)): p.stat().st_mtime_ns
            for p in out.rglob("*") if p.is_file() and p.name != "run.json"}


def _jsonl(path: Path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def evaluate(out: Path, expected: dict) -> tuple[dict, list[str], int]:
    """Correctness metrics of one finished run against the expected results.

    Returns (metrics, gate errors, failed items).
    """
    errors = []
    labels = {r["domain"]: r["category"] for r in _jsonl(out / "labels.jsonl")}
    planted = expected["labels"]
    label_accuracy = sum(labels.get(d) == c for d, c in planted.items()) / len(planted)

    found = json.loads((out / "campaigns.json").read_text())["campaigns"]
    found_keys = {json.dumps([c["sites"], c["btc_addresses"], c["emails"], c["ips"],
                              c["urls"], c["received"]]) for c in found}
    exact = sum(json.dumps([c["sites"], c["btc"], c["emails"], c["ips"], c["urls"],
                            c["received"]]) in found_keys for c in expected["campaigns"])
    unplanted = len(found) - exact
    campaign_share = exact / (len(expected["campaigns"]) + unplanted)

    income = json.loads((out / "summary.json").read_text())["income_satoshi"]
    income_error = abs(income - expected["income_satoshi"])

    rows = {}
    for r in _jsonl(out / "addresses.jsonl"):
        if r["kind"] in ("btc", "eth"):
            rows["%s %s %s %s" % (r["domain"], r["path"], r["kind"], r["value"])] = \
                [r["valid"], r.get("reject_reason")]
    cands = expected["candidates"]
    matched = sum(rows.get(k) == v for k, v in cands.items())
    spurious = len(set(rows) - set(cands))
    verdict_accuracy = matched / (len(cands) + spurious)

    if campaign_share != 1.0:
        errors.append("campaigns: %d of %d planted found exactly, %d unplanted"
                      % (exact, len(expected["campaigns"]), unplanted))
    if income_error:
        errors.append("income_satoshi off by %d sat" % income_error)
    if verdict_accuracy != 1.0:
        errors.append("address verdicts: %d of %d match, %d spurious rows"
                      % (matched, len(cands), spurious))

    pages = sum(1 for _ in open(out / "corpus.jsonl"))
    ledger_errors = sum("error" in r for r in _jsonl(out / "ledgers" / "_index.jsonl"))
    search_errors = sum("error" in r for r in _jsonl(out / "hits.jsonl"))
    failed_items = expected["snapshot_items"] - pages + ledger_errors + search_errors
    metrics = {"label_accuracy": label_accuracy, "campaign_exact_share": campaign_share,
               "income_accuracy": 1.0 - income_error / expected["income_satoshi"],
               "income_abs_error_sat": income_error,
               "address_verdict_accuracy": verdict_accuracy}
    return metrics, errors, failed_items


class Session:
    """One benchmark invocation: inputs, runs, gate verdicts."""

    def __init__(self, work: Path, inputs: Path):
        self.work, self.inputs = work, inputs
        self.expected: dict = {}
        self.log = work / "pipeline.log"
        # timing samples as (seconds, i): taken between reference runs i and i + 1
        self.timed = {"setup_s": [], "run_s": [], "run_cpu_s": [], "rerun_s": []}
        self.refs: list[float] = []      # reference.py wall times
        self.ref_cpu: list[float] = []   # and its CPU times
        self.peak_rss: list[float] = []
        self.attempted = self.failed = 0
        self.items = {"attempted": 0, "failed": 0}
        self.quality = None
        self.reference = None          # artifact digest of the first run
        self.reference_ok = False      # did the first run pass the gate
        self.failed_items = 0          # per run, as the first run had them
        self.errors: list[str] = []
        self.runs = 0
        self.last_run_s = 0.0

    def config(self, out: Path) -> Path:
        import gen
        cfg = self.work / ("%s.cfg" % out.name)
        cfg.write_text(gen.config_text(self.inputs, out))
        return cfg

    def time_reference(self):
        """Time reference.py in a child process; later samples are scaled by it."""
        code, wall, cpu, _ = run_child([sys.executable, str(BENCH / "reference.py")], self.log)
        if code != 0:
            self.fail("reference.py exited with %d" % code)
        self.refs.append(wall)
        self.ref_cpu.append(cpu)

    def setup(self, workload: str, seed: int, root: Path) -> dict:
        """Generate the inputs under root, timed; return the expected results."""
        expected, seconds = generate_timed(workload, seed, root)
        self.timed["setup_s"].append((seconds, len(self.refs) - 1))
        return expected

    def fail(self, message: str):
        self.errors.append(message)
        print("GATE FAIL: " + message)

    def fresh_run(self, trace_file: Path | None = None, keep: bool = False) -> Path:
        """A fresh run plus its reruns, all gated; returns the output dir."""
        out = self.work / ("out%d" % self.runs)
        self.runs += 1
        cfg = self.config(out)
        self.time_reference()
        i = len(self.refs) - 1
        code, wall, cpu, rss = run_child(pipeline_argv(cfg, trace_file), self.log)
        ok = code == 0
        if not ok:
            self.fail("run exited with %d (log: %s)" % (code, self.log))
        if trace_file is None:
            self.timed["run_s"].append((wall, i))
            self.timed["run_cpu_s"].append((cpu, i))
            self.peak_rss.append(rss)
        self.last_run_s = wall
        if ok:
            ok = self.check(out)
        self.attempted += 1
        self.failed += not ok
        self.count_items(ok)

        rerun_trace = trace_file.with_suffix(".rerun.json") if trace_file else None
        before = artifact_mtimes(out) if ok else None
        for _ in range(1 if trace_file else RERUNS):
            code, wall, _, _ = run_child(pipeline_argv(cfg, rerun_trace), self.log)
            rerun_ok = code == 0 and ok
            if code != 0:
                self.fail("rerun exited with %d" % code)
            elif ok and artifact_mtimes(out) != before:
                self.fail("rerun over an unchanged output dir rewrote artifacts")
                rerun_ok = False
            if trace_file is None:
                self.timed["rerun_s"].append((wall, i))
            self.attempted += 1
            self.failed += not rerun_ok
        if not keep:
            shutil.rmtree(out)
        return out

    def check(self, out: Path) -> bool:
        digest = artifact_digest(out)
        if self.reference is None:
            self.reference = digest
            try:
                self.quality, errors, self.failed_items = evaluate(out, self.expected)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                errors = ["cannot evaluate the outputs: %r" % exc]
            for e in errors:
                self.fail(e)
            self.reference_ok = not errors
            return self.reference_ok
        if digest != self.reference:
            self.fail("artifacts of %s differ from the first run's" % out.name)
            return False
        return self.reference_ok

    def count_items(self, ok: bool):
        per_run = self.expected["snapshot_items"] + 2 * self.expected["illicit_addresses"]
        self.items["attempted"] += per_run
        self.items["failed"] += self.failed_items if ok else per_run


# --- statistics and reporting ---

def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, or the max."""
    n = len(values)
    if n < 20:
        return "max %.4f (n=%d; too few samples for a percentile with 10 beyond it)" % (
            max(values), n)
    q = int(100 * (1 - 10 / n))
    return "p%d %.4f (n=%d)" % (q, statistics.quantiles(values, n=100)[q - 1], n)


def self_times(spans: list) -> dict[str, dict]:
    """Per span name: calls, total (inclusive) seconds, self seconds."""
    child = [0.0] * len(spans)
    for name, sid, parent, start, end in spans:
        if parent is not None:
            child[parent] += end - start
    out: dict[str, dict] = {}
    for name, sid, parent, start, end in spans:
        agg = out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0})
        agg["calls"] += 1
        agg["total"] += end - start
        agg["self"] += end - start - child[sid]
    return out


def layer_metrics(trace: dict, rerun: dict, out: Path, traced_run_s: float,
                  untraced_run_s: float, reference_s: float) -> dict[str, float]:
    times = self_times(trace["spans"])
    counts = trace["counts"]
    m: dict[str, float] = {}

    def t(name):
        return times.get(name, {"calls": 0, "total": 0.0, "self": 0.0})

    for stage in STAGES:
        m["stage.%s.wall_s" % stage] = t("stage." + stage)["total"]
        info = trace["stages"].get(stage, {"cpu_s": 0.0, "maxrss_mb": 0.0})
        m["stage.%s.cpu_s" % stage] = info["cpu_s"]
        m["stage.%s.maxrss_mb" % stage] = info["maxrss_mb"]
    for name in ("report.emit_tables", "report.export_graph", "report.read_ledgers",
                 "report.path_digest", "corpus.ingest_snapshot", "corpus.write_corpus_jsonl",
                 "corpus.read_corpus_jsonl", "pagetext.page_text",
                 "pagetext.page_text_and_attrs", "extract.scan_page", "extract.validate_btc",
                 "extract.validate_eth", "classify.classify_corpus", "classify.tokenize",
                 "classify.build_feature_set", "chain.fetch_all", "chain.estimate_income",
                 "chain.unique_transactions", "trace.search_all", "trace.import_annotations",
                 "cluster.run_clustering"):
        m[name + ".s"] = t(name)["self"]
    for name in ("report.read_ledgers", "corpus.read_corpus_jsonl", "pagetext.page_text",
                 "pagetext.page_text_and_attrs", "extract.validate_btc",
                 "extract.validate_eth", "base58.b58decode", "keccak.keccak256",
                 "chain.estimate_income", "chain.unique_transactions"):
        m[name + ".calls"] = t(name)["calls"]
    for name in ("base58.b58decode", "keccak.keccak256"):
        calls = t(name)["calls"]
        m[name + ".us_per_op"] = 1e6 * t(name)["self"] / calls if calls else 0.0
    cos_calls = counts.get("classify.cosine", 0)
    cos_inner = counts.get("classify.cosine@classify._similarity_label", 0)
    m["classify.cosine.calls"] = cos_calls
    m["classify.cosine.nonzero_share"] = (counts.get("classify.cosine.nonzero", 0) / cos_calls
                                          if cos_calls else 0.0)
    m["classify.cosine.us_per_op"] = (1e6 * t("classify._similarity_label")["self"] / cos_inner
                                      if cos_inner else 0.0)
    m["chain.parse_transaction.calls"] = counts.get("chain.parse_transaction", 0)
    m["cluster.union.calls"] = counts.get("cluster.union", 0)
    m["report.rerun.s"] = times_total(rerun, "report.run_pipeline")
    m["report.rerun.bytes_hashed"] = rerun["counts"].get("report.bytes_hashed", 0)
    m["bench.traced_run_s"] = traced_run_s
    m["bench.tracing_overhead_s"] = traced_run_s - untraced_run_s
    m["bench.reference_s"] = reference_s

    m["corpus.pages"] = trace["facts"].get("corpus.pages", 0)
    m["corpus.skipped"] = trace["facts"].get("corpus.skipped", 0)
    m["corpus.jsonl_bytes"] = (out / "corpus.jsonl").stat().st_size

    rows = _jsonl(out / "addresses.jsonl")
    for kind in ("btc", "eth"):
        of_kind = [r for r in rows if r["kind"] == kind]
        m["extract.%s.valid_share" % kind] = (sum(r["valid"] for r in of_kind) / len(of_kind)
                                              if of_kind else 0.0)
    m["extract.emails"] = sum(r["kind"] == "email" for r in rows)
    phases = [r["phase"] for r in _jsonl(out / "labels.jsonl")]
    for phase in ("ground-truth", "cosine", "tfidf", "none"):
        m["classify.labels." + phase] = phases.count(phase)

    ledger_files = [p for p in (out / "ledgers").glob("*.json")]
    txids = set()
    for p in ledger_files:
        txids.update(tx["txid"] for tx in json.loads(p.read_text()))
    index = _jsonl(out / "ledgers" / "_index.jsonl")
    m["chain.ledgers"] = len(ledger_files)
    m["chain.transactions"] = len(txids)
    m["chain.fetch_failures"] = sum("error" in r for r in index)
    m["chain.ledgers_bytes"] = sum(p.stat().st_size for p in ledger_files)
    hits = _jsonl(out / "hits.jsonl")
    m["trace.hits"] = sum("url" in r for r in hits)
    m["trace.search_failures"] = sum("error" in r for r in hits)
    graph = json.loads((out / "entity_graph.json").read_text())
    campaigns = json.loads((out / "campaigns.json").read_text())
    m["cluster.graph_nodes"] = len(graph["nodes"])
    m["cluster.graph_edges"] = len(graph["edges"])
    m["cluster.campaigns"] = len(campaigns["campaigns"])
    m["cluster.public_facts_excluded"] = len(campaigns.get("public_identity_facts", []))
    return m


def times_total(trace: dict, name: str) -> float:
    return sum(end - start for n, _, _, start, end in trace["spans"] if n == name)


def design_checks(workload: str, m: dict, run_s: float) -> list[str]:
    """Does the traced run confirm what the workload was built to stress?"""
    if workload == "similarity-wide":
        share = m["stage.classify.wall_s"] / run_s
        return ["classify is %.0f%% of run_s (designed: > 50%%)" % (100 * share)]
    if workload == "ledger-deep":
        share = (m["stage.fetch-tx.wall_s"] + m["stage.cluster.wall_s"]
                 + m["stage.report.wall_s"]) / run_s
        return ["fetch-tx + cluster + report are %.0f%% of run_s (designed: > 50%%)"
                % (100 * share)]
    return ["extract %.3f s vs classify %.3f s (designed: extract > classify)"
            % (m["stage.extract.wall_s"], m["stage.classify.wall_s"])]


# --- the benchmark ---

def generate_timed(workload: str, seed: int, inputs: Path, smoke: bool = False):
    """Generate the workload's inputs once; return (expected results, seconds)."""
    import gen
    # cyclic GC pauses depend on what earlier set-ups left alive, not on
    # this generation's work; keep them out of the timing
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        expected = gen.generate(workload, seed, inputs, smoke=smoke)
        return expected, time.perf_counter() - started
    finally:
        gc.enable()


def measure(workload: str, seed: int, seconds: int, trace: bool, work: Path) -> dict:
    session = Session(work, work / "inputs")
    session.time_reference()
    expected = session.expected = session.setup(workload, seed, session.inputs)
    print("workload %s seed %d: %s" % (workload, seed, json.dumps(expected["sizes"])))

    if trace:
        for _ in range(TRACE_BASELINE_RUNS):
            session.fresh_run()
        trace_file = work / "trace.json"
        out = session.fresh_run(trace_file=trace_file, keep=True)
        untraced = statistics.median(v for v, _ in session.timed["run_s"])
        metrics = None if session.errors else traced_metrics(session, trace_file, out, untraced)
        if metrics:
            print("count-only wrappers (no timing): classify.cosine, "
                  "chain.parse_transaction, cluster.UnionFind.union; "
                  "classify.cosine.us_per_op is _similarity_label self time per call")
            print("<name>.s is self time; stage.*.wall_s and report.rerun.s are inclusive")
            for line in design_checks(workload, metrics, untraced):
                print("design check: " + line)
            for name, value in metrics.items():
                print("  %-40s %s" % (name, value))
        units = per_layer_units()
        metrics = metrics or {name: 0.0 for name in units}
        result = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    else:
        # set-up is timed again between fresh runs, so its samples span the
        # same window as the runs and a slow spell cannot skew one of them alone
        started = time.perf_counter()
        while True:
            session.fresh_run()
            done = len(session.peak_rss)
            if done % SETUP_EVERY == 0:
                if session.setup(workload, seed, work / "regen") != expected:
                    session.fail("the generator gave different inputs for the same seed")
                shutil.rmtree(work / "regen")
            elapsed = time.perf_counter() - started
            if done >= MIN_ITERATIONS and elapsed + elapsed / done > seconds:
                break
        session.time_reference()  # the speed after the last samples
        values = {"peak_rss_mb": statistics.median(session.peak_rss)}
        print("%-13s median %.4f MB, %s" % ("peak_rss_mb", values["peak_rss_mb"],
                                            tail(session.peak_rss)))
        for name in session.timed:
            raw = [v for v, _ in session.timed[name]]
            ref = at_reference_speed(session.timed[name], session.ref_cpu
                                     if name == "run_cpu_s" else session.refs)
            values[REPORTED[name]] = statistics.median(ref)
            print("%-13s median %.4f s, %s; at reference speed %s median %.4f s, %s"
                  % (name, statistics.median(raw), tail(raw), REPORTED[name],
                     statistics.median(ref), tail(ref)))
        print("%-13s median %.4f s, %s; CPU median %.4f s; at reference speed %.2f s"
              % ("reference", statistics.median(session.refs), tail(session.refs),
                 statistics.median(session.ref_cpu), REF_S))
        values["failed_share"] = session.items["failed"] / session.items["attempted"]
        quality = session.quality or dict.fromkeys(
            ("label_accuracy", "campaign_exact_share", "income_accuracy",
             "address_verdict_accuracy"), 0.0)
        values.update(quality)
        print("correctness  %s" % json.dumps(quality, sort_keys=True))
        print("failed_share %d of %d items (planted faults: 4 snapshot entries, "
              "1 over-spending ledger)" % (session.items["failed"], session.items["attempted"]))
        result = {name: {"value": values[name], "unit": unit}
                  for name, unit in END_TO_END.items()}

    correct = not session.errors
    print("gate: %s" % ("pass" if correct else "FAIL (%d errors)" % len(session.errors)))
    return {"correct": correct, "attempted": session.attempted, "failed": session.failed,
            "metrics": result}


def traced_metrics(session: Session, trace_file: Path, out: Path, untraced_run_s: float):
    """Per-layer metrics of the traced run and rerun, or None (gate failed)."""
    try:
        return layer_metrics(json.loads(trace_file.read_text()),
                             json.loads(trace_file.with_suffix(".rerun.json").read_text()),
                             out, session.last_run_s, untraced_run_s,
                             statistics.median(session.refs))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        session.fail("cannot compute per-layer metrics: %r" % exc)
        return None


def smoke() -> int:
    """Every workload at tiny scale through the gate, traced and untraced."""
    import gen
    failures = 0
    for workload in gen.WORKLOADS:
        work = _fresh_work("smoke-" + workload)
        try:
            session = Session(work, work / "inputs")
            session.expected, _ = generate_timed(workload, 1, session.inputs, smoke=True)
            session.fresh_run()
            session.fresh_run()
            trace_file = work / "trace.json"
            out = session.fresh_run(trace_file=trace_file, keep=True)
            metrics = None if session.errors else traced_metrics(
                session, trace_file, out, statistics.median(v for v, _ in session.timed["run_s"]))
            if metrics is not None:
                missing = set(per_layer_units()) - set(metrics)
                if missing:
                    session.fail("per-layer metrics missing: %s" % sorted(missing))
            ok = not session.errors
            failures += not ok
            print("smoke %-16s %s %s" % (workload, "pass" if ok else "FAIL",
                                         json.dumps(session.quality)))
        finally:
            shutil.rmtree(work, ignore_errors=True)
    _drop_empty_work_root()
    return 1 if failures else 0


def _drop_empty_work_root():
    try:
        WORK.rmdir()
    except OSError:
        pass  # another invocation is still using it


def _fresh_work(name: str) -> Path:
    work = WORK / ("%s-%d" % (name, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return work


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at tiny scale through the gate")
    args = parser.parse_args(argv)

    if not (SRC / "onionforge" / "cli.py").is_file():
        print("onionforge sources not found under %s; run from a repository checkout"
              % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gen
    # byte-compile once so the first timed run does not pay for it
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "onionforge")],
                   check=True, cwd=ROOT)
    if args.smoke:
        return smoke()
    if args.workload not in gen.WORKLOADS:
        parser.error("--workload must be one of %s" % ", ".join(gen.WORKLOADS))

    work = _fresh_work("%s-%d" % (args.workload, args.seed))
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        _drop_empty_work_root()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
