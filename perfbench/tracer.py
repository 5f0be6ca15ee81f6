"""Span recorder for the traced benchmark run.

Run as `python3 tracer.py <trace.json> <onionforge cli args...>` with the
package on PYTHONPATH. It wraps the public functions of each pipeline module
from outside the program, runs the CLI in this process, and writes every
span (name, id, parent id, start, end) plus counters once, at exit.

Each wrapper is bound where the caller looks the name up, not where it is
defined: `report.STAGES` is a tuple captured at import, `classify` and
`extract` call `page_text` / `page_text_and_attrs` / `keccak256` through
names they imported, and `report` reaches `ingest_snapshot` and the corpus
readers the same way.

`classify.cosine`, `chain.parse_transaction` and `cluster.UnionFind.union`
get count-only wrappers: they run in a few microseconds, so a timing
wrapper would distort the very numbers it reports.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


class Recorder:
    """Spans and counters of one traced process, kept in memory until dump()."""

    def __init__(self):
        self.spans: list[list] = []     # [name, id, parent id, start, end]
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.stages: dict[str, dict] = {}
        self.facts: dict[str, int] = {}

    def timed(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, len(spans), stack[-1] if stack else None, 0.0, 0.0]
            spans.append(span)
            stack.append(span[1])
            span[3] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
        return wrapper

    def counted(self, name, fn, nonzero=False):
        """Count calls (and non-zero results), also per enclosing span name."""
        counts, spans, stack = self.counts, self.spans, self.stack
        nz_name = name + ".nonzero"

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[name] = counts.get(name, 0) + 1
            if stack:
                inner = "%s@%s" % (name, spans[stack[-1]][0])
                counts[inner] = counts.get(inner, 0) + 1
            if nonzero and result:
                counts[nz_name] = counts.get(nz_name, 0) + 1
            return result
        return wrapper

    def stage(self, name, fn):
        timed = self.timed("stage." + name, fn)

        def wrapper(cfg, out):
            cpu = time.process_time()
            try:
                return timed(cfg, out)
            finally:
                self.stages[name] = {
                    "cpu_s": time.process_time() - cpu,
                    "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                }
        return wrapper

    def dump(self, path, exit_code):
        Path(path).write_text(json.dumps({
            "exit_code": exit_code, "spans": self.spans, "counts": self.counts,
            "stages": self.stages, "facts": self.facts}))


def _tree_bytes(path) -> int:
    path = Path(path)
    if path.is_file():
        return path.stat().st_size
    if path.is_dir():
        return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())
    return 0


def install(rec: Recorder):
    from onionforge import base58, chain, classify, cluster, extract, report, trace

    timed = rec.timed
    report.STAGES = tuple((name, rec.stage(name, fn)) for name, fn in report.STAGES)
    report.run_pipeline = timed("report.run_pipeline", report.run_pipeline)

    path_digest = timed("report.path_digest", report._path_digest)

    def hashed(path):
        rec.counts["report.bytes_hashed"] = (rec.counts.get("report.bytes_hashed", 0)
                                             + _tree_bytes(path))
        return path_digest(path)
    report._path_digest = hashed

    for name in ("emit_tables", "export_graph", "read_ledgers"):
        setattr(report, name, timed("report." + name, getattr(report, name)))

    ingest = timed("corpus.ingest_snapshot", report.ingest_snapshot)

    def ingest_snapshot(root):
        corpus = ingest(root)
        rec.facts["corpus.pages"] = len(corpus)
        rec.facts["corpus.skipped"] = len(corpus.skipped)
        return corpus
    report.ingest_snapshot = ingest_snapshot
    report.write_corpus_jsonl = timed("corpus.write_corpus_jsonl", report.write_corpus_jsonl)
    report.read_corpus_jsonl = timed("corpus.read_corpus_jsonl", report.read_corpus_jsonl)

    classify.page_text = timed("pagetext.page_text", classify.page_text)
    extract.page_text_and_attrs = timed("pagetext.page_text_and_attrs",
                                        extract.page_text_and_attrs)
    for name in ("scan_page", "validate_btc", "validate_eth"):
        setattr(extract, name, timed("extract." + name, getattr(extract, name)))
    base58.b58decode = timed("base58.b58decode", base58.b58decode)
    extract.keccak256 = timed("keccak.keccak256", extract.keccak256)

    for name in ("classify_corpus", "tokenize", "build_feature_set", "_similarity_label"):
        setattr(classify, name, timed("classify." + name, getattr(classify, name)))
    classify.cosine = rec.counted("classify.cosine", classify.cosine, nonzero=True)

    for name in ("fetch_all", "estimate_income", "unique_transactions"):
        setattr(chain, name, timed("chain." + name, getattr(chain, name)))
    chain.parse_transaction = rec.counted("chain.parse_transaction", chain.parse_transaction)

    for name in ("search_all", "import_annotations"):
        setattr(trace, name, timed("trace." + name, getattr(trace, name)))

    cluster.run_clustering = timed("cluster.run_clustering", cluster.run_clustering)
    cluster.UnionFind.union = rec.counted("cluster.union", cluster.UnionFind.union)


def main(argv) -> int:
    out_path, cli_args = argv[0], argv[1:]
    rec = Recorder()
    install(rec)
    from onionforge import cli
    code = 1
    try:
        code = cli.main(cli_args)
    finally:
        rec.dump(out_path, code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
