"""The traced benchmark run still finds every function it wraps.

`perfbench/tracer.py` rebinds pipeline functions by module attribute name,
and the benchmark's smoke run never loads it, so a rename in `src/` would
otherwise only show up in a `--trace 1` benchmark run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from onionforge import report

from planted import build_planted_corpus

ROOT = Path(__file__).resolve().parents[1]


def test_planted_run_under_tracer(tmp_path):
    planted = build_planted_corpus(tmp_path / "planted")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(planted.config_text(tmp_path / "out"))
    trace_file = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(trace_file),
         "run", "--config", str(cfg)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr

    doc = json.loads(trace_file.read_text())
    assert doc["exit_code"] == 0
    spans = [span[0] for span in doc["spans"]]
    assert {"stage." + name for name, _ in report.STAGES} <= set(spans)
    assert {"classify._similarity_label", "classify.build_feature_set",
            "classify.tokenize"} <= set(spans)
    # ingest writes corpus.jsonl once and hands its corpus to the later stages
    assert spans.count("corpus.write_corpus_jsonl") == 1
    assert "corpus.read_corpus_jsonl" not in spans
    # every page is scanned once, by extract, which hands its text on to classify
    assert spans.count("pagetext.page_text_and_attrs") == doc["facts"]["corpus.pages"]
    assert "pagetext.page_text" not in spans
    # and tokenized once: phase 3 and the feature set sum the phase-2 vectors
    assert spans.count("classify.tokenize") == doc["facts"]["corpus.pages"]
    # every ledger row is parsed once, by fetch-tx; cluster and report reuse its ledgers
    rows = sum(len(json.loads(p.read_text())) for p in planted.tx_fixtures.glob("*.json"))
    assert doc["counts"]["chain.parse_transaction"] == rows
    # clustering walks the distinct transactions once for both transaction phases
    assert spans.count("chain.unique_transactions") == 1
