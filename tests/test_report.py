import builtins
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
import weakref
from collections import Counter
from datetime import datetime, timedelta, timezone
from pathlib import Path
from xml.sax import saxutils

import networkx as nx
import pytest
from hypothesis import example, given, settings, strategies as st

from onionforge import chain, classify, pagetext, report
from onionforge.corpus import Corpus, read_corpus_jsonl, snapshot_signature
from onionforge.cluster import EntityGraph
from onionforge.report import (
    ARTIFACTS, STAGE_DECLS, ConfigError, PipelineConfig, StageError, export_graph,
    format_btc, parse_config, run_pipeline,
)

from planted import EXPECTED_CAMPAIGNS, NOISE, assert_same_artifacts, build_planted_corpus
from rows import illicit_of

ROOT = Path(__file__).resolve().parents[1]

# runs the pipeline of the config file argv[1] and exits with 9 at the
# second ledger file written
KILLED_IN_FETCH_TX = """
import os, sys
from onionforge import chain, report
ledger_json, written = chain.ledger_json, []
def dying(transactions):
    written.append(1)
    if len(written) == 2:
        os._exit(9)
    return ledger_json(transactions)
chain.ledger_json = dying
report.run_pipeline(report.parse_config(sys.argv[1]))
"""


@pytest.fixture(scope="module")
def planted_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("planted_run")
    planted = build_planted_corpus(tmp / "planted")
    out = tmp / "out"
    cfg_file = tmp / "run.cfg"
    cfg_file.write_text(planted.config_text(out))
    config = parse_config(cfg_file)
    run = run_pipeline(config)
    return planted, config, run, out


def age_manifest(out):
    """Move run.json's mtime a minute later, as if the clock had stepped back:
    every input is then older than the memo, so none is racily clean."""
    path = out / "run.json"
    st = path.stat()
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + 60 * 10 ** 9))


def read_inputs(out, stage):
    """The values of a stage's inputs, read back from `out` through their declarations."""
    return {name: ARTIFACTS[name].read(out / name) for name in STAGE_DECLS[stage].reads}


def report_summary(out, config=PipelineConfig()):
    """The summary the report stage computes from the artifacts in `out`."""
    return report.stage_report(config, read_inputs(out, "report"))["summary.json"]


class TestFormatBtc:
    def test_whole(self):
        assert format_btc(10 ** 8) == "1.00000000"

    def test_fraction(self):
        assert format_btc(1) == "0.00000001"
        assert format_btc(1464000000) == "14.64000000"

    def test_zero(self):
        assert format_btc(0) == "0.00000000"


class TestParseConfig:
    def test_minimal(self, tmp_path):
        (tmp_path / "c").mkdir()
        (tmp_path / "gt.jsonl").write_text("")
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "# comment\ncorpus_root = %s\nground_truth = %s\nout_dir = %s\n"
            "threshold = 0.4\n" % (tmp_path / "c", tmp_path / "gt.jsonl",
                                   tmp_path / "out"))
        cfg = parse_config(cfg_file)
        assert cfg.threshold == 0.4
        assert cfg.provider == "fixtures"

    def test_unknown_key(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("no_such_key = 1\n")
        with pytest.raises(ConfigError, match="no_such_key"):
            parse_config(cfg_file)

    @pytest.mark.parametrize("key", [k for k, v in PipelineConfig._field_defaults.items()
                                     if not isinstance(v, str)])
    def test_bad_value(self, tmp_path, key):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("%s = lots\n" % key)
        with pytest.raises(ConfigError, match=key):
            parse_config(cfg_file)

    def test_each_value_has_the_type_of_its_default(self, tmp_path):
        (tmp_path / "c").mkdir()
        (tmp_path / "gt.jsonl").write_text("")
        values = {"corpus_root": tmp_path / "c", "ground_truth": tmp_path / "gt.jsonl",
                  "out_dir": tmp_path / "out", "threshold": "1", "rate_limit": "2",
                  "public_threshold": "3", "vanity_prefix": "4", "top_n": "5",
                  "min_received": "6"}
        (tmp_path / "run.cfg").write_text("".join(
            "%s = %s\n" % (key, values.get(key, "x"))
            for key in PipelineConfig._fields if key != "provider"))
        cfg = parse_config(tmp_path / "run.cfg")
        for key, default in PipelineConfig._field_defaults.items():
            assert type(getattr(cfg, key)) is type(default), key
        assert (cfg.threshold, cfg.rate_limit, cfg.top_n, cfg.base_url) == (1.0, 2.0, 5, "x")

    def test_missing_required(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("threshold = 0.5\n")
        with pytest.raises(ConfigError, match="corpus_root"):
            parse_config(cfg_file)

    def test_readme_example(self, tmp_path, monkeypatch):
        readme = (ROOT / "README.md").read_text()
        example = readme.split("Config is a `key = value` file:\n\n```\n", 1)[1]
        (tmp_path / "run.cfg").write_text(example.split("```", 1)[0])
        monkeypatch.chdir(tmp_path)  # the example's relative paths
        (tmp_path / "captures").mkdir()
        (tmp_path / "gt.jsonl").write_text("")
        cfg = parse_config(tmp_path / "run.cfg")
        assert (cfg.corpus_root, cfg.ground_truth, cfg.provider, cfg.tx_fixtures) == (
            "captures/", "gt.jsonl", "fixtures", "fixtures/txs/")
        assert (cfg.base_url, cfg.search_base_url, cfg.rate_limit) == ("", "", 0.0)
        assert cfg.trace_annotations == "trace_ann.jsonl"

    @pytest.mark.parametrize("line, value", [
        ("out_dir = a#b", "a#b"),
        ("out_dir = a#b   # a comment", "a#b"),
        ("out_dir = a\t#b", "a"),
        ("out_dir = 'a b' # quoted", "a b"),
        ("out_dir = a # b # c", "a"),
    ])
    def test_inline_comment_follows_whitespace(self, tmp_path, line, value):
        (tmp_path / "c").mkdir()
        (tmp_path / "gt.jsonl").write_text("")
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("corpus_root = %s\nground_truth = %s\n%s\n"
                            % (tmp_path / "c", tmp_path / "gt.jsonl", line))
        assert parse_config(cfg_file).out_dir == value

    def test_http_requires_base_url(self, tmp_path):
        (tmp_path / "c").mkdir()
        (tmp_path / "gt.jsonl").write_text("")
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "corpus_root = %s\nground_truth = %s\nout_dir = %s\nprovider = http\n"
            % (tmp_path / "c", tmp_path / "gt.jsonl", tmp_path / "out"))
        with pytest.raises(ConfigError, match="base_url"):
            parse_config(cfg_file)

    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    def test_rate_limit_must_be_finite_and_non_negative(self, tmp_path, value):
        (tmp_path / "c").mkdir()
        (tmp_path / "gt.jsonl").write_text("")
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "corpus_root = %s\nground_truth = %s\nout_dir = %s\nrate_limit = %s\n"
            % (tmp_path / "c", tmp_path / "gt.jsonl", tmp_path / "out", value))
        with pytest.raises(ConfigError, match="rate_limit"):
            parse_config(cfg_file)


class TestPipeline:
    def test_campaigns_match_planted_truth(self, planted_run):
        _, _, _, out = planted_run
        doc = json.loads((out / "campaigns.json").read_text())
        got = [{k: c[k] for k in ("sites", "btc_addresses", "emails", "ips",
                                  "urls", "categories", "received")}
               for c in doc["campaigns"]]
        assert got == EXPECTED_CAMPAIGNS

    def test_resume_skips_everything(self, planted_run):
        _, config, first, out = planted_run
        assert first.executed  # first invocation did real work
        second = run_pipeline(config)
        assert second.executed == []
        assert set(second.skipped) == {name for name, _ in report.STAGES}

    def test_resume_reruns_only_missing_stage(self, tmp_path):
        planted = build_planted_corpus(tmp_path / "planted")
        out = tmp_path / "out"
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(planted.config_text(out))
        config = parse_config(cfg_file)
        run_pipeline(config)
        for p in (out / "ledgers").iterdir():
            p.unlink()
        (out / "ledgers").rmdir()
        resumed = run_pipeline(config)
        # regenerated ledgers are byte-identical, so downstream digests match
        assert resumed.executed == ["fetch-tx"]
        assert "classify" in resumed.skipped and "cluster" in resumed.skipped

    def test_changed_explorer_domains_file_reruns_trace(self, tmp_path):
        planted = build_planted_corpus(tmp_path / "planted")
        domains = tmp_path / "explorers.txt"
        domains.write_text("btc.com\nblockchair.com\n")
        cfg_text = planted.config_text(tmp_path / "out") + "explorer_domains = %s\n" % domains
        (tmp_path / "run.cfg").write_text(cfg_text)
        run_pipeline(parse_config(tmp_path / "run.cfg"))
        hits_before = (tmp_path / "out" / "hits.jsonl").read_bytes()

        domains.write_text("blockchair.com\n")  # same path, new content
        resumed = run_pipeline(parse_config(tmp_path / "run.cfg"))
        # only hits.jsonl changes; surface.jsonl, which cluster reads, does not
        assert resumed.executed == ["trace"]
        assert resumed.skipped == ["ingest", "extract", "classify", "filter",
                                   "fetch-tx", "cluster", "report"]

        (tmp_path / "fresh.cfg").write_text(cfg_text.replace(
            "out_dir = %s" % (tmp_path / "out"), "out_dir = %s" % (tmp_path / "fresh")))
        run_pipeline(parse_config(tmp_path / "fresh.cfg"))
        hits = (tmp_path / "out" / "hits.jsonl").read_bytes()
        assert hits != hits_before
        assert hits == (tmp_path / "fresh" / "hits.jsonl").read_bytes()
        assert_same_artifacts(tmp_path / "out", tmp_path / "fresh")

    def test_partial_run_keeps_digests_of_later_stages(self, tmp_path):
        planted = build_planted_corpus(tmp_path / "planted")
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(planted.config_text(tmp_path / "out"))
        config = parse_config(cfg_file)
        run_pipeline(config)
        partial = run_pipeline(config, until="extract")
        assert partial.skipped == ["ingest", "extract"]
        # nothing changed, so the stages past `until` are still up to date
        assert run_pipeline(config).executed == []

    def test_partial_run_keeps_the_memo_of_later_stages(self, tmp_path, monkeypatch):
        hashed = Counter()
        path_digest = report._path_digest
        monkeypatch.setattr(report, "_path_digest",
                            lambda path: hashed.update([str(path)]) or path_digest(path))
        planted = build_planted_corpus(tmp_path / "planted")
        out = tmp_path / "out"
        (tmp_path / "run.cfg").write_text(planted.config_text(out))
        config = parse_config(tmp_path / "run.cfg")
        run_pipeline(config)
        age_manifest(out)
        run_pipeline(config)
        hashed.clear()
        assert run_pipeline(config, until="extract").executed == []
        # the inputs of the stages past `until` keep their pairs in run.json
        assert run_pipeline(config).executed == []
        assert hashed == Counter()

    def test_input_edited_after_a_partial_run_reruns_its_stage(self, tmp_path):
        planted = build_planted_corpus(tmp_path / "planted")
        out = tmp_path / "out"
        (tmp_path / "run.cfg").write_text(planted.config_text(out))
        config = parse_config(tmp_path / "run.cfg")
        run_pipeline(config)
        age_manifest(out)
        run_pipeline(config, until="extract")
        # a same-size edit with the mtime put back: only the ctime moves
        path = planted.trace_annotations
        st = path.stat()
        path.write_text(path.read_text().replace("IllicitSite", "AbuseReport", 1))
        os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))
        assert "trace" in run_pipeline(config).executed
        run_pipeline(config._replace(out_dir=str(tmp_path / "fresh")))
        assert_same_artifacts(out, tmp_path / "fresh")

    def test_racy_pair_is_not_carried(self, tmp_path):
        planted = build_planted_corpus(tmp_path / "planted")
        out = tmp_path / "out"
        (tmp_path / "run.cfg").write_text(planted.config_text(out))
        config = parse_config(tmp_path / "run.cfg")
        run_pipeline(config)
        key = str(planted.trace_annotations)
        signature, newest = report._stat_signature(key)
        assert json.loads((out / "run.json").read_text())["inputs"][key][0] == signature
        # run.json as old as the file's last change: its pair is racily clean
        os.utime(out / "run.json", ns=(newest, newest))
        run_pipeline(config, until="extract")
        assert key not in json.loads((out / "run.json").read_text())["inputs"]
        assert run_pipeline(config).executed == []

    def test_each_page_parsed_once_and_each_input_hashed_once(self, tmp_path,
                                                              monkeypatch):
        parsed, hashed = Counter(), Counter()
        scan, path_digest = pagetext._scan, report._path_digest

        def counting_scan(html):
            parsed[html] += 1
            return scan(html)

        def counting_digest(path):
            hashed[str(path)] += 1
            return path_digest(path)
        monkeypatch.setattr(pagetext, "_scan", counting_scan)
        monkeypatch.setattr(report, "_path_digest", counting_digest)

        planted = build_planted_corpus(tmp_path / "planted")
        out = tmp_path / "out"
        (tmp_path / "run.cfg").write_text(planted.config_text(out))
        config = parse_config(tmp_path / "run.cfg")
        assert run_pipeline(config).skipped == []
        pages = read_corpus_jsonl(out / "corpus.jsonl")
        # extract's parse also serves classify, ground-truth pages included
        assert parsed == Counter(p.html for p in pages)
        assert hashed and max(hashed.values()) == 1

        hashed.clear()
        assert run_pipeline(config).executed == []
        assert max(hashed.values(), default=1) == 1  # an input left racy is hashed

        # a no-op rerun whose memo is not racy hashes nothing
        age_manifest(out)
        hashed.clear()
        assert run_pipeline(config).executed == []
        assert hashed == Counter()

    def test_each_snapshot_file_opened_once(self, tmp_path, monkeypatch):
        planted = build_planted_corpus(tmp_path / "planted")
        out = tmp_path / "out"
        (tmp_path / "run.cfg").write_text(planted.config_text(out))
        config = parse_config(tmp_path / "run.cfg")
        snapshot_files = {str(p) for p in planted.snapshot.rglob("*") if p.is_file()}
        opened, real_open = Counter(), io.open

        def counting_open(file, *args, **kwargs):
            if not isinstance(file, int) and os.fspath(file) in snapshot_files:
                opened[os.fspath(file)] += 1
            return real_open(file, *args, **kwargs)
        monkeypatch.setattr(builtins, "open", counting_open)
        monkeypatch.setattr(io, "open", counting_open)

        # the read that gives ingest its corpus also digests the snapshot
        assert run_pipeline(config).skipped == []
        assert opened == Counter(snapshot_files)
        age_manifest(out)
        opened.clear()
        assert run_pipeline(config).executed == []
        assert opened == Counter()
        # ingest runs while the snapshot's recorded pair holds: one read
        (out / "corpus.jsonl").unlink()
        assert run_pipeline(config).executed == ["ingest"]
        assert opened == Counter(snapshot_files)

    def test_snapshot_that_cannot_be_read_fails_ingest(self, tmp_path):
        planted = build_planted_corpus(tmp_path / "planted")
        (planted.snapshot / "manifest.jsonl").write_bytes(b"\xff\n")  # not UTF-8
        (tmp_path / "run.cfg").write_text(planted.config_text(tmp_path / "out"))
        with pytest.raises(StageError) as err:
            run_pipeline(parse_config(tmp_path / "run.cfg"))
        assert err.value.stage == "ingest"
        assert isinstance(err.value.cause, UnicodeDecodeError)

    def test_page_text_does_not_outlive_the_run(self, tmp_path):
        planted = build_planted_corpus(tmp_path / "planted")
        (tmp_path / "run.cfg").write_text(planted.config_text(tmp_path / "out"))
        config = parse_config(tmp_path / "run.cfg")
        run_pipeline(config, until="extract")  # classify never takes the text
        planted.ground_truth.write_text(
            '{"domain": "missing.onion", "path": "/", "category": "Drugs"}\n')
        (tmp_path / "out" / "addresses.jsonl").unlink()
        with pytest.raises(StageError) as err:
            run_pipeline(config)  # extract runs again, then classify fails
        assert err.value.stage == "classify"

    def test_page_texts_reach_only_the_next_stage(self, tmp_path, monkeypatch):
        class Texts(list):
            """A list that a weak reference can watch."""
        keys, texts = {}, []

        def recording(name, fn):
            def stage_fn(cfg, inputs):
                keys[name] = set(inputs)
                outputs = fn(cfg, inputs)
                if "page_texts" in outputs:
                    outputs["page_texts"] = Texts(outputs["page_texts"])
                    texts.append(weakref.ref(outputs["page_texts"]))
                return outputs
            return stage_fn
        monkeypatch.setattr(report, "STAGES", tuple(
            (name, recording(name, fn)) for name, fn in report.STAGES))
        planted = build_planted_corpus(tmp_path / "planted")
        out = tmp_path / "out"
        (tmp_path / "run.cfg").write_text(planted.config_text(out))
        config = parse_config(tmp_path / "run.cfg")

        assert run_pipeline(config).skipped == []
        assert [name for name in keys if "page_texts" in keys[name]] == ["classify"]
        assert len(texts) == 1 and texts[0]() is None

        # extract runs again and classify is skipped: filter, next to run, gets no texts
        keys.clear()
        texts.clear()
        (out / "addresses.jsonl").unlink()
        (out / "illicit.jsonl").unlink()
        run = run_pipeline(config)
        assert run.executed[:2] == ["extract", "filter"] and "classify" in run.skipped
        assert not any("page_texts" in keys[name] for name in keys)
        assert len(texts) == 1 and texts[0]() is None

        # a run that ends with extract drops them too
        texts.clear()
        (out / "addresses.jsonl").unlink()
        assert run_pipeline(config, until="extract").executed == ["extract"]
        assert len(texts) == 1 and texts[0]() is None

    def test_stopwords_edit_scans_each_classified_page_once(self, tmp_path, monkeypatch):
        planted = build_planted_corpus(tmp_path / "planted")
        stopwords = tmp_path / "stopwords.txt"
        shutil.copy(Path(classify.__file__).parent / "data" / "stopwords.txt", stopwords)
        out = tmp_path / "out"
        (tmp_path / "run.cfg").write_text(
            planted.config_text(out) + "stopwords = %s\n" % stopwords)
        config = parse_config(tmp_path / "run.cfg")
        assert run_pipeline(config).skipped == []

        parsed, scan = Counter(), pagetext._scan
        monkeypatch.setattr(pagetext, "_scan", lambda html: parsed.update([html]) or scan(html))
        with open(stopwords, "a") as fh:
            fh.write("bitcoin\n")
        run = run_pipeline(config)
        assert run.skipped[:2] == ["ingest", "extract"] and run.executed[0] == "classify"
        # classify scans the ground-truth pages and the pages of every other site
        pages = read_corpus_jsonl(out / "corpus.jsonl")
        gt = classify.load_ground_truth(planted.ground_truth, pages)
        gt_domains = {page.domain for page, _ in gt}
        classified = {id(page): page for page, cat in gt if cat != classify.OTHER}
        classified.update((id(page), page) for page in pages if page.domain not in gt_domains)
        assert parsed == Counter(page.html for page in classified.values())

        fresh = tmp_path / "fresh"
        run_pipeline(config._replace(out_dir=str(fresh)))
        assert (out / "labels.jsonl").read_bytes() == (fresh / "labels.jsonl").read_bytes()

    def test_each_ledger_row_parsed_once(self, tmp_path, monkeypatch):
        parsed = []
        parse_transaction = chain.parse_transaction
        monkeypatch.setattr(chain, "parse_transaction",
                            lambda row: parsed.append(row) or parse_transaction(row))
        planted = build_planted_corpus(tmp_path / "planted")
        out = tmp_path / "out"
        (tmp_path / "run.cfg").write_text(planted.config_text(out))
        config = parse_config(tmp_path / "run.cfg")
        assert run_pipeline(config).skipped == []
        fixture_rows = [row for path in sorted(planted.tx_fixtures.glob("*.json"))
                        for row in json.loads(path.read_text())]
        # fetch-tx parses the fixtures; cluster and report take what it fetched
        assert sorted(map(json.dumps, parsed)) == sorted(map(json.dumps, fixture_rows))

        # a run that skips fetch-tx parses each written ledger once
        (out / "campaigns.json").unlink()
        (out / "summary.json").unlink()
        parsed.clear()
        assert run_pipeline(config).executed == ["cluster", "report"]
        assert len(parsed) == sum(len(json.loads(p.read_text()))
                                  for p in (out / "ledgers").glob("*.json"))

    @pytest.mark.parametrize("stage", list(STAGE_DECLS))
    def test_each_reader_called_at_most_once(self, tmp_path, monkeypatch, stage):
        read = []
        for name, artifact in list(ARTIFACTS.items()):
            if artifact.read is not None:
                monkeypatch.setitem(ARTIFACTS, name, artifact._replace(
                    read=lambda path, name=name, fn=artifact.read:
                    read.append(name) or fn(path)))
        planted = build_planted_corpus(tmp_path / "planted")
        out = tmp_path / "out"
        (tmp_path / "run.cfg").write_text(planted.config_text(out))
        config = parse_config(tmp_path / "run.cfg")
        # each stage takes what the earlier stages of the run made
        assert run_pipeline(config).skipped == []
        assert read == []
        assert run_pipeline(config).executed == []
        assert read == []

        # a resumed run reads each input of a stage it skipped once, also when
        # two stages take it: without summary.json, report runs as well
        for name in set(STAGE_DECLS[stage].writes) | {"summary.json"}:
            path = out / name
            shutil.rmtree(path) if path.is_dir() else path.unlink()
        resumed = run_pipeline(config)
        assert resumed.executed[0] == stage and resumed.executed[-1] == "report"
        written = {a for s in resumed.executed for a in STAGE_DECLS[s].writes}
        assert sorted(read) == sorted({a for s in resumed.executed
                                       for a in STAGE_DECLS[s].reads if a not in written})
        fresh = tmp_path / "fresh"
        run_pipeline(config._replace(out_dir=str(fresh)))
        assert_same_artifacts(out, fresh)

    def test_copied_out_dir_skips_everything(self, planted_run, tmp_path):
        _, config, _, planted_out = planted_run
        out = tmp_path / "moved" / "out"
        shutil.copytree(planted_out, out)
        run = run_pipeline(config._replace(out_dir=str(out)))
        assert run.executed == []
        assert_same_artifacts(out, planted_out)

    @pytest.mark.parametrize("manifest", ["[]", "null", '{"stages": []}', '{"stages": null}'])
    def test_misshapen_manifest_counts_as_none(self, planted_run, tmp_path, manifest):
        _, config, _, planted_out = planted_run
        out = tmp_path / "out"
        shutil.copytree(planted_out, out)
        (out / "run.json").write_text(manifest)
        run = run_pipeline(config._replace(out_dir=str(out)))
        assert run.executed == list(STAGE_DECLS)
        assert_same_artifacts(out, planted_out)

    @pytest.mark.parametrize("memo", [5, [], "entries"])
    def test_misshapen_input_memo_counts_as_empty(self, tmp_path, monkeypatch, memo):
        planted = build_planted_corpus(tmp_path / "planted")
        out = tmp_path / "out"
        (tmp_path / "run.cfg").write_text(planted.config_text(out))
        config = parse_config(tmp_path / "run.cfg")
        run_pipeline(config)
        manifest = json.loads((out / "run.json").read_text())
        if memo == "entries":  # each entry of another shape than a pair of strings
            shapes = [lambda pair: pair[:1], lambda pair: [pair[0], 5], lambda pair: 5,
                      lambda pair: pair + pair, lambda pair: dict([pair])]
            memo = {path: shapes[i % len(shapes)](pair)
                    for i, (path, pair) in enumerate(sorted(manifest["inputs"].items()))}
        manifest["inputs"] = memo
        (out / "run.json").write_text(json.dumps(manifest))
        age_manifest(out)

        # each input is read once to digest it, the snapshot by ingest's walk
        hashed, path_digest, ingest = [], report._path_digest, report.ingest_snapshot
        monkeypatch.setattr(report, "_path_digest",
                            lambda path: hashed.append(str(path)) or path_digest(path))
        monkeypatch.setattr(report, "ingest_snapshot",
                            lambda root: hashed.append(str(root)) or ingest(root))
        assert run_pipeline(config).executed == []
        assert sorted(hashed) == sorted({str(path) for decl in STAGE_DECLS.values()
                                         for _, path in decl.inputs(config, out)})

    def test_interrupted_manifest_write_keeps_the_last_manifest(self, tmp_path, monkeypatch):
        planted = build_planted_corpus(tmp_path / "planted")
        out = tmp_path / "out"
        (tmp_path / "run.cfg").write_text(planted.config_text(out))
        config = parse_config(tmp_path / "run.cfg")
        run_pipeline(config)

        def torn(path, doc):  # the process dies halfway through the write
            Path(path).write_text(json.dumps(doc)[:40])
            raise KeyboardInterrupt
        monkeypatch.setattr(report, "write_json", torn)
        with pytest.raises(KeyboardInterrupt):
            run_pipeline(config)
        monkeypatch.undo()
        assert run_pipeline(config).executed == []
        assert not (out / "run.json.tmp").exists()

    def test_kill_during_fetch_tx_leaves_it_unrecorded(self, tmp_path):
        planted = build_planted_corpus(tmp_path / "planted")
        out = tmp_path / "out"
        (tmp_path / "run.cfg").write_text(planted.config_text(out))
        config = parse_config(tmp_path / "run.cfg")
        run_pipeline(config)
        ledger_files = len(list((out / "ledgers").glob("*.json")))
        shutil.rmtree(out / "ledgers")

        # the process dies while fetch-tx writes its second ledger file
        killed = subprocess.run([sys.executable, "-c", KILLED_IN_FETCH_TX,
                                 str(tmp_path / "run.cfg")],
                                env=dict(os.environ, PYTHONPATH=os.pathsep.join(
                                    [str(ROOT / "src")] + [p for p in [
                                        os.environ.get("PYTHONPATH")] if p])),
                                capture_output=True, text=True, timeout=120)
        assert killed.returncode == 9, killed.stderr
        assert 0 < len(list((out / "ledgers").glob("*.json"))) < ledger_files

        resumed = run_pipeline(config)
        assert "fetch-tx" in resumed.executed
        fresh = tmp_path / "fresh"
        run_pipeline(config._replace(out_dir=str(fresh)))
        assert_same_artifacts(out, fresh)

    def test_edited_ledger_changes_the_tables(self, tmp_path):
        planted = build_planted_corpus(tmp_path / "planted")
        out = tmp_path / "out"
        (tmp_path / "run.cfg").write_text(planted.config_text(out))
        run_pipeline(parse_config(tmp_path / "run.cfg"))
        before = json.loads((out / "summary.json").read_text())
        assert report_summary(out) == before

        top = json.loads((out / "tables" / "top_addresses.json").read_text())["rows"][0]
        (out / "ledgers" / (top["address"] + ".json")).write_text("[]\n")
        after = report_summary(out)
        assert after["income_satoshi"] == before["income_satoshi"] - top["received_satoshi"]

    def test_rerun_fetch_tx_leaves_no_stale_ledgers(self, tmp_path):
        planted = build_planted_corpus(tmp_path / "planted")
        cfg_text = planted.config_text(tmp_path / "out") + "min_received = 1000000000000\n"
        (tmp_path / "run.cfg").write_text(cfg_text)
        first = run_pipeline(parse_config(tmp_path / "run.cfg"))
        assert "fetch-tx" in first.executed
        ledgers_before = len(list((tmp_path / "out" / "ledgers").glob("*.json")))

        # a stricter threshold labels fewer sites, so fewer addresses are illicit
        cfg_text = cfg_text.replace("threshold = 0.5", "threshold = 1.0")
        (tmp_path / "run.cfg").write_text(cfg_text)
        resumed = run_pipeline(parse_config(tmp_path / "run.cfg"))
        assert "fetch-tx" in resumed.executed

        (tmp_path / "fresh.cfg").write_text(cfg_text.replace(
            "out_dir = %s" % (tmp_path / "out"), "out_dir = %s" % (tmp_path / "fresh")))
        run_pipeline(parse_config(tmp_path / "fresh.cfg"))
        ledgers_after = len(list((tmp_path / "fresh" / "ledgers").glob("*.json")))
        assert ledgers_after < ledgers_before
        assert_same_artifacts(tmp_path / "out", tmp_path / "fresh")

    def test_stage_failure_names_stage_and_keeps_partials(self, tmp_path):
        planted = build_planted_corpus(tmp_path / "planted")
        out = tmp_path / "out"
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(planted.config_text(out))
        planted.ground_truth.write_text(
            '{"domain": "missing.onion", "path": "/", "category": "Drugs"}\n')
        config = parse_config(cfg_file)
        with pytest.raises(StageError) as err:
            run_pipeline(config)
        assert err.value.stage == "classify"
        assert (out / "corpus.jsonl").exists()       # earlier stages kept
        assert (out / "addresses.jsonl").exists()
        assert not (out / "labels.jsonl").exists()

    def test_illicit_label_that_is_no_category_fails_cluster(self, tmp_path):
        planted = build_planted_corpus(tmp_path / "planted")
        out = tmp_path / "out"
        (tmp_path / "run.cfg").write_text(planted.config_text(out))
        config = parse_config(tmp_path / "run.cfg")
        run_pipeline(config)
        path = out / "illicit.jsonl"
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        rows[0]["categories"] = ["Jaywalking"]
        path.write_text("".join(json.dumps(row, sort_keys=True) + "\n" for row in rows))
        with pytest.raises(StageError) as err:
            run_pipeline(config)  # filter is skipped: its inputs are unchanged
        assert err.value.stage == "cluster"
        assert "Jaywalking" in str(err.value)

    def test_hand_edited_label_alias_names_its_category(self, tmp_path):
        planted = build_planted_corpus(tmp_path / "planted")
        out = tmp_path / "out"
        (tmp_path / "run.cfg").write_text(planted.config_text(out))
        config = parse_config(tmp_path / "run.cfg")
        run_pipeline(config)
        before = {p: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
        path = out / "labels.jsonl"
        path.write_text(path.read_text().replace('"CloneCard"', '"clone card"'))
        resumed = run_pipeline(config)
        assert resumed.executed == ["filter", "cluster", "report"]
        after = {p: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
        assert after.keys() == before.keys()
        assert [p.name for p in before if before[p] != after[p]] == ["labels.jsonl", "run.json"]

    def test_invalid_config_fails_before_stages(self, tmp_path):
        cfg = PipelineConfig(corpus_root=str(tmp_path / "absent"),
                             ground_truth="x", out_dir=str(tmp_path / "out"))
        with pytest.raises(ConfigError):
            run_pipeline(cfg)
        assert not (tmp_path / "out").exists()


# input -> the edits to it that a rerun must notice; the snapshot edits touch
# the noise site, which no ground-truth row names
EDITS = {"file": ("same-size", "append", "replace", "retarget"),
         "snapshot": ("same-size", "append", "delete", "add", "rename", "retarget",
                      "linked-site", "touch-unlisted")}
READER = {"file": "trace", "snapshot": "ingest"}


def edit_bytes(path, kind, at):
    """Change the file's bytes: one byte at `at` with the mtime kept, or an append."""
    data = bytearray(path.read_bytes())
    if kind == "append":
        path.write_bytes(bytes(data) + b"<p>more.example</p>\n")
        return
    st = path.stat()
    at %= len(data)
    data[at] = ord("x") if data[at] != ord("x") else ord("y")
    path.write_bytes(bytes(data))
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))


class TestInputMemo:
    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([(i, e) for i, edits in EDITS.items() for e in edits]),
           st.integers(0, 10 ** 6), st.booleans())
    @example(("snapshot", "linked-site"), 0, True)
    @example(("snapshot", "touch-unlisted"), 0, True)
    def test_edited_input_reruns_its_stage(self, edit, at, aged):
        target, kind = edit
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            planted = build_planted_corpus(tmp / "planted")
            for name in ("a", "b"):  # symlink targets, outside the snapshot
                (tmp / ("explorers." + name)).write_text("btc.com\n%s.example\n" % name)
                (tmp / ("page." + name)).write_text("<p>%s.example</p>" % name)
            explorers, site = tmp / "explorers", planted.snapshot / NOISE
            page, link = site / "index.html", (explorers if target == "file"
                                               else site / "%2Flink.html")
            if kind == "retarget":
                os.symlink(tmp / ("explorers.a" if target == "file" else "page.a"), link)
            elif kind == "linked-site":  # the site lives outside the snapshot, linked in
                os.replace(site, tmp / "site")
                os.symlink(tmp / "site", site)
            elif kind == "touch-unlisted":  # no manifest line: the mtime is fetched_at
                manifest = planted.snapshot / "manifest.jsonl"
                manifest.write_text("".join(line for line in manifest.read_text().splitlines(True)
                                            if NOISE not in line))
            if not explorers.exists():
                shutil.copy(tmp / "explorers.a", explorers)
            cfg_text = planted.config_text(tmp / "out") + "explorer_domains = %s\n" % explorers
            (tmp / "run.cfg").write_text(cfg_text)
            config = parse_config(tmp / "run.cfg")
            run_pipeline(config)
            if aged:
                age_manifest(tmp / "out")

            edited = explorers if target == "file" else page
            if kind in ("same-size", "append"):
                edit_bytes(edited, kind, at)
            elif kind == "linked-site":
                edit_bytes(edited, "same-size", at)
            elif kind == "touch-unlisted":  # three days back, the bytes kept
                st = page.stat()
                os.utime(page, ns=(st.st_atime_ns, st.st_mtime_ns - 3 * 86400 * 10 ** 9))
            elif kind == "replace":
                os.replace(tmp / "explorers.b", explorers)
            elif kind == "retarget":
                link.unlink()
                os.symlink(tmp / ("explorers.b" if target == "file" else "page.b"), link)
            elif kind == "delete":
                page.unlink()
            elif kind == "add":
                (site / "%2Fnew.html").write_text("<p>new.example</p>")
            else:
                page.rename(site / "%2Frenamed.html")
            assert READER[target] in run_pipeline(config).executed

            fresh = config._replace(out_dir=str(tmp / "fresh"))
            run_pipeline(fresh)
            assert_same_artifacts(tmp / "out", tmp / "fresh")

    def test_input_edited_after_its_digest_reruns_its_stage(self, tmp_path, monkeypatch):
        planted = build_planted_corpus(tmp_path / "planted")
        out = tmp_path / "out"
        (tmp_path / "run.cfg").write_text(planted.config_text(out))
        config = parse_config(tmp_path / "run.cfg")
        trace_stage = dict(report.STAGES)["trace"]

        def edit_then_trace(cfg, inputs):  # ingest has read the snapshot by now
            with open(planted.snapshot / NOISE / "index.html", "ab") as fh:
                fh.write(b"<p>late.example</p>")
            return trace_stage(cfg, inputs)
        monkeypatch.setattr(report, "STAGES", tuple(
            (name, edit_then_trace if name == "trace" else fn) for name, fn in report.STAGES))
        run_pipeline(config)
        monkeypatch.undo()
        age_manifest(out)

        assert "ingest" in run_pipeline(config).executed
        run_pipeline(config._replace(out_dir=str(tmp_path / "fresh")))
        assert_same_artifacts(out, tmp_path / "fresh")

    def test_input_edited_while_hashed_reruns_its_stage(self, tmp_path, monkeypatch):
        planted = build_planted_corpus(tmp_path / "planted")
        out = tmp_path / "out"
        (tmp_path / "run.cfg").write_text(planted.config_text(out))
        config = parse_config(tmp_path / "run.cfg")
        page, real_open = planted.snapshot / NOISE / "index.html", io.open

        def edit_after_reading(file, mode="r", *args, **kwargs):
            if isinstance(file, int) or os.fspath(file) != str(page):
                return real_open(file, mode, *args, **kwargs)
            with real_open(file, mode, *args, **kwargs) as fh:
                data = fh.read()
            # the edit lands right after the page is read, before the run records it
            with real_open(page, "ab") as fh:
                fh.write(b"<p>late.example</p>")
            return io.BytesIO(data)
        monkeypatch.setattr(builtins, "open", edit_after_reading)
        monkeypatch.setattr(io, "open", edit_after_reading)
        run_pipeline(config)
        monkeypatch.undo()
        age_manifest(out)

        assert "ingest" in run_pipeline(config).executed
        run_pipeline(config._replace(out_dir=str(tmp_path / "fresh")))
        assert_same_artifacts(out, tmp_path / "fresh")


TXIDS = ["%064x" % n for n in range(4)]  # few, so a ledger repeats txids
ADDRESSES = ["a1", "b.2", "é3"]

# every timestamp form `parse_transaction` reads: int and float epoch seconds,
# ISO 8601 with "Z", with an offset, and naive
datetimes = st.datetimes(min_value=datetime(1971, 1, 1), max_value=datetime(2100, 1, 1))
timestamps = st.one_of(
    st.integers(0, 4 * 10 ** 9),
    st.floats(0, 4 * 10 ** 9),
    datetimes.map(lambda d: d.isoformat() + "Z"),
    st.builds(lambda d, minutes: d.replace(tzinfo=timezone(timedelta(minutes=minutes)))
              .isoformat(), datetimes, st.integers(-23 * 60, 23 * 60)),
    datetimes.map(datetime.isoformat),
)


@st.composite
def fixture_row(draw):
    value = draw(st.integers(0, 10 ** 9))
    row = {"txid": draw(st.sampled_from(TXIDS)), "timestamp": draw(timestamps),
           "outputs": [{"address": draw(st.sampled_from(ADDRESSES)), "value": value}]}
    if draw(st.booleans()):
        row.update(coinbase=True, inputs=[])
    else:  # sometimes spent by a fixture address, so some ledgers overdraw
        row["inputs"] = [{"address": draw(st.sampled_from(ADDRESSES + ["ext"])),
                          "value": value}]
    return row


class TestLedgerStore:
    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(st.sampled_from(ADDRESSES), st.lists(fixture_row(), max_size=5)))
    def test_fetched_ledgers_equal_the_written_ones_read_back(self, fixtures):
        with tempfile.TemporaryDirectory() as tmp:
            txs, out = Path(tmp) / "txs", Path(tmp) / "out"
            txs.mkdir()
            out.mkdir()
            for address, rows in fixtures.items():
                (txs / (address + ".json")).write_text(json.dumps(rows))
            illicit = illicit_of(*((address, "s.onion", "Drugs") for address in ADDRESSES))

            fetched, _ = chain.fetch_all(ADDRESSES, chain.FixtureExplorer(txs))
            shared = report.stage_fetch_tx(PipelineConfig(tx_fixtures=str(txs)),
                                           {"illicit.jsonl": illicit})["ledgers"]
            ARTIFACTS["ledgers"].write(out / "ledgers", shared)
            assert shared == fetched == report.read_ledgers(out / "ledgers")
            assert shared.failures == report.read_ledgers(out / "ledgers").failures


def reference_path_digest(path) -> str:
    """`report._path_digest` as it was when it read each file whole."""
    path = Path(path)
    h = hashlib.sha256()
    if path.is_file():
        h.update(path.name.encode())
        h.update(path.read_bytes())
    elif path.is_dir():
        for sub in sorted(path.rglob("*")):
            if sub.is_file():
                h.update(str(sub.relative_to(path)).encode())
                h.update(sub.read_bytes())
    else:
        h.update(b"<absent>")
    return h.hexdigest()


# "a/b" sorts before "a.x" by name at each level, though "." < "/" as text
TREE_NAMES = ("a", "a.x", "b", ".h", "a-b", "B")


class TestPathDigest:
    def test_same_digest_as_hashing_whole_files(self, tmp_path):
        tree = tmp_path / "tree"
        (tree / "sub").mkdir(parents=True)
        big = tree / "big.bin"
        big.write_bytes(bytes(range(256)) * (3 * report._HASH_CHUNK // 256) + b"tail")
        (tree / "sub" / "small.json").write_text("[]\n")
        (tree / "empty").write_bytes(b"")
        for path in (big, tree / "empty", tree, tmp_path / "absent"):
            assert report._path_digest(path) == reference_path_digest(path)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.sampled_from(TREE_NAMES), min_size=1, max_size=3),
                    max_size=8),
           st.lists(st.tuples(st.sampled_from(TREE_NAMES),
                              st.sampled_from(["a", "a/b", "a.x", "missing", "."])),
                    max_size=3))
    def test_walk_order_and_symlinks_match_sorted_rglob(self, paths, links):
        with tempfile.TemporaryDirectory() as tmp:
            tree = Path(tmp) / "tree"
            tree.mkdir()
            for parts in paths:
                target = tree.joinpath(*parts)
                parents = [tree.joinpath(*parts[:i]) for i in range(1, len(parts))]
                if target.exists() or any(p.is_file() for p in parents):
                    continue
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_text("/".join(parts))
            for name, to in links:  # "." links to itself, a loop
                if not os.path.lexists(tree / name):
                    os.symlink(name if to == "." else to, tree / name)
            assert report._path_digest(tree) == reference_path_digest(tree)


def reference_stat_signature(tree) -> str:
    """`report._stat_signature` of a directory, from a list of every file's stat."""
    stats = [(str(p.relative_to(tree)), p.stat()) for p in sorted(tree.rglob("*"))
             if p.is_file()]
    h = hashlib.sha256()
    for name, s in stats:
        h.update(b"%s\0%d %d %d %d %d\n" % (name.encode(), s.st_size, s.st_mtime_ns,
                                            s.st_ctime_ns, s.st_ino, s.st_dev))
    return h.hexdigest()


BASE32 = "abcdefghijklmnopqrstuvwxyz234567"


class TestStatSignature:
    # an input's walk and the snapshot's stat-only walk, which a no-op rerun takes
    @pytest.mark.parametrize("signature_of", [report._stat_signature, snapshot_signature],
                             ids=["input", "snapshot"])
    def test_streams_the_walk(self, tmp_path, signature_of):
        tree = tmp_path / "tree"
        for d in range(400):  # 400 sites of 8 pages, every file one the snapshot walk takes
            sub = tree / ("site%s%s%s.onion" % (BASE32[d // 32], BASE32[d % 32], "a" * 10))
            sub.mkdir(parents=True)
            for f in range(8):
                (sub / ("f%d.html" % f)).write_bytes(b"x" * f)
        tracemalloc.start()
        try:
            signature, _ = signature_of(tree)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert signature == reference_stat_signature(tree)
        # a list of 3,200 (name, stat_result) pairs alone takes about 2 MiB
        assert peak < 512 * 1024


# "B...B.ONION" is the site "b...b.onion" again: its directory walks before
# "a...a.onion", so the raw walk order is not domain order
ONIONS = ("a" * 16 + ".onion", "b" * 56 + ".onion", "A" * 16 + ".ONION", "B" * 56 + ".ONION")
# file name order differs from path order: "%2Fz.html" (/z) sorts before
# "index.html" (/), and "%2F.html" is "/" again, so the later file wins
PAGE_FILES = ("index.html", "%2F.html", "%2Fz.html", "%2F%2F.html", "%2Fa%20b.html",
              "%7E.html", "A.html", "_.html", "z.html")


@st.composite
def snapshot_tree(draw):
    files = draw(st.dictionaries(
        st.tuples(st.sampled_from(ONIONS), st.sampled_from(PAGE_FILES)),
        st.binary(min_size=1, max_size=40), max_size=12))
    manifest = draw(st.dictionaries(
        st.tuples(st.sampled_from(ONIONS), st.sampled_from(["/", "/z", "//", "~"])),
        st.builds(lambda d, minutes: d.replace(tzinfo=timezone(timedelta(minutes=minutes)))
                  .isoformat(),
                  st.datetimes(min_value=datetime(2000, 1, 1), max_value=datetime(2030, 1, 1)),
                  st.integers(-23 * 60, 23 * 60)),
        max_size=4))
    return files, manifest


class TestCorpusMemo:
    @settings(max_examples=100, deadline=None)
    @given(snapshot_tree())
    def test_ingested_corpus_equals_the_file_read_back(self, tree):
        files, manifest = tree
        with tempfile.TemporaryDirectory() as tmp:
            root, out = Path(tmp) / "snap", Path(tmp) / "out"
            root.mkdir()
            out.mkdir()
            for (domain, name), html in files.items():
                (root / domain).mkdir(exist_ok=True)
                (root / domain / name).write_bytes(html)
            (root / "manifest.jsonl").write_text("".join(
                json.dumps({"domain": d, "path": p, "fetched_at": t}) + "\n"
                for (d, p), t in manifest.items()))
            shared = report.stage_ingest(PipelineConfig(corpus_root=str(root)),
                                         {})["corpus.jsonl"]
            # the read's signature is the one a no-op rerun's stat-only walk takes
            assert shared.pair[0] == snapshot_signature(root)[0]
            ARTIFACTS["corpus.jsonl"].write(out / "corpus.jsonl", shared)
            read_back = read_corpus_jsonl(out / "corpus.jsonl")

        def pages(corpus):
            return [(p.domain, p.path, p.html, p.fetched_at.isoformat()) for p in corpus]
        assert pages(shared) == pages(read_back)
        assert [page[:2] for page in pages(shared)] == sorted(page[:2] for page in pages(shared))


@pytest.fixture(scope="module")
def handed_on(tmp_path_factory):
    """The out dir of a fresh planted run, and the value of each artifact as
    the run handed it on in memory."""
    tmp = tmp_path_factory.mktemp("handed_on")
    planted = build_planted_corpus(tmp / "planted")
    (tmp / "run.cfg").write_text(planted.config_text(tmp / "out"))
    values = {}

    def recording(name, write):
        def record(path, value):
            values[name] = value
            write(path, value)
        return record
    with pytest.MonkeyPatch.context() as mp:
        for name, artifact in list(ARTIFACTS.items()):
            mp.setitem(ARTIFACTS, name,
                       artifact._replace(write=recording(name, artifact.write)))
        run_pipeline(parse_config(tmp / "run.cfg"))
    return tmp / "out", values


def comparable(name, value):
    """An artifact's value in a form whose `==` also compares what a plain
    `==` of it skips: the corpus's page order and time zones, the ledger
    failures and the address order of the illicit set."""
    if name == "corpus.jsonl":
        return [(p.domain, p.path, p.html, p.fetched_at.isoformat()) for p in value]
    if name == "ledgers":
        return value, value.failures
    if name == "illicit.jsonl":
        return list(value.items())
    return value


class TestRoundTrip:
    @pytest.mark.parametrize("name", [n for n, a in ARTIFACTS.items() if a.read])
    def test_value_handed_on_equals_the_file_read_back(self, handed_on, name):
        # what a resumed run reads back is what a fresh run hands on in memory
        out, values = handed_on
        assert comparable(name, values[name]) == comparable(name, ARTIFACTS[name].read(out / name))


class TestTables:
    def test_all_category_rows_present(self, planted_run):
        _, _, _, out = planted_run
        doc = json.loads((out / "tables" / "classification.json").read_text())
        names = [r["category"] for r in doc["rows"]]
        assert len(names) == 14  # 12 categories + Other + Total
        assert names[-1] == "Total"
        assert "Other" in names

    def test_totals_are_column_sums(self, planted_run):
        _, _, _, out = planted_run
        doc = json.loads((out / "tables" / "classification.json").read_text())
        rows, total = doc["rows"][:-1], doc["rows"][-1]
        for col in ("onions", "pages", "btc_addresses", "illicit_btc_addresses"):
            assert total[col] == sum(r[col] for r in rows)

    def test_top_addresses_sorted_desc(self, planted_run):
        _, _, _, out = planted_run
        doc = json.loads((out / "tables" / "top_addresses.json").read_text())
        received = [r["received_satoshi"] for r in doc["rows"]]
        assert received == sorted(received, reverse=True)
        assert doc["rows"][0]["received_btc"] == "1.50000000"

    def test_hand_counted_planted_rows(self, planted_run):
        _, _, _, out = planted_run
        doc = json.loads((out / "tables" / "classification.json").read_text())
        rows = {r["category"]: r for r in doc["rows"]}
        # by construction: two campaign sites + one ground-truth template site;
        # four pages (one site has a forum page); three extracted addresses
        # (payment pair + the forum-zone one), two retained after filtering
        assert rows["CloneCard"] == {"category": "CloneCard", "onions": 3,
                                     "pages": 4, "btc_addresses": 3,
                                     "illicit_btc_addresses": 2}
        # the mixed-label ground-truth site plus the Shop template site
        assert rows["Shop"]["onions"] == 2 and rows["Shop"]["pages"] == 3
        assert rows["Other"]["onions"] == 1  # the noise site

    def test_empty_artifacts_give_all_zero_tables(self, tmp_path):
        # an empty (but complete) stage output set must not crash reporting
        for name in ("corpus.jsonl", "labels.jsonl", "addresses.jsonl",
                     "illicit.jsonl"):
            (tmp_path / name).write_text("")
        (tmp_path / "ledgers").mkdir()
        (tmp_path / "ledgers" / "_index.jsonl").write_text("")
        (tmp_path / "campaigns.json").write_text('{"v": 1, "campaigns": []}\n')
        (tmp_path / "phase_trace.json").write_text('{"v": 1, "phases": []}\n')
        (tmp_path / "vanity.json").write_text('{"v": 1, "groups": []}\n')
        (tmp_path / "entity_graph.json").write_text('{"v": 1, "nodes": {}, "edges": []}\n')
        outputs = report.stage_report(PipelineConfig(), read_inputs(tmp_path, "report"))
        ARTIFACTS["tables"].write(tmp_path / "tables", outputs["tables"])
        summary = outputs["summary.json"]
        assert summary["sites_total"] == 0
        assert summary["income_satoshi"] == 0
        assert summary["campaigns"] == 0
        doc = json.loads((tmp_path / "tables" / "classification.json").read_text())
        assert len(doc["rows"]) == 14
        for row in doc["rows"]:
            assert row["onions"] == 0 and row["pages"] == 0

    def test_incoming_transactions_count_the_external_payments(self):
        # A is paid by two outside transactions, one of them through two
        # outputs, and once by B, an illicit address: that payment is internal
        def paying(n, source, values):
            return chain.Transaction("%064x" % n, datetime(2020, 1, n, tzinfo=timezone.utc),
                                     (chain.TxIO(source, sum(values)),),
                                     tuple(chain.TxIO("A", v) for v in values))
        ledger = chain.ledger("A", [
            paying(1, "ext", [10, 20]), paying(2, "ext", [5]), paying(3, "B", [7])])
        inputs = {"corpus.jsonl": Corpus(), "labels.jsonl": [], "addresses.jsonl": [],
                  "illicit.jsonl": illicit_of(("A", "s.onion", "Drugs"),
                                              ("B", "t.onion", "Drugs")),
                  "ledgers": report.Ledgers({"A": ledger}),
                  "campaigns.json": {"campaigns": []}, "phase_trace.json": {"phases": []},
                  "vanity.json": {"groups": []}}
        tables, _ = report.emit_tables(inputs)
        _, rows = tables["top_addresses"]
        assert [(r["address"], r["incoming_transactions"], r["received_satoshi"])
                for r in rows] == [("A", 2, 35)]

    def test_eth_rows_emitted(self, tmp_path):
        from datetime import datetime, timezone
        from onionforge.corpus import PageRecord, onion_name
        eth = "0x" + "ab" * 20
        corpus = Corpus([PageRecord(
            domain=onion_name("ethpageaaaaaaaaa.onion"), path="/",
            html=("<p>send %s</p>" % eth).encode(),
            fetched_at=datetime(2022, 3, 1, tzinfo=timezone.utc))])
        rows = report.stage_extract(PipelineConfig(), {"corpus.jsonl": corpus})["addresses.jsonl"]
        assert rows == [{"v": 1, "domain": "ethpageaaaaaaaaa.onion", "path": "/",
                         "kind": "eth", "value": eth, "valid": True}]

    def test_extract_rows_equal_per_page_scans_and_hash_each_body_once(self, planted_run,
                                                                       monkeypatch):
        from onionforge import extract
        from onionforge.corpus import PageRecord
        from onionforge.keccak import keccak256_batch
        _, config, _, out = planted_run
        planted = read_inputs(out, "extract")["corpus.jsonl"]
        valid = "0x5aAeb6053F3E94C9b9A09f33669435E7Ef1BeAed"  # EIP-55 reference vectors
        other = "fB6916095ca1df60bB79Ce92cE3Ea74c37c5d359"
        flipped = valid[:3] + valid[3].swapcase() + valid[4:]
        pages = ["<p>pay %s or %s</p>" % (valid, flipped),
                 "<a href='ethereum:%s'>%s</a>" % (other, valid),
                 "<p>%s %s %s</p>" % (other.lower(), valid.upper(), other)]
        fetched_at = planted[0].fetched_at
        corpus = Corpus(list(planted) + [
            PageRecord("ethpage%s.onion" % (c * 9), "/", html.encode(), fetched_at)
            for c, html in zip("bcd", pages)])
        tlds = extract.load_tlds(config.tlds)
        expected = []
        for page in corpus:
            for kind, value, reason in extract.scan_page(page.html, tlds):
                row = {"v": 1, "domain": page.domain, "path": page.path,
                       "kind": kind, "value": value, "valid": reason is None}
                if reason:
                    row["reject_reason"] = reason
                expected.append(row)
        batches = []
        monkeypatch.setattr(extract, "keccak256_batch",
                            lambda messages: batches.append(messages) or keccak256_batch(messages))
        rows = report.stage_extract(config, {"corpus.jsonl": corpus})["addresses.jsonl"]
        assert rows == expected
        assert [(row["value"], row["valid"]) for row in rows if row["kind"] == "eth"] == [
            (valid, True), (flipped, False), (valid, True), (other, True),
            (other.lower(), True), (valid.upper(), True), (other, True)]
        # one batch for the stage run, each distinct mixed-case body in it once
        assert batches == [[valid[2:].lower().encode(), other.lower().encode()]]

    def test_empty_corpus_run_fails_in_classify(self, tmp_path):
        # a truly empty snapshot cannot satisfy the 12-category ground truth
        snapshot = tmp_path / "snap"
        snapshot.mkdir()
        gt = tmp_path / "gt.jsonl"
        gt.write_text("")
        out = tmp_path / "out"
        cfg = PipelineConfig(corpus_root=str(snapshot), ground_truth=str(gt),
                             out_dir=str(out))
        with pytest.raises(StageError) as err:
            run_pipeline(cfg)
        assert err.value.stage == "classify"


DOT_NODE = re.compile(r'^  "(?:[^"\\]|\\.)*" \[[^\]]*\];$')
DOT_EDGE = re.compile(r'^  "(?:[^"\\]|\\.)*" -- "(?:[^"\\]|\\.)*" \[[^\]]*\];$')


def check_dot_grammar(text):
    lines = text.splitlines()
    assert lines[0] == "graph campaigns {"
    assert lines[-1] == "}"
    for line in lines[1:-1]:
        assert DOT_NODE.match(line) or DOT_EDGE.match(line), line


def write_graph(graph, out):
    """`export_graph` of an EntityGraph, as g.graphml and g.dot."""
    graphml, dot = export_graph({"nodes": graph.nodes, "edges": graph.edges})
    (out / "g.graphml").write_text(graphml)
    (out / "g.dot").write_text(dot)


class TestGraphExport:
    def test_three_node_campaign_dot(self, tmp_path):
        graph = EntityGraph()
        graph.add_node("site:a.onion", category="Drugs", campaign="c001")
        graph.add_node("btc:X", received=5, campaign="c001")
        graph.add_node("btc:Y", received=7, campaign="c001")
        graph.add_edge("site-hosts-addr", "site:a.onion", "btc:X")
        graph.add_edge("site-hosts-addr", "site:a.onion", "btc:Y")
        write_graph(graph, tmp_path)
        dot = (tmp_path / "g.dot").read_text()
        check_dot_grammar(dot)
        assert dot.count(" -- ") == 2
        parsed = nx.read_graphml(tmp_path / "g.graphml")
        assert len(parsed) == 3 and parsed.number_of_edges() == 2

    def test_empty_campaign_list(self, tmp_path):
        write_graph(EntityGraph(), tmp_path)
        check_dot_grammar((tmp_path / "g.dot").read_text())
        parsed = nx.read_graphml(tmp_path / "g.graphml")
        assert len(parsed) == 0

    def test_registrant_is_no_campaign_member(self, tmp_path):
        # a shared registrant links A's and B's sites, a shared IP C's and D's
        ip = "198.51.100.7"
        hosted = {"a.onion": "A", "b.onion": "B", "c.onion": "C", "d.onion": "D"}
        illicit = illicit_of(*((address, site, "Drugs")
                               for site, address in hosted.items()))
        surface = [{"url": "https://%s.example.com/" % address.lower(),
                    "ip": ip if address in "CD" else None,
                    "registrant": "Shadow Ops" if address in "AB" else None,
                    "addresses": (address,)} for address in "ABCD"]
        inputs = {"labels.jsonl": [{"domain": site, "category": "Drugs"} for site in hosted],
                  "illicit.jsonl": illicit, "ledgers": report.Ledgers(),
                  "addresses.jsonl": [], "surface.jsonl": surface}
        outputs = STAGE_DECLS["cluster"].fn(PipelineConfig(), inputs)
        campaigns = outputs["campaigns.json"]["campaigns"]
        assert [(c["btc_addresses"], c["ips"]) for c in campaigns] == [
            (["A", "B"], []), (["C", "D"], [ip])]
        doc = outputs["entity_graph.json"]
        assert "campaign" not in doc["nodes"]["reg:shadow ops"]
        assert doc["nodes"]["ip:" + ip]["campaign"] == campaigns[1]["id"]

        graphml, dot = export_graph(doc)
        (tmp_path / "g.graphml").write_text(graphml)
        parsed = nx.read_graphml(tmp_path / "g.graphml")
        assert set(parsed.nodes) == {n for n in doc["nodes"] if not n.startswith("reg:")}
        assert "ip:" + ip in parsed
        assert not any("reg:" in u + v for u, v in parsed.edges)
        assert "reg:" not in dot and "ip:" + ip in dot

    def test_roundtrip_isomorphic(self, planted_run):
        _, _, _, out = planted_run
        # parallel typed edges (common-input + internal-tx) make this a multigraph
        parsed = nx.MultiGraph(nx.read_graphml(out / "graph.graphml", force_multigraph=True))
        original = nx.MultiGraph()
        doc = json.loads((out / "entity_graph.json").read_text())
        campaigns = json.loads((out / "campaigns.json").read_text())["campaigns"]
        members = set()
        for c in campaigns:
            members.update("site:" + s for s in c["sites"])
            members.update("btc:" + a for a in c["btc_addresses"])
            members.update("email:" + e for e in c["emails"])
            members.update("ip:" + i for i in c["ips"])
            members.update("url:" + u for u in c["urls"])
        for nid in doc["nodes"]:
            if nid in members:
                original.add_node(nid)
        for _, u, v in doc["edges"]:
            if u in members and v in members:
                original.add_edge(u, v)
        assert nx.is_isomorphic(parsed, original)
        assert set(parsed.nodes) == set(original.nodes)

    @settings(max_examples=300)
    @given(st.lists(st.sampled_from(['"', "'", "&", "<", ">", "\n", "\r", "\t", "&amp;"])
                    | st.text(max_size=3)).map("".join))
    def test_xml_escaping_matches_saxutils(self, text):
        assert report.escape(text) == saxutils.escape(text)
        assert report.quoteattr(text) == saxutils.quoteattr(text)

    def test_size_attribute_proportional(self, planted_run):
        _, _, _, out = planted_run
        parsed = nx.read_graphml(out / "graph.graphml")
        for nid, attrs in parsed.nodes(data=True):
            if attrs.get("type") == "btc":
                assert attrs["size"] * report.SATOSHI_PER_BTC == pytest.approx(
                    attrs["received"])


class TestDeclarations:
    def test_each_artifact_written_by_one_stage_before_any_stage_reads_it(self):
        writer = {}
        for name, decl in STAGE_DECLS.items():  # in pipeline order
            for artifact in decl.reads:
                assert artifact in writer, (name, artifact)
                assert ARTIFACTS[artifact].read is not None, artifact
            for artifact in decl.writes:
                assert artifact in ARTIFACTS and artifact not in writer, artifact
                writer[artifact] = name
        assert set(writer) == set(ARTIFACTS)
        read = {artifact for decl in STAGE_DECLS.values() for artifact in decl.reads}
        assert {name for name, a in ARTIFACTS.items() if a.read is not None} == read
        assert [name for name, _ in report.STAGES] == list(STAGE_DECLS)


class TestDeterminism:
    def test_artifacts_byte_identical_across_runs(self, planted_run, tmp_path):
        planted, _, _, out1 = planted_run
        out2 = tmp_path / "out2"
        cfg_file = tmp_path / "run2.cfg"
        cfg_file.write_text(planted.config_text(out2))
        run_pipeline(parse_config(cfg_file))
        assert_same_artifacts(out1, out2)
