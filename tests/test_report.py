import builtins
import errno
import gc
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

from onionforge import artifacts, chain, classify, cli, pagetext, report
from onionforge.corpus import (
    Corpus, ingest_snapshot, read_corpus_jsonl, snapshot_signature,
)
from onionforge.report import (
    ARTIFACTS, PATH_KEYS, STAGE_DECLS, ConfigError, PipelineConfig, StageError, export_graph,
    format_btc, parse_config, run_pipeline,
)

from killed import KILLED, inject, oserror
from planted import A1, EXPECTED_CAMPAIGNS, NOISE, assert_same_artifacts, plant
from rows import illicit_of

ROOT = Path(__file__).resolve().parents[1]
# the path keys that name a directory; every other one names a file
DIR_KEYS = {"corpus_root", "tx_fixtures", "search_fixtures"}
# a JSON value nested deeper than `json.loads` can follow: it raises RecursionError
DEEP = "[" * 100000 + "]" * 100000


def src_env() -> dict:
    """The environment with this tree's src/ first on PYTHONPATH."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    """The config, out dir and result of a fresh run over the planted corpus."""
    _, config, out = plant(tmp_path_factory.mktemp("fresh"))
    return config, out, run_pipeline(config)


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
        values = {key: tmp_path / ("c" if key in DIR_KEYS else "gt.jsonl")
                  for key in PATH_KEYS}
        values.update({"out_dir": tmp_path / "out", "threshold": "1", "rate_limit": "2",
                       "public_threshold": "3", "vanity_prefix": "4", "top_n": "5",
                       "min_received": "6"})
        (tmp_path / "run.cfg").write_text("".join(
            "%s = %s\n" % (key, values.get(key, "x"))
            for key in PipelineConfig._fields if key != "provider"))
        cfg = parse_config(tmp_path / "run.cfg")
        for key, default in PipelineConfig._field_defaults.items():
            assert type(getattr(cfg, key)) is type(default), key
        assert (cfg.threshold, cfg.rate_limit, cfg.top_n, cfg.base_url) == (1.0, 2.0, 5, "x")

    @pytest.mark.parametrize("key", sorted(PATH_KEYS - {"corpus_root", "ground_truth"}))
    @pytest.mark.parametrize("kind", ["absent", "wrong kind"])
    def test_a_set_path_key_names_what_it_reads(self, tmp_path, key, kind):
        # a misspelled fixture directory must not run as "no history, no hits"
        (tmp_path / "c").mkdir()
        (tmp_path / "gt.jsonl").write_text("")
        wrong = tmp_path / ("gt.jsonl" if key in DIR_KEYS else "c")
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("corpus_root = %s\nground_truth = %s\nout_dir = %s\n%s = %s\n"
                            % (tmp_path / "c", tmp_path / "gt.jsonl", tmp_path / "out", key,
                               tmp_path / "absent" if kind == "absent" else wrong))
        with pytest.raises(ConfigError, match="^%s is not a " % key):
            parse_config(cfg_file)
        cfg_file.write_text("corpus_root = %s\nground_truth = %s\nout_dir = %s\n%s =\n"
                            % (tmp_path / "c", tmp_path / "gt.jsonl", tmp_path / "out", key))
        assert getattr(parse_config(cfg_file), key) == ""

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
        for directory in ("captures", "fixtures/txs", "fixtures/search"):
            (tmp_path / directory).mkdir(parents=True)
        for name in ("gt.jsonl", "chain_ann.jsonl", "trace_ann.jsonl"):
            (tmp_path / name).write_text("")
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

    @pytest.mark.parametrize("char", ["\u2028", "\x0c", "\x85", "\x1c"])
    def test_value_keeps_a_character_that_ends_no_line(self, tmp_path, char):
        (tmp_path / "c").mkdir()
        (tmp_path / "gt.jsonl").write_text("")
        out = tmp_path / ("o%sut" % char)
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_bytes(("corpus_root = %s\r\nground_truth = %s\rout_dir = %s\n"
                              % (tmp_path / "c", tmp_path / "gt.jsonl", out)).encode())
        assert parse_config(cfg_file).out_dir == str(out)

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

    @pytest.mark.parametrize("line, named", [
        ("threshold = 1.5", "^threshold "), ("provider = carrier", "^provider "),
        ("public_threshold = 0", "^public_threshold "), ("vanity_prefix = 0", "^vanity_prefix "),
        ("top_n = 0", "^top_n "), ("threshold 0.5", "^line 10 "),
        ("", "^cannot read config: .*run.cfg")],
        ids=["threshold", "provider", "public_threshold", "vanity_prefix", "top_n", "no-equals",
             "unreadable"])
    def test_config_error_names_its_key_or_line(self, tmp_path, line, named):
        if line:
            with pytest.raises(ConfigError, match=named):
                plant(tmp_path, line)
        else:  # a config path that names a directory
            (tmp_path / "run.cfg").mkdir()
            with pytest.raises(ConfigError, match=named):
                parse_config(tmp_path / "run.cfg")
        assert cli.main(["run", "--config", str(tmp_path / "run.cfg")]) == cli.EXIT_CONFIG


class TestPipeline:
    def test_campaigns_match_planted_truth(self, fresh):
        _, out, _ = fresh
        doc = json.loads((out / "campaigns.json").read_text())
        got = [{k: c[k] for k in ("sites", "btc_addresses", "emails", "ips",
                                  "urls", "categories", "received")}
               for c in doc["campaigns"]]
        assert got == EXPECTED_CAMPAIGNS

    def test_resume_skips_everything(self, fresh):
        config, _, first = fresh
        assert first.executed  # first invocation did real work
        second = run_pipeline(config)
        assert second.executed == []
        assert set(second.skipped) == {name for name, _ in report.STAGES}

    def test_resume_reruns_only_missing_stage(self, tmp_path):
        _, config, out = plant(tmp_path)
        run_pipeline(config)
        for p in (out / "ledgers").iterdir():
            p.unlink()
        (out / "ledgers").rmdir()
        resumed = run_pipeline(config)
        # regenerated ledgers are byte-identical, so downstream digests match
        assert resumed.executed == ["fetch-tx"]
        assert "classify" in resumed.skipped and "cluster" in resumed.skipped

    def test_changed_explorer_domains_file_reruns_trace(self, tmp_path):
        domains = tmp_path / "explorers.txt"
        domains.write_text("btc.com\nblockchair.com\n")
        _, config, out = plant(tmp_path, "explorer_domains = %s" % domains)
        run_pipeline(config)
        hits_before = (out / "hits.jsonl").read_bytes()

        domains.write_text("blockchair.com\n")  # same path, new content
        resumed = run_pipeline(config)
        # only hits.jsonl changes; surface.jsonl, which cluster reads, does not
        assert resumed.executed == ["trace"]
        assert resumed.skipped == ["ingest", "extract", "classify", "filter",
                                   "fetch-tx", "cluster", "report"]

        run_pipeline(config._replace(out_dir=str(tmp_path / "fresh")))
        hits = (out / "hits.jsonl").read_bytes()
        assert hits != hits_before
        assert hits == (tmp_path / "fresh" / "hits.jsonl").read_bytes()
        assert_same_artifacts(out, tmp_path / "fresh")

    @pytest.mark.parametrize("key", ["tx_fixtures", "search_fixtures"])
    def test_an_empty_fixtures_key_reads_no_files(self, tmp_path, monkeypatch, key):
        planted, config, out = plant(tmp_path)
        # run from the directory that holds the <address>.json files the key named
        monkeypatch.chdir(getattr(planted, key))
        run_pipeline(config._replace(**{key: ""}))
        if key == "tx_fixtures":
            ledgers = ARTIFACTS["ledgers"].read(out / "ledgers")
            assert ledgers and not any(ledgers.values()) and not ledgers.failures
        else:
            assert (out / "hits.jsonl").read_bytes() == b""

    def test_an_unknown_until_is_a_config_error(self, tmp_path):
        _, config, out = plant(tmp_path)
        with pytest.raises(ConfigError, match="'fetch_tx'"):
            run_pipeline(config, until="fetch_tx")
        assert not out.exists()

    def test_partial_run_keeps_digests_of_later_stages(self, tmp_path):
        _, config, _ = plant(tmp_path)
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
        _, config, out = plant(tmp_path)
        run_pipeline(config)
        age_manifest(out)
        run_pipeline(config)
        hashed.clear()
        assert run_pipeline(config, until="extract").executed == []
        # the inputs of the stages past `until` keep their pairs in run.json
        assert run_pipeline(config).executed == []
        assert hashed == Counter()

    def test_input_edited_after_a_partial_run_reruns_its_stage(self, tmp_path):
        planted, config, out = plant(tmp_path)
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
        planted, config, out = plant(tmp_path)
        run_pipeline(config)
        key = str(planted.trace_annotations)
        signature, newest = artifacts.stat_signature(key)
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

        _, config, out = plant(tmp_path)
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

    def test_fresh_run_reads_back_no_artifact(self, tmp_path, monkeypatch):
        _, config, out = plant(tmp_path)
        read, real_open, hash_file = [], io.open, artifacts.hash_file

        def under_out(file):
            return not isinstance(file, int) and out in Path(file).parents

        def counting_open(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            if under_out(file) and not set(mode) & set("wax"):
                read.append(str(file))
            return fh

        def counting_hash(h, path):
            if under_out(path):
                read.append(str(path))
            hash_file(h, path)
        monkeypatch.setattr(builtins, "open", counting_open)
        monkeypatch.setattr(io, "open", counting_open)
        monkeypatch.setattr(artifacts, "hash_file", counting_hash)
        # each artifact's digest is the one its writer took as it wrote it
        assert run_pipeline(config).skipped == []
        assert read == []

    def test_each_snapshot_file_opened_once(self, tmp_path, monkeypatch):
        planted, config, out = plant(tmp_path)
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

    def test_snapshot_that_cannot_be_read_fails_ingest(self, tmp_path, monkeypatch):
        planted, config, _ = plant(tmp_path)
        manifest = planted.snapshot / "manifest.jsonl"
        inject(monkeypatch.setattr, "read", manifest.__eq__, oserror(errno.EACCES))
        with pytest.raises(StageError) as err:
            run_pipeline(config)
        assert err.value.stage == "ingest"
        assert isinstance(err.value.cause, PermissionError)

    def test_input_that_cannot_be_hashed_fails_its_stage(self, tmp_path, monkeypatch):
        stopwords = tmp_path / "stopwords.txt"
        stopwords.write_text("the\n")
        _, config, out = plant(tmp_path, "stopwords = %s" % stopwords)
        # the first read of the file in a run is its digest's
        inject(monkeypatch.setattr, "read", stopwords.__eq__, oserror(errno.EACCES), at=1)
        with pytest.raises(StageError) as err:
            run_pipeline(config)
        assert err.value.stage == "classify"
        assert isinstance(err.value.cause, PermissionError)
        assert set(json.loads((out / "run.json").read_text())["stages"]) == {
            "ingest", "extract"}
        inject(monkeypatch.setattr, "read", stopwords.__eq__, oserror(errno.EACCES), at=1)
        assert cli.main(["run", "--config", str(tmp_path / "run.cfg")]) == cli.EXIT_STAGE

    def test_snapshot_that_cannot_be_listed_fails_ingest_on_rerun(self, tmp_path, monkeypatch):
        planted, config, out = plant(tmp_path)
        run_pipeline(config)
        manifest = out / "run.json"
        recorded = manifest.read_bytes()
        inject(monkeypatch.setattr, "scandir", planted.snapshot.__eq__, oserror(errno.EACCES))
        with pytest.raises(StageError) as err:
            run_pipeline(config)
        assert err.value.stage == "ingest"
        assert isinstance(err.value.cause, PermissionError)
        # run.json keeps every stage's digest, but not the pair it could not check
        rewritten = json.loads(manifest.read_text())
        assert set(rewritten["stages"]) == set(STAGE_DECLS)
        assert str(planted.snapshot) not in rewritten["inputs"]
        assert str(planted.ground_truth) in rewritten["inputs"]
        manifest.write_bytes(recorded)
        assert cli.main(["run", "--config", str(tmp_path / "run.cfg")]) == cli.EXIT_STAGE

    def test_input_directory_that_cannot_be_listed_fails_its_stage(self, tmp_path, monkeypatch):
        planted, config, out = plant(tmp_path)
        # as for a directory of mode 000, which root can list
        inject(monkeypatch.setattr, "scandir", planted.tx_fixtures.__eq__, oserror(errno.EACCES))
        with pytest.raises(StageError) as err:
            run_pipeline(config)
        assert err.value.stage == "fetch-tx"
        assert isinstance(err.value.cause, PermissionError)
        assert not (out / "ledgers").exists()
        assert cli.main(["run", "--config", str(tmp_path / "run.cfg")]) == cli.EXIT_STAGE

    def test_unwritable_run_json_keeps_the_stage_failure(self, tmp_path, monkeypatch):
        stopwords = tmp_path / "stopwords.txt"
        stopwords.write_text("the\n")
        _, config, _ = plant(tmp_path, "stopwords = %s" % stopwords)
        # the first read of the file in a run is its digest's
        inject(monkeypatch.setattr, "read", stopwords.__eq__, oserror(errno.EACCES), at=1)
        # run.json, under whatever name its writer gives it while it writes
        refused = inject(monkeypatch.setattr, "open", lambda path: path.name.startswith("run.json"),
                         oserror(errno.EACCES))
        with pytest.raises(StageError) as err:
            run_pipeline(config)
        assert err.value.stage == "classify"
        inject(monkeypatch.setattr, "read", stopwords.__eq__, oserror(errno.EACCES), at=1)
        assert cli.main(["run", "--config", str(tmp_path / "run.cfg")]) == cli.EXIT_STAGE
        assert refused

    @pytest.mark.skipif(not hasattr(os, "geteuid") or os.geteuid() == 0,
                        reason="root reads a file of mode 000")
    def test_unreadable_input_fails_its_stage(self, tmp_path):
        stopwords = tmp_path / "stopwords.txt"
        stopwords.write_text("the\n")
        _, config, _ = plant(tmp_path, "stopwords = %s" % stopwords)
        stopwords.chmod(0)
        try:
            assert cli.main(["run", "--config", str(tmp_path / "run.cfg")]) == cli.EXIT_STAGE
        finally:
            stopwords.chmod(0o644)
        run = run_pipeline(config)
        assert run.skipped == ["ingest", "extract"]

    def test_fresh_run_takes_no_snapshot_signature(self, tmp_path, monkeypatch):
        # with no pair to trust, the read that gives ingest its corpus is the
        # only walk of the snapshot
        signatures = []

        def counting(root):
            signatures.append(root)
            return snapshot_signature(root)
        monkeypatch.setattr(report, "snapshot_signature", counting)
        _, config, _ = plant(tmp_path)
        assert run_pipeline(config).skipped == []
        assert signatures == []

    def test_page_text_does_not_outlive_the_run(self, tmp_path):
        planted, config, out = plant(tmp_path)
        run_pipeline(config, until="extract")  # classify never takes the text
        planted.ground_truth.write_text(
            '{"domain": "missing.onion", "path": "/", "category": "Drugs"}\n')
        (out / "addresses.jsonl").unlink()
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
        _, config, out = plant(tmp_path)

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

    def test_income_estimated_once_per_run(self, tmp_path, monkeypatch):
        # cluster hands its income report to report, which no other stage sees
        keys, estimated, incomes, running = {}, [], [], []
        estimate_income = chain.estimate_income
        monkeypatch.setattr(chain, "estimate_income", lambda *args: (
            estimated.append(running[-1]) or estimate_income(*args)))

        def recording(name, fn):
            def stage_fn(cfg, inputs):
                keys[name] = set(inputs)
                running.append(name)
                outputs = fn(cfg, inputs)
                if "income" in outputs:  # a set, which a weak reference can watch
                    incomes.append(weakref.ref(outputs["income"].internal_txids))
                return outputs
            return stage_fn
        monkeypatch.setattr(report, "STAGES", tuple(
            (name, recording(name, fn)) for name, fn in report.STAGES))
        _, config, out = plant(tmp_path)

        def tables(out_dir):
            return {p.name: p.read_bytes() for p in (out_dir / "tables").iterdir()}

        assert run_pipeline(config).skipped == []
        assert estimated == ["cluster"]
        assert [name for name in keys if "income" in keys[name]] == ["report"]
        assert len(incomes) == 1 and incomes[0]() is None
        fresh_tables = tables(out)

        # a resumed report estimates it once itself, to the same tables
        keys.clear()
        estimated.clear()
        (out / "summary.json").unlink()
        assert run_pipeline(config).executed == ["report"]
        assert estimated == ["report"] and "income" not in keys["report"]
        assert tables(out) == fresh_tables

        # a run that ends with cluster drops it; the next run's report estimates it
        keys.clear()
        estimated.clear()
        incomes.clear()
        split = config._replace(out_dir=str(tmp_path / "split"))
        assert run_pipeline(split, until="cluster").executed[-1] == "cluster"
        assert estimated == ["cluster"] and len(incomes) == 1 and incomes[0]() is None
        estimated.clear()
        assert run_pipeline(split).executed == ["report"]
        assert estimated == ["report"]
        assert not any("income" in keys[name] for name in keys)
        assert tables(tmp_path / "split") == fresh_tables

    def test_each_hand_off_reaches_only_its_taker_and_ends_with_its_turn(
            self, tmp_path, monkeypatch):
        class Watched(list):
            """A list that a weak reference can watch."""
        refs, got, alive = {}, {}, {}  # hand-off -> weak ref; stage -> hand-offs taken

        def watching(name, fn):
            def stage_fn(cfg, inputs):
                got[name] = set(inputs) & {"corpus_root", "page_texts", "income"}
                outputs = fn(cfg, inputs)
                if "page_texts" in outputs:
                    outputs["page_texts"] = Watched(outputs["page_texts"])
                    refs["page_texts"] = weakref.ref(outputs["page_texts"])
                if "income" in outputs:  # a set, which a weak reference can watch
                    refs["income"] = weakref.ref(outputs["income"].internal_txids)
                return outputs
            return stage_fn
        monkeypatch.setattr(report, "STAGES", tuple(
            (name, watching(name, fn)) for name, fn in report.STAGES))
        snapshot = report.ingest_snapshot

        def watched_snapshot(root):  # the corpus holds its list of skipped entries
            corpus = snapshot(root)
            corpus.skipped = Watched(corpus.skipped)
            refs["corpus_root"] = weakref.ref(corpus.skipped)
            return corpus
        monkeypatch.setattr(report, "ingest_snapshot", watched_snapshot)

        # `alive` holds the hand-offs still held as each stage's turn starts,
        # and at the final run.json write ("end")
        def probe(turn):
            alive[turn] = {key for key, ref in refs.items() if ref() is not None}
        stage_digest, write = report.RunRecord.stage_digest, report.RunRecord.write

        def probing_stage_digest(record, decl):
            probe(decl.name)
            return stage_digest(record, decl)

        def probing_write(record, run_id="", carry=True):
            if run_id:
                probe("end")
            return write(record, run_id, carry)
        monkeypatch.setattr(report.RunRecord, "stage_digest", probing_stage_digest)
        monkeypatch.setattr(report.RunRecord, "write", probing_write)

        def run(config, until=None):
            refs.clear()
            got.clear()
            alive.clear()
            return run_pipeline(config, until)
        _, config, out = plant(tmp_path)
        names = list(STAGE_DECLS)

        # a fresh run: each taker executes. The corpus ingest takes is its
        # corpus.jsonl value too, which report is the last to read
        assert run(config).skipped == []
        assert {name: taken for name, taken in got.items() if taken} == {
            "ingest": {"corpus_root"}, "classify": {"page_texts"}, "report": {"income"}}
        assert [turn for turn in alive if "corpus_root" in alive[turn]] == names[1:]
        assert [turn for turn in alive if "page_texts" in alive[turn]] == ["classify"]
        assert [turn for turn in alive if "income" in alive[turn]] == ["report"]

        # extract executes and classify, its texts' taker, is skipped
        (out / "addresses.jsonl").unlink()
        (out / "illicit.jsonl").unlink()
        assert "classify" in run(config).skipped
        assert "page_texts" in refs and not any(got.values())
        assert [turn for turn in alive if "page_texts" in alive[turn]] == ["classify"]

        # a snapshot that is racily clean is read again; ingest is skipped
        os.utime(out / "run.json", ns=(0, 0))
        assert run(config).executed == []
        assert "corpus_root" in refs and not got
        assert [turn for turn in alive if "corpus_root" in alive[turn]] == []

        # cluster executes and report, the income's taker, is skipped
        assert run(config._replace(public_threshold=2)).executed == ["cluster"]
        assert "income" in refs and got == {"cluster": set()}
        assert [turn for turn in alive if "income" in alive[turn]] == ["report"]

        # a run that stops before the taker keeps nothing to its end
        for until, hand_off in (("extract", "page_texts"), ("cluster", "income")):
            split = config._replace(out_dir=str(tmp_path / until))
            run(split, until)
            assert hand_off in refs and alive["end"] == set()

    def test_a_stage_sees_only_its_own_config_keys(self, tmp_path, monkeypatch):
        seen = {}

        def recording(name, fn):
            def stage_fn(cfg, inputs):
                seen[name] = sorted(vars(cfg))
                return fn(cfg, inputs)
            return stage_fn
        monkeypatch.setattr(report, "STAGES", tuple(
            (name, recording(name, fn)) for name, fn in report.STAGES))
        _, config, _ = plant(tmp_path)
        assert run_pipeline(config).skipped == []  # each stage reads only its own keys
        assert seen == {name: sorted(decl.config_keys) for name, decl in STAGE_DECLS.items()}

        # a stage that reads another key fails, naming itself and the key
        def classify(cfg, inputs):
            return {"labels.jsonl": [], "threshold": cfg.threshold, "top_n": cfg.top_n}
        monkeypatch.setattr(report, "STAGES", tuple(
            (name, classify if name == "classify" else fn) for name, fn in report.STAGES))
        with pytest.raises(StageError) as err:
            run_pipeline(config._replace(threshold=0.6))
        assert err.value.stage == "classify"
        assert "stage 'classify' failed" in str(err.value) and "'top_n'" in str(err.value)

    def test_stopwords_edit_scans_each_classified_page_once(self, tmp_path, monkeypatch):
        stopwords = tmp_path / "stopwords.txt"
        shutil.copy(Path(classify.__file__).parent / "data" / "stopwords.txt", stopwords)
        planted, config, out = plant(tmp_path, "stopwords = %s" % stopwords)
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
        planted, config, out = plant(tmp_path)
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
        _, config, out = plant(tmp_path)
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

    def test_copied_out_dir_skips_everything(self, fresh, tmp_path):
        config, planted_out, _ = fresh
        out = tmp_path / "moved" / "out"
        shutil.copytree(planted_out, out)
        run = run_pipeline(config._replace(out_dir=str(out)))
        assert run.executed == []
        assert_same_artifacts(out, planted_out)

    # an output that is there but of the wrong kind is no output: its stage
    # runs again and its writer replaces what stands at its path
    @pytest.mark.parametrize("artifact, stage", [
        ("summary.json", "report"), ("labels.jsonl", "classify"), ("ledgers", "fetch-tx")])
    def test_output_of_the_wrong_kind_is_rewritten(self, fresh, tmp_path, artifact, stage):
        config, planted_out, _ = fresh
        out = tmp_path / "out"
        shutil.copytree(planted_out, out)
        wrong = out / artifact
        if wrong.is_dir():
            shutil.rmtree(wrong)
            wrong.write_text("stray")
        else:
            wrong.unlink()
            wrong.mkdir()
            (wrong / "stray").write_text("stray")
        run = run_pipeline(config._replace(out_dir=str(out)))
        assert run.executed == [stage]
        assert_same_artifacts(out, planted_out)

    @pytest.mark.parametrize("manifest", ["[]", "null", '{"stages": []}', '{"stages": null}'])
    def test_misshapen_manifest_counts_as_none(self, fresh, tmp_path, manifest):
        config, planted_out, _ = fresh
        out = tmp_path / "out"
        shutil.copytree(planted_out, out)
        (out / "run.json").write_text(manifest)
        run = run_pipeline(config._replace(out_dir=str(out)))
        assert run.executed == list(STAGE_DECLS)
        assert_same_artifacts(out, planted_out)

    # a value nested too deeply to parse is not JSON, as a line, a replay
    # fixture or run.json: it fails what text that is not JSON fails, and only that
    @pytest.mark.parametrize("name, code, logged", [
        ("planted/snapshot/manifest.jsonl", cli.EXIT_OK,
         "manifest line {n} unusable: line {n} is not JSON"),
        ("planted/txs/{A1}.json", cli.EXIT_OK,
         "fetch failed for {A1}: {A1}.json is nested too deeply to parse"),
        ("planted/trace_annotations.jsonl", cli.EXIT_OK, "annotation line {n} is not JSON"),
        ("out/run.json", cli.EXIT_OK, "executed {stages}, skipped nothing"),
        ("planted/gt.jsonl", cli.EXIT_STAGE, "ground truth line {n} is not JSON"),
        ("planted/chain_annotations.jsonl", cli.EXIT_STAGE,
         "chain annotations line {n} is not JSON"),
    ], ids=["manifest", "tx-fixture", "trace-annotations", "run.json", "ground-truth",
            "chain-annotations"])
    def test_json_nested_too_deeply_is_not_json(self, tmp_path, capsys, name, code, logged):
        _, config, _ = plant(tmp_path)
        path = tmp_path / name.format(A1=A1)
        if path.name == "run.json":
            run_pipeline(config)
        lines = path.read_text().splitlines() if path.suffix == ".jsonl" else []
        path.write_text("".join(line + "\n" for line in lines + [DEEP]))
        capsys.readouterr()
        assert cli.main(["run", "--config", str(tmp_path / "run.cfg")]) == code
        assert logged.format(n=len(lines) + 1, A1=A1, stages=list(STAGE_DECLS)) in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("memo", [5, [], "entries", None])
    def test_misshapen_input_memo_counts_as_empty(self, tmp_path, monkeypatch, memo):
        _, config, out = plant(tmp_path)
        run_pipeline(config)
        manifest = json.loads((out / "run.json").read_text())
        if memo == "entries":  # each entry of another shape than a pair of strings
            shapes = [lambda pair: pair[:1], lambda pair: [pair[0], 5], lambda pair: 5,
                      lambda pair: pair + pair, lambda pair: dict([pair])]
            memo = {path: shapes[i % len(shapes)](pair)
                    for i, (path, pair) in enumerate(sorted(manifest["inputs"].items()))}
        manifest["inputs"] = memo
        if memo is None:  # no memo at all
            del manifest["inputs"]
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
        _, config, out = plant(tmp_path)
        run_pipeline(config)
        manifest = (out / "run.json").read_bytes()

        def interrupt(path):
            raise KeyboardInterrupt
        # the process is interrupted halfway through writing run.json
        with monkeypatch.context() as patched:
            inject(patched.setattr, "write", lambda path: path.name.startswith("run.json"),
                   interrupt)
            with pytest.raises(KeyboardInterrupt):
                run_pipeline(config)
        assert (out / "run.json").read_bytes() == manifest
        assert run_pipeline(config).executed == []
        assert not (out / "run.json.tmp").exists()

    def test_kill_during_fetch_tx_leaves_it_unrecorded(self, tmp_path):
        _, config, out = plant(tmp_path)
        run_pipeline(config)
        ledger_files = len(list((out / "ledgers").glob("*.json")))
        shutil.rmtree(out / "ledgers")

        # the process dies while fetch-tx writes its second ledger file
        killed = subprocess.run([sys.executable, str(ROOT / "tests" / "killed.py"),
                                 str(tmp_path / "run.cfg"), "2", "ledgers.tmp"],
                                env=src_env(), capture_output=True, text=True, timeout=120)
        assert killed.returncode == KILLED, killed.stderr
        # the ledgers are written into ledgers.tmp/, which takes the place of
        # ledgers/ only when it is whole
        assert not (out / "ledgers").exists()
        assert 0 < len(list((out / "ledgers.tmp").glob("*.json"))) < ledger_files

        resumed = run_pipeline(config)
        assert "fetch-tx" in resumed.executed
        fresh = tmp_path / "fresh"
        run_pipeline(config._replace(out_dir=str(fresh)))
        assert_same_artifacts(out, fresh)

    def test_null_stage_digest_is_dropped_before_its_stage_runs(self, tmp_path, monkeypatch):
        _, config, out = plant(tmp_path)
        run_pipeline(config)
        manifest = json.loads((out / "run.json").read_text())
        manifest["stages"]["ingest"] = None
        (out / "run.json").write_text(json.dumps(manifest))
        recorded = []

        def ingest(cfg, inputs):
            recorded.append(json.loads((out / "run.json").read_text())["stages"])
            return STAGE_DECLS["ingest"].fn(cfg, inputs)
        monkeypatch.setattr(report, "STAGES", (("ingest", ingest),) + report.STAGES[1:])
        assert run_pipeline(config).executed == ["ingest"]
        # a recorded name is dropped and written, whatever its value
        assert sorted(recorded[0]) == sorted(name for name, _ in report.STAGES[1:])

    def test_edited_ledger_changes_the_tables(self, tmp_path):
        _, config, out = plant(tmp_path)
        run_pipeline(config)
        before = json.loads((out / "summary.json").read_text())
        assert report_summary(out) == before

        top = json.loads((out / "tables" / "top_addresses.json").read_text())["rows"][0]
        (out / "ledgers" / (top["address"] + ".json")).write_text("[]\n")
        after = report_summary(out)
        assert after["income_satoshi"] == before["income_satoshi"] - top["received_satoshi"]

    def test_rerun_fetch_tx_leaves_no_stale_ledgers(self, tmp_path):
        _, config, out = plant(tmp_path, "min_received = 1000000000000")
        first = run_pipeline(config)
        assert "fetch-tx" in first.executed
        ledgers_before = len(list((out / "ledgers").glob("*.json")))

        # a stricter threshold labels fewer sites, so fewer addresses are illicit
        config = config._replace(threshold=1.0)
        resumed = run_pipeline(config)
        assert "fetch-tx" in resumed.executed

        run_pipeline(config._replace(out_dir=str(tmp_path / "fresh")))
        ledgers_after = len(list((tmp_path / "fresh" / "ledgers").glob("*.json")))
        assert ledgers_after < ledgers_before
        assert_same_artifacts(out, tmp_path / "fresh")

    def test_stage_failure_names_stage_and_keeps_partials(self, tmp_path):
        planted, config, out = plant(tmp_path)
        planted.ground_truth.write_text(
            '{"domain": "missing.onion", "path": "/", "category": "Drugs"}\n')
        with pytest.raises(StageError) as err:
            run_pipeline(config)
        assert err.value.stage == "classify"
        assert (out / "corpus.jsonl").exists()       # earlier stages kept
        assert (out / "addresses.jsonl").exists()
        assert not (out / "labels.jsonl").exists()

    def test_illicit_label_that_is_no_category_fails_fetch_tx(self, tmp_path):
        _, config, out = plant(tmp_path)
        run_pipeline(config)
        path = out / "illicit.jsonl"
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        rows[0]["categories"] = ["Jaywalking"]
        path.write_text("".join(json.dumps(row, sort_keys=True) + "\n" for row in rows))
        with pytest.raises(StageError) as err:
            run_pipeline(config)  # filter is skipped: its inputs are unchanged
        # fetch-tx is the first stage of the run to read the file
        assert err.value.stage == "fetch-tx"
        assert "Jaywalking" in str(err.value)

    def test_hand_edited_illicit_category_spelling_names_its_category(self, tmp_path):
        _, config, out = plant(tmp_path)
        run_pipeline(config)
        before = {p: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
        path = out / "illicit.jsonl"
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        spelled = {"Memberships": ["memberships"], "CloneCard": ["clone card", "CloneCard"]}
        for row in rows:
            if row["categories"][0] in spelled:
                row["categories"] = spelled.pop(row["categories"][0])
        assert not spelled
        path.write_text("".join(json.dumps(row, sort_keys=True) + "\n" for row in rows))
        # every reader sees each row's labels once, as filter wrote them
        assert run_pipeline(config).executed == ["fetch-tx", "trace", "cluster", "report"]
        after = {p: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
        assert after.keys() == before.keys()
        assert [p.name for p in before if before[p] != after[p]] == ["illicit.jsonl", "run.json"]

    def test_ground_truth_row_names_its_page_by_onion_name(self, tmp_path):
        planted, config, out = plant(tmp_path)
        run_pipeline(config)
        labels = (out / "labels.jsonl").read_bytes()
        lines = planted.ground_truth.read_text().splitlines()
        row = json.loads(lines[0])
        row["domain"] = row["domain"].upper()
        planted.ground_truth.write_text("\n".join([json.dumps(row)] + lines[1:]) + "\n")
        assert "classify" in run_pipeline(config).executed
        assert (out / "labels.jsonl").read_bytes() == labels

    def test_hand_edited_label_alias_names_its_category(self, tmp_path):
        _, config, out = plant(tmp_path)
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


def tree_state(path: Path):
    """A file's bytes, a directory's {relative name: bytes}, or None if absent."""
    if path.is_dir():
        return {str(p.relative_to(path)): p.read_bytes() for p in path.rglob("*") if p.is_file()}
    return path.read_bytes() if path.exists() else None


class TestFailedWrites:
    @pytest.mark.parametrize("at", ["open", "write", "rename"])
    def test_final_run_json_write_fails_the_run_with_exit_3(self, tmp_path, monkeypatch, capsys,
                                                           at):
        _, config, out = plant(tmp_path)
        clean = tmp_path / "clean"
        run_pipeline(config._replace(out_dir=str(clean)))
        with monkeypatch.context() as patched:
            inject(patched.setattr, at, lambda path: path.name == "run.json.tmp",
                   oserror(errno.ENOSPC))
            assert cli.main(["run", "--config", str(tmp_path / "run.cfg")]) == cli.EXIT_STAGE
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("ERROR")]
        assert len(errors) == 1 and "run.json" in errors[0], err
        # every artifact is whole, and only run.json is missing
        for name in ARTIFACTS:
            assert tree_state(out / name) == tree_state(clean / name), name
        assert sorted(p.name for p in out.iterdir()) == sorted(ARTIFACTS)
        assert run_pipeline(config).skipped == []
        assert_same_artifacts(out, clean)

    @pytest.mark.parametrize("artifact", ["corpus.jsonl", "ledgers"])
    def test_failed_write_removes_its_tmp_and_keeps_the_old_artifact(self, tmp_path,
                                                                     monkeypatch, artifact):
        planted, config, out = plant(tmp_path)
        run_pipeline(config)
        before = tree_state(out / artifact)
        if artifact == "corpus.jsonl":  # a page edit re-runs ingest
            page = planted.snapshot / NOISE / "index.html"
            page.write_bytes(page.read_bytes() + b"<p>kiwi</p>")
            hit, stage = (lambda path: path.name == "corpus.jsonl.tmp"), "ingest"
        else:  # fewer illicit sites re-run fetch-tx
            config = config._replace(threshold=1.0)
            hit, stage = (lambda path: path.parent.name == "ledgers.tmp"), "fetch-tx"
        inject(monkeypatch.setattr, "write", hit, oserror(errno.ENOSPC))
        with pytest.raises(StageError) as err:
            run_pipeline(config)
        assert err.value.stage == stage
        assert tree_state(out / artifact) == before
        assert [p.name for p in out.iterdir() if p.suffix in (".tmp", ".old")] == []


@pytest.fixture(scope="module")
def resume_cases(tmp_path_factory):
    """(work dir, config, writes) for a run of the planted corpus at threshold
    1.0 into work/out. work/clean holds that run's clean out dir, and
    work/prior the out dir a run at 0.5 leaves, with more ledgers than the
    run at 1.0 writes. `writes` counts the files the run at 1.0 writes,
    fresh and over work/prior."""
    work = tmp_path_factory.mktemp("resume")
    _, config, out = plant(work, "threshold = 1.0")
    cfg = work / "run.cfg"
    run_pipeline(config._replace(threshold=0.5))
    out.rename(work / "prior")
    run_pipeline(config._replace(out_dir=str(work / "clean")))
    writes = {}
    for prior in ("fresh", "rerun"):
        place_prior(work, prior)
        counted = subprocess.run([sys.executable, str(ROOT / "tests" / "killed.py"), str(cfg), "0"],
                                 env=src_env(), capture_output=True, text=True, timeout=120)
        assert counted.returncode == 0, counted.stderr
        writes[prior] = int(counted.stdout)
    return work, cfg, writes


def place_prior(work: Path, prior: str):
    """Make work/out empty, or a copy of work/prior."""
    shutil.rmtree(work / "out", ignore_errors=True)
    if prior == "rerun":
        shutil.copytree(work / "prior", work / "out")


class TestResume:
    @settings(max_examples=12, deadline=None)
    @given(st.sampled_from(["fresh", "rerun"]), st.floats(0, 1))
    @example("rerun", 0.0)
    @example("rerun", 0.5)
    @example("rerun", 1.0)
    @example("fresh", 0.0)
    def test_killed_mid_write_then_resumed_equals_a_clean_run(self, resume_cases, prior, where):
        work, cfg, writes = resume_cases
        out, clean = work / "out", work / "clean"
        place_prior(work, prior)
        before = {name: tree_state(out / name) for name in ARTIFACTS}
        at = 1 + round(where * (writes[prior] - 1))
        killed = subprocess.run([sys.executable, str(ROOT / "tests" / "killed.py"), str(cfg),
                                 str(at)], env=src_env(), capture_output=True, text=True,
                                timeout=120)
        assert killed.returncode == KILLED, killed.stderr
        # each artifact is the one the run found or the one it makes, never partial
        for name in ARTIFACTS:
            assert tree_state(out / name) in (before[name], tree_state(clean / name)), name
        if (out / "run.json").exists():
            assert isinstance(json.loads((out / "run.json").read_text()), dict)

        run_pipeline(parse_config(cfg))
        assert_same_artifacts(out, clean)
        assert [p.name for p in out.iterdir() if p.suffix in (".tmp", ".old")] == []
        assert (json.loads((out / "run.json").read_text())["stages"]
                == json.loads((clean / "run.json").read_text())["stages"])


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
            for name in ("a", "b"):  # symlink targets, outside the snapshot
                (tmp / ("explorers." + name)).write_text("btc.com\n%s.example\n" % name)
                (tmp / ("page." + name)).write_text("<p>%s.example</p>" % name)
            explorers = tmp / "explorers"
            if kind == "retarget" and target == "file":
                os.symlink(tmp / "explorers.a", explorers)
            else:
                shutil.copy(tmp / "explorers.a", explorers)
            planted, config, out = plant(tmp, "explorer_domains = %s" % explorers)
            site = planted.snapshot / NOISE
            page, link = site / "index.html", (explorers if target == "file"
                                               else site / "%2Flink.html")
            if kind == "retarget" and target == "snapshot":
                os.symlink(tmp / "page.a", link)
            elif kind == "linked-site":  # the site lives outside the snapshot, linked in
                os.replace(site, tmp / "site")
                os.symlink(tmp / "site", site)
            elif kind == "touch-unlisted":  # no manifest line: the mtime is fetched_at
                manifest = planted.snapshot / "manifest.jsonl"
                manifest.write_text("".join(line for line in manifest.read_text().splitlines(True)
                                            if NOISE not in line))
            run_pipeline(config)
            if aged:
                age_manifest(out)

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
            assert_same_artifacts(out, tmp / "fresh")

    def test_input_edited_after_its_digest_reruns_its_stage(self, tmp_path, monkeypatch):
        planted, config, out = plant(tmp_path)
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
        planted, config, out = plant(tmp_path)
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
    """`artifacts.path_digest` as it was when it read each file whole."""
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
        big.write_bytes(bytes(range(256)) * (3 * artifacts._HASH_CHUNK // 256) + b"tail")
        (tree / "sub" / "small.json").write_text("[]\n")
        (tree / "empty").write_bytes(b"")
        for path in (big, tree / "empty", tree, tmp_path / "absent"):
            assert artifacts.path_digest(path) == reference_path_digest(path)

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
            assert artifacts.path_digest(tree) == reference_path_digest(tree)


def reference_stat_signature(tree) -> str:
    """`artifacts.stat_signature` of a directory, from a list of every file's stat."""
    stats = [(str(p.relative_to(tree)), p.stat()) for p in sorted(tree.rglob("*"))
             if p.is_file()]
    h = hashlib.sha256()
    for name, s in stats:
        h.update(b"%s\0%d %d %d %d %d\n" % (name.encode(), s.st_size, s.st_mtime_ns,
                                            s.st_ctime_ns, s.st_ino, s.st_dev))
    return h.hexdigest()


BASE32 = "abcdefghijklmnopqrstuvwxyz234567"


def site_tree(tmp_path, size=None):
    """A snapshot tree of 400 sites with 8 pages each, every file one the
    snapshot walk takes; the first page of each site is empty, and the
    others have `size` bytes, or f bytes for page f."""
    tree = tmp_path / "tree"
    for d in range(400):
        sub = tree / ("site%s%s%s.onion" % (BASE32[d // 32], BASE32[d % 32], "a" * 10))
        sub.mkdir(parents=True)
        for f in range(8):
            (sub / ("f%d.html" % f)).write_bytes(b"x" * (f and (size or f)))
    return tree


class TestStatSignature:
    # an input's walk and the snapshot's stat-only walk, which a no-op rerun takes
    @pytest.mark.parametrize("signature_of", [artifacts.stat_signature, snapshot_signature],
                             ids=["input", "snapshot"])
    def test_streams_the_walk(self, tmp_path, signature_of):
        tree = site_tree(tmp_path)
        tracemalloc.start()
        try:
            signature, _ = signature_of(tree)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert signature == reference_stat_signature(tree)
        # a list of 3,200 (name, stat_result) pairs alone takes about 2 MiB
        assert peak < 512 * 1024

    def test_ingest_holds_little_beyond_its_corpus(self, tmp_path):
        tree = site_tree(tmp_path)
        tracemalloc.start()
        try:
            corpus = ingest_snapshot(tree)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(corpus) == 400 * 7 and len(corpus.skipped) == 400
        # the walk's own memory above what it returns, per file: a stat_result
        # kept for each page until the walk ends would take over 400 B
        assert (peak - held) / (400 * 8) < 400

    def test_kept_log_records_hold_no_walk(self, tmp_path, capsys):
        tree = site_tree(tmp_path, size=200)
        # stderr is captured to a buffer that keeps every line, as a test
        # harness or a log collector does
        tracemalloc.start()
        try:
            corpus = ingest_snapshot(tree)
            assert len(corpus.skipped) == 400
            del corpus
            gc.collect()  # which also empties the free lists of tuples and floats
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(capsys.readouterr().err.splitlines()) == 400
        # a kept line is text; one that held the exception it reports would
        # keep, through the traceback, the walk's frames and every page read so far
        assert held / (400 * 8) < 200


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
    _, config, out = plant(tmp_path_factory.mktemp("handed_on"))
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
        run_pipeline(config)
    return out, values


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
    def test_all_category_rows_present(self, fresh):
        _, out, _ = fresh
        doc = json.loads((out / "tables" / "classification.json").read_text())
        names = [r["category"] for r in doc["rows"]]
        assert len(names) == 14  # 12 categories + Other + Total
        assert names[-1] == "Total"
        assert "Other" in names

    def test_totals_are_column_sums(self, fresh):
        _, out, _ = fresh
        doc = json.loads((out / "tables" / "classification.json").read_text())
        rows, total = doc["rows"][:-1], doc["rows"][-1]
        for col in ("onions", "pages", "btc_addresses", "illicit_btc_addresses"):
            assert total[col] == sum(r[col] for r in rows)

    def test_top_addresses_sorted_desc(self, fresh):
        _, out, _ = fresh
        doc = json.loads((out / "tables" / "top_addresses.json").read_text())
        received = [r["received_satoshi"] for r in doc["rows"]]
        assert received == sorted(received, reverse=True)
        assert doc["rows"][0]["received_btc"] == "1.50000000"

    def test_hand_counted_planted_rows(self, fresh):
        _, out, _ = fresh
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
        tables, _ = report.emit_tables(inputs, top_n=10, min_received=0)
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

    def test_extract_rows_equal_per_page_scans_and_hash_each_body_once(self, fresh,
                                                                       monkeypatch):
        from onionforge import extract
        from onionforge.corpus import PageRecord
        from onionforge.keccak import keccak256_batch
        config, out, _ = fresh
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
    """`export_graph` of an entity_graph.json document, as g.graphml and g.dot."""
    graphml, dot = export_graph(graph)
    (out / "g.graphml").write_text(graphml)
    (out / "g.dot").write_text(dot)


class TestGraphExport:
    def test_three_node_campaign_dot(self, tmp_path):
        graph = {"v": 1,
                 "nodes": {"btc:X": {"type": "btc", "received": 5, "campaign": "c001"},
                           "btc:Y": {"type": "btc", "received": 7, "campaign": "c001"},
                           "site:a.onion": {"type": "site", "category": "Drugs",
                                            "campaign": "c001"}},
                 "edges": [["site-hosts-addr", "btc:X", "site:a.onion"],
                           ["site-hosts-addr", "btc:Y", "site:a.onion"]]}
        write_graph(graph, tmp_path)
        dot = (tmp_path / "g.dot").read_text()
        check_dot_grammar(dot)
        assert dot.count(" -- ") == 2
        parsed = nx.read_graphml(tmp_path / "g.graphml")
        assert len(parsed) == 3 and parsed.number_of_edges() == 2

    def test_empty_campaign_list(self, tmp_path):
        write_graph({"v": 1, "nodes": {}, "edges": []}, tmp_path)
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

    def test_roundtrip_isomorphic(self, fresh):
        _, out, _ = fresh
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

    def test_size_attribute_proportional(self, fresh):
        _, out, _ = fresh
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
    def test_artifacts_byte_identical_across_runs(self, fresh, tmp_path):
        config, out1, _ = fresh
        out2 = tmp_path / "out2"
        run_pipeline(config._replace(out_dir=str(out2)))
        assert_same_artifacts(out1, out2)
