import json
import re

import networkx as nx
import pytest

from onionforge import report
from onionforge.cluster import Campaign, EntityGraph
from onionforge.report import (
    ConfigError, PipelineConfig, StageError, StageNotRun, emit_tables, export_graph,
    format_btc, parse_config, run_pipeline,
)

from planted import EXPECTED_CAMPAIGNS, assert_same_artifacts, build_planted_corpus


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

    def test_bad_value(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("threshold = lots\n")
        with pytest.raises(ConfigError, match="threshold"):
            parse_config(cfg_file)

    def test_missing_required(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("threshold = 0.5\n")
        with pytest.raises(ConfigError, match="corpus_root"):
            parse_config(cfg_file)

    def test_http_requires_base_url(self, tmp_path):
        (tmp_path / "c").mkdir()
        (tmp_path / "gt.jsonl").write_text("")
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "corpus_root = %s\nground_truth = %s\nout_dir = %s\nprovider = http\n"
            % (tmp_path / "c", tmp_path / "gt.jsonl", tmp_path / "out"))
        with pytest.raises(ConfigError, match="base_url"):
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

    def test_invalid_config_fails_before_stages(self, tmp_path):
        cfg = PipelineConfig(corpus_root=str(tmp_path / "absent"),
                             ground_truth="x", out_dir=str(tmp_path / "out"))
        with pytest.raises(ConfigError):
            run_pipeline(cfg)
        assert not (tmp_path / "out").exists()


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

    def test_missing_stage_reported_by_name(self, tmp_path):
        with pytest.raises(StageNotRun, match="ingest"):
            emit_tables(tmp_path)

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
        (tmp_path / "campaigns.json").write_text('{"v": 1, "campaigns": []}\n')
        (tmp_path / "phase_trace.json").write_text('{"v": 1, "phases": []}\n')
        (tmp_path / "vanity.json").write_text('{"v": 1, "groups": []}\n')
        summary = emit_tables(tmp_path)
        assert summary["sites_total"] == 0
        assert summary["income_satoshi"] == 0
        assert summary["campaigns"] == 0
        doc = json.loads((tmp_path / "tables" / "classification.json").read_text())
        assert len(doc["rows"]) == 14
        for row in doc["rows"]:
            assert row["onions"] == 0 and row["pages"] == 0

    def test_eth_rows_emitted(self, tmp_path):
        from datetime import datetime, timezone
        from onionforge.corpus import (Corpus, OnionDomain, PageRecord,
                                       write_corpus_jsonl)
        eth = "0x" + "ab" * 20
        corpus = Corpus()
        corpus.add(PageRecord(
            domain=OnionDomain("ethpageaaaaaaaaa.onion"), path="/",
            html=("<p>send %s</p>" % eth).encode(),
            fetched_at=datetime(2022, 3, 1, tzinfo=timezone.utc)))
        write_corpus_jsonl(corpus, tmp_path / "corpus.jsonl")
        report.stage_extract(PipelineConfig(), tmp_path)
        rows = report.read_address_rows(tmp_path / "addresses.jsonl")
        assert rows == [{"v": 1, "domain": "ethpageaaaaaaaaa.onion", "path": "/",
                         "kind": "eth", "value": eth, "valid": True}]

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


class TestGraphExport:
    def test_three_node_campaign_dot(self, tmp_path):
        graph = EntityGraph()
        graph.add_node("site:a.onion", category="Drugs")
        graph.add_node("btc:X", received=5)
        graph.add_node("btc:Y", received=7)
        graph.add_edge("site-hosts-addr", "site:a.onion", "btc:X")
        graph.add_edge("site-hosts-addr", "site:a.onion", "btc:Y")
        campaigns = [Campaign(id="c001", sites=["a.onion"], btc_addresses=["X", "Y"],
                              emails=[], ips=[], urls=[], categories=["Drugs"],
                              received=12)]
        export_graph(campaigns, graph, tmp_path / "g.graphml", tmp_path / "g.dot")
        dot = (tmp_path / "g.dot").read_text()
        check_dot_grammar(dot)
        assert dot.count(" -- ") == 2
        parsed = nx.read_graphml(tmp_path / "g.graphml")
        assert len(parsed) == 3 and parsed.number_of_edges() == 2

    def test_empty_campaign_list(self, tmp_path):
        export_graph([], EntityGraph(), tmp_path / "g.graphml", tmp_path / "g.dot")
        check_dot_grammar((tmp_path / "g.dot").read_text())
        parsed = nx.read_graphml(tmp_path / "g.graphml")
        assert len(parsed) == 0

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

    def test_size_attribute_proportional(self, planted_run):
        _, _, _, out = planted_run
        parsed = nx.read_graphml(out / "graph.graphml")
        for nid, attrs in parsed.nodes(data=True):
            if attrs.get("type") == "btc":
                assert attrs["size"] * report.SATOSHI_PER_BTC == pytest.approx(
                    attrs["received"])


class TestDeterminism:
    def test_artifacts_byte_identical_across_runs(self, planted_run, tmp_path):
        planted, _, _, out1 = planted_run
        out2 = tmp_path / "out2"
        cfg_file = tmp_path / "run2.cfg"
        cfg_file.write_text(planted.config_text(out2))
        run_pipeline(parse_config(cfg_file))
        assert_same_artifacts(out1, out2)
