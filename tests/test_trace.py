import json

import pytest

from onionforge import net, report
from onionforge.artifacts import read_jsonl, write_jsonl
from onionforge.trace import (
    FixtureSearch, HttpSearch, IdentityFact, SurfaceHit, TraceError,
    filter_explorer_urls, hit_rows, import_annotations, load_explorer_domains,
    search_address, search_all, surface_links,
)

from fakehttp import FakeResponse, FakeSession, http_response, serve

EXPLORERS = load_explorer_domains()
ADDR = "1CHvWk36MR5aCz72jViS7jSub9utJf3jii"


class TestSurfaceHit:
    def test_rejects_bad_url(self, tmp_path):
        (tmp_path / "bad.json").write_text(json.dumps(["not a url"]))
        (tmp_path / "good.json").write_text(json.dumps(["https://ok.example.com/"]))
        hits, failures = search_all(["bad", "good"], FixtureSearch(tmp_path), EXPLORERS)
        assert [h.address for h in hits] == ["good"]
        assert list(failures) == ["bad"] and "'not a url'" in failures["bad"]

    @pytest.mark.parametrize("result", [5, None, ["https://a.example.com/"],
                                        {"url": 5}, {}, "ftp://a.example.com/", "https://",
                                        "http://[::1/"])
    def test_rejects_a_result_that_is_not_a_web_url(self, tmp_path, result):
        (tmp_path / "bad.json").write_text(json.dumps(["https://ok.example.com/", result]))
        with pytest.raises(TraceError, match="not an http"):
            search_address("bad", FixtureSearch(tmp_path), EXPLORERS)
        hits, failures = search_all(["bad"], FixtureSearch(tmp_path), EXPLORERS)
        assert hits == [] and list(failures) == ["bad"]

    @pytest.mark.parametrize("payload", [{"https://a.example.com/": 1}, 5, None])
    def test_fixture_not_an_array_is_a_per_address_failure(self, tmp_path, payload):
        (tmp_path / "bad.json").write_text(json.dumps(payload))
        hits, failures = search_all(["bad"], FixtureSearch(tmp_path), EXPLORERS)
        assert hits == [] and "not a JSON array" in failures["bad"]


class TestSearch:
    def test_fixture_replay(self, tmp_path):
        urls = ["https://a.example.com/1", "https://b.example.org/2",
                "https://c.example.net/3"]
        (tmp_path / (ADDR + ".json")).write_text(json.dumps(urls))
        hits = search_address(ADDR, FixtureSearch(tmp_path), EXPLORERS)
        assert [h.url for h in hits] == urls
        assert all(h.kind == "Unreviewed" for h in hits)

    def test_zero_results(self, tmp_path):
        assert search_address(ADDR, FixtureSearch(tmp_path), EXPLORERS) == []

    def test_explorer_result_auto_marked(self, tmp_path):
        urls = ["https://www.blockchain.com/btc/address/" + ADDR,
                "https://news.example.com/story"]
        (tmp_path / (ADDR + ".json")).write_text(json.dumps(urls))
        hits = search_address(ADDR, FixtureSearch(tmp_path), EXPLORERS)
        assert [h.kind for h in hits] == ["Explorer", "Unreviewed"]

    def test_dedup(self, tmp_path):
        (tmp_path / (ADDR + ".json")).write_text(json.dumps(
            ["https://a.example.com/"] * 4))
        assert len(search_address(ADDR, FixtureSearch(tmp_path), EXPLORERS)) == 1

    def test_failures_recorded_not_fatal(self, tmp_path):
        class Boom(FixtureSearch):
            def results(self, address):
                if address == "bad":
                    raise RuntimeError("quota exceeded")
                return super().results(address)

        (tmp_path / "good.json").write_text(json.dumps(["https://ok.example.com/"]))
        hits, failures = search_all(["bad", "good"], Boom(tmp_path), EXPLORERS)
        assert [h.address for h in hits] == ["good"]
        assert "quota exceeded" in failures["bad"]


@pytest.fixture
def no_backoff(monkeypatch):
    monkeypatch.setattr(net, "BACKOFF_S", 0.0)


FOUND = {"results": ["https://found.example.com/"]}


@pytest.mark.usefixtures("no_backoff")
class TestHttpSearch:
    def test_query_and_parsing(self):
        session = FakeSession([FakeResponse(200, FOUND)])
        provider = HttpSearch("https://search.example.com/api", session=session)
        assert provider.results(ADDR) == ["https://found.example.com/"]
        assert session.calls == [("https://search.example.com/api", {"q": ADDR})]

    @pytest.mark.parametrize("payload", [
        {"error": "quota exceeded"}, {"results": "https://a.example/"},
        {"results": None}, ["https://a.example/"], None,
    ])
    def test_malformed_answer_is_a_per_address_failure(self, payload):
        session = FakeSession([FakeResponse(200, payload), FakeResponse(200, FOUND)])
        hits, failures = search_all(["bad", "good"], HttpSearch("http://s", session=session),
                                    EXPLORERS)
        assert [h.address for h in hits] == ["good"]
        assert list(failures) == ["bad"]
        assert "malformed answer from http://s" in failures["bad"]

    def test_429_is_retried(self):
        session = FakeSession([http_response(429), http_response(429),
                               http_response(200, FOUND)])
        hits, failures = search_all(["a"], HttpSearch("http://s", session=session), EXPLORERS)
        assert [h.url for h in hits] == FOUND["results"] and failures == {}
        assert len(session.calls) == 3

    def test_503_past_the_retries_is_a_per_address_failure(self):
        session = FakeSession([http_response(503)] * (net.MAX_RETRIES + 1)
                              + [http_response(200, FOUND)])
        hits, failures = search_all(["busy", "good"], HttpSearch("http://s", session=session),
                                    EXPLORERS)
        assert "503" in failures["busy"]
        assert [h.address for h in hits] == ["good"]
        assert len(session.calls) == net.MAX_RETRIES + 2

    @pytest.mark.parametrize("status", [400, 404])
    def test_4xx_fails_the_address_without_retry(self, status):
        session = FakeSession([http_response(status)] * 4)
        hits, failures = search_all(["a"], HttpSearch("http://s", session=session), EXPLORERS)
        assert hits == [] and str(status) in failures["a"]
        assert len(session.calls) == 1

    def test_against_real_http_server(self):
        seen = []

        def respond(path):
            seen.append(path)
            if path == "/api?q=known":
                return 200, FOUND
            if path == "/api?q=flaky" and seen.count(path) == 1:
                return 503, None
            return (200, {"results": []}) if path == "/api?q=flaky" else (404, None)

        with serve(respond) as base:
            provider = HttpSearch(base + "/api")  # default requests session
            hits, failures = search_all(["flaky", "known", "unknown"], provider, EXPLORERS)
        assert [(h.address, h.url, h.source) for h in hits] == [
            ("known", "https://found.example.com/", "http")]
        assert list(failures) == ["unknown"] and "404" in failures["unknown"]
        assert seen == ["/api?q=flaky", "/api?q=flaky", "/api?q=known", "/api?q=unknown"]


class TestExplorerFilter:
    def test_btc_com_marked(self):
        hits = [SurfaceHit(address=ADDR, url="https://btc.com/" + ADDR)]
        assert filter_explorer_urls(hits, EXPLORERS)[0].kind == "Explorer"

    def test_news_url_untouched(self):
        hits = [SurfaceHit(address=ADDR, url="https://news.example.com/a")]
        assert filter_explorer_urls(hits, EXPLORERS)[0].kind == "Unreviewed"

    def test_empty(self):
        assert filter_explorer_urls([], EXPLORERS) == []

    def test_idempotent(self):
        hits = [SurfaceHit(address=ADDR, url="https://btc.com/x"),
                SurfaceHit(address=ADDR, url="https://other.example.com/y")]
        once = filter_explorer_urls(hits, EXPLORERS)
        assert filter_explorer_urls(once, EXPLORERS) == once

    def test_never_demotes_analyst_kind(self):
        hits = [SurfaceHit(address=ADDR, url="https://btc.com/x", kind="AbuseReport")]
        assert filter_explorer_urls(hits, EXPLORERS)[0].kind == "AbuseReport"

    def test_suffix_matching_not_substring(self):
        hits = [SurfaceHit(address=ADDR, url="https://notbtc.com.example.com/x")]
        assert filter_explorer_urls(hits, EXPLORERS)[0].kind == "Unreviewed"


class TestAnnotations:
    def test_kind_update(self):
        hits = [SurfaceHit(address=ADDR, url="https://x.example.com/")]
        updated, facts, skipped = import_annotations(
            [{"url": "https://x.example.com/", "kind": "AbuseReport"}], hits)
        assert updated[0].kind == "AbuseReport"
        assert not facts and not skipped

    def test_later_kind_wins_on_every_hit_of_its_url(self):
        url, other = "https://x.example.com/", "https://y.example.com/"
        hits = [SurfaceHit(address="A", url=url), SurfaceHit(address="A", url=other),
                SurfaceHit(address="B", url=url)]
        updated, _, skipped = import_annotations(
            [{"url": url, "kind": "AbuseReport"}, {"url": url, "kind": "Benign"},
             {"url": url, "ip": "203.0.113.5"}], hits)
        assert [(h.address, h.url, h.kind) for h in updated] == [
            ("A", url, "Benign"), ("A", other, "Unreviewed"), ("B", url, "Benign")]
        assert not skipped

    def test_identity_fact_emitted(self):
        hits = [SurfaceHit(address=ADDR, url="https://x.example.com/")]
        _, facts, _ = import_annotations(
            [{"url": "https://x.example.com/", "ip": "203.0.113.5",
              "registrant": "Example Org"}], hits)
        assert facts == [IdentityFact(url="https://x.example.com/",
                                      ip="203.0.113.5", registrant="Example Org")]

    def test_unknown_url_skipped(self):
        hits = [SurfaceHit(address=ADDR, url="https://x.example.com/")]
        updated, facts, skipped = import_annotations(
            [{"url": "https://unknown.example.com/", "kind": "Benign",
              "ip": "203.0.113.5"}], hits)
        assert skipped == 1 and not facts
        assert updated[0].kind == "Unreviewed"

    def test_malformed_kind_skipped(self):
        hits = [SurfaceHit(address=ADDR, url="https://x.example.com/")]
        _, _, skipped = import_annotations(
            [{"url": "https://x.example.com/", "kind": "SomethingElse"}], hits)
        assert skipped == 1

    @pytest.mark.parametrize("bad", [[1], "x", None, 5, {"url": ["https://x.example.com/"]}])
    def test_row_that_is_not_an_object_with_a_text_url_skipped(self, caplog, bad):
        hits = [SurfaceHit(address=ADDR, url="https://x.example.com/")]
        updated, facts, skipped = import_annotations(
            [bad, {"url": "https://x.example.com/", "kind": "Benign"}], hits)
        assert skipped == 1 and not facts
        assert updated[0].kind == "Benign"
        assert "skipped" in caplog.text

    @pytest.mark.parametrize("fact", [{"registrant": 5}, {"ip": [1]}, {"ip": 7},
                                      {"ip": "203.0.113.5", "registrant": {"n": 1}}])
    def test_non_text_identity_field_skipped(self, caplog, fact):
        hits = [SurfaceHit(address=ADDR, url="https://x.example.com/")]
        updated, facts, skipped = import_annotations(
            [{"url": "https://x.example.com/", "kind": "AbuseReport", **fact}], hits)
        assert skipped == 1 and not facts
        assert updated[0].kind == "Unreviewed"
        assert "non-text" in caplog.text

    def test_file_form(self, tmp_path):
        hits = [SurfaceHit(address=ADDR, url="https://x.example.com/")]
        path = tmp_path / "ann.jsonl"
        path.write_text(json.dumps({"url": "https://x.example.com/",
                                    "kind": "IllicitSite"}) + "\n")
        updated, _, _ = import_annotations(read_jsonl(path), hits)
        assert updated[0].kind == "IllicitSite"

    def test_line_that_is_not_json_skipped(self, tmp_path, caplog):
        (tmp_path / "search").mkdir()
        (tmp_path / "search" / (ADDR + ".json")).write_text(
            json.dumps(["https://x.example.com/"]))
        path = tmp_path / "ann.jsonl"
        path.write_text(json.dumps({"url": "https://x.example.com/", "kind": "IllicitSite",
                                    "ip": "203.0.113.5"}) + '\n\n{"url": "https://x\n')
        cfg = report.PipelineConfig(search_fixtures=str(tmp_path / "search"),
                                    trace_annotations=str(path))
        outputs = report.stage_trace(cfg, {"illicit.jsonl": {ADDR: {}}})
        assert [row["kind"] for row in outputs["hits.jsonl"]] == ["IllicitSite"]
        assert [row["ip"] for row in outputs["surface.jsonl"]] == ["203.0.113.5"]
        assert "line 3 is not JSON" in caplog.text

        hits = [SurfaceHit(address=ADDR, url="https://x.example.com/")]
        _, facts, skipped = import_annotations(read_jsonl(path, keep_bad_lines=True), hits)
        assert skipped == 1 and len(facts) == 1


class TestSurfaceLinks:
    def test_join_addresses_by_url(self):
        hits = [SurfaceHit(address="A", url="https://x.example.com/"),
                SurfaceHit(address="B", url="https://x.example.com/"),
                SurfaceHit(address="C", url="https://y.example.com/")]
        facts = [IdentityFact(url="https://x.example.com/", ip="203.0.113.5")]
        links = surface_links(hits, facts)
        assert links == [{"v": 1, "url": "https://x.example.com/", "ip": "203.0.113.5",
                          "registrant": None, "addresses": ["A", "B"]}]


def test_hits_jsonl_roundtrip(tmp_path):
    hits = [SurfaceHit(address=ADDR, url="https://x.example.com/", kind="AbuseReport")]
    write_jsonl(tmp_path / "hits.jsonl", hit_rows(hits, {"lost": "timeout"}))
    assert list(read_jsonl(tmp_path / "hits.jsonl")) == [
        {"v": 1, "address": ADDR, "url": "https://x.example.com/", "source": "search",
         "kind": "AbuseReport"},
        {"v": 1, "address": "lost", "error": "timeout"},
    ]
