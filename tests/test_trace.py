import json

import pytest

from onionforge import net, report
from onionforge.artifacts import read_jsonl, write_jsonl
from onionforge.trace import (
    FixtureSearch, HttpSearch, TraceError, hit_rows, import_annotations,
    load_explorer_domains, search_address, search_all,
)

from fakehttp import FakeResponse, FakeSession, http_response, serve

EXPLORERS = load_explorer_domains()
ADDR = "1CHvWk36MR5aCz72jViS7jSub9utJf3jii"


def hit(address, url, kind="Unreviewed"):
    """A hits.jsonl row, as `search_address` builds it."""
    return {"v": 1, "address": address, "url": url, "source": "search", "kind": kind}


class Results:
    """A search provider that finds the given URLs for every address."""

    source = "search"

    def __init__(self, *urls):
        self.urls = list(urls)

    def results(self, address):
        return self.urls


def kind_of(url, domains=EXPLORERS):
    """The kind `search_address` gives a hit on `url`."""
    [found] = search_address(ADDR, Results(url), domains)
    return found["kind"]


class TestSurfaceHit:
    def test_rejects_bad_url(self, tmp_path):
        (tmp_path / "bad.json").write_text(json.dumps(["not a url"]))
        (tmp_path / "good.json").write_text(json.dumps(["https://ok.example.com/"]))
        hits, failures = search_all(["bad", "good"], FixtureSearch(tmp_path), EXPLORERS)
        assert [h["address"] for h in hits] == ["good"]
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
        assert [h["url"] for h in hits] == urls
        assert all(h["kind"] == "Unreviewed" for h in hits)

    def test_zero_results(self, tmp_path):
        assert search_address(ADDR, FixtureSearch(tmp_path), EXPLORERS) == []

    def test_explorer_result_auto_marked(self, tmp_path):
        urls = ["https://www.blockchain.com/btc/address/" + ADDR,
                "https://news.example.com/story"]
        (tmp_path / (ADDR + ".json")).write_text(json.dumps(urls))
        hits = search_address(ADDR, FixtureSearch(tmp_path), EXPLORERS)
        assert [h["kind"] for h in hits] == ["Explorer", "Unreviewed"]

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
        assert [h["address"] for h in hits] == ["good"]
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
        assert [h["address"] for h in hits] == ["good"]
        assert list(failures) == ["bad"]
        assert "malformed answer from http://s" in failures["bad"]

    def test_429_is_retried(self):
        session = FakeSession([http_response(429), http_response(429),
                               http_response(200, FOUND)])
        hits, failures = search_all(["a"], HttpSearch("http://s", session=session), EXPLORERS)
        assert [h["url"] for h in hits] == FOUND["results"] and failures == {}
        assert len(session.calls) == 3

    def test_503_past_the_retries_is_a_per_address_failure(self):
        session = FakeSession([http_response(503)] * (net.MAX_RETRIES + 1)
                              + [http_response(200, FOUND)])
        hits, failures = search_all(["busy", "good"], HttpSearch("http://s", session=session),
                                    EXPLORERS)
        assert "503" in failures["busy"]
        assert [h["address"] for h in hits] == ["good"]
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
        assert [(h["address"], h["url"], h["source"]) for h in hits] == [
            ("known", "https://found.example.com/", "http")]
        assert list(failures) == ["unknown"] and "404" in failures["unknown"]
        assert seen == ["/api?q=flaky", "/api?q=flaky", "/api?q=known", "/api?q=unknown"]


class TestExplorerFilter:
    def test_btc_com_marked(self):
        assert kind_of("https://btc.com/" + ADDR) == "Explorer"

    def test_news_url_untouched(self):
        assert kind_of("https://news.example.com/a") == "Unreviewed"

    def test_empty(self):
        assert search_address(ADDR, Results(), EXPLORERS) == []

    def test_never_demotes_analyst_kind(self):
        hits = search_address(ADDR, Results("https://btc.com/x"), EXPLORERS)
        import_annotations([{"url": "https://btc.com/x", "kind": "AbuseReport"}], hits)
        assert hits[0]["kind"] == "AbuseReport"

    def test_suffix_matching_not_substring(self):
        assert kind_of("https://notbtc.com.example.com/x") == "Unreviewed"

    @pytest.mark.parametrize("url", ["https://user@blockchair.com/x",
                                     "https://user:pw@BTC.com:8443/x",
                                     "https://[2001:db8::1]:8080/x"])
    def test_host_is_the_url_hostname(self, url):
        # userinfo, port, case and IPv6 brackets are not part of the host
        assert kind_of(url, EXPLORERS | {"2001:db8::1"}) == "Explorer"

    def test_a_hostless_url_matches_no_domain(self):
        # a web URL whose netloc is a port alone; its path names no host
        assert kind_of("http://:80/btc.com") == "Unreviewed"


class TestAnnotations:
    def test_kind_update(self):
        hits = [hit(ADDR, "https://x.example.com/")]
        surface, skipped = import_annotations(
            [{"url": "https://x.example.com/", "kind": "AbuseReport"}], hits)
        assert hits[0]["kind"] == "AbuseReport"
        assert not surface and not skipped

    def test_later_kind_wins_on_every_hit_of_its_url(self):
        url, other = "https://x.example.com/", "https://y.example.com/"
        hits = [hit("A", url), hit("A", other), hit("B", url)]
        _, skipped = import_annotations(
            [{"url": url, "kind": "AbuseReport"}, {"url": url, "kind": "Benign"},
             {"url": url, "ip": "203.0.113.5"}], hits)
        assert [(h["address"], h["url"], h["kind"]) for h in hits] == [
            ("A", url, "Benign"), ("A", other, "Unreviewed"), ("B", url, "Benign")]
        assert not skipped

    def test_identity_fact_emitted(self):
        hits = [hit(ADDR, "https://x.example.com/")]
        surface, _ = import_annotations(
            [{"url": "https://x.example.com/", "ip": "203.0.113.5",
              "registrant": "Example Org"}], hits)
        assert surface == [{"v": 1, "url": "https://x.example.com/", "ip": "203.0.113.5",
                            "registrant": "Example Org", "addresses": [ADDR]}]

    def test_unknown_url_skipped(self):
        hits = [hit(ADDR, "https://x.example.com/")]
        surface, skipped = import_annotations(
            [{"url": "https://unknown.example.com/", "kind": "Benign",
              "ip": "203.0.113.5"}], hits)
        assert skipped == 1 and not surface
        assert hits[0]["kind"] == "Unreviewed"

    def test_malformed_kind_skipped(self):
        hits = [hit(ADDR, "https://x.example.com/")]
        _, skipped = import_annotations(
            [{"url": "https://x.example.com/", "kind": "SomethingElse"}], hits)
        assert skipped == 1

    @pytest.mark.parametrize("bad", [[1], "x", None, 5, {"url": ["https://x.example.com/"]}])
    def test_row_that_is_not_an_object_with_a_text_url_skipped(self, caplog, bad):
        hits = [hit(ADDR, "https://x.example.com/")]
        surface, skipped = import_annotations(
            [bad, {"url": "https://x.example.com/", "kind": "Benign"}], hits)
        assert skipped == 1 and not surface
        assert hits[0]["kind"] == "Benign"
        assert "skipped" in caplog.text

    @pytest.mark.parametrize("fact", [{"registrant": 5}, {"ip": [1]}, {"ip": 7},
                                      {"ip": "203.0.113.5", "registrant": {"n": 1}}])
    def test_non_text_identity_field_skipped(self, caplog, fact):
        hits = [hit(ADDR, "https://x.example.com/")]
        surface, skipped = import_annotations(
            [{"url": "https://x.example.com/", "kind": "AbuseReport", **fact}], hits)
        assert skipped == 1 and not surface
        assert hits[0]["kind"] == "Unreviewed"
        assert "non-text" in caplog.text

    def test_file_form(self, tmp_path):
        hits = [hit(ADDR, "https://x.example.com/")]
        path = tmp_path / "ann.jsonl"
        path.write_text(json.dumps({"url": "https://x.example.com/",
                                    "kind": "IllicitSite"}) + "\n")
        import_annotations(read_jsonl(path), hits)
        assert hits[0]["kind"] == "IllicitSite"

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

        hits = [hit(ADDR, "https://x.example.com/")]
        surface, skipped = import_annotations(read_jsonl(path, keep_bad_lines=True), hits)
        assert skipped == 1 and len(surface) == 1

    def test_line_that_is_not_utf8_skipped(self, tmp_path, caplog):
        (tmp_path / "search").mkdir()
        (tmp_path / "search" / (ADDR + ".json")).write_text(
            json.dumps(["https://x.example.com/"]))
        path = tmp_path / "ann.jsonl"
        path.write_bytes(b'{"url": "https://x.example.com/", "ip": "203.0.113.5"}\n\xff\n'
                         b'{"url": "https://x.example.com/", "kind": "Benign"}\n')
        cfg = report.PipelineConfig(search_fixtures=str(tmp_path / "search"),
                                    trace_annotations=str(path))
        outputs = report.stage_trace(cfg, {"illicit.jsonl": {ADDR: {}}})
        assert [row["kind"] for row in outputs["hits.jsonl"]] == ["Benign"]
        assert [row["ip"] for row in outputs["surface.jsonl"]] == ["203.0.113.5"]
        assert "line 2 is not JSON: '\\\\xff'" in caplog.text


class TestSurfaceLinks:
    def test_join_addresses_by_url(self):
        hits = [hit("A", "https://x.example.com/"), hit("B", "https://x.example.com/"),
                hit("C", "https://y.example.com/")]
        links, _ = import_annotations([{"url": "https://x.example.com/", "ip": "203.0.113.5"}],
                                      hits)
        assert links == [{"v": 1, "url": "https://x.example.com/", "ip": "203.0.113.5",
                          "registrant": None, "addresses": ["A", "B"]}]


def test_hits_jsonl_roundtrip(tmp_path):
    hits = [hit(ADDR, "https://x.example.com/", kind="AbuseReport")]
    write_jsonl(tmp_path / "hits.jsonl", hit_rows(hits, {"lost": "timeout"}))
    assert list(read_jsonl(tmp_path / "hits.jsonl")) == [
        {"v": 1, "address": ADDR, "url": "https://x.example.com/", "source": "search",
         "kind": "AbuseReport"},
        {"v": 1, "address": "lost", "error": "timeout"},
    ]
