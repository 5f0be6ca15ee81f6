import json

import pytest

from onionforge.artifacts import read_jsonl
from onionforge.trace import (
    FixtureSearch, IdentityFact, SurfaceHit, TraceError, filter_explorer_urls,
    import_annotations, load_explorer_domains, search_address, search_all,
    surface_links, write_hits_jsonl,
)

EXPLORERS = load_explorer_domains()
ADDR = "1CHvWk36MR5aCz72jViS7jSub9utJf3jii"


class TestSurfaceHit:
    def test_rejects_bad_url(self):
        with pytest.raises(TraceError):
            SurfaceHit(address=ADDR, url="not a url")

    def test_rejects_unknown_kind(self):
        with pytest.raises(TraceError):
            SurfaceHit(address=ADDR, url="https://x.example.com/", kind="Odd")


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


class TestHttpSearch:
    def test_query_and_parsing(self):
        from onionforge.trace import HttpSearch

        class FakeSession:
            def __init__(self):
                self.calls = []

            def get(self, url, params=None, timeout=None):
                self.calls.append((url, params))

                class R:
                    status_code = 200

                    def raise_for_status(self):
                        pass

                    def json(self):
                        return {"results": ["https://found.example.com/"]}
                return R()

        session = FakeSession()
        provider = HttpSearch("https://search.example.com/api", session=session)
        assert provider.results(ADDR) == ["https://found.example.com/"]
        assert session.calls == [("https://search.example.com/api", {"q": ADDR})]


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

    def test_file_form(self, tmp_path):
        hits = [SurfaceHit(address=ADDR, url="https://x.example.com/")]
        path = tmp_path / "ann.jsonl"
        path.write_text(json.dumps({"url": "https://x.example.com/",
                                    "kind": "IllicitSite"}) + "\n")
        updated, _, _ = import_annotations(read_jsonl(path), hits)
        assert updated[0].kind == "IllicitSite"


class TestSurfaceLinks:
    def test_join_addresses_by_url(self):
        hits = [SurfaceHit(address="A", url="https://x.example.com/"),
                SurfaceHit(address="B", url="https://x.example.com/"),
                SurfaceHit(address="C", url="https://y.example.com/")]
        facts = [IdentityFact(url="https://x.example.com/", ip="203.0.113.5")]
        links = surface_links(hits, facts)
        assert links == [{"url": "https://x.example.com/", "ip": "203.0.113.5",
                          "registrant": None, "addresses": ("A", "B")}]


def test_hits_jsonl_roundtrip(tmp_path):
    hits = [SurfaceHit(address=ADDR, url="https://x.example.com/", kind="AbuseReport")]
    write_hits_jsonl(hits, {"lost": "timeout"}, tmp_path / "hits.jsonl")
    assert list(read_jsonl(tmp_path / "hits.jsonl")) == [
        {"v": 1, "address": ADDR, "url": "https://x.example.com/", "source": "search",
         "kind": "AbuseReport"},
        {"v": 1, "address": "lost", "error": "timeout"},
    ]
