from datetime import datetime, timezone

import pytest

from onionforge.corpus import (
    Corpus, CorpusError, OnionDomain, PageRecord, ingest_snapshot, read_corpus_jsonl,
    write_corpus_jsonl,
)

NOW = datetime(2022, 3, 1, tzinfo=timezone.utc)


def page(domain, path="/", html=b"<html></html>"):
    return PageRecord(domain=OnionDomain(domain), path=path, html=html, fetched_at=NOW)


def name_for(i):
    # valid v2 label from an index: "n" + two base-26 letters + padding
    return "n%s%s%s.onion" % (chr(97 + i // 26), chr(97 + i % 26), "a" * 13)


class TestOnionDomain:
    def test_v2_accepted(self):
        assert OnionDomain("edx2f26lcagct5po.onion").name == "edx2f26lcagct5po.onion"

    def test_v3_accepted(self):
        OnionDomain("a" * 56 + ".onion")

    def test_case_insensitive_canonical(self):
        assert OnionDomain("EDX2F26LCAGCT5PO.ONION") == OnionDomain("edx2f26lcagct5po.onion")

    @pytest.mark.parametrize("bad", [
        "notanonion.com", "short.onion", "a" * 17 + ".onion",
        "edx2f26lcagct5p0.onion",   # 0 and 1 are outside base32
        "edx2f26lcagct5po.onion.co",
    ])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            OnionDomain(bad)


class TestIngest:
    def test_counts(self, tmp_path):
        for d in (name_for(0), name_for(1)):
            site = tmp_path / d
            site.mkdir()
            for fname in ("index.html", "%2Fa.html", "%2Fb.html"):
                (site / fname).write_bytes(b"<html>x</html>")
        corpus = ingest_snapshot(tmp_path)
        assert len(corpus) == 6
        assert len(corpus.index) == 2

    def test_empty_dir(self, tmp_path):
        assert len(ingest_snapshot(tmp_path)) == 0

    def test_non_onion_directory_skipped(self, tmp_path):
        bad = tmp_path / "notanonion.com"
        bad.mkdir()
        (bad / "index.html").write_bytes(b"<html></html>")
        good = tmp_path / name_for(0)
        good.mkdir()
        (good / "index.html").write_bytes(b"<html></html>")
        corpus = ingest_snapshot(tmp_path)
        assert len(corpus) == 1
        assert "notanonion.com" in corpus.skipped

    def test_undecodable_filename_skipped(self, tmp_path):
        site = tmp_path / name_for(0)
        site.mkdir()
        (site / "%ff.html").write_bytes(b"<html></html>")
        (site / "index.html").write_bytes(b"<html></html>")
        corpus = ingest_snapshot(tmp_path)
        assert len(corpus) == 1
        assert any("%ff.html" in s for s in corpus.skipped)

    def test_missing_root_fatal(self, tmp_path):
        with pytest.raises(CorpusError):
            ingest_snapshot(tmp_path / "nope")

    def test_duplicate_path_last_write_wins(self, tmp_path):
        site = tmp_path / name_for(0)
        site.mkdir()
        (site / "index.html").write_bytes(b"<html>first</html>")
        (site / "%2F.html").write_bytes(b"<html>second</html>")  # also decodes to "/"
        corpus = ingest_snapshot(tmp_path)
        assert len(corpus) == 1
        assert corpus.pages[0].html == b"<html>first</html>"  # index sorts after %2F

    def test_manifest_timestamps(self, tmp_path):
        site = tmp_path / name_for(0)
        site.mkdir()
        (site / "index.html").write_bytes(b"<html></html>")
        (tmp_path / "manifest.jsonl").write_text(
            '{"domain": "%s", "path": "/", "fetched_at": "2021-06-01T12:00:00Z"}\n'
            % name_for(0))
        corpus = ingest_snapshot(tmp_path)
        assert corpus.pages[0].fetched_at == datetime(2021, 6, 1, 12, tzinfo=timezone.utc)

    def test_jsonl_roundtrip(self, tmp_path):
        corpus = Corpus()
        corpus.add(page(name_for(0), "/", b"\x00binary\xff"))
        write_corpus_jsonl(corpus, tmp_path / "c.jsonl")
        again = read_corpus_jsonl(tmp_path / "c.jsonl")
        assert again.pages[0].html == b"\x00binary\xff"
        assert again.pages[0].fetched_at == NOW

