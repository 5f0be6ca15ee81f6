import base64
import json
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings, strategies as st

from onionforge.artifacts import write_jsonl
from onionforge.corpus import (
    Corpus, CorpusError, PageRecord, ingest_snapshot, onion_name, read_corpus_jsonl,
    write_corpus_jsonl,
)

NOW = datetime(2022, 3, 1, tzinfo=timezone.utc)


def page(domain, path="/", html=b"<html></html>"):
    return PageRecord(domain=onion_name(domain), path=path, html=html, fetched_at=NOW)


def name_for(i):
    # valid v2 label from an index: "n" + two base-26 letters + padding
    return "n%s%s%s.onion" % (chr(97 + i // 26), chr(97 + i % 26), "a" * 13)


class TestOnionDomain:
    def test_v2_accepted(self):
        assert onion_name("edx2f26lcagct5po.onion") == "edx2f26lcagct5po.onion"

    def test_v3_accepted(self):
        onion_name("a" * 56 + ".onion")

    def test_case_insensitive_canonical(self):
        assert onion_name("EDX2F26LCAGCT5PO.ONION") == onion_name("edx2f26lcagct5po.onion")

    @pytest.mark.parametrize("bad", [
        "notanonion.com", "short.onion", "a" * 17 + ".onion",
        "edx2f26lcagct5p0.onion",   # 0 and 1 are outside base32
        "edx2f26lcagct5po.onion.co",
    ])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            onion_name(bad)


class TestIngest:
    def test_counts(self, tmp_path):
        for d in (name_for(0), name_for(1)):
            site = tmp_path / d
            site.mkdir()
            for fname in ("index.html", "%2Fa.html", "%2Fb.html"):
                (site / fname).write_bytes(b"<html>x</html>")
        corpus = ingest_snapshot(tmp_path)
        assert len(corpus) == 6
        assert [domain for domain, _ in corpus.sites()] == [name_for(0), name_for(1)]

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

    def test_page_entry_that_is_no_file_skipped(self, tmp_path, caplog):
        site = tmp_path / name_for(0)
        (site / "sub.html").mkdir(parents=True)
        (site / "index.html").write_bytes(b"<html></html>")
        corpus = ingest_snapshot(tmp_path)
        assert len(corpus) == 1
        assert corpus.skipped == ["%s/sub.html" % name_for(0)]
        assert "'sub.html'" in caplog.text

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
        assert corpus[0].html == b"<html>first</html>"  # index sorts after %2F

    def test_manifest_timestamps(self, tmp_path):
        site = tmp_path / name_for(0)
        site.mkdir()
        (site / "index.html").write_bytes(b"<html></html>")
        (tmp_path / "manifest.jsonl").write_text(
            '{"domain": "%s", "path": "/", "fetched_at": "2021-06-01T12:00:00Z"}\n'
            % name_for(0))
        corpus = ingest_snapshot(tmp_path)
        assert corpus[0].fetched_at == datetime(2021, 6, 1, 12, tzinfo=timezone.utc)

    def test_manifest_domain_matches_case_insensitively(self, tmp_path):
        site = tmp_path / name_for(0)
        site.mkdir()
        (site / "index.html").write_bytes(b"<html></html>")
        (tmp_path / "manifest.jsonl").write_text(
            '{"domain": "%s", "path": "/", "fetched_at": "2021-06-01T12:00:00Z"}\n'
            % name_for(0).upper())
        corpus = ingest_snapshot(tmp_path)
        assert corpus[0].fetched_at == datetime(2021, 6, 1, 12, tzinfo=timezone.utc)

    @pytest.mark.parametrize("bad_line", [
        "[1]", "null", '"x"',
        '{"domain": "%s", "path": "/", "fetched_at": 5}' % name_for(0),
        '{"domain": "%s", "path": "/", "fetched_at": "0001-01-01T00:00:00+01:00"}' % name_for(0),
        '{"domain": "example.com", "path": "/", "fetched_at": "2020-01-01T00:00:00Z"}',
    ], ids=["list", "null", "string", "number-time", "time-out-of-range", "not-an-onion"])
    def test_unusable_manifest_line_is_skipped(self, tmp_path, caplog, bad_line):
        site = tmp_path / name_for(0)
        site.mkdir()
        (site / "index.html").write_bytes(b"<html></html>")
        (tmp_path / "manifest.jsonl").write_text(
            bad_line + '\n{"domain": "%s", "path": "/", "fetched_at": "2021-06-01T12:00:00Z"}\n'
            % name_for(0))
        corpus = ingest_snapshot(tmp_path)
        assert corpus[0].fetched_at == datetime(2021, 6, 1, 12, tzinfo=timezone.utc)
        assert "manifest line 1 unusable" in caplog.text

    def test_manifest_line_that_is_not_utf8_is_unusable(self, tmp_path, caplog):
        site = tmp_path / name_for(0)
        site.mkdir()
        (site / "index.html").write_bytes(b"<html></html>")
        (tmp_path / "manifest.jsonl").write_bytes(
            b'\xff\n{"domain": "%s", "path": "/", "fetched_at": "2021-06-01T12:00:00Z"}\n'
            % name_for(0).encode())
        corpus = ingest_snapshot(tmp_path)
        assert corpus[0].fetched_at == datetime(2021, 6, 1, 12, tzinfo=timezone.utc)
        assert "manifest line 1 unusable" in caplog.text

    def test_manifest_lines_end_only_at_line_ends(self, tmp_path, caplog):
        # U+2028 and U+0085 are line boundaries to str.splitlines, not to JSONL
        site = tmp_path / name_for(0)
        site.mkdir()
        (site / "index.html").write_bytes(b"<html></html>")
        (site / "%2Fa%E2%80%A8b%C2%85c.html").write_bytes(b"<html></html>")
        rows = [{"domain": name_for(0), "path": path, "fetched_at": "2021-06-01T12:00:00Z"}
                for path in ("/", "/a\u2028b\x85c")]
        (tmp_path / "manifest.jsonl").write_bytes(
            "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows).encode()
            + b"[1]\n")
        corpus = ingest_snapshot(tmp_path)
        assert {p.path: p.fetched_at for p in corpus} == {
            "/": datetime(2021, 6, 1, 12, tzinfo=timezone.utc),
            "/a\u2028b\x85c": datetime(2021, 6, 1, 12, tzinfo=timezone.utc)}
        assert "manifest line 3 unusable" in caplog.text
        assert "manifest line 2" not in caplog.text
        assert "manifest line 4" not in caplog.text

    def test_manifest_line_matching_no_page_is_skipped(self, tmp_path, caplog):
        site = tmp_path / name_for(0)
        site.mkdir()
        (site / "index.html").write_bytes(b"<html></html>")
        (tmp_path / "manifest.jsonl").write_text("".join(
            '{"domain": "%s", "path": "%s", "fetched_at": "2021-06-01T12:00:00Z"}\n'
            % (domain, path)
            for domain, path in ((name_for(0), "/gone"), (name_for(0), "/"),
                                 (name_for(1), "/"))))
        corpus = ingest_snapshot(tmp_path)
        assert corpus[0].fetched_at == datetime(2021, 6, 1, 12, tzinfo=timezone.utc)
        assert corpus.skipped == ["manifest line 1", "manifest line 3"]
        assert "manifest line 1 matches no page" in caplog.text
        assert "manifest line 3 matches no page" in caplog.text
        assert "manifest line 2" not in caplog.text

    def test_jsonl_roundtrip(self, tmp_path):
        corpus = Corpus([page(name_for(0), "/", b"\x00binary\xff")])
        write_corpus_jsonl(corpus, tmp_path / "c.jsonl")
        again = read_corpus_jsonl(tmp_path / "c.jsonl")
        assert again[0].html == b"\x00binary\xff"
        assert again[0].fetched_at == NOW

    @pytest.mark.parametrize("field, bad", [
        ("html_b64", ""), ("domain", "notanonion.com")], ids=["empty-page", "non-onion"])
    def test_reader_rejects_a_row_no_ingest_would_keep(self, tmp_path, field, bad):
        row = {"v": 1, "domain": name_for(0), "path": "/", "fetched_at": "2022-03-01T00:00:00Z",
               "html_b64": base64.b64encode(b"<html></html>").decode("ascii")}
        write_jsonl(tmp_path / "c.jsonl", [row, dict(row, path="/a", **{field: bad})])
        with pytest.raises(ValueError):
            read_corpus_jsonl(tmp_path / "c.jsonl")

    def test_reader_keeps_the_later_row_for_one_page(self, tmp_path):
        write_corpus_jsonl(Corpus([page(name_for(0), "/", b"<html>first</html>")]),
                           tmp_path / "first.jsonl")
        write_corpus_jsonl(Corpus([page(name_for(0), "/", b"<html>second</html>")]),
                           tmp_path / "second.jsonl")
        (tmp_path / "c.jsonl").write_bytes((tmp_path / "first.jsonl").read_bytes()
                                           + (tmp_path / "second.jsonl").read_bytes())
        assert [p.html for p in read_corpus_jsonl(tmp_path / "c.jsonl")] == [b"<html>second</html>"]


class TestCorpus:
    def test_built_in_domain_and_path_order(self):
        newer = page(name_for(0), "/", b"<html>newer</html>")
        corpus = Corpus([page(name_for(1), "/"), page(name_for(0), "/"), page(name_for(0), "/a"),
                         newer], ["skipped"])
        assert len(corpus) == 3
        assert [(p.domain, p.path) for p in corpus] == [
            (name_for(0), "/"), (name_for(0), "/a"), (name_for(1), "/")]
        assert corpus[0] is newer
        assert corpus.skipped == ["skipped"]
        assert [(domain, list(pages)) for domain, pages in corpus.sites()] == [
            (name_for(0), list(corpus[:2])), (name_for(1), [corpus[2]])]


def reference_write_corpus_jsonl(corpus, out_path):
    """The generic writer `write_corpus_jsonl` must match byte for byte."""
    write_jsonl(out_path, ({
        "v": 1,
        "domain": page.domain,
        "path": page.path,
        "fetched_at": page.fetched_at.isoformat().replace("+00:00", "Z"),
        "html_b64": base64.b64encode(page.html).decode("ascii"),
    } for page in sorted(corpus, key=lambda p: (p.domain, p.path))))


page_records = st.builds(
    PageRecord,
    domain=st.sampled_from([name_for(0), name_for(1), "b" * 56 + ".onion"]).map(onion_name),
    # quotes, backslashes, control characters, non-ASCII and lone surrogates
    path=st.one_of(st.text(), st.text(alphabet='"\\\x00\x1f\x7f/é€\U0001f600\ud800 ')),
    html=st.binary(min_size=1, max_size=200),
    fetched_at=st.datetimes(timezones=st.sampled_from(
        [timezone.utc, timezone(timedelta(hours=5, minutes=30))])),
)


class TestCorpusJsonlWriter:
    @settings(max_examples=300, deadline=None)
    @given(pages=st.lists(page_records, max_size=8))
    def test_same_bytes_as_the_generic_writer(self, tmp_path_factory, pages):
        tmp = tmp_path_factory.mktemp("writer")
        corpus = Corpus(pages)
        write_corpus_jsonl(corpus, tmp / "fast.jsonl")
        reference_write_corpus_jsonl(corpus, tmp / "reference.jsonl")
        assert (tmp / "fast.jsonl").read_bytes() == (tmp / "reference.jsonl").read_bytes()
