import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from onionforge.artifacts import (
    NotJson, path_digest, read_jsonl, word_list, write_file, write_json, write_jsonl,
    write_tree,
)

# JSON values as the stages write them: any text (non-ASCII included), ints,
# finite floats, and values nested in lists and objects
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12)
rows = st.lists(st.dictionaries(st.text(), json_values, max_size=5), max_size=5)

# a function-scoped tmp_path is not reset between hypothesis examples, so each
# property test below rewrites one file under the session's base temp dir


@settings(max_examples=100)
@given(rows)
def test_write_jsonl_writes_one_sorted_key_row_per_line(tmp_path_factory, rows):
    path = tmp_path_factory.getbasetemp() / "write_jsonl.jsonl"
    write_jsonl(path, iter(rows))
    assert path.read_text() == "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)


# any JSON value Python's json module writes, NaN and the infinities included
any_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12)


@settings(max_examples=200)
@given(st.lists(st.dictionaries(st.text(), any_json_values, max_size=5), max_size=5))
def test_write_jsonl_bytes_equal_json_dumps_lines(tmp_path_factory, rows):
    path = tmp_path_factory.getbasetemp() / "write_jsonl_bytes.jsonl"
    write_jsonl(path, rows)
    assert path.read_bytes() == "".join(
        json.dumps(row, sort_keys=True) + "\n" for row in rows).encode()


@settings(max_examples=100)
@given(rows, st.lists(st.sampled_from(["", "\n", "  \n", "\t\n"]), min_size=6, max_size=6))
def test_read_jsonl_round_trips_and_skips_blank_lines(tmp_path_factory, rows, blanks):
    path = tmp_path_factory.getbasetemp() / "read_jsonl.jsonl"
    write_jsonl(path, rows)
    lines = path.read_text().splitlines(keepends=True) + [""]
    path.write_text("".join(blank + line for blank, line in zip(blanks, lines)))
    assert list(read_jsonl(path)) == rows


def test_read_jsonl_skips_blank_lines_between_rows(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"a": 1}\n\n   \n{"b": [2, "\\u00e9"]}\n')
    assert list(read_jsonl(path)) == [{"a": 1}, {"b": [2, "\u00e9"]}]


def test_read_jsonl_ends_a_line_at_cr_lf_and_crlf_only(tmp_path):
    path = tmp_path / "rows.jsonl"
    text = "a\u2028b\u2029c\x85d"  # raw in a JSON string, so no line end
    path.write_bytes(json.dumps({"s": text}, ensure_ascii=False).encode("utf-8")
                     + b'\r{"n": 2}\r\n\x0c\x1c{\n')
    rows = list(read_jsonl(path, keep_bad_lines=True))
    assert rows[:2] == [{"s": text}, {"n": 2}]
    assert str(rows[2]).startswith("line 3 is not JSON")


def test_read_jsonl_line_that_is_not_utf8_is_not_json(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_bytes(b'{"n": 1}\n\xff\xfe\n{"n": 3}\n')
    with pytest.raises(NotJson, match=r"line 2 is not JSON: '\\\\xff\\\\xfe'"):
        list(read_jsonl(path))
    first, bad, last = read_jsonl(path, keep_bad_lines=True)
    assert (first, last) == ({"n": 1}, {"n": 3})
    assert isinstance(bad, NotJson)


@settings(max_examples=100)
@given(json_values)
def test_write_json_is_indented_sorted_and_newline_terminated(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "write_json.json"
    write_json(path, doc)
    assert path.read_text() == json.dumps(doc, indent=2, sort_keys=True) + "\n"


# file names as a directory artifact holds them, non-ASCII ones included
file_names = st.text("ab_.-0\u00e9\u4e2d", min_size=1, max_size=6).filter(
    lambda name: name not in (".", ".."))
texts = st.lists(st.text(max_size=8), max_size=3)


def leave(path: Path, kind):
    """Put an entry of `kind` at `path`, as a killed run or a stray command
    may leave one where a writer puts its temp entry or its artifact."""
    if kind == "dir":
        path.mkdir()
        (path / "x").write_text("partial")
    elif kind == "file":
        path.write_text("partial")
    elif kind == "link":  # a dangling symlink
        os.symlink(path.name + ".missing", path)


kinds = st.sampled_from([None, "dir", "file", "link"])


@settings(max_examples=100)
@given(texts, kinds, st.fixed_dictionaries({".tmp": kinds, ".old": kinds}))
@example(["x"], None, {".tmp": "dir", ".old": None})
@example(["x"], "dir", {".tmp": None, ".old": None})
@example(["x"], "dir", {".tmp": None, ".old": "dir"})
def test_write_file_returns_the_digest_of_what_it_wrote(tmp_path_factory, pieces, before,
                                                        leftovers):
    with tempfile.TemporaryDirectory(dir=tmp_path_factory.getbasetemp()) as tmp:
        path = Path(tmp) / "write_file.txt"
        leave(path, before)
        for suffix, kind in leftovers.items():
            leave(path.with_name(path.name + suffix), kind)
        digest = write_file(path, iter(pieces))
        assert path.read_bytes() == "".join(pieces).encode()
        assert not path.is_symlink()
        assert digest == path_digest(path)
        assert not any(os.path.lexists(path.with_name(path.name + suffix))
                       for suffix in (".tmp", ".old"))


@settings(max_examples=100)
@given(st.dictionaries(file_names, texts, max_size=4), st.sets(file_names, max_size=3),
       kinds, st.fixed_dictionaries({".tmp": kinds, ".old": kinds}))
@example({"a": ["x"]}, set(), "dir", {".tmp": "file", ".old": None})
@example({"a": ["x"]}, set(), "dir", {".tmp": "link", ".old": None})
@example({"a": ["x"]}, set(), "file", {".tmp": None, ".old": None})
@example({"a": ["x"]}, set(), "dir", {".tmp": None, ".old": "file"})
def test_write_tree_replaces_the_directory_and_returns_its_digest(tmp_path_factory, files,
                                                                   stale, before, leftovers):
    with tempfile.TemporaryDirectory(dir=tmp_path_factory.getbasetemp()) as tmp:
        path = Path(tmp) / "write_tree"
        leave(path, before)
        if before == "dir":
            for name in stale:  # an earlier run's files, which must not survive
                (path / name).write_text("stale")
        for suffix, kind in leftovers.items():
            leave(path.with_name(path.name + suffix), kind)
        digest = write_tree(path, {name: iter(pieces) for name, pieces in files.items()})
        assert not path.is_symlink()
        assert {p.name: p.read_bytes() for p in path.iterdir()} == {
            name: "".join(pieces).encode() for name, pieces in files.items()}
        assert digest == path_digest(path)
        assert not any(os.path.lexists(path.with_name(path.name + suffix))
                       for suffix in (".tmp", ".old"))


class TestWordList:
    def test_file_comments_blanks_and_case(self, tmp_path):
        path = tmp_path / "words.txt"
        path.write_text("# a comment\n\nAlpha\n  beta  \n\t\nGAMMA\n# Delta\n")
        assert word_list(path, "stopwords.txt") == {"alpha", "beta", "gamma"}

    def test_path_given_wins_over_packaged_file(self, tmp_path):
        path = tmp_path / "words.txt"
        path.write_text("only\n")
        assert word_list(path, "tlds.txt") == {"only"}

    def test_packaged_file_when_path_empty(self):
        for empty in ("", None):
            tlds = word_list(empty, "tlds.txt")
            assert {"com", "org", "onion"} <= tlds
            assert all(t == t.strip().lower() and t and not t.startswith("#") for t in tlds)

    def test_packaged_stopwords(self):
        words = word_list("", "stopwords.txt")
        assert {"the", "and"} <= words
        assert all(w == w.strip().lower() and not w.startswith("#") for w in words)
