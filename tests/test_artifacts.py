import json

from hypothesis import given, settings, strategies as st

from onionforge.artifacts import read_jsonl, word_list, write_json, write_jsonl

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


@settings(max_examples=100)
@given(json_values)
def test_write_json_is_indented_sorted_and_newline_terminated(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "write_json.json"
    write_json(path, doc)
    assert path.read_text() == json.dumps(doc, indent=2, sort_keys=True) + "\n"


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
