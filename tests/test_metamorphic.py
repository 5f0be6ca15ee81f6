"""Metamorphic relations of the whole pipeline: changes to the planted
corpus's inputs that no rule of the paper gives a meaning to, and that must
leave every artifact but run.json byte-identical."""

import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from onionforge.report import parse_config, run_pipeline

from planted import assert_same_artifacts, build_planted_corpus

# inputs whose rows are keyed, each key on one line, so their line order is
# noise; a trace annotation is keyed by its URL only while no URL has two rows
ORDERLESS_INPUTS = ("gt.jsonl", "snapshot/manifest.jsonl", "chain_annotations.jsonl",
                    "trace_annotations.jsonl")


def planted_run(root: Path, edit=lambda planted: None) -> Path:
    """The out dir of a run over the planted corpus built under `root`,
    after `edit(planted)` changed its inputs."""
    planted = build_planted_corpus(root / "planted")
    edit(planted)
    (root / "run.cfg").write_text(planted.config_text(root / "out"), encoding="utf-8")
    assert run_pipeline(parse_config(root / "run.cfg")).skipped == []
    return root / "out"


@pytest.fixture(scope="module")
def unchanged(tmp_path_factory):
    return planted_run(tmp_path_factory.mktemp("unchanged"))


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(ORDERLESS_INPUTS), st.data())
def test_line_order_of_a_keyed_input_changes_no_artifact(unchanged, name, data):
    def shuffle(planted):
        path = planted.root / name
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(data.draw(st.permutations(lines), label="lines")),
                        encoding="utf-8")

    with tempfile.TemporaryDirectory() as tmp:
        assert_same_artifacts(unchanged, planted_run(Path(tmp), shuffle))


def test_no_url_has_two_trace_annotation_rows(unchanged):
    lines = (unchanged.parent / "planted" / "trace_annotations.jsonl").read_text(
        encoding="utf-8").splitlines()
    urls = [json.loads(line)["url"] for line in lines]
    assert len(urls) == 2 and len(set(urls)) == len(urls)


# a documented non-relation: a URL's last kind wins, so swapping two rows of
# different kind for one URL changes that URL's kind in hits.jsonl, and since
# no stage reads hits.jsonl, nothing else
def test_order_of_two_kinds_for_one_url_sets_its_kind(tmp_path):
    def annotate(kinds):
        def edit(planted):
            url = json.loads(planted.trace_annotations.read_text(encoding="utf-8")
                             .splitlines()[0])["url"]
            with planted.trace_annotations.open("a", encoding="utf-8") as f:
                f.writelines(json.dumps({"url": url, "kind": k}) + "\n" for k in kinds)
        return edit

    first = planted_run(tmp_path / "first", annotate(["AbuseReport", "Benign"]))
    second = planted_run(tmp_path / "second", annotate(["Benign", "AbuseReport"]))
    names = {p.relative_to(first) for p in first.rglob("*") if p.is_file()}
    assert names == {p.relative_to(second) for p in second.rglob("*") if p.is_file()}
    assert [rel for rel in sorted(names) if rel.name != "run.json"
            and (first / rel).read_bytes() != (second / rel).read_bytes()] == [
        Path("hits.jsonl")]
    hits = [[json.loads(line) for line in (out / "hits.jsonl").read_text(
        encoding="utf-8").splitlines()] for out in (first, second)]
    changed = [(a, b) for a, b in zip(*hits) if a != b]
    assert len(hits[0]) == len(hits[1]) and changed
    url = changed[0][0]["url"]
    for a, b in changed:
        assert (a["url"], a["kind"], b["kind"]) == (url, "Benign", "AbuseReport")
        assert dict(a, kind=None) == dict(b, kind=None)
    assert sum(hit["url"] == url for hit in hits[0]) == len(changed)


# a ledger is its transactions in (timestamp, txid) order, and an address's
# hits are sorted, so the order a replayed explorer lists them in is noise
@pytest.mark.parametrize("fixtures", ["tx_fixtures", "search_fixtures"])
def test_order_of_a_replay_fixture_changes_no_artifact(unchanged, tmp_path, fixtures):
    def reverse(planted):
        for path in sorted(getattr(planted, fixtures).glob("*.json")):
            rows = json.loads(path.read_text(encoding="utf-8"))
            path.write_text(json.dumps(rows[::-1], indent=2), encoding="utf-8")

    assert_same_artifacts(unchanged, planted_run(tmp_path, reverse))


# a page's fetch time is its manifest row's, and only a page without one
# takes its file's mtime; the planted manifest has a row for every page
@settings(max_examples=10, deadline=None)
@given(st.data())
def test_mtime_of_a_page_with_a_manifest_row_changes_no_artifact(unchanged, data):
    def touch(planted):
        page = data.draw(st.sampled_from(sorted(planted.snapshot.glob("*/*.html"))),
                         label="page")
        mtime_ns = data.draw(st.integers(0, 2 ** 32 * 10 ** 9), label="mtime_ns")
        os.utime(page, ns=(mtime_ns, mtime_ns))

    with tempfile.TemporaryDirectory() as tmp:
        assert_same_artifacts(unchanged, planted_run(Path(tmp), touch))
