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

# inputs whose rows are keyed, each key on one line, so their line order is noise
ORDERLESS_INPUTS = ("gt.jsonl", "snapshot/manifest.jsonl", "chain_annotations.jsonl")


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
