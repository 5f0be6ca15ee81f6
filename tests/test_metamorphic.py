"""Metamorphic relations of the whole pipeline: changes to the planted
corpus's inputs that no rule of the paper gives a meaning to, and that must
leave every artifact but run.json byte-identical, or map every artifact the
same way the inputs were mapped."""

import csv
import json
import os
import re
import shutil
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from onionforge.report import run_pipeline

from planted import LEDGER_FIXTURES, TEMPLATES, assert_same_artifacts, plant

# inputs whose rows are keyed, each key on one line, so their line order is
# noise; a trace annotation is keyed by its URL only while no URL has two rows
ORDERLESS_INPUTS = ("gt.jsonl", "snapshot/manifest.jsonl", "chain_annotations.jsonl",
                    "trace_annotations.jsonl")


def edited_run(root: Path, edit=lambda planted: None) -> Path:
    """The out dir of a run over the planted corpus built under `root`,
    after `edit(planted)` changed its inputs."""
    planted, config, out = plant(root)
    edit(planted)
    assert run_pipeline(config).skipped == []
    return out


@pytest.fixture(scope="module")
def unchanged(tmp_path_factory):
    return edited_run(tmp_path_factory.mktemp("unchanged"))


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(ORDERLESS_INPUTS), st.data())
def test_line_order_of_a_keyed_input_changes_no_artifact(unchanged, name, data):
    def shuffle(planted):
        path = planted.root / name
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(data.draw(st.permutations(lines), label="lines")),
                        encoding="utf-8")

    with tempfile.TemporaryDirectory() as tmp:
        assert_same_artifacts(unchanged, edited_run(Path(tmp), shuffle))


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

    first = edited_run(tmp_path / "first", annotate(["AbuseReport", "Benign"]))
    second = edited_run(tmp_path / "second", annotate(["Benign", "AbuseReport"]))
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

    assert_same_artifacts(unchanged, edited_run(tmp_path, reverse))


# a documented non-relation: a ledger file lists each transaction's inputs
# and outputs in the order the explorer gave them, and every other reader
# sums them or takes them as a set, so reversing them changes only the ledger
# files that hold a transaction with more than one input or output
def test_io_order_of_a_replay_fixture_changes_only_its_ledger_files(unchanged, tmp_path):
    def reverse_ios(rows):
        return [dict(row, inputs=row["inputs"][::-1], outputs=row["outputs"][::-1])
                for row in rows]

    def reverse(planted):
        for path in sorted(planted.tx_fixtures.glob("*.json")):
            rows = json.loads(path.read_text(encoding="utf-8"))
            path.write_text(json.dumps(reverse_ios(rows), indent=2), encoding="utf-8")

    out = edited_run(tmp_path, reverse)
    names = {p.relative_to(out) for p in out.rglob("*") if p.is_file()}
    assert names == {p.relative_to(unchanged) for p in unchanged.rglob("*") if p.is_file()}
    changed = [rel for rel in sorted(names) if rel.name != "run.json"
               and (out / rel).read_bytes() != (unchanged / rel).read_bytes()]
    multi_io = sorted(address for address, txs in LEDGER_FIXTURES.items()
                      if any(len(tx["inputs"]) > 1 or len(tx["outputs"]) > 1 for tx in txs))
    assert len(multi_io) == 3
    assert changed == [Path("ledgers", address + ".json") for address in multi_io]
    for rel in changed:
        assert (json.loads((out / rel).read_text(encoding="utf-8"))
                == reverse_ios(json.loads((unchanged / rel).read_text(encoding="utf-8"))))


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
        assert_same_artifacts(unchanged, edited_run(Path(tmp), touch))


# --- equivariance: a change to the inputs maps every artifact the same way ---

ALPHABET = "abcdefghijklmnopqrstuvwxyz234567"
ONION_LABEL = re.compile(r"(?<![a-z2-7])(?:[a-z2-7]{56}|[a-z2-7]{16})(?=\.onion)")
# fields whose value is a position in a sorted list, not a fact: a campaign's
# id and rank, and the first two sites it lists
POSITIONAL = {"id", "rank", "campaign", "d_campaign", "example_sites"}


def relabel(source: str, target: str):
    """`rename(text)` maps each character of every onion label in `text` from
    `source` to `target`; `rename(text, whole=True)` maps all of `text`."""
    table = str.maketrans(source, target)

    def rename(text: str, whole: bool = False) -> str:
        if whole:
            return text.translate(table)
        return ONION_LABEL.sub(lambda m: m.group().translate(table), text)
    return rename


def graph_doc(path: Path) -> dict:
    """graph.graphml or graph.dot as {"nodes": {id: attrs}, "edges": [[kind, u, v]]}."""
    nodes, edges = {}, []
    if path.suffix == ".graphml":
        ns = {"g": "http://graphml.graphdrawing.org/xmlns"}
        graph = ET.parse(path).getroot().find("g:graph", ns)
        for node in graph.findall("g:node", ns):
            nodes[node.get("id")] = {d.get("key"): d.text for d in node.findall("g:data", ns)}
        for edge in graph.findall("g:edge", ns):
            edges.append([edge.find("g:data", ns).text, edge.get("source"), edge.get("target")])
        return {"nodes": nodes, "edges": edges}
    quoted = r'"((?:[^"\\]|\\.)*)"'
    for line in path.read_text(encoding="utf-8").splitlines()[1:-1]:
        if edge := re.fullmatch(r"  %s -- %s \[kind=%s\];" % (quoted, quoted, quoted), line):
            edges.append([edge[3], edge[1], edge[2]])
        else:
            node = re.fullmatch(r"  %s \[(.*)\];" % quoted, line)
            nodes[node[1]] = dict(re.findall(r"(\w+)=%s" % quoted, node[2]))
    return {"nodes": nodes, "edges": edges}


def canonical(value, rename):
    """`value` with its onion names renamed, positional fields dropped, and
    every list sorted, so that the order renaming moves is not compared."""
    if isinstance(value, dict):
        return {rename(k): rename(v, whole=True) if k == "prefix" else canonical(v, rename)
                for k, v in value.items() if k not in POSITIONAL}
    if isinstance(value, list):
        return sorted((canonical(v, rename) for v in value),
                      key=lambda v: json.dumps(v, sort_keys=True))
    return rename(value) if isinstance(value, str) else value


def artifact_values(out: Path, rename=lambda text, whole=False: text) -> dict:
    """Every artifact file but run.json, parsed, by its path under `out`."""
    values = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file() and p.name != "run.json"):
        if path.suffix == ".jsonl":
            value = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        elif path.suffix == ".json":
            value = json.loads(path.read_text(encoding="utf-8"))
        elif path.suffix == ".csv":
            with path.open(encoding="utf-8", newline="") as f:
                value = list(csv.DictReader(f))
        else:
            value = graph_doc(path)
        values[str(path.relative_to(out))] = canonical(value, rename)
    return values


def rename_sites(planted, rename):
    """Rename every site of the planted snapshot, and each row that names one,
    keeping every file's mtime."""
    renamed = planted.root / "renamed"
    renamed.mkdir()
    for entry in sorted(planted.snapshot.iterdir()):
        shutil.move(entry, renamed / rename(entry.name))
    planted.snapshot.rmdir()
    renamed.rename(planted.snapshot)
    for path in (planted.snapshot / "manifest.jsonl", planted.ground_truth,
                 planted.chain_annotations):
        st = path.stat()
        path.write_text(rename(path.read_text(encoding="utf-8")), encoding="utf-8")
        os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))


# one permutation of the label alphabet, applied at every position, keeps
# each name valid and keeps which names share a prefix, so vanity groups map
@settings(max_examples=25, deadline=None)
@given(st.permutations(ALPHABET))
def test_renaming_every_site_renames_it_in_every_artifact(unchanged, permutation):
    permutation = "".join(permutation)
    with tempfile.TemporaryDirectory() as tmp:
        out = edited_run(Path(tmp), lambda planted: rename_sites(
            planted, relabel(ALPHABET, permutation)))
        assert artifact_values(out, relabel(permutation, ALPHABET)) == artifact_values(
            unchanged)


def test_renaming_is_seen_by_the_comparison(unchanged, tmp_path):
    swap = ALPHABET[1] + ALPHABET[0] + ALPHABET[2:]
    out = edited_run(tmp_path, lambda planted: rename_sites(planted, relabel(ALPHABET, swap)))
    renamed, back = artifact_values(out), artifact_values(out, relabel(swap, ALPHABET))
    assert renamed != back == artifact_values(unchanged)


OFF_TOPIC = "offtopicsiteaaaa.onion"
OFF_TOPIC_WORDS = ["violin", "cello", "oboe", "bassoon", "timpani", "harp"]


def add_off_topic_site(planted):
    """One site, with a manifest row, whose words are on no ground-truth page."""
    (planted.snapshot / OFF_TOPIC).mkdir()
    (planted.snapshot / OFF_TOPIC / "index.html").write_text(
        "<html><body><p>%s</p></body></html>" % " ".join(OFF_TOPIC_WORDS * 3),
        encoding="utf-8")
    with (planted.snapshot / "manifest.jsonl").open("a", encoding="utf-8") as f:
        f.write(json.dumps({"domain": OFF_TOPIC, "fetched_at": "2022-03-01T00:00:00Z",
                            "path": "/"}, sort_keys=True) + "\n")


def test_an_off_topic_site_adds_one_other_label_and_its_page(unchanged, tmp_path):
    assert not set(OFF_TOPIC_WORDS) & {w for words in TEMPLATES.values() for w in words}
    out = edited_run(tmp_path, add_off_topic_site)
    grown = {"corpus.jsonl", "labels.jsonl", "tables/classification.csv",
             "tables/classification.json", "summary.json"}
    names = {str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()}
    assert names == {str(p.relative_to(unchanged)) for p in unchanged.rglob("*") if p.is_file()}
    assert [name for name in sorted(names - grown) if name != "run.json"
            and (out / name).read_bytes() != (unchanged / name).read_bytes()] == []
    for name in ("corpus.jsonl", "labels.jsonl"):
        lines = (out / name).read_text(encoding="utf-8").splitlines(keepends=True)
        added = [line for line in lines if json.loads(line)["domain"] == OFF_TOPIC]
        assert len(added) == 1
        assert "".join(line for line in lines if line not in added) == (
            unchanged / name).read_text(encoding="utf-8")
    label = json.loads(added[0])
    assert (label["category"], label["phase"]) == ("Other", "none")
    before, after = artifact_values(unchanged), artifact_values(out)
    for rows in (after["tables/classification.json"]["rows"],
                 after["tables/classification.csv"]):
        for row in rows:
            if row["category"] in ("Other", "Total"):
                for key in ("onions", "pages"):
                    row[key] = type(row[key])(int(row[key]) - 1)
    after["summary.json"]["sites_total"] -= 1
    after["summary.json"]["pages_total"] -= 1
    assert {name: after[name] for name in grown - {"corpus.jsonl", "labels.jsonl"}} == {
        name: before[name] for name in grown - {"corpus.jsonl", "labels.jsonl"}}
