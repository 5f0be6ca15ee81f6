"""Config edits over one out dir.

A stage's digest covers its config keys and the contents of every file a
path key names, and a stage sees no other key, so a run over an out dir made
with another config must end with the artifacts a clean run makes, having
executed only stages downstream of one that declares the edited key: a
stage that declares it, or one that reads an artifact such a stage writes.
"""

import json
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from onionforge import report
from onionforge.report import PATH_KEYS, STAGE_DECLS, PipelineConfig, run_pipeline

from fakehttp import serve
from planted import (
    A1, EMAIL, M2, NOISE, TEMPLATES, assert_same_artifacts, build_planted_corpus,
)

DATA = Path(report.__file__).parent / "data"


def without_line(line):
    return lambda text: text.replace(line + "\n", "", 1)


def without_last_row(text):
    return "".join(text.splitlines(keepends=True)[:-1])


# each path key -> (file under the key's path, other contents of that file,
# each made from the file's first); the first content is the file's own
CONTENT_EDITS = {
    "corpus_root": (NOISE + "/index.html", [lambda text: text.replace("kiwi", "kiwi pear")]),
    "ground_truth": ("", [without_last_row]),
    # the second is the same ledger, compact: fetch-tx reruns, and nothing after it
    "tx_fixtures": (A1 + ".json", [lambda text: json.dumps(json.loads(text)[:-1]),
                                   lambda text: json.dumps(json.loads(text))]),
    "search_fixtures": (M2 + ".json", [lambda text: "[]"]),
    "chain_annotations": ("", [lambda text: "".join(text.splitlines(keepends=True)[1:])]),
    "trace_annotations": ("", [without_last_row]),
    "stopwords": ("", [lambda text: text + "\n".join(TEMPLATES["CloneCard"][:4]) + "\n"]),
    "tlds": ("", [without_line(EMAIL.rsplit(".", 1)[1])]),
    "explorer_domains": ("", [without_line("btc.com")]),
}


def scalar_edits(server: str) -> dict:
    """Each scalar key -> the values an edit may give it; `server` answers
    the explorer's and the search's requests from the planted fixtures."""
    return {
        "threshold": [0.5, 0.0, 0.3, 0.8, 1.0],
        "provider": ["fixtures", "http"],
        "base_url": [server, server + "/"],
        "rate_limit": [0.0, 1000.0],
        "search_base_url": ["", server + "/search"],
        "public_threshold": [50, 1, 2],
        "vanity_prefix": [7, 3, 12],
        "top_n": [10, 1, 2],
        "min_received": [0, 1, 10 ** 8],
    }


def downstream(key: str) -> set[str]:
    """The stages that declare `key`, and every stage that reads an artifact one of them writes."""
    reached, written = set(), set()
    for name, decl in STAGE_DECLS.items():  # in pipeline order
        if key in decl.config_keys or written & set(decl.reads):
            reached.add(name)
            written |= set(decl.writes)
    return reached


class Inputs:
    """The planted corpus and a copy of each packaged data file, edited in
    place: `state` holds the index of each key's value or content now, and
    `clean_runs` the out dir of a fresh run for each state met so far."""

    def __init__(self, root: Path, planted, server: str):
        self.root = root
        self.paths = {key: getattr(planted, key, None) for key in CONTENT_EDITS}
        self.paths["corpus_root"] = planted.snapshot
        self.files = {}
        for key, (name, variants) in CONTENT_EDITS.items():
            if self.paths[key] is None:  # a packaged data file, copied
                self.paths[key] = Path(shutil.copy(DATA / (key + ".txt"), root))
            path = self.paths[key] / name if name else self.paths[key]
            text = path.read_text(encoding="utf-8")
            self.files[key] = (path, [text] + [variant(text) for variant in variants])
        self.scalars = scalar_edits(server)
        self.state = {key: 0 for key in [*self.scalars, *self.files]}
        self.clean_runs = {}

    def config(self, out: Path) -> PipelineConfig:
        paths = {key: str(path) for key, path in self.paths.items()}
        return PipelineConfig(out_dir=str(out), **paths, **{
            key: values[self.state[key]] for key, values in self.scalars.items()})

    def edit(self, key: str, index: int):
        self.state[key] = index
        if key in self.files:
            path, contents = self.files[key]
            path.write_text(contents[index], encoding="utf-8")

    def clean_run(self) -> Path:
        """The out dir of a fresh run over the inputs as they are now; one per state."""
        state = tuple(sorted(self.state.items()))
        if state not in self.clean_runs:
            out = self.root / ("clean-%d" % len(self.clean_runs))
            assert run_pipeline(self.config(out)).skipped == []
            self.clean_runs[state] = out
        return self.clean_runs[state]


def fixture_answers(planted):
    """`serve`'s answers from the fixture files as they are at each request."""
    def respond(path):
        if path.startswith("/search?q="):
            found = planted.search_fixtures / (path[len("/search?q="):] + ".json")
            return 200, {"results": json.loads(found.read_text()) if found.exists() else []}
        ledger = planted.tx_fixtures / (path.split("/")[2] + ".json")
        if not ledger.exists():
            return 404, None
        return 200, {"page": 1, "total_pages": 1, "transactions": json.loads(ledger.read_text())}
    return respond


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("config_edits")
    planted = build_planted_corpus(root / "planted")
    with serve(fixture_answers(planted)) as server:
        yield Inputs(root, planted, server)


# (key, index of its value or content) of every edit
EDITS = ([(key, i) for key, values in scalar_edits("").items() for i in range(len(values))]
         + [(key, i) for key, (_, variants) in CONTENT_EDITS.items()
            for i in range(1 + len(variants))])


def test_every_config_key_has_edits():
    assert set(scalar_edits("")) | set(CONTENT_EDITS) == set(PipelineConfig._fields) - {"out_dir"}
    assert set(CONTENT_EDITS) == PATH_KEYS


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from(EDITS), min_size=1, max_size=6))
def test_each_edit_reruns_only_what_it_reaches_and_ends_clean(inputs, sequence):
    for key in inputs.state:
        inputs.edit(key, 0)
    out = inputs.root / "edited"
    shutil.rmtree(out, ignore_errors=True)
    run_pipeline(inputs.config(out))
    for key, index in sequence:
        inputs.edit(key, index)
        run = run_pipeline(inputs.config(out))
        assert set(run.executed) <= downstream(key), (key, index)
        assert_same_artifacts(out, inputs.clean_run())
