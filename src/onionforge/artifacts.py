"""The file format of the artifacts the stages hand to each other.

A JSONL artifact holds one object per line, written with sorted keys. A
JSON document is indented by 2, written with sorted keys, and ends in a
newline. Byte-identical reruns rest on these choices, so every artifact
that `report.ARTIFACTS` declares is written through this module; only the
ledger files and corpus.jsonl have their own exact serializers
(`chain.ledger_json`, `corpus.write_corpus_jsonl`), which write the same
bytes in one pass.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path


def read_jsonl(path):
    """Yield the rows of a JSONL file, skipping blank lines."""
    with open(path) as fh:
        for line in fh:
            if line.strip():
                yield json.loads(line)


def write_jsonl(path, rows):
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def word_list(path, packaged_name: str) -> set[str]:
    """The lowercased entries of a word-list file, one per line.

    Reads `path`, or the packaged data file `packaged_name` when `path` is
    empty. Blank lines and lines that start with "#" are skipped.
    """
    if path:
        text = Path(path).read_text()
    else:
        text = resources.files("onionforge.data").joinpath(packaged_name).read_text()
    return {line.strip().lower() for line in text.split("\n")
            if line.strip() and not line.startswith("#")}
