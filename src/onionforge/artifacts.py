"""The file format of the artifacts the stages hand to each other.

A JSONL artifact holds one object per line, written with sorted keys. A
JSON document is indented by 2, written with sorted keys, and ends in a
newline. Byte-identical reruns rest on these choices, so every artifact
that `report.ARTIFACTS` declares is written through this module. The value
a stage hands on is the rows or the document itself; only the corpus and
the ledgers are typed, and only the ledger files and corpus.jsonl have
their own exact serializers (`chain.ledger_json`,
`corpus.write_corpus_jsonl`), which write the same bytes in one pass.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone
from importlib import resources
from pathlib import Path


class NotJson(ValueError):
    """A line of a JSONL file that is not JSON, named by its line number."""


def read_jsonl(path, keep_bad_lines: bool = False):
    """Yield the rows of a JSONL file, skipping blank lines.

    A line that is not JSON raises NotJson, or with `keep_bad_lines` is
    yielded as its NotJson, for the caller to skip and count.
    """
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            if line.strip():
                try:
                    row = json.loads(line)
                except ValueError:
                    row = NotJson("line %d is not JSON: %r" % (lineno, line.strip()))
                    if not keep_bad_lines:
                        raise row from None
                yield row


def write_jsonl(path, rows):
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def parse_utc(text: str) -> datetime:
    """An ISO 8601 time ("Z" suffix allowed) as an aware UTC datetime; a time
    without an offset is read as UTC. A malformed text raises ValueError."""
    when = datetime.fromisoformat(text.replace("Z", "+00:00"))
    if when.tzinfo is None:
        when = when.replace(tzinfo=timezone.utc)
    return when.astimezone(timezone.utc)


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
