"""The file format of the artifacts the stages hand to each other.

A JSONL artifact holds one object per line, written with sorted keys. A
JSON document is indented by 2, written with sorted keys, and ends in a
newline. Byte-identical reruns rest on these choices, so every artifact
that `report.ARTIFACTS` declares is written through this module. The value
a stage hands on is the rows or the document itself (the corpus's rows are
`PageRecord` tuples); only the ledgers are typed, and only the ledger files
and corpus.jsonl have their own exact serializers (`chain.ledger_json`,
`corpus.write_corpus_jsonl`), which write the same bytes in one pass.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from datetime import datetime


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
    encode = json.JSONEncoder(sort_keys=True).encode  # what json.dumps builds per call
    with open(path, "w") as fh:
        for row in rows:
            fh.write(encode(row) + "\n")


def write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def parse_utc(text: str) -> datetime:
    """An ISO 8601 time ("Z" suffix allowed) as an aware UTC datetime; a time
    without an offset is read as UTC. A malformed text raises ValueError."""
    import datetime as dt  # on first use, so a run that parses no time never loads it
    when = dt.datetime.fromisoformat(text.replace("Z", "+00:00"))
    if when.tzinfo is None:
        when = when.replace(tzinfo=dt.timezone.utc)
    return when.astimezone(dt.timezone.utc)


def format_utc(when: datetime) -> str:
    """A UTC datetime as the ISO 8601 text `parse_utc` reads, "Z"-suffixed."""
    return when.isoformat().replace("+00:00", "Z")


def read_replay(fixtures_dir, address: str) -> list:
    """The JSON array of the replay fixture `<fixtures_dir>/<address>.json`,
    [] if there is none or `fixtures_dir` is empty; any other JSON value
    raises ValueError naming the file."""
    if not fixtures_dir:
        return []
    path = Path(fixtures_dir) / (address + ".json")
    if not path.is_file():
        return []
    rows = json.loads(path.read_text())
    if not isinstance(rows, list):
        raise ValueError("%s is not a JSON array" % path.name)
    return rows


def word_list(path, packaged_name: str) -> set[str]:
    """The lowercased entries of a word-list file, one per line.

    Reads `path`, or the packaged data file `packaged_name` when `path` is
    empty. Blank lines and lines that start with "#" are skipped.
    """
    if path:
        text = Path(path).read_text()
    else:
        text = (Path(__file__).with_name("data") / packaged_name).read_text()
    return {line.strip().lower() for line in text.split("\n")
            if line.strip() and not line.startswith("#")}
