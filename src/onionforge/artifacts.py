"""The file format of the artifacts the stages hand to each other, and their writer.

A JSONL artifact holds one object per line, written with sorted keys. A
JSON document is indented by 2, written with sorted keys, and ends in a
newline. Byte-identical reruns rest on these choices. The value a stage
hands on is the rows or the document itself (the corpus's rows are
`PageRecord` tuples); only the ledgers are typed, and only the ledger files
and corpus.jsonl have their own exact serializers (`chain.ledger_json`,
`corpus.write_corpus_jsonl`), which make the same bytes in one pass.
`write_file` and `write_tree` write each artifact and run.json, hash them
as they go, and leave a killed process the old artifact or the new one,
never a partial one; a write that raises removes its own `.tmp` first.
They do not fsync (see the README).

It also fixes the fingerprint a stage is skipped on. A content digest
(`path_digest`, which the writers return) hashes a file's name and bytes,
or each file's relative name and bytes in `tree_files` order. A stat
signature (`stat_signature`) hashes a line per file the digest covers, of
its relative name, size, mtime, ctime, inode and device, reading no byte.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from itertools import chain
from operator import attrgetter
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from datetime import datetime


class NotJson(ValueError):
    """A line of a JSONL file that is not JSON, named by its line number."""


def read_jsonl(path, keep_bad_lines: bool = False):
    """Yield the rows of a JSONL file, skipping blank lines; see `jsonl_rows`."""
    with open(path, "rb") as fh:
        for _, row in jsonl_rows(fh, keep_bad_lines):
            yield row


def jsonl_rows(chunks, keep_bad_lines: bool = False):
    """Yield (line number, row) of each non-blank JSONL line in `chunks`: a
    file's bytes whole, or in pieces that end at line ends, such as the
    lines of a file opened in binary mode.

    A line ends at an LF, a CR or a CR LF only, never inside a JSON string
    (a raw U+2028 there ends no line), and is decoded as UTF-8 on its own.
    A line that is not UTF-8 JSON raises NotJson, or with `keep_bad_lines`
    is yielded as its NotJson, for the caller to skip and count.
    """
    lineno = 0
    for chunk in chunks:
        for line in chunk.splitlines():
            lineno += 1
            try:
                text = line.decode("utf-8")
                if not text.strip():
                    continue
                row = json.loads(text)
            except ValueError:  # a UnicodeDecodeError is one
                row = NotJson("line %d is not JSON: %r"
                              % (lineno, line.decode("utf-8", "backslashreplace").strip()))
                if not keep_bad_lines:
                    raise row from None
            yield lineno, row


def write_file(path, pieces) -> str:
    """Write the text `pieces` into `<name>.tmp`, swap that in for the file
    `path`, and return its `path_digest`."""
    path = Path(path)
    tmp, old = _siblings(path)
    h = hashlib.sha256(path.name.encode())
    try:
        _write(tmp, h, pieces)
        if os.path.isdir(path) and not os.path.islink(path):  # a rename replaces no directory
            path.rename(old)
        tmp.replace(path)
    except BaseException:
        with contextlib.suppress(OSError):  # the write's own error is the one to raise
            _clear(tmp)
        raise
    _clear(old)
    return h.hexdigest()


def write_tree(path, files) -> str:
    """Write each file of `files`, a name -> text pieces mapping, once and in
    name order into `<name>.tmp/`, swap that in for the directory `path`,
    and return its `path_digest`."""
    path = Path(path)
    tmp, old = _siblings(path)
    tmp.mkdir()
    h = hashlib.sha256()
    try:
        for name in sorted(files):
            h.update(name.encode())
            _write(tmp / name, h, files[name])
        if os.path.lexists(path):  # a directory is renamed only over an empty one
            path.rename(old)
        tmp.rename(path)
    except BaseException:
        with contextlib.suppress(OSError):  # the write's own error is the one to raise
            _clear(tmp)
        raise
    _clear(old)
    return h.hexdigest()


def _siblings(path: Path) -> tuple[Path, Path]:
    """`<name>.tmp` and `<name>.old` beside `path`, cleared of what a killed run left:
    the writers move aside to `<name>.old` what a rename cannot replace."""
    pair = tuple(path.with_name(path.name + suffix) for suffix in (".tmp", ".old"))
    for stale in pair:
        _clear(stale)
    return pair


def _clear(path):
    """Remove a file, a link (not its target) or a directory tree at `path`."""
    if os.path.isdir(path) and not os.path.islink(path):
        import shutil
        shutil.rmtree(path)
    elif os.path.lexists(path):
        os.unlink(path)


def _write(path, h, pieces):
    with open(path, "wb") as fh:
        for data in map(str.encode, pieces):
            h.update(data)
            fh.write(data)


_HASH_CHUNK = 1 << 20  # files are hashed in pieces, so no input is held whole


def hash_file(h, path):
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(_HASH_CHUNK), b""):
            h.update(chunk)


def sorted_entries(path) -> list[os.DirEntry]:
    with os.scandir(path) as it:
        return sorted(it, key=attrgetter("name"))


def tree_files(root, prefix=""):
    """Yield (relative name, DirEntry) of each file under `root`, in the
    order of `sorted(Path(root).rglob("*"))` and with its symlinks: a link to
    a file is yielded, one to a directory is not entered, a broken or looping
    one is skipped."""
    for entry in sorted_entries(root):
        try:
            is_file = entry.is_file()
        except OSError:  # a symlink loop
            continue
        if is_file:
            yield prefix + entry.name, entry
        elif entry.is_dir(follow_symlinks=False):
            yield from tree_files(entry.path, prefix + entry.name + "/")


def path_digest(path) -> str:
    """The content digest of a file, a directory, or "<absent>"."""
    path = Path(path)
    h = hashlib.sha256()
    if path.is_file():
        h.update(path.name.encode())
        hash_file(h, path)
    elif path.is_dir():
        for name, entry in tree_files(path):
            h.update(name.encode())
            hash_file(h, entry.path)
    else:
        h.update(b"<absent>")
    return h.hexdigest()


class StatSignature:
    """The stat signature of the files a walk visits, hashed as it visits
    them. `newest` is the latest mtime or ctime among them, in ns."""

    def __init__(self):
        self.hash = hashlib.sha256()
        self._update = self.hash.update
        self.newest = 0

    def add(self, name: str, st: os.stat_result):
        mtime, ctime = st.st_mtime_ns, st.st_ctime_ns
        self._update(b"%s\0%d %d %d %d %d\n" % (name.encode(), st.st_size, mtime, ctime,
                                                st.st_ino, st.st_dev))
        if mtime > self.newest or ctime > self.newest:
            self.newest = max(mtime, ctime)

    def taken(self) -> tuple[str, int]:
        return self.hash.hexdigest(), self.newest


def stat_signature(path) -> tuple[str, int]:
    """(signature, newest) of the files `path_digest` would hash; an absent
    path is ("<absent>", 0)."""
    path = Path(path)
    signature = StatSignature()
    if path.is_file():
        signature.add("", os.stat(path))
    elif path.is_dir():
        for name, entry in tree_files(path):
            signature.add(name, entry.stat())
    else:
        return "<absent>", 0
    return signature.taken()


def jsonl_pieces(rows):
    encode = json.JSONEncoder(sort_keys=True).encode  # what json.dumps builds per call
    return (encode(row) + "\n" for row in rows)


def json_pieces(doc):
    return chain(json.JSONEncoder(indent=2, sort_keys=True).iterencode(doc), "\n")


def write_jsonl(path, rows) -> str:
    return write_file(path, jsonl_pieces(rows))


def write_json(path, doc) -> str:
    return write_file(path, json_pieces(doc))


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
    rows = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(rows, list):
        raise ValueError("%s is not a JSON array" % path.name)
    return rows


def word_list(path, packaged_name: str) -> set[str]:
    """The lowercased entries of a word-list file, one per line.

    Reads `path`, or the packaged data file `packaged_name` when `path` is
    empty. Blank lines and lines that start with "#" are skipped.
    """
    if path:
        text = Path(path).read_text(encoding="utf-8")
    else:
        text = (Path(__file__).with_name("data") / packaged_name).read_text(encoding="utf-8")
    return {line.strip().lower() for line in text.split("\n")
            if line.strip() and not line.startswith("#")}
