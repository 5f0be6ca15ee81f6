"""Make the pipeline's I/O calls fail, for the tests of its error paths.

    PYTHONPATH=src python tests/killed.py CONFIG N [UNDER]

`inject` makes an open, a write, a rename or a scandir of a matching path
fail: with an errno, an interrupt, or the death of the process.

The command runs the pipeline of a config file and dies in the middle of
one artifact write. It counts each file the run opens for writing under the
config's out_dir, or under out_dir/UNDER. The N-th (counting from 1) takes
half of the first data written to it, or none if it is closed unwritten,
and the process then ends with `os._exit(9)`, as one killed mid-write
would: no `finally` runs and no buffer is flushed. With N = 0 the run ends
normally and prints the count.
"""

import builtins
import io
import os
import sys
from pathlib import Path

KILLED = 9


class Torn:
    """A file opened for writing that keeps half of the first data written to
    it and then calls `die`."""

    def __init__(self, fh, die):
        self.fh, self.die = fh, die

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        if not self.fh.closed:  # closed unwritten
            self.tear()

    def write(self, data):
        self.fh.write(data[:len(data) // 2])
        self.tear()

    def tear(self):
        self.fh.close()
        self.die()


def oserror(err):
    """A fault that raises the OSError of errno `err` for its path."""
    def fault(path):
        raise OSError(err, os.strerror(err), str(path))
    return fault


def inject(patch, call, hit, fault, at=None) -> list:
    """Make the `call`s of each path for which `hit(path)` is true call
    `fault(path)`, which raises or ends the process: every such call, or
    only the `at`-th (counting from 1). Returns the list of the paths of
    those calls (of the opens, for "write"), which grows as they are made.

    `call` is "read" (an open for reading), "open" (an open for writing),
    "write" (a file opened for writing keeps half of the first data written
    to it, or none if it is closed unwritten, and then faults), "rename"
    (`Path.rename` or `Path.replace` of the path) or "scandir". `patch(owner,
    name, value)` sets each attribute replaced: `monkeypatch.setattr`, or
    `setattr` in a process that is to die.
    """
    hits = []

    def fails(path) -> bool:
        if not hit(path):
            return False
        hits.append(path)
        return at is None or len(hits) == at

    if call == "scandir":
        scandir = os.scandir

        def scanning(path="."):
            if not isinstance(path, int) and fails(Path(path)):
                fault(path)
            return scandir(path)
        patch(os, "scandir", scanning)
    elif call == "rename":
        for name in ("rename", "replace"):
            def renaming(self, target, move=getattr(Path, name)):
                if fails(self):
                    fault(self)
                return move(self, target)
            patch(Path, name, renaming)
    else:
        real_open = io.open

        def opening(file, mode="r", *args, **kwargs):
            writes = bool(set(mode) & set("wax"))
            if isinstance(file, int) or writes == (call == "read") or not fails(Path(file)):
                return real_open(file, mode, *args, **kwargs)
            if call == "write":
                return Torn(real_open(file, mode, *args, **kwargs), lambda: fault(file))
            fault(file)
        patch(builtins, "open", opening)
        patch(io, "open", opening)
    return hits


def main(argv) -> int:
    from onionforge import report
    config = report.parse_config(argv[0])
    under = Path(config.out_dir, *argv[2:]).resolve()
    opened = inject(setattr, "write", lambda path: under in path.resolve().parents,
                    lambda path: os._exit(KILLED), int(argv[1]))
    report.run_pipeline(config)
    print(len(opened))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
