"""Run the pipeline of a config file and die in the middle of one artifact write.

    PYTHONPATH=src python tests/killed.py CONFIG N

Counts each file the run opens for writing under the config's out_dir. The
N-th (counting from 1) takes half of the first data written to it, or none
if it is closed unwritten, and the process then ends with `os._exit(9)`, as
one killed mid-write would: no `finally` runs and no buffer is flushed. With
N = 0 the run ends normally and prints the count.
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


def tear_writes(tears, die):
    """Make `open` hand a `Torn` file for each path opened for writing for
    which `tears(path)` is true; returns a function that undoes it."""
    real_open = io.open

    def tearing_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        if not isinstance(file, int) and set(mode) & set("wax") and tears(Path(file)):
            return Torn(fh, die)
        return fh
    builtins.open = io.open = tearing_open

    def undo():
        builtins.open = io.open = real_open
    return undo


def main(argv) -> int:
    from onionforge import report
    config = report.parse_config(argv[0])
    at = int(argv[1])
    out = Path(config.out_dir).resolve()
    opened = []

    def tears(path):
        if out not in path.resolve().parents:
            return False
        opened.append(path)
        return len(opened) == at
    tear_writes(tears, lambda: os._exit(KILLED))
    report.run_pipeline(config)
    print(len(opened))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
