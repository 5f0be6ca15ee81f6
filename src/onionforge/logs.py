"""Log lines, "LEVEL name: message", each written whole to `sys.stderr` as it is
then. A line shows when its level is at least `threshold`: WARNING for a
library caller, INFO once `cli.main` sets it."""

import sys

INFO, WARNING, ERROR = 20, 30, 40
threshold = WARNING


class Logger:
    def __init__(self, name: str):
        self.name = name

    def _write(self, level: int, label: str, msg: str, args: tuple):
        if level >= threshold:
            sys.stderr.write("%s %s: %s\n" % (label, self.name, msg % args))

    def info(self, msg: str, *args):
        self._write(INFO, "INFO", msg, args)

    def warning(self, msg: str, *args):
        self._write(WARNING, "WARNING", msg, args)

    def error(self, msg: str, *args):
        self._write(ERROR, "ERROR", msg, args)
