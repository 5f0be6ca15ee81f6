"""Command-line entry points: one command per pipeline stage plus the full run.

    onionforge COMMAND --config FILE

`onionforge <stage> --config FILE` runs the pipeline up to and including
that stage; earlier stages whose inputs are unchanged are skipped, exactly
as in `onionforge run --config FILE`. `--config=FILE` is accepted too, and
`-h`/`--help` lists the commands.

Exit codes: 0 success, 2 usage or configuration error (an out dir that
cannot be made is one), 3 stage failure (an input that a stage cannot read
while it is digested is that stage's failure; a final run.json write that
fails is one too, named "run.json").
"""

from __future__ import annotations

import os
import sys

from . import logs, report

log = logs.Logger("onionforge")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STAGE = 3

USAGE = "usage: onionforge [-h] COMMAND --config FILE"


class UsageError(Exception):
    pass


def commands() -> dict[str, str]:
    """Each command's name and one-line help: a stage command runs the
    pipeline up to that stage, `run` runs all of it."""
    helps = {s.name: s.fn.__doc__.strip().split("\n", 1)[0]
             for s in report.STAGE_DECLS.values()}
    helps["run"] = "Run the full staged pipeline."
    return helps


def help_text() -> str:
    lines = [USAGE, "", "Onion-snapshot forensics pipeline", "", "commands:"]
    lines += ["  %-10s %s" % item for item in commands().items()]
    lines += ["", "options:",
              "  -h, --help     show this help and exit",
              "  --config FILE  the run's config file"]
    return "\n".join(lines)


def parse_args(argv) -> tuple[str, str]:
    """(command, config path) of `COMMAND --config FILE`; any other argv
    raises UsageError."""
    if not argv:
        raise UsageError("a command is required")
    command, *rest = argv
    if command not in commands():
        raise UsageError("unknown command %r (choose from %s)"
                         % (command, ", ".join(commands())))
    config = ""
    if len(rest) == 2 and rest[0] == "--config":
        config = rest[1]
    elif len(rest) == 1 and rest[0].startswith("--config="):
        config = rest[0][len("--config="):]
    if not config:
        raise UsageError("%s takes --config FILE and nothing else" % command)
    return command, config


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if "-h" in argv or "--help" in argv:
        print(help_text())
        return EXIT_OK
    try:
        command, config = parse_args(argv)
    except UsageError as exc:
        print("%s\nonionforge: error: %s" % (USAGE, exc), file=sys.stderr)
        return EXIT_CONFIG
    logs.threshold = logs.INFO
    try:
        run = report.run_pipeline(report.parse_config(config),
                                  None if command == "run" else command)
    except report.ConfigError as exc:
        log.error("config error: %s", exc)
        return EXIT_CONFIG
    except report.StageError as exc:
        log.error("%s", exc)
        return EXIT_STAGE
    log.info("run %s complete; executed %s, skipped %s",
             run.run_id, run.executed or "nothing", run.skipped or "nothing")
    return EXIT_OK


def console_main():
    """Run `main`, flush both streams, then end the process without
    interpreter teardown.

    Every artifact is closed and run.json renamed into place before `main`
    returns, so the teardown would only free memory the kernel reclaims
    anyway. An exception that escapes `main` takes the normal exit instead.
    """
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    console_main()
