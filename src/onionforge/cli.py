"""Command-line entry points: one subcommand per pipeline stage plus the full run.

`onionforge <stage> --config FILE` runs the pipeline up to and including
that stage; earlier stages whose inputs are unchanged are skipped, exactly
as in `onionforge run --config FILE`.

Exit codes: 0 success, 2 configuration error, 3 stage failure.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from . import report

log = logging.getLogger("onionforge")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STAGE = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="onionforge",
                                     description="Onion-snapshot forensics pipeline")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    # a stage command runs the pipeline up to that stage
    commands = [(s.name, s.fn.__doc__, s.name) for s in report.STAGE_DECLS.values()]
    commands.append(("run", "Run the full staged pipeline.", None))
    for name, help_text, until in commands:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True)
        p.set_defaults(until=until)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        run = report.run_pipeline(report.parse_config(args.config), args.until)
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
    """Run `main`, flush the logs and both streams, then end the process
    without interpreter teardown.

    Every artifact is closed and run.json renamed into place before `main`
    returns, so the teardown would only free memory the kernel reclaims
    anyway. An exception that escapes `main` takes the normal exit instead.
    """
    code = main()
    logging.shutdown()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    console_main()
