"""The CLI as a process: what it loads, and how it ends.

A command imports only the modules of the stages it executes, so a no-op
rerun or an ingest never loads a stage's parsers or regexes. The entry
point ends the process with a hard exit once the logs and both streams are
flushed; these tests run real child processes to see both.
"""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from onionforge import cli

from planted import build_planted_corpus

ROOT = Path(__file__).resolve().parents[1]

STAGE_MODULES = {"onionforge." + name for name in (
    "chain", "classify", "cluster", "extract", "pagetext", "trace", "keccak", "base58", "net")}

# runs the CLI in-process, then prints the package modules it left loaded
PRINT_LOADED = ("import sys; from onionforge.cli import main; code = main(sys.argv[1:]); "
                "print(' '.join(m for m in sys.modules if m.startswith('onionforge.'))); "
                "sys.exit(code)")


def python(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)


def entry_point_name() -> str:
    """The function pyproject.toml's `onionforge` script calls."""
    match = re.search(r'^onionforge = "onionforge\.cli:(\w+)"$',
                      (ROOT / "pyproject.toml").read_text(), re.MULTILINE)
    assert match, "no onionforge script in pyproject.toml"
    return match.group(1)


@pytest.fixture()
def planted(tmp_path):
    corpus_obj = build_planted_corpus(tmp_path / "planted")

    def config(out_name):
        cfg = tmp_path / (out_name + ".cfg")
        cfg.write_text(corpus_obj.config_text(tmp_path / out_name))
        return cfg
    return corpus_obj, config


def test_a_command_loads_only_the_modules_of_the_stages_it_executes(planted, tmp_path):
    assert all(importlib.util.find_spec(name) for name in STAGE_MODULES)  # no typo
    _, config = planted
    cfg = config("out")
    assert cli.main(["run", "--config", str(cfg)]) == cli.EXIT_OK

    rerun = python("-c", PRINT_LOADED, "run", "--config", str(cfg))
    assert rerun.returncode == cli.EXIT_OK, rerun.stderr
    assert "executed nothing" in rerun.stderr
    loaded = set(rerun.stdout.split())
    assert "onionforge.report" in loaded
    assert not loaded & STAGE_MODULES

    ingest = python("-c", PRINT_LOADED, "ingest", "--config", str(config("fresh")))
    assert ingest.returncode == cli.EXIT_OK, ingest.stderr
    assert "executed ['ingest']" in ingest.stderr
    assert (tmp_path / "fresh" / "corpus.jsonl").is_file()
    loaded = set(ingest.stdout.split())
    assert "onionforge.corpus" in loaded
    assert not loaded & STAGE_MODULES


def test_module_run_exits_with_each_code(planted, tmp_path):
    corpus_obj, config = planted
    ok = python("-m", "onionforge.cli", "run", "--config", str(config("out")))
    assert ok.returncode == cli.EXIT_OK, ok.stderr
    assert re.search(r"run [0-9a-f]{16} complete; executed \[", ok.stderr.splitlines()[-1])
    assert (tmp_path / "out" / "run.json").is_file()

    bad_config = tmp_path / "bad.cfg"
    bad_config.write_text("corpus_root = %s\n" % (tmp_path / "absent"))
    bad = python("-m", "onionforge.cli", "run", "--config", str(bad_config))
    assert bad.returncode == cli.EXIT_CONFIG
    assert "config error: corpus_root is not a directory" in bad.stderr

    corpus_obj.ground_truth.write_text(
        '{"domain": "missing.onion", "path": "/", "category": "Drugs"}\n')
    failed = python("-m", "onionforge.cli", "run", "--config", str(config("failed")))
    assert failed.returncode == cli.EXIT_STAGE
    assert "stage 'classify' failed" in failed.stderr


def test_entry_point_flushes_then_skips_teardown(planted, tmp_path):
    _, config = planted
    name = entry_point_name()
    assert callable(getattr(cli, name))
    # an exit handler runs in interpreter teardown, so a hard exit never prints it
    code = ("import atexit; atexit.register(print, 'teardown'); "
            "from onionforge.cli import %s; %s()" % (name, name))
    proc = python("-c", code, "ingest", "--config", str(config("out")))
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    assert "teardown" not in proc.stdout
    assert "complete; executed ['ingest']" in proc.stderr.splitlines()[-1]
    assert (tmp_path / "out" / "run.json").is_file()
