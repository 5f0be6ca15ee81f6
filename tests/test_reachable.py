"""Every function defined in src/onionforge is entered by some CLI path.

One child process sets a profile hook before it imports onionforge, then
calls `cli.main` over the planted corpus, each perfbench workload's smoke
shape, a snapshot of irregular markup and a local HTTP server: a fresh run,
a no-op rerun, a resumed report, a rerun after a threshold edit, an ingest,
a stage command, an http-provider run, help, a usage error, a config error
and a stage failure. The inputs are built in this process first, so the
package functions that build them do not count.

A `def` (a method or a nested function too) whose code no call entered
fails the test, unless ALLOWED names it with the reason it stays. An allowed
name that is entered, or that no longer exists, fails it too.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from fakehttp import serve
from planted import LEDGER_FIXTURES, build_planted_corpus

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "onionforge"
sys.path.insert(0, str(ROOT / "perfbench"))
import gen  # noqa: E402

# each name no CLI path enters, and why it stays
ALLOWED = {
    "base58.b58encode": "perfbench/gen.py imports it to mint addresses",
    "base58.b58check_encode": "perfbench/gen.py imports it to mint addresses",
    "keccak.keccak256": "perfbench/gen.py imports it, and perfbench/tracer.py rebinds "
                        "extract.keccak256",
    "extract.scan_page": "perfbench/tracer.py rebinds it",
    "cli.console_main": "it ends the process with os._exit; tests/test_cli_process.py runs it",
}

# pages of irregular markup, which the page scanner's slow path reads
IRREGULAR_PAGES = {
    "index.html": b'<a href="x"y=1>t</a>',
    "%2Fb.html": b"<b x<a x",
    "%2Fc.html": b"<p>a <!-- b",
    "%2Fd.html": b"</a b>c",
    "%2Fe.html": b"<![if x]>y<![endif]>",
}

# sets the hook, then runs each step of the plan (argv[1]): a `cli.main`
# argv, or ["rm", path]; writes each step's exit code (None for a removal)
# and the (module, first line, name) of each function of the package it entered
CHILD = """
import json, os, sys
entered = set()

def hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        entered.add((code.co_filename, code.co_firstlineno, code.co_name))

sys.setprofile(hook)
from onionforge import cli
codes = []
for step in json.loads(sys.argv[1]):
    if step[0] == "rm":
        os.remove(step[1])
        codes.append(None)
    else:
        codes.append(cli.main(step))
sys.setprofile(None)
package = os.path.realpath(sys.argv[2])
with open(sys.argv[3], "w", encoding="utf-8") as fh:
    json.dump({"codes": codes,
               "entered": [[os.path.basename(f)[:-3], line, name] for f, line, name in entered
                           if os.path.dirname(os.path.realpath(f)) == package]}, fh)
"""


def defined_functions() -> dict[tuple[str, int, str], str]:
    """(module, first line, name) -> qualified name of each def in the package.

    A decorated def's code starts at its first decorator's line.
    """
    found = {}

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(module, first, child.name)] = prefix + child.name
                visit(child, module, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, module, prefix + child.name + ".")
            else:
                visit(child, module, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, path.stem + ".")
    return found


def fixture_server(planted):
    """`serve`'s answers from the planted fixtures: the explorer's pages under
    /address/, the search's under /search. The first request is refused once
    with a 503 that asks for no wait."""
    searches = {p.stem: json.loads(p.read_text()) for p in planted.search_fixtures.glob("*.json")}
    refused = []

    def respond(path):
        if not refused:
            refused.append(path)
            return 503, None, {"Retry-After": "0"}
        if path.startswith("/search?q="):
            return 200, {"results": searches.get(path[len("/search?q="):], [])}
        address = path.split("/")[2]
        if address not in LEDGER_FIXTURES:
            return 404, None
        return 200, {"page": 1, "total_pages": 1, "transactions": LEDGER_FIXTURES[address]}
    return serve(respond)


def test_every_function_is_reached(tmp_path):
    planted = build_planted_corpus(tmp_path / "planted")
    out = tmp_path / "out"

    def config(name, text, *edits):
        """`--config FILE` of a config file holding `text` with each (old, new) edit made."""
        for old, new in edits:
            text = text.replace(old, new)
        (tmp_path / (name + ".cfg")).write_text(text)
        return ["--config", str(tmp_path / (name + ".cfg"))]

    def planted_config(name, out_dir=None, *edits):
        return config(name, planted.config_text(out_dir or tmp_path / (name + "-out")), *edits)

    run = planted_config("planted", out)
    threshold = ("threshold = 0.5", "threshold = 0.6")
    bad_gt = tmp_path / "bad-gt.jsonl"
    bad_gt.write_text('{"domain": "missing.onion", "path": "/", "category": "Drugs"}\n')
    irregular = tmp_path / "irregular"
    (irregular / "irregularmarkupa.onion").mkdir(parents=True)
    for name, html in IRREGULAR_PAGES.items():
        (irregular / "irregularmarkupa.onion" / name).write_bytes(html)
    # (expected exit code, `cli.main` argv), or (None, ["rm", path])
    steps = [(0, ["run", *run]), (0, ["run", *run]),
             (None, ["rm", str(out / "summary.json")]), (0, ["report", *run]),
             (0, ["run", *planted_config("threshold", out, threshold)]),
             (0, ["ingest", *planted_config("ingest")]),
             (0, ["extract", *planted_config("irregular", None,
                                             (str(planted.snapshot), str(irregular)))]),
             (0, ["-h"]), (2, ["-v", "run", *run]),
             (2, ["run", *planted_config("bad-key", None, ("threshold", "no_such_key"))]),
             (3, ["run", *planted_config("failing", None,
                                         (str(planted.ground_truth), str(bad_gt)))])]
    for workload in sorted(gen.WORKLOADS):
        gen.generate(workload, 1, tmp_path / workload, smoke=True)
        steps.append((0, ["run", *config(workload, gen.config_text(
            tmp_path / workload, tmp_path / (workload + "-out")))]))

    result = tmp_path / "entered.json"
    with fixture_server(planted) as base:
        steps.append((0, ["run", *planted_config("http", out, threshold, (
            "provider = fixtures", "provider = http\nbase_url = %s\n"
            "search_base_url = %s/search\nrate_limit = 1000" % (base, base)))]))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps([s for _, s in steps]),
                               str(PACKAGE), str(result)],
                              env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(result.read_text())
    assert doc["codes"] == [code for code, _ in steps], proc.stderr

    defined = defined_functions()
    entered = {defined[tuple(key)] for key in doc["entered"] if tuple(key) in defined}
    unentered = set(defined.values()) - entered
    for problem, names in (("no CLI path enters", unentered - set(ALLOWED)),
                           ("a CLI path enters the allowed", set(ALLOWED) & entered),
                           ("no def is left of the allowed", set(ALLOWED) - set(defined.values()))):
        assert not names, "%s %s" % (problem, ", ".join(sorted(names)))
