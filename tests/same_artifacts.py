"""Check that two source trees write the same artifacts.

    PYTHONPATH=src python tests/same_artifacts.py BASE_SRC HEAD_SRC WORK_DIR \
        [--seeds 1 2 3] [--smoke]

Builds the planted corpus (tests/planted.py) and each perfbench workload
(perfbench/gen.py, for each seed) under WORK_DIR, then runs `onionforge run`
on each with BASE_SRC and then with HEAD_SRC first on the PYTHONPATH, both
into the same out dir path. Every file but run.json must be byte-identical,
and run.json's stage digests and run_id equal. Of run.json's input pairs,
the pair of each input outside the out dir must be equal, and the digest
half of each artifact's (its signature is a new file's). Both runs must
print the same stderr lines, with only the elapsed time masked. HEAD_SRC
run over a copy of the out dir BASE_SRC wrote must then skip all eight
stages.
Last, a fresh HEAD_SRC run is killed mid-write at its first, a middle and
its last artifact write (tests/killed.py): each artifact it leaves must be
absent or whole, and run.json JSON. Resumed, it must then leave what its
clean run left. Prints each difference and exits 1 if there is one.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402
from killed import KILLED  # noqa: E402
from planted import assert_same_artifacts, build_planted_corpus  # noqa: E402


def build_inputs(work: Path, seeds, smoke: bool) -> dict[str, str]:
    """name -> config text, with `{out}` standing for the out dir."""
    configs = {}
    planted = build_planted_corpus(work / "inputs" / "planted")
    configs["planted"] = planted.config_text("{out}")
    for workload in sorted(gen.WORKLOADS):
        for seed in seeds:
            name = "%s-%d" % (workload, seed)
            inputs = work / "inputs" / name
            gen.generate(workload, seed, inputs, smoke=smoke)
            configs[name] = gen.config_text(inputs, "{out}")
    return configs


def package_dir(src: Path) -> Path:
    """Where `import onionforge` finds the package with `src` first on the path."""
    env = dict(os.environ, PYTHONPATH=str(src))
    return Path(subprocess.run(
        [sys.executable, "-c", "import onionforge; print(onionforge.__file__)"],
        env=env, capture_output=True, text=True).stdout.strip()).parent


def run(src: Path, config: Path) -> str:
    """`onionforge run` with `src` first on the path; its log."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "onionforge.cli", "run",
                           "--config", str(config)],
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit("onionforge run with %s failed (exit %d):\n%s"
                 % (src, proc.returncode, proc.stderr))
    return proc.stderr


def killed(src: Path, config: Path, at: int) -> subprocess.CompletedProcess:
    """tests/killed.py with `src` first on the path, dying at write `at` (0: never)."""
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, str(ROOT / "tests" / "killed.py"), str(config),
                           str(at)], env=env, capture_output=True, text=True)


def kill_and_resume(src: Path, config: Path, out: Path, clean: Path) -> list[str]:
    """Kill a fresh run at its first, a middle and its last write, resume it
    each time, and compare the out dir with `clean`."""
    counted = killed(src, config, 0)
    if counted.returncode != 0:
        sys.exit("tests/killed.py with %s failed (exit %d):\n%s"
                 % (src, counted.returncode, counted.stderr))
    shutil.rmtree(out)
    writes = int(counted.stdout)
    found = []
    for at in sorted({1, (writes + 1) // 2, writes}):
        proc = killed(src, config, at)
        if proc.returncode != KILLED:
            found.append("a run to be killed at write %d exited %d" % (at, proc.returncode))
        found += ["killed at write %d of %d: %s is partial" % (at, writes, name)
                  for name in partial(out, clean)]
        run(src, config)
        found += ["resumed after a kill at write %d of %d: %s" % (at, writes, difference)
                  for difference in differences(clean, out)]
        shutil.rmtree(out)
    return found


def partial(out: Path, clean: Path) -> list[str]:
    """The artifacts a killed fresh run left in `out` that differ from those
    of its clean run in `clean`; run.json must only be JSON, and a .tmp or
    .old that the writer left is no artifact."""
    found = []
    for path in sorted(out.iterdir()):
        if path.name == "run.json":
            try:
                json.loads(path.read_text())
            except ValueError:
                found.append(path.name)
        elif path.suffix not in (".tmp", ".old") and contents(path) != contents(clean / path.name):
            found.append(path.name)
    return found


def contents(path: Path):
    """A file's bytes, or a directory's {relative name: bytes}."""
    if path.is_dir():
        return {str(p.relative_to(path)): p.read_bytes() for p in path.rglob("*") if p.is_file()}
    return path.read_bytes()


def differences(base: Path, head: Path) -> list[str]:
    found = []
    try:
        assert_same_artifacts(base, head)
    except AssertionError as exc:
        found.append("files differ: %s" % (str(exc) or "not the same file names"))
    manifests = [json.loads((d / "run.json").read_text()) for d in (base, head)]
    for key in ("stages", "run_id"):
        if manifests[0][key] != manifests[1][key]:
            found.append("run.json %s differs" % key)
    return found


# the one part of a run's log that differs from run to run
ELAPSED = re.compile(r"(finished in )\d+\.\d\ds$", re.MULTILINE)


def log_lines(base: str, head: str) -> list[str]:
    """The stderr lines of the BASE and HEAD runs that differ, elapsed time masked."""
    base, head = (ELAPSED.sub(r"\1N.NNs", log).splitlines() for log in (base, head))
    found = ["stderr line %d differs: %r != %r" % (i + 1, b, h)
             for i, (b, h) in enumerate(zip(base, head)) if b != h]
    if len(base) != len(head):
        found.append("stderr has %d lines, against %d" % (len(head), len(base)))
    return found


def input_pairs(base: Path, head: Path, out: Path) -> list[str]:
    """The run.json input pairs that differ between the BASE and HEAD out
    dirs of a run into `out`: whole for an input, the digest for an artifact."""
    found = []
    inputs = [json.loads((d / "run.json").read_text())["inputs"] for d in (base, head)]
    for key in sorted(inputs[0].keys() | inputs[1].keys()):
        pairs = [side.get(key) for side in inputs]
        artifact = out in Path(key).parents
        if artifact:
            pairs = [pair and pair[1] for pair in pairs]
        if pairs[0] != pairs[1]:
            found.append("run.json inputs %s of %s differs"
                         % ("digest" if artifact else "pair", key))
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_src", type=Path)
    parser.add_argument("head_src", type=Path)
    parser.add_argument("work", type=Path)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--smoke", action="store_true",
                        help="the workloads' small smoke shapes")
    args = parser.parse_args(argv)
    base_src, head_src, work = (p.resolve() for p in (args.base_src, args.head_src, args.work))
    for src in (base_src, head_src):
        if package_dir(src) != src / "onionforge":
            sys.exit("%s is not what `import onionforge` loads with it on the path" % src)
    for side in ("base", "head"):
        (work / side).mkdir(parents=True)
    failed = 0
    for name, text in build_inputs(work, args.seeds, args.smoke).items():
        out = work / "out" / name
        config = work / (name + ".cfg")
        config.write_text(text.replace("{out}", str(out)))
        logs = []
        for side, src in (("base", base_src), ("head", head_src)):
            logs.append(run(src, config))
            out.rename(work / side / name)
        found = differences(work / "base" / name, work / "head" / name)
        found += log_lines(*logs)
        found += input_pairs(work / "base" / name, work / "head" / name, out)
        shutil.copytree(work / "base" / name, out)
        if "executed nothing" not in run(head_src, config):
            found.append("a rerun over the base's out dir executed a stage")
        shutil.rmtree(out)
        found += kill_and_resume(head_src, config, out, work / "head" / name)
        print("%s: %s" % (name, "; ".join(found) or "same"))
        failed += bool(found)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
