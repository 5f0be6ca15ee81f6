"""Check that two source trees write the same artifacts.

    PYTHONPATH=src python tests/same_artifacts.py BASE_SRC HEAD_SRC WORK_DIR \
        [--seeds 1 2 3] [--smoke]

Builds the planted corpus (tests/planted.py) and each perfbench workload
(perfbench/gen.py, for each seed) under WORK_DIR, then runs `onionforge run`
on each with BASE_SRC and then with HEAD_SRC first on the PYTHONPATH, both
into the same out dir path. Every file but run.json must be byte-identical,
and run.json's stage digests and run_id equal. HEAD_SRC run over a copy of
the out dir BASE_SRC wrote must then skip all eight stages. Prints each
difference and exits 1 if there is one.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402
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
    """`onionforge -v run` with `src` first on the path; its log."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "onionforge.cli", "-v", "run",
                           "--config", str(config)],
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit("onionforge run with %s failed (exit %d):\n%s"
                 % (src, proc.returncode, proc.stderr))
    return proc.stderr


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
        for side, src in (("base", base_src), ("head", head_src)):
            run(src, config)
            out.rename(work / side / name)
        found = differences(work / "base" / name, work / "head" / name)
        shutil.copytree(work / "base" / name, out)
        if "executed nothing" not in run(head_src, config):
            found.append("a rerun over the base's out dir executed a stage")
        shutil.rmtree(out)
        print("%s: %s" % (name, "; ".join(found) or "same"))
        failed += bool(found)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
