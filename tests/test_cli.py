import json

import pytest

from onionforge.cli import EXIT_CONFIG, EXIT_OK, EXIT_STAGE, main
from onionforge.report import STAGE_DECLS, parse_config, run_pipeline

from planted import EXPECTED_CAMPAIGNS, assert_same_artifacts, build_planted_corpus

# what each stage command adds to out_dir, in pipeline order
STAGE_ARTIFACTS = [
    ("ingest", {"corpus.jsonl"}),
    ("extract", {"addresses.jsonl"}),
    ("classify", {"labels.jsonl"}),
    ("filter", {"illicit.jsonl", "filter_audit.jsonl"}),
    ("fetch-tx", {"ledgers"}),
    ("trace", {"hits.jsonl", "surface.jsonl"}),
    ("cluster", {"campaigns.json", "phase_trace.json", "vanity.json", "entity_graph.json"}),
    ("report", {"tables", "graph.graphml", "graph.dot", "summary.json"}),
]


@pytest.fixture()
def planted(tmp_path):
    return build_planted_corpus(tmp_path / "planted"), tmp_path


def write_config(corpus_obj, tmp, out_name):
    cfg = tmp / (out_name + ".cfg")
    cfg.write_text(corpus_obj.config_text(tmp / out_name))
    return cfg


def test_ingest_and_extract(planted):
    corpus_obj, tmp = planted
    cfg = write_config(corpus_obj, tmp, "out")
    assert main(["ingest", "--config", str(cfg)]) == EXIT_OK
    assert (tmp / "out" / "corpus.jsonl").exists()
    assert main(["extract", "--config", str(cfg)]) == EXIT_OK
    addresses = tmp / "out" / "addresses.jsonl"
    kinds = {json.loads(line)["kind"] for line in addresses.read_text().splitlines()}
    assert "btc" in kinds and "email" in kinds


def test_stagewise_matches_run(planted):
    corpus_obj, tmp = planted
    out = tmp / "out"
    assert main(["run", "--config", str(write_config(corpus_obj, tmp, "out"))]) == EXIT_OK
    doc = json.loads((out / "campaigns.json").read_text())
    got = [{k: c[k] for k in ("sites", "btc_addresses", "emails", "ips",
                              "urls", "categories", "received")}
           for c in doc["campaigns"]]
    assert got == EXPECTED_CAMPAIGNS

    # each stage command adds exactly its own artifacts to a fresh out_dir
    alt = tmp / "alt"
    alt_cfg = write_config(corpus_obj, tmp, "alt")
    expected = {"run.json"}
    for stage, artifacts in STAGE_ARTIFACTS:
        assert main([stage, "--config", str(alt_cfg)]) == EXIT_OK, stage
        expected |= artifacts
        assert {p.name for p in alt.iterdir()} == expected, stage

    # the stage commands together agree with the orchestrated run, and leave
    # a manifest under which a full run has nothing left to do
    assert_same_artifacts(out, alt)
    assert run_pipeline(parse_config(alt_cfg)).executed == []


def test_bad_config_exit_code(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("corpus_root = /nonexistent\n")
    assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG


def test_stage_failure_exit_code(planted):
    corpus_obj, tmp = planted
    corpus_obj.ground_truth.write_text(
        '{"domain": "missing.onion", "path": "/", "category": "Drugs"}\n')
    cfg = tmp / "run.cfg"
    cfg.write_text(corpus_obj.config_text(tmp / "out"))
    assert main(["run", "--config", str(cfg)]) == EXIT_STAGE


def test_missing_input_file_exit_code(tmp_path):
    (tmp_path / "snapshot").mkdir()
    (tmp_path / "gt.jsonl").write_text("")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("corpus_root = %s\nground_truth = %s\nout_dir = %s\ntlds = %s\n"
                   % (tmp_path / "snapshot", tmp_path / "gt.jsonl", tmp_path / "out",
                      tmp_path / "absent.txt"))
    assert main(["extract", "--config", str(cfg)]) == EXIT_STAGE


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_lists_every_command(flag, capsys):
    assert main([flag]) == EXIT_OK
    out, err = capsys.readouterr()
    assert out.startswith("usage: onionforge") and not err
    listed = [line.split()[0] for line in out.split("commands:\n")[1].split("\n\n")[0]
              .splitlines()]
    assert listed == [*STAGE_DECLS, "run"]


@pytest.mark.parametrize("argv", [
    [],                                      # no command
    ["no-such-command", "--config", "x"],
    ["run"],                                 # no --config
    ["run", "--config"],                     # --config without FILE
    ["run", "--config="],
    ["run", "--config", "x", "extra"],
    ["run", "-v", "--config", "x"],          # -v goes before the command
    ["run", "--config", "x", "-v"],
    ["--config", "x", "run"],
])
def test_usage_errors_exit_2(argv, capsys):
    assert main(argv) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert not out
    usage, error = err.splitlines()
    assert usage.startswith("usage: onionforge") and error.startswith("onionforge: error: ")


@pytest.mark.parametrize("argv", [["-v", "run", "--config", "{}"],
                                  ["--verbose", "run", "--config", "{}"],
                                  ["run", "--config={}"]])
def test_verbose_flag_and_config_forms_run(argv, planted):
    corpus_obj, tmp = planted
    cfg = write_config(corpus_obj, tmp, "out")
    assert main([arg.format(cfg) for arg in argv]) == EXIT_OK
    assert (tmp / "out" / "summary.json").is_file()
