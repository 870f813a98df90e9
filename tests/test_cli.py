from __future__ import annotations

import json

import pytest
from click.testing import CliRunner

from svsec.catalog import list_problems
from svsec.catalog.problems import design_text
from svsec.cli import EXIT_CODES, main


def invoke(*args):
    return CliRunner().invoke(main, list(args))


def write_design(tmp_path, spec, which):
    fname = spec.correct_file if which == "correct" else spec.vulnerable_file
    path = tmp_path / fname
    path.write_text(design_text(fname), encoding="utf-8")
    return str(path)


def test_exit_code_table():
    assert EXIT_CODES == {"proven": 0, "falsified": 1, "unknown": 2,
                          "compile_error": 3}


def test_verify_proven(tmp_path):
    (spec,) = list_problems(cwe=1234, difficulty="basic")
    res = invoke("verify", write_design(tmp_path, spec, "correct"),
                 "--cwe", "1234", "--difficulty", "basic")
    assert res.exit_code == 0, res.output
    assert res.output.startswith("proven (k=")


def test_verify_falsified_reports_cause_and_trace(tmp_path):
    (spec,) = list_problems(cwe=1234, difficulty="basic")
    res = invoke("verify", write_design(tmp_path, spec, "vulnerable"),
                 "--cwe", "1234", "--difficulty", "basic")
    assert res.exit_code == 1, res.output
    assert "falsified at depth" in res.output
    assert "root cause: line" in res.output
    assert "cycle 0:" in res.output


def test_verify_compile_error(tmp_path):
    bad = tmp_path / "bad.sv"
    bad.write_text("module broken(\n")
    (spec,) = list_problems(cwe=1234, difficulty="basic")
    res = invoke("verify", str(bad), "--cwe", "1234",
                 "--difficulty", "basic")
    assert res.exit_code == 3
    assert "compile error" in res.output


def test_verify_unknown_budget(tmp_path):
    (spec,) = list_problems(cwe=1234, difficulty="basic")
    res = invoke("verify", write_design(tmp_path, spec, "correct"),
                 "--cwe", "1234", "--difficulty", "basic",
                 "--budget", "0")
    assert res.exit_code == 2
    assert res.output.startswith("unknown (")


def test_verify_explicit_property(tmp_path):
    (spec,) = list_problems(cwe=1234, difficulty="basic")
    prop = tmp_path / "prop.txt"
    prop.write_text("disable iff (!rst_n_in) locked_out <= 1\n")
    res = invoke("verify", write_design(tmp_path, spec, "correct"),
                 "--property", str(prop), "--top", spec.module_name)
    assert res.exit_code == 0, res.output


def test_verify_usage_errors(tmp_path):
    (spec,) = list_problems(cwe=1234, difficulty="basic")
    design = write_design(tmp_path, spec, "correct")
    res = invoke("verify", design)
    assert res.exit_code == 2 and "--cwe and --difficulty" in res.output
    res = invoke("verify", design, "--cwe", "1234")
    assert res.exit_code == 2


def test_generate_requires_a_source(tmp_path):
    res = invoke("generate", "--out", str(tmp_path))
    assert res.exit_code == 2
    assert "--stub or --providers" in res.output


def test_label_without_cache_fails(tmp_path):
    res = invoke("label", "--cache", str(tmp_path / "cache"),
                 "--out", str(tmp_path))
    assert res.exit_code == 1
    assert "run generate first" in res.output


def test_metrics_without_dataset_fails(tmp_path):
    res = invoke("metrics", "--dataset", str(tmp_path / "dataset.csv"),
                 "--cache", str(tmp_path / "cache"),
                 "--out", str(tmp_path))
    assert res.exit_code == 1
    assert "run label first" in res.output


@pytest.fixture(scope="module")
def stub_run(tmp_path_factory):
    """A stub cache (n=1) and its labeled dataset.csv."""
    root = tmp_path_factory.mktemp("stub")
    res = invoke("generate", "--stub", "--n", "1", "--out", str(root))
    assert res.exit_code == 0, res.output
    res = invoke("label", "--cache", str(root / "cache"), "--out", str(root))
    assert res.exit_code == 0, res.output
    return root


def test_label_creates_a_missing_out_dir(tmp_path, stub_run):
    out = tmp_path / "not" / "yet"
    res = invoke("label", "--cache", str(stub_run / "cache"),
                 "--out", str(out))
    assert res.exit_code == 0, res.output
    assert "120 rows" in res.output
    assert (out / "dataset.csv").exists()


def test_metrics_creates_a_missing_out_dir(tmp_path, stub_run):
    out = tmp_path / "not" / "yet"
    res = invoke("metrics", "--dataset", str(stub_run / "dataset.csv"),
                 "--cache", str(stub_run / "cache"), "--out", str(out))
    assert res.exit_code == 0, res.output
    for artifact in ("heatmap.json", "passatk.csv", "keywords.csv"):
        assert (out / artifact).exists(), artifact


def test_full_pipeline(tmp_path):
    out = str(tmp_path)
    res = invoke("generate", "--stub", "--n", "2", "--seed", "1",
                 "--out", out)
    assert res.exit_code == 0, res.output
    assert "240 generations (0 failed)" in res.output

    res = invoke("label", "--cache", str(tmp_path / "cache"),
                 "--out", out, "--seed", "1")
    assert res.exit_code == 0, res.output
    assert "240 rows" in res.output

    res = invoke("metrics", "--dataset", str(tmp_path / "dataset.csv"),
                 "--cache", str(tmp_path / "cache"), "--out", out,
                 "--seed", "1")
    assert res.exit_code == 0, res.output
    for artifact in ("heatmap.json", "passatk.csv", "keywords.csv"):
        assert (tmp_path / artifact).exists(), artifact

    doc = json.loads((tmp_path / "heatmap.json").read_text())
    assert len(doc["providers"]) == 4 and len(doc["cwes"]) == 10

    res = invoke("report", "--dataset", str(tmp_path / "dataset.csv"))
    assert res.exit_code == 0, res.output
    assert "Pass@k (excluding non-compilable)" in res.output
    assert "stub-a" in res.output

    res = invoke("report", "--dataset", str(tmp_path / "dataset.csv"),
                 "--json")
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["rows"] == 240
    assert set(doc["verdicts"]) <= {"proven", "falsified", "unknown",
                                    "compile_error"}


def test_version_flag():
    import svsec

    res = invoke("--version")
    assert res.exit_code == 0 and svsec.__version__ in res.output
