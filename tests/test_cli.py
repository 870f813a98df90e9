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


def test_property_diagnostics_name_the_property(tmp_path):
    (spec,) = list_problems(cwe=1234, difficulty="basic")
    design = write_design(tmp_path, spec, "correct")
    prop = tmp_path / "division.prop"
    prop.write_text("data_out / 2 == 0\n")
    res = invoke("verify", design, "--property", str(prop),
                 "--top", spec.module_name)
    assert res.exit_code == 3
    assert f"  {prop}:0:0: unsupported: operator '/'" in res.output
    assert design not in res.output

    # The catalog property reads ports this design lacks.
    partial = tmp_path / "partial.sv"
    partial.write_text("module locked_register(input logic clk_in,\n"
                       "  input logic rst_n_in, output logic [3:0] data_out);\n"
                       "  assign data_out = 4'd0;\n"
                       "endmodule\n")
    res = invoke("verify", str(partial), "--cwe", "1234",
                 "--difficulty", "basic")
    assert res.exit_code == 3
    assert "  <property>:0:0: error: unknown signal 'locked_out'" in res.output
    assert str(partial) not in res.output


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


@pytest.mark.parametrize("args, workers", [
    (["--stub"], 1),
    (["--stub", "--workers", "4"], 4),
    (["--providers", "providers.yaml"], 4),
    (["--providers", "providers.yaml", "--workers", "2"], 2),
])
def test_generate_workers_default_to_one_for_the_stub(
        tmp_path, monkeypatch, args, workers):
    import svsec.gen

    (tmp_path / "providers.yaml").write_text(
        "providers:\n  - {id: a, endpoint: https://example.invalid, "
        "model: m}\n")
    seen = []
    monkeypatch.setattr(svsec.gen, "generate_batch",
                        lambda *a, **kw: seen.append(kw["workers"]) or [])
    monkeypatch.chdir(tmp_path)
    res = invoke("generate", *args)
    assert res.exit_code == 0, res.output
    assert seen == [workers]


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


def one_line_error(res, *needles):
    assert res.exit_code == 1, res.output
    assert isinstance(res.exception, SystemExit), res.exception
    (line,) = res.output.splitlines()
    assert line.startswith("Error: ")
    for needle in needles:
        assert needle in line
    return line


def scope_commands(dataset, tmp_path):
    return (("metrics", "--dataset", dataset, "--cache", str(tmp_path),
             "--out", str(tmp_path / "out")),
            ("report", "--dataset", dataset),
            ("report", "--dataset", dataset, "--json"))


def test_header_only_dataset_is_one_line_error(tmp_path, stub_run):
    header = (stub_run / "dataset.csv").read_text().splitlines()[0]
    dataset = tmp_path / "dataset.csv"
    dataset.write_text(header + "\n")
    for args in scope_commands(str(dataset), tmp_path):
        one_line_error(invoke(*args), str(dataset), "empty row set")
    assert not (tmp_path / "out").exists()


def test_incomplete_dataset_names_the_missing_cell(tmp_path, stub_run):
    header, first, *rest = (stub_run / "dataset.csv").read_text(
        ).splitlines()
    dataset = tmp_path / "dataset.csv"
    dataset.write_text("\n".join([header, *rest]) + "\n")
    provider, problem, _ = first.split(",")[0].split(":")
    cwe, difficulty = problem.removeprefix("cwe").split("_")
    cell = f"('{provider}', {cwe}, '{difficulty}', 1)"
    for args in scope_commands(str(dataset), tmp_path):
        one_line_error(invoke(*args), "incomplete scope", cell)


def test_label_names_a_problem_not_in_the_catalog(tmp_path):
    entry = {"problem_id": "cwe9999_basic", "provider_id": "stub-a",
             "regen_index": 0, "raw": "module m(); endmodule", "error": "",
             "timestamp": 0.0}
    (tmp_path / "generations.jsonl").write_text(json.dumps(entry) + "\n")
    res = invoke("label", "--cache", str(tmp_path),
                 "--out", str(tmp_path / "out"))
    one_line_error(res, "cwe9999_basic", "not in the catalog")
    assert not (tmp_path / "out").exists()


def test_label_ignores_a_tree_of_entry_files(tmp_path):
    old = tmp_path / "cache" / "stub-a" / "cwe1209_basic" / "0.json"
    old.parent.mkdir(parents=True)
    old.write_text(json.dumps({"problem_id": "cwe1209_basic",
                               "provider_id": "stub-a", "regen_index": 0,
                               "raw": "", "error": "", "timestamp": 0.0}))
    res = invoke("label", "--cache", str(tmp_path / "cache"),
                 "--out", str(tmp_path))
    one_line_error(res, "run generate first")


def test_resumed_generate_appends_nothing(tmp_path):
    for _ in range(2):
        res = invoke("generate", "--stub", "--n", "1", "--out",
                     str(tmp_path))
        assert res.exit_code == 0, res.output
    assert [p.name for p in (tmp_path / "cache").iterdir()] == \
        ["generations.jsonl"]
    log = (tmp_path / "cache" / "generations.jsonl").read_text()
    assert len(log.splitlines()) == 120


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
