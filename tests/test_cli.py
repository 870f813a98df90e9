from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import svsec
from clirun import invoke
from conftest import pipeline_design
from svsec.catalog import list_problems
from svsec.catalog.problems import design_text, instantiate_property_text
from svsec.check import check_design
from svsec.cli import EXIT_CODES, CliError, UsageError, main
from svsec.frontend.parser import NESTING_CAP


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


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("bad_file", ["design", "property"])
def test_a_file_that_is_not_utf8_is_a_compile_error(tmp_path, bad_file,
                                                     newline):
    # The error names the file, and the line and column (in characters)
    # of the first byte that is not UTF-8; it is no traceback and no
    # verdict.
    lines = {"design": [b"module m(input logic a, output logic p);",
                        b"  assign p = a;", b"endmodule", b""],
             "property": [b"p == a", b""]}
    lines[bad_file].insert(1, "// café ".encode() + b"\xe9")
    paths = {"design": tmp_path / "design.sv",
             "property": tmp_path / "prop.txt"}
    for name, path in paths.items():
        path.write_bytes(newline.encode().join(lines[name]))
    res = invoke("verify", str(paths["design"]), "--property",
                 str(paths["property"]), "--top", "m")
    assert res.exit_code == 3, res.output
    assert res.output.splitlines() == [
        "compile error:",
        f"  {paths[bad_file]}:2:9: error: not UTF-8 text: byte 0xe9 "
        "(invalid continuation byte)"]


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_verify_reads_every_newline_convention(tmp_path, newline):
    lines = ["module m(input logic clk, input logic [3:0] d_in,",
             "         output logic [3:0] x);",
             "  always_ff @(posedge clk) x <= d_in",
             "endmodule", ""]
    design = tmp_path / "broken.sv"
    design.write_bytes(newline.join(lines).encode())
    prop = tmp_path / "prop.txt"
    prop.write_bytes(f"x != 4'd14{newline}".encode())
    res = invoke("verify", str(design), "--property", str(prop), "--top", "m")
    assert res.exit_code == 3, res.output
    assert res.output.splitlines() == [
        "compile error:",
        f"  {design}:4:1: error: expected ';', got 'endmodule'"]


def test_verify_unknown_budget(tmp_path):
    (spec,) = list_problems(cwe=1234, difficulty="basic")
    res = invoke("verify", write_design(tmp_path, spec, "correct"),
                 "--cwe", "1234", "--difficulty", "basic",
                 "--budget", "1")
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
    assert ("  <property>:0:0: error: unknown identifier 'locked_out'"
            in res.output)
    assert str(partial) not in res.output


def test_verify_usage_errors(tmp_path):
    (spec,) = list_problems(cwe=1234, difficulty="basic")
    design = write_design(tmp_path, spec, "correct")
    res = invoke("verify", design)
    assert res.exit_code == 64 and "--cwe and --difficulty" in res.output
    res = invoke("verify", design, "--cwe", "1234")
    assert res.exit_code == 64


def usage_error(res, *needles):
    """A bad invocation: exit 64 and one `Error: ` line, no traceback."""
    assert res.exit_code == 64, res.output
    assert isinstance(res.exception, SystemExit), res.exception
    (line,) = res.output.splitlines()
    assert line.startswith("Error: ")
    for needle in needles:
        assert needle in line


def written(root):
    """Every path under `root`, with the bytes of each file."""
    return {path: path.read_bytes() if path.is_file() else None
            for path in root.rglob("*")}


def test_an_unknown_cwe_is_a_usage_error(tmp_path):
    (spec,) = list_problems(cwe=1234, difficulty="basic")
    res = invoke("verify", write_design(tmp_path, spec, "correct"),
                 "--cwe", "9999", "--difficulty", "basic")
    usage_error(res, "no catalog problem for cwe 9999 basic")


def test_every_usage_error_exits_64(tmp_path):
    (spec,) = list_problems(cwe=1234, difficulty="basic")
    design = write_design(tmp_path, spec, "correct")
    prop = tmp_path / "prop.txt"
    prop.write_text("locked_out <= 1\n")
    catalog = ("--cwe", "1234", "--difficulty", "basic")
    files = written(tmp_path)
    for args, *needles in [
        ((), "COMMAND", "see 'svsec --help'"),
        (("bogus",), "'bogus'"),
        (("verify", str(tmp_path / "missing.sv"), *catalog),
         "does not exist"),
        (("verify", str(tmp_path), *catalog), "is a directory"),
        (("verify", design, "--cwe", "x", "--difficulty", "basic"),
         "invalid int value"),
        (("verify", design, "--cwe", "1234", "--difficulty", "hard"),
         "invalid choice"),
        (("verify", design, "--prop", str(prop), "--top", "m"),
         "unrecognized arguments: --prop", "see 'svsec verify --help'"),
        (("verify", design, *catalog, "extra"),
         "unrecognized arguments: extra", "see 'svsec verify --help'"),
        (("report", "--dataset", design, "--jsn"),
         "unrecognized arguments: --jsn", "see 'svsec report --help'"),
        (("verify", design, "--property", str(prop)),
         "--top is required with --property"),
        (("verify", design, "--property", str(tmp_path / "missing.txt"),
          "--top", "m"), "does not exist"),
        (("verify", design, "--property", str(tmp_path), "--top", "m"),
         "argument --property: File", "is a directory"),
        (("label", "--cache", str(prop)), "is a file"),
        (("metrics", "--dataset", str(tmp_path), "--cache",
          str(tmp_path)), "argument --dataset: File", "is a directory",
         "see 'svsec metrics --help'"),
        (("report", "--dataset", str(tmp_path)),
         "argument --dataset: File", "is a directory",
         "see 'svsec report --help'"),
        (("metrics", "--cache", str(prop)), "argument --cache: Directory",
         "is a file"),
        (("generate", "--stub", "--n", "two"), "invalid int value"),
        (("verify", design, *catalog, "--max-k", "-1"),
         "argument --max-k: -1 is less than 0", "see 'svsec verify --help'"),
        (("verify", design, *catalog, "--max-k", "one"),
         "argument --max-k: invalid int value: 'one'"),
        (("verify", design, *catalog, "--budget", "-5"),
         "argument --budget: -5 is less than 1"),
        (("verify", design, *catalog, "--budget", "0"),
         "argument --budget: 0 is less than 1"),
        (("label", "--max-k", "-1"), "argument --max-k: -1 is less than 0",
         "see 'svsec label --help'"),
        (("label", "--budget", "0"), "argument --budget: 0 is less than 1"),
        (("generate", "--stub", "--n", "0"), "argument --n: 0 is less than 1",
         "see 'svsec generate --help'"),
        (("generate", "--stub", "--workers", "0"),
         "argument --workers: 0 is less than 1",
         "see 'svsec generate --help'"),
        (("generate", "--stub", "--workers", "-3"),
         "argument --workers: -3 is less than 1"),
        (("--bogus", "verify", design, "--property", str(prop), "--top", "m"),
         "unrecognized arguments: --bogus", "see 'svsec --help'"),
        (("--bogus", "verify", design, "--prop", str(prop)),
         "unrecognized arguments: --bogus", "see 'svsec --help'"),
        (("generate", "--providers", str(tmp_path / "missing.yaml")),
         "does not exist"),
        (("generate", "--stub", "--out", str(prop)),
         "argument --out: Directory", "is a file",
         "see 'svsec generate --help'"),
        (("label", "--out", str(prop)), "argument --out: Directory",
         "is a file", "see 'svsec label --help'"),
        (("metrics", "--out", str(prop)), "argument --out: Directory",
         "is a file", "see 'svsec metrics --help'"),
        (("generate", "--stub", "--providers", str(prop), "--out",
          str(tmp_path / "gen")),
         "argument --providers: not allowed with argument --stub"),
        (("generate", "--providers", str(prop), "--stub", "--out",
          str(tmp_path / "gen")),
         "argument --stub: not allowed with argument --providers"),
    ]:
        usage_error(invoke(*args), *needles)
    assert written(tmp_path) == files


def test_generate_requires_a_source(tmp_path):
    res = invoke("generate", "--out", str(tmp_path))
    assert res.exit_code == 64
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


@pytest.mark.parametrize("config, needles", [
    (b"providers:\n  - {endpoint: https://example.invalid, model: m}\n",
     ["providers entry 1 has no 'id'"]),
    (b"providers:\n  - {id: a, endpoint: https://example.invalid, model: m}\n"
     b"  - {id: b, endpoint: https://example.invalid, model: m,\n"
     b"     temperature: hot}\n",
     ["providers entry 2: 'temperature' must be float, not 'hot'"]),
    (b"models:\n  - {id: a, endpoint: https://example.invalid, model: m}\n",
     ["no 'providers' list"]),
    (b"providers:\n  - {id: a, endpoint: https://example.invalid\n",
     ["not YAML: ", "line 3, column 1"]),
    (b"providers: [\xff]\n", ["not YAML: ", "can't decode byte 0xff"]),
])
def test_a_malformed_providers_file_is_one_line_error(tmp_path, config,
                                                      needles):
    path = tmp_path / "providers.yaml"
    path.write_bytes(config)
    out = tmp_path / "out"
    res = invoke("generate", "--providers", str(path), "--out", str(out))
    line = one_line_error(res, *needles)
    assert line.startswith(f"Error: {path}: ")
    assert not out.exists()


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


def test_metrics_without_generations_fails(tmp_path, stub_run):
    """A cache that is missing, empty or holds no entry is one error
    line, raised before any output is written."""
    (tmp_path / "empty").mkdir()
    (tmp_path / "junk").mkdir()
    (tmp_path / "junk" / "generations.jsonl").write_text("not an entry\n")
    for name in ("missing", "empty", "junk"):
        cache = tmp_path / name
        res = invoke("metrics", "--dataset", str(stub_run / "dataset.csv"),
                     "--cache", str(cache), "--out", str(tmp_path / "out"))
        assert "Traceback" not in res.output
        one_line_error(res, f"no cached generations under {cache}; "
                       "run generate first")
    assert not (tmp_path / "out").exists()


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


# sha256 of what the parent of the single scope check wrote for the
# stub run: `metrics`' passatk.csv and keywords.csv, and `report`.
SCOPE_RUN_DIGESTS = {
    "passatk.csv":
        "1ddf5114b2c47f4de5903b2afc983151d0272058795769ddb4da02beab9985d5",
    "keywords.csv":
        "41d0d3950045ae48dbf9600c4ee08b9e5d8023a2dd83b7adb037c168e1967a48",
    "report":
        "068af1d2a30a55a812dd32c757c818417f1a8ee60453dc9eeb3112fadb2a7448",
}


def test_metrics_and_report_check_the_scope_once(tmp_path, stub_run,
                                                 monkeypatch):
    import svsec.metrics.passatk as passatk
    from svsec.metrics import import_csv, write_heatmap_json

    calls, check_scope = [], passatk.check_scope

    def counted(rows):
        calls.append(len(rows))
        return check_scope(rows)

    monkeypatch.setattr(passatk, "check_scope", counted)
    dataset = str(stub_run / "dataset.csv")
    out = tmp_path / "out"
    res = invoke("metrics", "--dataset", dataset,
                 "--cache", str(stub_run / "cache"), "--out", str(out))
    assert res.exit_code == 0, res.output
    assert calls == [120]
    for args in (("report", "--dataset", dataset),
                 ("report", "--dataset", dataset, "--json")):
        calls.clear()
        res = invoke(*args)
        assert res.exit_code == 0, res.output
        assert calls == [120]
    text = invoke("report", "--dataset", dataset).output
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in ("passatk.csv", "keywords.csv")}
    got["report"] = hashlib.sha256(text.encode()).hexdigest()
    assert got == SCOPE_RUN_DIGESTS
    # The library, given the scope's n, writes the same heatmap.
    rows = import_csv(dataset)
    write_heatmap_json(rows, tmp_path / "heatmap.json", check_scope(rows))
    assert (tmp_path / "heatmap.json").read_bytes() == \
        (out / "heatmap.json").read_bytes()


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


@pytest.mark.parametrize("column, cell, needle", [
    (None, None, "duplicate row {key}"),
    (3, "9999", "row {key} lies outside the catalog"),
    (4, "expert", "row {key} lies outside the catalog"),
], ids=["repeated", "cwe", "difficulty"])
def test_a_repeated_or_foreign_row_is_one_line_error(tmp_path, stub_run,
                                                     column, cell, needle):
    from svsec.metrics import ScopeError, check_scope, import_csv

    # The first row once more, as a proven row that would lift its cell.
    lines = (stub_run / "dataset.csv").read_text().splitlines()
    cells = lines[1].split(",")
    cells[5:8] = ["proven", "", "1"]  # verdict, cex_depth, k_used
    if column:
        cells[column - 1] = cell
    dataset = tmp_path / "dataset.csv"
    dataset.write_text("\n".join([*lines, ",".join(cells)]) + "\n")
    needle = needle.format(key=import_csv(dataset)[-1].key())
    with pytest.raises(ScopeError, match=re.escape(needle)):
        check_scope(import_csv(dataset))
    for args in scope_commands(str(dataset), tmp_path):
        one_line_error(invoke(*args), str(dataset), needle)
    assert not (tmp_path / "out").exists()


def edited(dataset, line, column, cell):
    """The lines of `dataset` with the cell at (line, column), both
    counted from 1, replaced."""
    lines = dataset.read_text().splitlines()
    cells = lines[line - 1].split(",")
    cells[column - 1] = cell
    lines[line - 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("case, needles", [
    ("header", ("line 1: unexpected header", "'id'")),
    ("cells", ("line 3 has 15 cells, expected 14",)),
    ("verdict", ("line 2: unknown verdict 'maybe'",)),
    ("integer", ("line 2: cwe_id 'x1209' is not an integer",)),
    ("empty", ("line 1: unexpected header None",)),
    ("bytes", ("not UTF-8 text",)),
])
def test_a_malformed_dataset_is_one_line_error(tmp_path, stub_run, case,
                                               needles):
    good = stub_run / "dataset.csv"
    dataset = tmp_path / "dataset.csv"
    if case == "header":
        dataset.write_text(edited(good, 1, 1, "id"))
    elif case == "cells":
        dataset.write_text(edited(good, 3, 14, "0,extra"))
    elif case == "verdict":
        dataset.write_text(edited(good, 2, 6, "maybe"))
    elif case == "integer":
        dataset.write_text(edited(good, 2, 3, "x1209"))
    elif case == "empty":
        dataset.write_text("")
    else:
        dataset.write_bytes(good.read_bytes() + b"\xff\xfe\n")
    for args in scope_commands(str(dataset), tmp_path):
        res = invoke(*args)
        assert "Traceback" not in res.output
        one_line_error(res, str(dataset), *needles)
    assert not (tmp_path / "out").exists()


def test_a_row_named_as_another_design_is_one_line_error(tmp_path, stub_run):
    # The first row (stub-a, 1209, advanced, 0) named as another provider's
    # design of another problem and regeneration.
    dataset = tmp_path / "dataset.csv"
    dataset.write_text(edited(stub_run / "dataset.csv", 2, 1,
                              "stub-z:cwe1302_basic:7"))
    needle = ("row ('stub-a', 1209, 'advanced', 0) has design_id "
              "'stub-z:cwe1302_basic:7', not 'stub-a:cwe1209_advanced:0'")
    for args in scope_commands(str(dataset), tmp_path):
        one_line_error(invoke(*args), str(dataset), needle)
    assert not (tmp_path / "out").exists()


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

    # The thread pool generates what the calling thread does.
    pool = tmp_path / "pool"
    for args in (("generate", "--stub", "--n", "2", "--seed", "1",
                  "--workers", "4", "--out", str(pool)),
                 ("label", "--cache", str(pool / "cache"), "--out",
                  str(pool), "--seed", "1")):
        res = invoke(*args)
        assert res.exit_code == 0, res.output
    assert (pool / "dataset.csv").read_bytes() == \
        (tmp_path / "dataset.csv").read_bytes()

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


def test_help_lists_the_same_options():
    options = {
        (): {"--version", "--help"},
        ("verify",): {"--cwe", "--difficulty", "--property", "--top",
                      "--max-k", "--budget", "--help"},
        ("generate",): {"--stub", "--providers", "--n", "--seed",
                        "--workers", "--out", "--help"},
        ("label",): {"--cache", "--out", "--seed", "--max-k", "--budget",
                     "--help"},
        ("metrics",): {"--dataset", "--cache", "--out", "--seed", "--help"},
        ("report",): {"--dataset", "--json", "--help"},
    }
    for command, expected in options.items():
        res = invoke(*command, "--help")
        assert (res.exit_code, res.exception) == (0, None), res.output
        listed = set(re.findall(r"^  (--[\w-]+)", res.output, re.M))
        assert listed == expected, command
    commands = re.findall(r"^    (\w+)", invoke("--help").output, re.M)
    assert commands == ["verify", "generate", "label", "metrics", "report"]


def test_main_returns_the_exit_code_without_system_exit(tmp_path, capsys):
    (spec,) = list_problems(cwe=1234, difficulty="basic")
    for which, code in (("correct", 0), ("vulnerable", 1)):
        design = write_design(tmp_path, spec, which)
        assert main(["verify", design, "--cwe", "1234",
                     "--difficulty", "basic"]) == code
    assert main(["--version"]) == 0
    assert main(["generate"]) == 64
    assert main(["label", "--cache", str(tmp_path / "none")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert [line.split(":")[0] for line in err] == ["Error", "Error"]


def test_the_pipeline_runs_embedded(tmp_path, capsys):
    """`main(argv, standalone_mode=False)`, as the benchmark's pipeline
    workload calls each stage: it returns, and raises failures."""
    out = str(tmp_path)
    for argv in (["generate", "--stub", "--n", "1", "--seed", "1",
                  "--workers", "1", "--out", out],
                 ["label", "--cache", f"{out}/cache", "--out", out,
                  "--seed", "1"],
                 ["metrics", "--dataset", f"{out}/dataset.csv",
                  "--cache", f"{out}/cache", "--out", out, "--seed", "1"]):
        assert main(argv, standalone_mode=False) == 0
    for artifact in ("dataset.csv", "heatmap.json", "passatk.csv",
                     "keywords.csv"):
        assert (tmp_path / artifact).exists(), artifact
    assert "120 rows" in capsys.readouterr().out

    with pytest.raises(UsageError, match="--stub or --providers"):
        main(["generate"], standalone_mode=False)
    with pytest.raises(CliError, match="run generate first") as failure:
        main(["label", "--cache", str(tmp_path / "none")],
             standalone_mode=False)
    assert failure.value.exit_code == 1
    assert capsys.readouterr().err == ""


def rendered(verdict, design):
    """The lines `svsec verify` printed for a verdict before its move to
    argparse."""
    if verdict.status == "proven":
        return [f"proven (k={verdict.k_used})"]
    if verdict.status == "falsified":
        lines = [f"falsified at depth {verdict.depth}"]
        if verdict.culprit_line:
            lines.append(f"  root cause: line {verdict.culprit_line} "
                         f"(assignment to {verdict.culprit_signal})")
        for t, ins in enumerate(verdict.trace.inputs):
            pairs = " ".join(f"{k}={v}" for k, v in sorted(ins.items()))
            lines.append(f"  cycle {t}: {pairs}")
        return lines
    if verdict.status == "unknown":
        return [f"unknown ({verdict.reason})"]
    return ["compile error:", *(f"  {d.render(design)}"
                                for d in verdict.diagnostics)]


# design file -> the culprit line `svsec verify` prints for it
CATALOG_LINES = {
    "cwe1234_basic_vulnerable.sv":
        "  root cause: line 15 (assignment to data_out)",
    # the longest catalog counterexample (depth 5)
    "cwe1302_advanced_vulnerable.sv":
        "  root cause: line 21 (assignment to data_out)",
}


def test_verify_prints_each_catalog_verdict(tmp_path):
    specs = list_problems()
    assert len(specs) == 30
    pinned = set()
    for spec in specs:
        for which in ("correct", "vulnerable"):
            fname = getattr(spec, f"{which}_file")
            design = write_design(tmp_path, spec, which)
            verdict = check_design(design_text(fname), spec.module_name,
                                   instantiate_property_text(spec))
            res = invoke("verify", design, "--cwe", str(spec.cwe_id),
                         "--difficulty", spec.difficulty)
            lines = res.output.splitlines()
            assert (res.exit_code, lines) == \
                (EXIT_CODES[verdict.status], rendered(verdict, design)), \
                design
            if fname in CATALOG_LINES:
                assert CATALOG_LINES[fname] in lines, design
                pinned.add(fname)
    assert pinned == set(CATALOG_LINES)


def counter(arms: int) -> str:
    """A 4-bit register that adds 1 for each set bit of `d_in`, ten
    times over, in 40 blocking `if`s; with two arms, each branch of
    `if (c)` holds the 40."""
    increments = [f"      if (d_in[{i % 4}]) x = x + 4'd1;" for i in range(40)]
    lines = ["module m(input logic clk, input logic rst_n, "
             + ("input logic c, " if arms == 2 else "")
             + "input logic [3:0] d_in,",
             "         output logic [3:0] x);",
             "  always_ff @(posedge clk or negedge rst_n) begin",
             "    if (!rst_n) x = 4'd0;"]
    if arms == 2:
        lines += ["    else if (c) begin", *increments,
                  "    end else begin", *increments, "    end"]
    else:
        lines += ["    else begin", *increments, "    end"]
    return "\n".join([*lines, "  end", "endmodule", ""])


# name -> (design, top, property, exit code, the lines printed first, or
# all lines of a compile error, with `{design}` and `{prop}` for the
# files' paths)
VERIFY_OUTPUTS = {
    # the culprit is the last assignment in the block
    "40 increments": (counter(1), "m", "x != 4'd14", 1, [
        "falsified at depth 1", "  root cause: line 45 (assignment to x)"]),
    "80 increments in two arms": (counter(2), "m", "x != 4'd14", 1, [
        "falsified at depth 1", "  root cause: line 86 (assignment to x)"]),
    # a property's concatenation is elaborated as a design's is
    "concatenation that holds": (counter(1), "m", "{x[3], x[0]} != 2'b11",
                                 0, ["proven (k=5)"]),
    "concatenation that fails": (counter(1), "m", "{x[3], x[1]} != 2'b11",
                                 1, ["falsified at depth 1",
                                     "  root cause: line 45 (assignment to x)"]),
    # an 8-stage design of the deep family that masks the wrong input
    # bit fails at depth 8
    "8-stage leaky pipeline": (pipeline_design(8, 4, 2), "pipe", "!q_out[1]",
                               1, ["falsified at depth 8",
                                   "  root cause: line 32 (assignment to q_out)"]),
    # nesting past the parser's cap is one diagnostic, in the file that
    # holds it, and no traceback
    "design past the nesting cap": (
        "module m(input logic a, output logic p);\n  assign p = "
        + "(" * NESTING_CAP + "a" + ")" * NESTING_CAP + ";\nendmodule\n",
        "m", "p == a", 3, ["compile error:", "  {design}:2:164: unsupported: "
                                "nesting deeper than 150 levels is not supported"]),
    "property past the nesting cap": (
        counter(1), "m", "$past(" * NESTING_CAP + "x" + ")" * NESTING_CAP
        + " != 4'd14", 3, ["compile error:", "  {prop}:1:901: unsupported: "
                           "nesting deeper than 150 levels is not supported"]),
}


@pytest.mark.parametrize("name", list(VERIFY_OUTPUTS))
def test_verify_prints_the_pinned_lines(tmp_path, name):
    source, top, text, code, first = VERIFY_OUTPUTS[name]
    design, prop = tmp_path / "design.sv", tmp_path / "prop.txt"
    design.write_text(source)
    prop.write_text(text + "\n")
    start = time.monotonic()
    res = invoke("verify", str(design), "--property", str(prop), "--top", top)
    assert time.monotonic() - start < 60
    assert res.exit_code == code, res.output
    first = [line.format(design=design, prop=prop) for line in first]
    lines = res.output.splitlines()
    assert (lines if code == EXIT_CODES["compile_error"]
            else lines[:len(first)]) == first


def fresh_cli(hash_seed: int, *args: str) -> subprocess.CompletedProcess:
    """`svsec args` in a new interpreter under `PYTHONHASHSEED`."""
    path = [str(Path(svsec.__file__).parents[1]),
            os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
               PYTHONPATH=os.pathsep.join(p for p in path if p))
    return subprocess.run([sys.executable, "-m", "svsec.cli", *args],
                          env=env, capture_output=True, text=True,
                          timeout=300)


def test_generate_and_label_do_not_depend_on_the_hash_seed(tmp_path):
    # Same-seed logs match line for line but for their timestamps, and
    # one log labels to the same dataset.csv.
    logs, datasets = [], []
    for hash_seed in (1, 2):
        out = tmp_path / f"hash{hash_seed}"
        run = fresh_cli(hash_seed, "generate", "--stub", "--n", "2",
                        "--workers", "1", "--out", str(out))
        assert run.returncode == 0, run.stderr
        log, stamped = re.subn(r'"timestamp": [^,}]*\}$', '"timestamp": 0}',
                               (out / "cache" / "generations.jsonl").read_text(),
                               flags=re.M)
        assert stamped == len(log.splitlines()) == 240
        logs.append(log)
        run = fresh_cli(hash_seed, "label", "--cache",
                        str(tmp_path / "hash1" / "cache"), "--out", str(out))
        assert run.returncode == 0, run.stderr
        datasets.append((out / "dataset.csv").read_bytes())
    assert logs[0] == logs[1]
    assert datasets[0] == datasets[1]


def test_a_budget_verdict_does_not_depend_on_the_hash_seed(tmp_path):
    (spec,) = list_problems(cwe=1261, difficulty="advanced")
    design = write_design(tmp_path, spec, "correct")
    outputs = []
    for hash_seed in (1, 2):
        run = fresh_cli(hash_seed, "verify", design, "--cwe", "1261",
                        "--difficulty", "advanced", "--budget", "20000")
        assert run.returncode == 2, run.stdout + run.stderr
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith("unknown (")
