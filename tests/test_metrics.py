from __future__ import annotations

import json

import pytest

from svsec.catalog import CWE_IDS, DIFFICULTIES, list_problems
from svsec.catalog.problems import design_text
from svsec.frontend.lexer import tokenize
from svsec.gen.batch import Generation
from svsec.metrics import (CSV_HEADER, DatasetRow, RowError, ScopeError,
                           check_scope, export_csv, import_csv,
                           keyword_frequency, label_batch, label_design,
                           pass_at_k, passatk_by_cwe, passatk_by_difficulty,
                           verdict_counts, write_heatmap_json,
                           write_keywords_csv)
from svsec.metrics.keywords import DEFAULT_KEYWORDS


def make_row(provider="p", cwe=1209, difficulty="basic", regen=0,
             verdict="proven", **kw):
    cex = kw.pop("cex_depth", 2 if verdict == "falsified" else None)
    k = kw.pop("k_used", 1 if verdict == "proven" else None)
    return DatasetRow(
        design_id=f"{provider}:cwe{cwe}_{difficulty}:{regen}",
        provider=provider, cwe_id=cwe, difficulty=difficulty,
        regen_index=regen, verdict=verdict, cex_depth=cex, k_used=k,
        lines_of_code=kw.pop("lines_of_code", 10),
        runtime_ms=kw.pop("runtime_ms", 5),
        source_path=kw.pop("source_path", ""),
        property_id="read_zero_next", toolkit_version="0.1.0",
        seed=kw.pop("seed", 0))


def full_grid(providers, n, verdict_fn):
    rows = []
    for p in providers:
        for cwe in CWE_IDS:
            for d in DIFFICULTIES:
                for i in range(n):
                    rows.append(make_row(p, cwe, d, i,
                                         verdict_fn(p, cwe, d, i)))
    return rows


# ---------------------------------------------------------------- rows

def test_row_invariants():
    with pytest.raises(RowError):
        make_row(verdict="nonsense")
    with pytest.raises(RowError):
        make_row(verdict="proven", k_used=None)
    with pytest.raises(RowError):
        make_row(verdict="falsified", cex_depth=None)
    with pytest.raises(RowError):
        make_row(verdict="unknown", cex_depth=3)
    # valid shapes
    make_row(verdict="falsified")
    make_row(verdict="compile_error")


def test_positional_and_keyword_rows_are_equal():
    row = make_row(verdict="falsified")
    assert DatasetRow(*(getattr(row, name) for name in CSV_HEADER)) == row
    assert tuple(row) == tuple(getattr(row, name) for name in CSV_HEADER)
    with pytest.raises(RowError):
        DatasetRow(*("nonsense" if name == "verdict" else getattr(row, name)
                     for name in CSV_HEADER))


def test_a_row_is_read_only():
    row = make_row()
    for name in CSV_HEADER:
        with pytest.raises(AttributeError):
            setattr(row, name, getattr(row, name))
    with pytest.raises(AttributeError):
        row.extra = 1
    with pytest.raises(RowError):
        row._replace(k_used=None)


def test_equal_rows_hash_equal():
    a, b = make_row(regen=2), make_row(regen=2)
    assert a == b and a is not b and hash(a) == hash(b)
    assert len({a, b, make_row(regen=3)}) == 2
    assert make_row(regen=2, runtime_ms=6) != a


def test_row_key_and_csv_header():
    row = make_row(provider="q", cwe=1231, difficulty="advanced", regen=7)
    assert row.key() == ("q", 1231, "advanced", 7)
    assert CSV_HEADER == [
        "design_id", "provider", "cwe_id", "difficulty", "regen_index",
        "verdict", "cex_depth", "k_used", "lines_of_code", "runtime_ms",
        "source_path", "property_id", "toolkit_version", "seed"]


def test_csv_round_trip_is_lossless(tmp_path):
    rows = [make_row(regen=0),
            make_row(regen=1, verdict="falsified",
                     source_path='cache/a/"odd, path".json'),
            make_row(regen=2, verdict="compile_error"),
            make_row(regen=3, verdict="unknown")]
    out = tmp_path / "dataset.csv"
    export_csv(rows, out)
    assert import_csv(out) == rows


def test_failed_export_leaves_the_old_dataset_whole(tmp_path, monkeypatch):
    out = tmp_path / "dataset.csv"
    export_csv([make_row(regen=0)], out)
    before = out.read_bytes()

    class FailingWriter:
        def __init__(self, fh):
            self.fh = fh

        def writerow(self, cells):
            if cells[0] != "design_id":
                raise OSError("disk full")
            self.fh.write("design_id,partial\n")

    monkeypatch.setattr("svsec.metrics.rows.csv.writer", FailingWriter)
    with pytest.raises(OSError, match="disk full"):
        export_csv([make_row(regen=1)], out)
    assert out.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["dataset.csv"]


def test_duplicate_keys_rejected(tmp_path):
    rows = [make_row(regen=0), make_row(regen=0)]
    with pytest.raises(RowError, match="duplicate"):
        export_csv(rows, tmp_path / "x.csv")


def test_import_rejects_foreign_header(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(RowError, match="header"):
        import_csv(p)


def test_import_rejects_a_row_of_the_wrong_length(tmp_path):
    p = tmp_path / "x.csv"
    export_csv([make_row(regen=0)], p)
    p.write_text(p.read_text().rstrip("\n") + ",extra\n")
    with pytest.raises(RowError, match="line 2 has 15 cells, expected 14"):
        import_csv(p)


# -------------------------------------------------------------- passatk

def test_pass_at_k_definition():
    assert pass_at_k(0, 10, 20) == 0.0
    assert pass_at_k(200, 10, 20) == 1.0
    assert pass_at_k(60, 10, 20) == 0.3
    assert pass_at_k(113, 10, 20) == pytest.approx(0.565)


def test_rates_by_difficulty_and_cwe():
    # one provider: proven iff regen 0, n=4 -> rate 0.25 everywhere
    rows = full_grid(["p"], 4,
                     lambda p, c, d, i: "proven" if i == 0 else "falsified")
    by_diff = passatk_by_difficulty(rows, check_scope(rows))
    assert set(by_diff) == {("p", d) for d in DIFFICULTIES}
    assert all(v == (0.25, 0.25) for v in by_diff.values())
    by_cwe = passatk_by_cwe(rows, check_scope(rows))
    assert set(by_cwe) == {("p", c) for c in CWE_IDS}
    assert all(v == (0.25, 0.25) for v in by_cwe.values())


def test_including_never_exceeds_excluding():
    import random

    rng = random.Random(42)
    verdicts = ("proven", "falsified", "unknown", "compile_error")
    for _ in range(50):
        rows = full_grid(["p", "q"], 3,
                         lambda p, c, d, i: rng.choice(verdicts))
        table = passatk_by_difficulty(rows, check_scope(rows))
        for key, (excl, incl) in table.items():
            assert incl <= excl + 1e-12, key


def test_compile_errors_leave_the_excluding_denominator():
    # 2 proven, 1 falsified, 1 compile_error per cell (n=4)
    def verdict(p, c, d, i):
        return ("proven", "proven", "falsified", "compile_error")[i]

    rows = full_grid(["p"], 4, verdict)
    table = passatk_by_difficulty(rows, check_scope(rows))
    for d in DIFFICULTIES:
        excl, incl = table[("p", d)]
        assert incl == pytest.approx(2 / 4)
        assert excl == pytest.approx(2 / 3)


def test_scope_errors():
    with pytest.raises(ScopeError, match="empty"):
        check_scope([])
    rows = full_grid(["p"], 2, lambda *a: "proven")
    missing = [r for r in rows
               if not (r.cwe_id == 1234 and r.difficulty == "advanced"
                       and r.regen_index == 1)]
    with pytest.raises(ScopeError, match="1234"):
        check_scope(missing)


def test_verdict_counts():
    rows = full_grid(["p"], 2,
                     lambda p, c, d, i: "proven" if i else "unknown")
    assert verdict_counts(rows) == {"proven": 30, "unknown": 30}


# -------------------------------------------------------------- heatmap

def test_heatmap_shape_and_values(tmp_path):
    rows = full_grid(["a", "b"], 2,
                     lambda p, c, d, i: "proven" if p == "a" else "falsified")
    write_heatmap_json(rows, tmp_path / "h.json", check_scope(rows))
    hm = json.loads((tmp_path / "h.json").read_text())
    assert hm["providers"] == ["a", "b"]
    assert hm["cwes"] == list(CWE_IDS)
    for variant in ("exclude_noncompilable", "include_noncompilable"):
        assert hm[variant][0] == [1.0] * 10
        assert hm[variant][1] == [0.0] * 10


def test_heatmap_outputs_are_deterministic(tmp_path):
    rows = full_grid(["a"], 2,
                     lambda p, c, d, i: "proven" if (c + i) % 2 else "unknown")
    p1, p2 = tmp_path / "h1.json", tmp_path / "h2.json"
    write_heatmap_json(rows, p1, check_scope(rows), seed=7)
    write_heatmap_json(rows, p2, check_scope(rows), seed=7)
    assert p1.read_bytes() == p2.read_bytes()
    doc = json.loads(p1.read_text())
    assert doc["seed"] == 7 and doc["cwes"] == list(CWE_IDS)
    assert len(doc["exclude_noncompilable"][0]) == 10


# ------------------------------------------------------------- keywords

SNIPPET = """\
module m(input logic a, output logic b);
  logic c;
  always_ff @(posedge a) begin
    if (a) begin
      c <= a;
    end else begin
      c <= !a;
    end
  end
  assign b = c;
endmodule
"""


def test_keyword_hand_counts():
    hist, skipped = keyword_frequency([SNIPPET])
    assert skipped == 0
    assert hist["module"] == 1 and hist["endmodule"] == 1
    assert hist["logic"] == 3
    assert hist["begin"] == 3 and hist["end"] == 3
    assert hist["always_ff"] == 1 and hist["posedge"] == 1
    assert hist["if"] == 1 and hist["else"] == 1
    assert hist["assign"] == 1
    assert hist["case"] == 0
    assert set(hist) == set(DEFAULT_KEYWORDS)


def test_keyword_counts_ignore_comments_and_whitespace():
    noisy = "// module module module\n/* endmodule if else */\n" + \
        SNIPPET.replace("\n", "\n\n")
    base, _ = keyword_frequency([SNIPPET])
    got, _ = keyword_frequency([noisy])
    assert got == base


def test_keyword_identifiers_do_not_count():
    hist, _ = keyword_frequency(["module module_like(input logic begin_x);\n"
                                 "endmodule\n"])
    assert hist["module"] == 1 and hist["begin"] == 0


BROKEN = "wire w = 'h0' ;"


def test_untokenizable_sources_are_skipped():
    hist, skipped = keyword_frequency([SNIPPET, BROKEN])
    assert skipped == 1
    assert hist["module"] == 1


def test_a_non_ascii_identifier_makes_a_source_untokenizable():
    hist, skipped = keyword_frequency(["module m(input logic é_in);\n"
                                       "endmodule\n"])
    assert skipped == 1
    assert not any(hist.values())


def _per_source_sum(sources):
    """The histogram summed over one keyword_frequency call per source."""
    total = {kw: 0 for kw in DEFAULT_KEYWORDS}
    skipped = 0
    for source in sources:
        hist, s = keyword_frequency([source])
        skipped += s
        for kw, count in hist.items():
            total[kw] += count
    return total, skipped


def test_duplicated_sources_count_with_their_multiplicity():
    once, _ = keyword_frequency([SNIPPET])
    thrice, skipped = keyword_frequency([SNIPPET, SNIPPET, SNIPPET])
    assert skipped == 0
    assert thrice == {kw: 3 * count for kw, count in once.items()}
    assert thrice["logic"] == 9


def test_duplicated_untokenizable_source_is_skipped_per_copy():
    hist, skipped = keyword_frequency([BROKEN, SNIPPET, BROKEN, BROKEN])
    assert skipped == 3
    assert hist == keyword_frequency([SNIPPET])[0]


def test_histogram_equals_the_per_source_sum():
    designs = []
    for spec in list_problems():
        designs += [design_text(spec.correct_file),
                    design_text(spec.vulnerable_file)]
    # Uneven multiplicities, interleaved, plus untokenizable copies.
    sources = [d for i, d in enumerate(designs) for _ in range(1 + i % 4)]
    sources = sources[::2] + sources[1::2] + [BROKEN] * 5
    assert keyword_frequency(sources) == _per_source_sum(sources)


def test_each_distinct_source_is_tokenized_once(monkeypatch):
    import svsec.metrics.keywords as keywords

    seen = []

    def counting_tokenize(source):
        seen.append(source)
        return tokenize(source)

    monkeypatch.setattr(keywords, "tokenize", counting_tokenize)
    other = SNIPPET.replace("posedge", "negedge")
    hist, skipped = keyword_frequency([SNIPPET, other, BROKEN, SNIPPET,
                                       BROKEN, other, SNIPPET])
    assert sorted(seen) == sorted([SNIPPET, other, BROKEN])
    assert skipped == 2
    assert hist["posedge"] == 3 and hist["negedge"] == 2


def test_keywords_csv(tmp_path):
    hist, _ = keyword_frequency([SNIPPET])
    out = tmp_path / "keywords.csv"
    write_keywords_csv(hist, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "keyword,count"
    assert len(lines) == 1 + len(DEFAULT_KEYWORDS)
    assert lines[1:] == sorted(lines[1:])


# -------------------------------------------------------------- labeling

def gen_for(spec, source, provider="stub-a", regen=0):
    raw = f"```systemverilog\n{source}```" if source is not None else ""
    g = Generation(problem_id=spec.problem_id, provider_id=provider,
                   regen_index=regen, raw=raw,
                   error="" if source is not None else "boom")
    g.source = source
    return g


def test_label_correct_and_vulnerable_and_broken():
    (spec,) = list_problems(cwe=1234, difficulty="basic")
    correct = design_text(spec.correct_file)
    vulnerable = design_text(spec.vulnerable_file)

    row = label_design(gen_for(spec, correct), spec)
    assert row.verdict == "proven" and row.k_used is not None
    assert row.lines_of_code > 5 and row.runtime_ms > 0
    assert row.design_id == f"stub-a:{spec.problem_id}:0"

    row = label_design(gen_for(spec, vulnerable), spec)
    assert row.verdict == "falsified" and row.cex_depth is not None

    broken = correct[:correct.rfind("endmodule")]
    row = label_design(gen_for(spec, broken), spec)
    assert row.verdict == "compile_error"

    row = label_design(gen_for(spec, None), spec)
    assert row.verdict == "compile_error" and row.lines_of_code == 0


def test_label_rejects_mismatched_problem():
    a, b = list_problems(cwe=1209)[:2]
    g = gen_for(a, design_text(a.correct_file))
    with pytest.raises(ValueError, match="labeled against"):
        label_design(g, b)


def test_memoization_reuses_verdicts():
    (spec,) = list_problems(cwe=1223, difficulty="basic")
    src = design_text(spec.correct_file)
    gens = [gen_for(spec, src, regen=i) for i in range(3)]
    memo: dict = {}
    rows = [label_design(g, spec, memo=memo) for g in gens]
    assert len(memo) == 1
    # memo replays the identical outcome and work figure
    assert len({(r.verdict, r.k_used, r.runtime_ms) for r in rows}) == 1


def test_deterministic_runtime_is_reproducible():
    (spec,) = list_problems(cwe=1258, difficulty="basic")
    src = design_text(spec.vulnerable_file)
    r1 = label_design(gen_for(spec, src), spec)
    r2 = label_design(gen_for(spec, src), spec)
    assert r1.runtime_ms == r2.runtime_ms > 0


def test_label_batch_end_to_end():
    specs = list_problems(difficulty="basic")[:2]
    gens = []
    for spec in specs:
        gens.append(gen_for(spec, design_text(spec.correct_file), regen=0))
        gens.append(gen_for(spec, design_text(spec.vulnerable_file), regen=1))
    rows = label_batch(gens, specs)
    assert [r.verdict for r in rows] == ["proven", "falsified"] * 2
    assert all(r.toolkit_version for r in rows)
