"""Command-line entry point: verify, generate, label, metrics, report."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

import svsec
from svsec.catalog import CWE_IDS, DIFFICULTIES, list_problems
from svsec.catalog.problems import instantiate_property_text
from svsec.check import DEFAULT_BUDGET, DEFAULT_MAX_K, check_design

EXIT_CODES = {"proven": 0, "falsified": 1, "unknown": 2, "compile_error": 3}


@click.group()
@click.version_option(svsec.__version__)
def main():
    """Formal security verification of SystemVerilog designs, plus a
    generation / labeling / metrics pipeline over the CWE catalog."""


# ---------------------------------------------------------------- verify

@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--cwe", type=int, help="Catalog CWE id (with --difficulty).")
@click.option("--difficulty", type=click.Choice(DIFFICULTIES))
@click.option("--property", "property_file", type=click.Path(exists=True),
              help="File holding a property expression (overrides catalog).")
@click.option("--top", help="Top module (defaults to the catalog problem's).")
@click.option("--max-k", default=DEFAULT_MAX_K, show_default=True)
@click.option("--budget", default=DEFAULT_BUDGET, show_default=True,
              help="Solver work units (propagations + decisions + "
                   "conflicts) per check.")
def verify(file, cwe, difficulty, property_file, top, max_k, budget):
    """Check one design file; exit 0 proven, 1 falsified, 2 unknown,
    3 compile error."""
    if property_file:
        property_text = Path(property_file).read_text(encoding="utf-8").strip()
        if not top:
            raise click.UsageError("--top is required with --property")
    else:
        if cwe is None or difficulty is None:
            raise click.UsageError(
                "give --cwe and --difficulty, or an explicit --property")
        matches = list_problems(cwe=cwe, difficulty=difficulty)
        if not matches:
            raise click.UsageError(f"no catalog problem for cwe {cwe} "
                                   f"{difficulty}")
        spec = matches[0]
        property_text = instantiate_property_text(spec)
        top = top or spec.module_name

    source = Path(file).read_text(encoding="utf-8")
    verdict = check_design(source, top, property_text,
                           max_k=max_k, budget=budget)
    status = verdict.status
    if status == "proven":
        click.echo(f"proven (k={verdict.k_used})")
    elif status == "falsified":
        click.echo(f"falsified at depth {verdict.depth}")
        if verdict.culprit_line:
            click.echo(f"  root cause: line {verdict.culprit_line} "
                       f"(assignment to {verdict.culprit_signal})")
        for t, ins in enumerate(verdict.trace.inputs):
            pairs = " ".join(f"{k}={v}" for k, v in sorted(ins.items()))
            click.echo(f"  cycle {t}: {pairs}")
    elif status == "unknown":
        click.echo(f"unknown ({verdict.reason})")
    else:
        click.echo("compile error:")
        where = ((property_file or "<property>") if verdict.in_property
                 else file)
        for d in verdict.diagnostics:
            click.echo(f"  {d.render(where)}")
    sys.exit(EXIT_CODES[status])


# -------------------------------------------------------------- generate

@main.command()
@click.option("--stub", is_flag=True, help="Use the offline stub provider.")
@click.option("--providers", "providers_file", type=click.Path(exists=True),
              help="Provider config file (YAML).")
@click.option("--n", default=20, show_default=True,
              help="Regenerations per (provider, problem).")
@click.option("--seed", default=0, show_default=True)
@click.option("--workers", type=int,
              show_default="1 with --stub, 4 otherwise",
              help="Threads that ask the provider.")
@click.option("--out", "out_dir", default=".", show_default=True,
              help="Output directory (cache lands in OUT/cache).")
def generate(stub, providers_file, n, seed, workers, out_dir):
    """Produce the generation corpus into OUT/cache."""
    from svsec.gen import StubProvider, generate_batch, load_providers
    from svsec.gen.batch import DEFAULT_WORKERS

    if not stub and not providers_file:
        raise click.UsageError("pass --stub or --providers <file>")
    if workers is None:
        # The stub is CPU-bound: more threads only contend for the GIL.
        workers = 1 if stub else DEFAULT_WORKERS
    providers = load_providers(providers_file) if providers_file else None
    stub_provider = StubProvider(seed=seed, n=n) if stub else None
    specs = list_problems()
    gens = generate_batch(specs, providers, n, Path(out_dir) / "cache",
                          stub=stub_provider, workers=workers)
    failed = sum(1 for g in gens if not g.ok)
    click.echo(f"{len(gens)} generations ({failed} failed) in "
               f"{Path(out_dir) / 'cache'}")


# ----------------------------------------------------------------- label

@main.command()
@click.option("--cache", "cache_dir", default="./cache", show_default=True,
              type=click.Path(file_okay=False))
@click.option("--out", "out_dir", default=".", show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--max-k", default=DEFAULT_MAX_K, show_default=True)
@click.option("--budget", default=DEFAULT_BUDGET, show_default=True,
              help="Solver work units (propagations + decisions + "
                   "conflicts) per check.")
def label(cache_dir, out_dir, seed, max_k, budget):
    """Adjudicate every cached generation into OUT/dataset.csv."""
    from svsec.gen import load_cache
    from svsec.metrics import export_csv, label_batch, verdict_counts

    gens = load_cache(cache_dir)
    if not gens:
        raise click.ClickException(
            f"no cached generations under {cache_dir}; run generate first")
    specs = list_problems()
    unknown = {g.problem_id for g in gens} - {s.problem_id for s in specs}
    if unknown:
        raise click.ClickException(f"{cache_dir} holds generations for "
                                   f"problems not in the catalog: "
                                   f"{', '.join(sorted(unknown))}")
    # Before labeling, so a missing directory cannot discard its work.
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    rows = label_batch(gens, specs, seed=seed, max_k=max_k, budget=budget)
    out = Path(out_dir) / "dataset.csv"
    export_csv(rows, out)
    click.echo(f"{len(rows)} rows -> {out}")
    click.echo(f"verdicts: {json.dumps(verdict_counts(rows), sort_keys=True)}")


# --------------------------------------------------------------- metrics

def _dataset_rows(dataset: str) -> list:
    """The rows of a labeled dataset, which must cover a complete scope."""
    from svsec.metrics import import_csv
    from svsec.metrics.passatk import ScopeError, check_scope

    if not Path(dataset).exists():
        raise click.ClickException(f"{dataset} not found; run label first")
    rows = import_csv(dataset)
    try:
        check_scope(rows)
    except ScopeError as exc:
        raise click.ClickException(f"{dataset}: {exc}") from None
    return rows


@main.command()
@click.option("--dataset", default="./dataset.csv", show_default=True,
              type=click.Path())
@click.option("--cache", "cache_dir", default="./cache", show_default=True,
              help="Generation cache (for the keyword histogram).")
@click.option("--out", "out_dir", default=".", show_default=True)
@click.option("--seed", default=0, show_default=True)
def metrics(dataset, cache_dir, out_dir, seed):
    """Compute passatk.csv, heatmap.json, and keywords.csv."""
    import csv as _csv

    from svsec.gen import load_cache
    from svsec.metrics import (keyword_frequency, passatk_by_difficulty,
                               write_heatmap_json, write_keywords_csv)

    rows = _dataset_rows(dataset)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    write_heatmap_json(rows, out / "heatmap.json", seed=seed)

    excl = passatk_by_difficulty(rows, include_noncompilable=False)
    incl = passatk_by_difficulty(rows, include_noncompilable=True)
    with open(out / "passatk.csv", "w", encoding="utf-8", newline="") as fh:
        w = _csv.writer(fh)
        w.writerow(["provider", "difficulty", "rate_excluding_noncompilable",
                    "rate_including_noncompilable"])
        for key in sorted(excl):
            w.writerow([key[0], key[1], round(excl[key], 6),
                        round(incl[key], 6)])

    sources = [g.source for g in load_cache(cache_dir) if g.source]
    hist, skipped = keyword_frequency(sources)
    write_keywords_csv(hist, out / "keywords.csv")
    click.echo(f"wrote {out / 'heatmap.json'}, {out / 'passatk.csv'}, "
               f"{out / 'keywords.csv'} ({skipped} untokenizable sources "
               f"skipped)")


# ---------------------------------------------------------------- report

@main.command()
@click.option("--dataset", default="./dataset.csv", show_default=True)
@click.option("--json", "as_json", is_flag=True, help="Emit JSON.")
def report(dataset, as_json):
    """Summarize a labeled dataset: Pass@k per provider/difficulty."""
    from svsec.metrics import (passatk_by_cwe, passatk_by_difficulty,
                               verdict_counts)

    rows = _dataset_rows(dataset)
    excl = passatk_by_difficulty(rows, include_noncompilable=False)
    incl = passatk_by_difficulty(rows, include_noncompilable=True)
    providers = sorted({p for p, _ in excl})

    if as_json:
        doc = {
            "toolkit_version": svsec.__version__,
            "rows": len(rows),
            "verdicts": verdict_counts(rows),
            "passatk_excluding": {f"{p}/{d}": excl[(p, d)]
                                  for p, d in sorted(excl)},
            "passatk_including": {f"{p}/{d}": incl[(p, d)]
                                  for p, d in sorted(incl)},
            "heatmap_excluding": {f"{p}/cwe{c}": r for (p, c), r in
                                  sorted(passatk_by_cwe(rows).items())},
        }
        click.echo(json.dumps(doc, indent=1, sort_keys=True))
        return

    click.echo(f"{len(rows)} rows; verdicts "
               f"{json.dumps(verdict_counts(rows), sort_keys=True)}")
    header = f"{'provider':<12}" + "".join(f"{d:>14}" for d in DIFFICULTIES)
    for title, table in (("excluding", excl), ("including", incl)):
        click.echo()
        click.echo(f"Pass@k ({title} non-compilable)")
        click.echo(header)
        for p in providers:
            click.echo(f"{p:<12}" + "".join(f"{table[(p, d)]:>14.3f}"
                                            for d in DIFFICULTIES))


if __name__ == "__main__":
    main()
