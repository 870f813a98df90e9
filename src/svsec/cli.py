"""Command-line entry point: verify, generate, label, metrics, report."""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import svsec
from svsec.catalog import DIFFICULTIES, list_problems
from svsec.catalog.problems import CatalogError, instantiate_property_text
from svsec.check import DEFAULT_BUDGET, DEFAULT_MAX_K, check_design
from svsec.engine.result import CompileError
from svsec.frontend.diagnostics import DiagnosticError, error

EXIT_CODES = {"proven": 0, "falsified": 1, "unknown": 2, "compile_error": 3}
# sysexits.h's EX_USAGE: a bad invocation never reads as a verdict.
EX_USAGE = 64

DEFAULT = "[default: %(default)s]"
BUDGET_HELP = ("Solver work units (propagations + decisions + conflicts) "
               f"per check. {DEFAULT}")


class CliError(Exception):
    """A failure reported as one `Error: <msg>` line, with exit code 1."""

    exit_code = 1


class UsageError(CliError):
    """A bad invocation, with exit code 64."""

    exit_code = EX_USAGE


class _Parser(argparse.ArgumentParser):
    """Options spelled out in full, `--help` without `-h`, and one path
    for usage errors; the subcommands' parsers are of this class too."""

    def __init__(self, **kwargs):
        super().__init__(add_help=False, allow_abbrev=False, **kwargs)
        self.add_argument("--help", action="help",
                          help="Show this message and exit.")

    def error(self, message):
        """The one path of every usage error: argparse's own (a bad
        choice or value, a missing file, an unknown option) and the
        commands' checks."""
        raise UsageError(f"{message} (see '{self.prog} --help')")


# ---------------------------------------------------------- path checks

def _file(path: str) -> str:
    if not os.path.exists(path):
        raise argparse.ArgumentTypeError(f"File '{path}' does not exist.")
    return _not_directory(path)


def _not_directory(path: str) -> str:
    """A file path that may be missing, which its command reports."""
    if os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"File '{path}' is a directory.")
    return path


def _directory(path: str) -> str:
    if os.path.exists(path) and not os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"Directory '{path}' is a file.")
    return path


# --------------------------------------------------------- number checks

def _at_least(minimum: int):
    """An argparse type for an int no less than `minimum`, so a bad
    number is a usage error and never reaches a command."""
    def number(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"{value} is less than {minimum}")
        return value
    return number


# ---------------------------------------------------------------- verify

def _read_utf8(path: str) -> str:
    """The text of a file, with its newlines read as text mode reads
    them; raises a `DiagnosticError` at its first byte that is not
    UTF-8."""
    data = Path(path).read_bytes()
    try:
        return _text_mode(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        before = _text_mode(data[:exc.start].decode("utf-8"))
        line = before.count("\n") + 1
        col = len(before) - before.rfind("\n")
        raise error(f"not UTF-8 text: byte 0x{data[exc.start]:02x} "
                    f"({exc.reason})", line, col) from None


def _text_mode(text: str) -> str:
    """`text` with every `\\r\\n` and `\\r` read as `\\n`."""
    return text.replace("\r\n", "\n").replace("\r", "\n")


def verify(args) -> int:
    """Check one design file; exit 0 proven, 1 falsified, 2 unknown,
    3 compile error."""
    top = args.top
    if args.property_file:
        if not top:
            args.parser.error("--top is required with --property")
    else:
        cwe, difficulty = args.cwe, args.difficulty
        if cwe is None or difficulty is None:
            args.parser.error(
                "give --cwe and --difficulty, or an explicit --property")
        try:
            matches = list_problems(cwe=cwe, difficulty=difficulty)
        except CatalogError:
            matches = []
        if not matches:
            args.parser.error(f"no catalog problem for cwe {cwe} "
                              f"{difficulty}")
        spec = matches[0]
        property_text = instantiate_property_text(spec)
        top = top or spec.module_name

    in_property = False  # which file a decoding error is in
    try:
        source = _read_utf8(args.file)
        if args.property_file:
            in_property = True
            property_text = _read_utf8(args.property_file).strip()
    except DiagnosticError as exc:
        verdict = CompileError(diagnostics=[exc.diag],
                               in_property=in_property)
    else:
        verdict = check_design(source, top, property_text,
                               max_k=args.max_k, budget=args.budget)
    status = verdict.status
    if status == "proven":
        print(f"proven (k={verdict.k_used})")
    elif status == "falsified":
        print(f"falsified at depth {verdict.depth}")
        if verdict.culprit_line:
            print(f"  root cause: line {verdict.culprit_line} "
                  f"(assignment to {verdict.culprit_signal})")
        for t, ins in enumerate(verdict.trace.inputs):
            pairs = " ".join(f"{k}={v}" for k, v in sorted(ins.items()))
            print(f"  cycle {t}: {pairs}")
    elif status == "unknown":
        print(f"unknown ({verdict.reason})")
    else:
        print("compile error:")
        where = ((args.property_file or "<property>") if verdict.in_property
                 else args.file)
        for d in verdict.diagnostics:
            print(f"  {d.render(where)}")
    return EXIT_CODES[status]


# -------------------------------------------------------------- generate

def generate(args) -> None:
    """Produce the generation corpus into OUT/cache."""
    from svsec.gen import (ProviderError, StubProvider, generate_batch,
                           load_providers)
    from svsec.gen.batch import DEFAULT_WORKERS

    if not args.stub and not args.providers_file:
        args.parser.error("pass --stub or --providers <file>")
    workers = args.workers
    if workers is None:
        # The stub is CPU-bound: more threads only contend for the GIL.
        workers = 1 if args.stub else DEFAULT_WORKERS
    try:
        providers = (load_providers(args.providers_file)
                     if args.providers_file else None)
    except ProviderError as exc:
        raise CliError(f"{args.providers_file}: {exc}") from None
    stub_provider = (StubProvider(seed=args.seed, n=args.n) if args.stub
                     else None)
    specs = list_problems()
    cache = Path(args.out_dir) / "cache"
    gens = generate_batch(specs, providers, args.n, cache,
                          stub=stub_provider, workers=workers)
    failed = sum(1 for g in gens if not g.ok)
    print(f"{len(gens)} generations ({failed} failed) in {cache}")


# ----------------------------------------------------------------- label

def label(args) -> None:
    """Adjudicate every cached generation into OUT/dataset.csv."""
    from svsec.metrics import export_csv, label_batch, verdict_counts

    cache_dir = args.cache_dir
    gens = _cached_generations(cache_dir)
    specs = list_problems()
    unknown = {g.problem_id for g in gens} - {s.problem_id for s in specs}
    if unknown:
        raise CliError(f"{cache_dir} holds generations for problems not in "
                       f"the catalog: {', '.join(sorted(unknown))}")
    # Before labeling, so a missing directory cannot discard its work.
    Path(args.out_dir).mkdir(parents=True, exist_ok=True)
    rows = label_batch(gens, specs, seed=args.seed, max_k=args.max_k,
                       budget=args.budget)
    out = Path(args.out_dir) / "dataset.csv"
    export_csv(rows, out)
    print(f"{len(rows)} rows -> {out}")
    print(f"verdicts: {json.dumps(verdict_counts(rows), sort_keys=True)}")


def _cached_generations(cache_dir: str) -> list:
    """The generations cached under `cache_dir`, which must hold some."""
    from svsec.gen import load_cache

    gens = load_cache(cache_dir)
    if not gens:
        raise CliError(
            f"no cached generations under {cache_dir}; run generate first")
    return gens


# --------------------------------------------------------------- metrics

def _dataset_rows(dataset: str) -> tuple[list, int]:
    """The rows of a labeled dataset, which must cover a complete scope,
    and the scope's regenerations per cell."""
    from svsec.metrics import RowError, import_csv
    from svsec.metrics.passatk import ScopeError, check_scope

    if not Path(dataset).exists():
        raise CliError(f"{dataset} not found; run label first")
    try:
        rows = import_csv(dataset)
        n = check_scope(rows)
    except (RowError, ScopeError) as exc:
        raise CliError(f"{dataset}: {exc}") from None
    return rows, n


def metrics(args) -> None:
    """Compute passatk.csv, heatmap.json, and keywords.csv."""
    import csv as _csv

    from svsec.metrics import (keyword_frequency, passatk_by_difficulty,
                               write_heatmap_json, write_keywords_csv)

    rows, n = _dataset_rows(args.dataset)
    sources = [g.source for g in _cached_generations(args.cache_dir)
               if g.source]
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    write_heatmap_json(rows, out / "heatmap.json", n, seed=args.seed)

    with open(out / "passatk.csv", "w", encoding="utf-8", newline="") as fh:
        w = _csv.writer(fh)
        w.writerow(["provider", "difficulty", "rate_excluding_noncompilable",
                    "rate_including_noncompilable"])
        for (p, d), (excl, incl) in passatk_by_difficulty(rows, n).items():
            w.writerow([p, d, round(excl, 6), round(incl, 6)])

    hist, skipped = keyword_frequency(sources)
    write_keywords_csv(hist, out / "keywords.csv")
    print(f"wrote {out / 'heatmap.json'}, {out / 'passatk.csv'}, "
          f"{out / 'keywords.csv'} ({skipped} untokenizable sources "
          f"skipped)")


# ---------------------------------------------------------------- report

def report(args) -> None:
    """Summarize a labeled dataset: Pass@k per provider/difficulty."""
    from svsec.metrics import (passatk_by_cwe, passatk_by_difficulty,
                               verdict_counts)

    rows, n = _dataset_rows(args.dataset)
    table = passatk_by_difficulty(rows, n)

    if args.as_json:
        doc = {
            "toolkit_version": svsec.__version__,
            "rows": len(rows),
            "verdicts": verdict_counts(rows),
            "passatk_excluding": {f"{p}/{d}": excl
                                  for (p, d), (excl, _) in table.items()},
            "passatk_including": {f"{p}/{d}": incl
                                  for (p, d), (_, incl) in table.items()},
            "heatmap_excluding": {f"{p}/cwe{c}": excl for (p, c), (excl, _)
                                  in passatk_by_cwe(rows, n).items()},
        }
        print(json.dumps(doc, indent=1, sort_keys=True))
        return

    print(f"{len(rows)} rows; verdicts "
          f"{json.dumps(verdict_counts(rows), sort_keys=True)}")
    header = f"{'provider':<12}" + "".join(f"{d:>14}" for d in DIFFICULTIES)
    providers = sorted({p for p, _ in table})
    for variant, title in enumerate(("excluding", "including")):
        print()
        print(f"Pass@k ({title} non-compilable)")
        print(header)
        for p in providers:
            print(f"{p:<12}" + "".join(f"{table[(p, d)][variant]:>14.3f}"
                                       for d in DIFFICULTIES))


# ----------------------------------------------------------------- parser

def _command(commands, run) -> argparse.ArgumentParser:
    """The subparser of `run`, named after it and described by its
    docstring; its checks report through `args.parser.error`."""
    doc = " ".join(run.__doc__.split())
    parser = commands.add_parser(run.__name__, help=doc, description=doc)
    parser.set_defaults(run=run, parser=parser)
    return parser


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="svsec",
        description="Formal security verification of SystemVerilog "
                    "designs, plus a generation / labeling / metrics "
                    "pipeline over the CWE catalog.",
        epilog="A usage error exits 64.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s, version {svsec.__version__}",
                        help="Show the version and exit.")
    commands = parser.add_subparsers(title="commands", metavar="COMMAND",
                                     dest="command", required=True)

    p = _command(commands, verify)
    p.add_argument("file", metavar="FILE", type=_file)
    p.add_argument("--cwe", type=int, metavar="INTEGER",
                   help="Catalog CWE id (with --difficulty).")
    p.add_argument("--difficulty", choices=DIFFICULTIES)
    p.add_argument("--property", dest="property_file", type=_file,
                   metavar="PATH",
                   help="File holding a property expression (overrides "
                        "catalog).")
    p.add_argument("--top", metavar="TEXT",
                   help="Top module (defaults to the catalog problem's).")
    p.add_argument("--max-k", type=_at_least(0), default=DEFAULT_MAX_K,
                   metavar="INTEGER", help=DEFAULT)
    p.add_argument("--budget", type=_at_least(1), default=DEFAULT_BUDGET,
                   metavar="INTEGER", help=BUDGET_HELP)

    p = _command(commands, generate)
    source = p.add_mutually_exclusive_group()
    source.add_argument("--stub", action="store_true",
                        help="Use the offline stub provider.")
    source.add_argument("--providers", dest="providers_file", type=_file,
                        metavar="PATH", help="Provider config file (YAML).")
    p.add_argument("--n", type=_at_least(1), default=20, metavar="INTEGER",
                   help=f"Regenerations per (provider, problem). {DEFAULT}")
    p.add_argument("--seed", type=int, default=0, metavar="INTEGER",
                   help=DEFAULT)
    p.add_argument("--workers", type=_at_least(1), metavar="INTEGER",
                   help="Threads that ask the provider. "
                        "[default: 1 with --stub, 4 otherwise]")
    p.add_argument("--out", dest="out_dir", default=".", type=_directory,
                   metavar="DIRECTORY",
                   help=f"Output directory (cache lands in OUT/cache). "
                        f"{DEFAULT}")

    p = _command(commands, label)
    p.add_argument("--cache", dest="cache_dir", default="./cache",
                   type=_directory, metavar="DIRECTORY", help=DEFAULT)
    p.add_argument("--out", dest="out_dir", default=".", type=_directory,
                   metavar="DIRECTORY", help=DEFAULT)
    p.add_argument("--seed", type=int, default=0, metavar="INTEGER",
                   help=DEFAULT)
    p.add_argument("--max-k", type=_at_least(0), default=DEFAULT_MAX_K,
                   metavar="INTEGER", help=DEFAULT)
    p.add_argument("--budget", type=_at_least(1), default=DEFAULT_BUDGET,
                   metavar="INTEGER", help=BUDGET_HELP)

    p = _command(commands, metrics)
    p.add_argument("--dataset", default="./dataset.csv",
                   type=_not_directory, metavar="PATH", help=DEFAULT)
    p.add_argument("--cache", dest="cache_dir", default="./cache",
                   type=_directory, metavar="DIRECTORY",
                   help=f"Generation cache (for the keyword histogram). "
                        f"{DEFAULT}")
    p.add_argument("--out", dest="out_dir", default=".", type=_directory,
                   metavar="DIRECTORY", help=DEFAULT)
    p.add_argument("--seed", type=int, default=0, metavar="INTEGER",
                   help=DEFAULT)

    p = _command(commands, report)
    p.add_argument("--dataset", default="./dataset.csv",
                   type=_not_directory, metavar="PATH", help=DEFAULT)
    p.add_argument("--json", dest="as_json", action="store_true",
                   help="Emit JSON.")
    return parser


def main(argv: list[str] | None = None, standalone_mode: bool = True) -> int:
    """Run the command in `argv` (default `sys.argv[1:]`) and return its
    exit code: the verdict's for `verify` (`EXIT_CODES`), 0 when another
    command finishes, 1 for a failure and 64 for a usage error, each
    reported on stderr as one `Error: <msg>` line.  `--help` and
    `--version` print and return 0.  The console script and
    `python -m svsec.cli` exit with the code.

    No call raises `SystemExit`.  A caller that embeds the commands, as
    the benchmark's pipeline does with `main(argv,
    standalone_mode=False)`, gets the same return value, but a failure
    or usage error is raised to it as `CliError` instead of printed.
    """
    try:
        # What a command's parser does not know it hands back, and the
        # command reports it and names its own help.  The top level
        # knows only --help and --version, which exit, so whatever comes
        # before the command is the top level's to report.
        argv = sys.argv[1:] if argv is None else argv
        parser = _parser()
        args, unknown = parser.parse_known_args(argv)
        if unknown:
            before = argv[:argv.index(args.command)]
            if before:
                parser.error(f"unrecognized arguments: {' '.join(before)}")
            args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
        return args.run(args) or 0
    except SystemExit as done:  # only --help and --version exit
        return done.code
    except CliError as exc:
        if not standalone_mode:
            raise
        print(f"Error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
