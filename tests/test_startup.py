"""What a fresh svsec process loads before its first check.

The import tests start new interpreters, because this one has long since
imported everything.  They import the same svsec as this process, so they
check an installed package as well as `src/`.
"""

from __future__ import annotations

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import svsec
from clirun import invoke
from svsec.catalog import list_problems
from svsec.catalog.problems import design_text, instantiate_property_text
from svsec.gen import load_providers

# Modules that only generation, metrics, tests or provider configs need,
# and a command-line library: the command line is built on argparse.
OFF_THE_CHECK_PATH = ("svsec.gen", "svsec.metrics", "svsec.frontend.pretty",
                      "yaml", "dataclasses", "click")

PROVIDERS = """\
providers:
  - id: alpha
    endpoint: https://example.invalid/v1/chat
    model: "alpha-large:2024-06"
    temperature: 0.7
    max_tokens: 512
    auth_env: ALPHA_KEY
    timeout_seconds: 30
    max_attempts: 5
    backoff_base_seconds: 1.5e-1
  - id: beta
    endpoint: 'https://example.invalid/b'
    model: beta-base
"""


def fresh_python(*args: str, cwd=None) -> subprocess.CompletedProcess:
    """`python args` in a new interpreter that imports this svsec."""
    home = str(Path(svsec.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=home + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def imported(importtime_log: str) -> set[str]:
    """The module names in a `python -X importtime` log."""
    return {line.rsplit("|", 1)[1].strip()
            for line in importtime_log.splitlines()
            if line.startswith("import time:") and "|" in line}


def fresh_verify(*args: str, cwd) -> tuple[subprocess.CompletedProcess,
                                           set[str]]:
    """`svsec verify args` in a new interpreter, and the modules it
    imported."""
    proc = fresh_python("-X", "importtime", "-m", "svsec.cli", "verify",
                        *args, cwd=cwd)
    return proc, imported(proc.stderr)


def off_path(modules) -> list[str]:
    return sorted(m for m in modules
                  if any(m == p or m.startswith(p + ".")
                         for p in OFF_THE_CHECK_PATH))


# The benchmark's set-up probe, then the number of svsec functions
# compiled from strings (as `dataclass` builds its methods) and the
# modules loaded.
PROBE = """\
import gc, sys, types
import svsec.check, svsec.cli
from svsec.catalog import load_catalog
load_catalog()
print(sum(isinstance(f, types.FunctionType)
          and f.__code__.co_filename == "<string>"
          and (f.__module__ or "").startswith("svsec")
          for f in gc.get_objects()))
print(*sys.modules)
"""


@functools.cache
def probe() -> tuple[int, list[str]]:
    proc = fresh_python("-c", PROBE)
    assert proc.returncode == 0, proc.stderr
    from_strings, modules = proc.stdout.split("\n", 1)
    return int(from_strings), modules.split()


def test_the_check_path_imports_no_generation_metrics_or_yaml():
    assert "svsec.catalog.problems" in probe()[1]
    assert off_path(probe()[1]) == []


def test_the_check_path_compiles_little_code_at_import():
    assert probe()[0] == 0


@pytest.mark.parametrize("which", ["correct", "vulnerable"])
def test_verify_with_a_property_file_never_imports_yaml(tmp_path, which):
    (spec,) = list_problems(cwe=1234, difficulty="basic")
    design = tmp_path / "design.sv"
    design.write_text(design_text(getattr(spec, f"{which}_file")))
    prop = tmp_path / "design.prop"
    prop.write_text(instantiate_property_text(spec) + "\n")
    usual = invoke("verify", str(design), "--cwe", "1234",
                   "--difficulty", "basic")

    proc, modules = fresh_verify(str(design), "--property", str(prop),
                                 "--top", spec.module_name, cwd=tmp_path)
    assert (proc.returncode, proc.stdout) == (usual.exit_code, usual.output)
    assert usual.exit_code == {"correct": 0, "vulnerable": 1}[which]
    assert "svsec.check" in modules
    assert off_path(modules) == []


@pytest.mark.parametrize("which", ["correct", "vulnerable"])
def test_verify_from_the_catalog_never_imports_yaml(tmp_path, which):
    design = tmp_path / "design.sv"
    design.write_text(design_text(f"cwe1234_basic_{which}.sv"))
    proc, modules = fresh_verify(str(design), "--cwe", "1234",
                                 "--difficulty", "basic", cwd=tmp_path)
    assert proc.returncode == {"correct": 0, "vulnerable": 1}[which], \
        proc.stderr
    assert "svsec.catalog.problems" in modules
    assert off_path(modules) == []


def _load_with(monkeypatch, with_libyaml: bool, load):
    """`load()` while PyYAML reports `with_libyaml`; returns its result
    and the loader classes that `load_providers` chose."""
    chosen = []
    real_load = yaml.load

    def spy(stream, Loader):
        chosen.append(Loader)
        return real_load(stream, Loader=Loader)

    with monkeypatch.context() as m:
        m.setattr(yaml, "__with_libyaml__", with_libyaml)
        m.setattr(yaml, "load", spy)
        return load(), chosen


def test_both_yaml_loaders_read_the_same_providers(tmp_path, monkeypatch):
    cfg = tmp_path / "providers.yaml"
    cfg.write_text(PROVIDERS)

    def load():
        return load_providers(str(cfg))

    providers, chosen = _load_with(monkeypatch, False, load)
    assert chosen == [yaml.SafeLoader]
    assert [(p.provider_id, p.model, p.temperature, p.timeout_seconds,
             p.backoff_base_seconds) for p in providers] == \
        [("alpha", "alpha-large:2024-06", 0.7, 30.0, 0.15),
         ("beta", "beta-base", 1.0, 60.0, 0.5)]

    if not yaml.__with_libyaml__:
        pytest.skip("PyYAML is built without libyaml")
    libyaml, chosen = _load_with(monkeypatch, True, load)
    assert chosen == [yaml.CSafeLoader]
    assert libyaml == providers
