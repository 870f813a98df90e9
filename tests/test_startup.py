"""What a fresh svsec process loads before its first check.

The import tests start new interpreters, because this one has long since
imported everything.  They import the same svsec as this process, so they
check an installed package as well as `src/`.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner

import svsec
from svsec.catalog import list_problems
from svsec.catalog.problems import (design_text, instantiate_property_text,
                                    load_catalog)
from svsec.cli import main
from svsec.gen import load_providers

# Modules that only generation, metrics, tests or the YAML catalog need.
OFF_THE_CHECK_PATH = ("svsec.gen", "svsec.metrics", "svsec.frontend.pretty",
                      "yaml")

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


def off_path(modules) -> list[str]:
    return sorted(m for m in modules
                  if any(m == p or m.startswith(p + ".")
                         for p in OFF_THE_CHECK_PATH))


def test_the_check_path_imports_no_generation_metrics_or_yaml():
    proc = fresh_python("-c", "import sys, svsec.check, svsec.cli; "
                              "print('\\n'.join(sys.modules))")
    assert proc.returncode == 0, proc.stderr
    assert off_path(proc.stdout.split()) == []


@pytest.mark.parametrize("which", ["correct", "vulnerable"])
def test_verify_with_a_property_file_never_imports_yaml(tmp_path, which):
    (spec,) = list_problems(cwe=1234, difficulty="basic")
    design = tmp_path / "design.sv"
    design.write_text(design_text(getattr(spec, f"{which}_file")))
    prop = tmp_path / "design.prop"
    prop.write_text(instantiate_property_text(spec) + "\n")
    usual = CliRunner().invoke(main, ["verify", str(design), "--cwe", "1234",
                                      "--difficulty", "basic"])

    proc = fresh_python("-X", "importtime", "-m", "svsec.cli", "verify",
                        str(design), "--property", str(prop),
                        "--top", spec.module_name, cwd=tmp_path)
    assert (proc.returncode, proc.stdout) == (usual.exit_code, usual.output)
    assert usual.exit_code == {"correct": 0, "vulnerable": 1}[which]
    modules = imported(proc.stderr)
    assert "svsec.check" in modules
    assert off_path(modules) == []


def _load_with(monkeypatch, with_libyaml: bool, load):
    """`load()` while PyYAML reports `with_libyaml`; returns its result
    and the loader classes the YAML helper chose."""
    chosen = []
    real_load = yaml.load

    def spy(stream, Loader):
        chosen.append(Loader)
        return real_load(stream, Loader=Loader)

    with monkeypatch.context() as m:
        m.setattr(yaml, "__with_libyaml__", with_libyaml)
        m.setattr(yaml, "load", spy)
        return load(), chosen


def test_both_yaml_loaders_read_the_same_catalog_and_providers(
        tmp_path, monkeypatch):
    cfg = tmp_path / "providers.yaml"
    cfg.write_text(PROVIDERS)

    def load():
        # Past load_catalog's cache, so that each side parses the file.
        return load_catalog.__wrapped__(), load_providers(str(cfg))

    pure, chosen = _load_with(monkeypatch, False, load)
    assert chosen == [yaml.SafeLoader] * 2
    (templates, specs), providers = pure
    assert len(specs) == 30 and templates
    assert [(p.provider_id, p.model, p.temperature, p.timeout_seconds,
             p.backoff_base_seconds) for p in providers] == \
        [("alpha", "alpha-large:2024-06", 0.7, 30.0, 0.15),
         ("beta", "beta-base", 1.0, 60.0, 0.5)]

    if not yaml.__with_libyaml__:
        pytest.skip("PyYAML is built without libyaml")
    libyaml, chosen = _load_with(monkeypatch, True, load)
    assert chosen == [yaml.CSafeLoader] * 2
    assert libyaml == pure
