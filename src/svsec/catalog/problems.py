"""The 30-problem security catalog: 10 CWE classes x 3 difficulty tiers.

Each problem fixes a module name and port contract, carries the task
description used to render generation prompts, and binds a property
template that captures the CWE intent over those ports.  Reference
correct and planted-vulnerable designs ship next to the catalog.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from importlib import resources

from svsec.yamlload import load_yaml

CWE_IDS = (1209, 1223, 1254, 1261, 1234, 1280, 1299, 1276, 1302, 1258)
DIFFICULTIES = ("basic", "intermediate", "advanced")


@dataclass(frozen=True)
class Port:
    name: str
    direction: str  # input | output
    width: int
    note: str = ""  # free-text hint rendered next to the name in prompts


@dataclass(frozen=True)
class ProblemSpec:
    problem_id: str
    cwe_id: int
    difficulty: str
    title: str
    description: str
    module_name: str
    ports: tuple[Port, ...]
    property_template_id: str
    property_params: dict[str, str]
    correct_file: str
    vulnerable_file: str
    extra_instructions: tuple[str, ...] = ()
    # Multi-module problems override the default single-module I/O and
    # module-name instruction lines with their own lettered text.
    prompt_io: tuple[str, ...] = ()


class CatalogError(Exception):
    pass


def _data_text(filename: str) -> str:
    return (resources.files("svsec.catalog") / filename).read_text()


def design_text(filename: str) -> str:
    return (resources.files("svsec.catalog") / "designs" / filename).read_text()


@functools.lru_cache(maxsize=1)
def load_catalog() -> tuple[dict[str, str], tuple[ProblemSpec, ...]]:
    """Returns (property templates, problem specs)."""
    doc = load_yaml(_data_text("catalog.yaml"))
    templates = dict(doc["templates"])
    specs = []
    for item in doc["problems"]:
        ports = tuple(Port(name=p["name"], direction=p["dir"],
                           width=int(p.get("width", 1)),
                           note=p.get("note", ""))
                      for p in item["ports"])
        spec = ProblemSpec(
            problem_id=item["id"],
            cwe_id=int(item["cwe"]),
            difficulty=item["difficulty"],
            title=item["title"],
            description=item["description"].strip(),
            module_name=item["top"],
            ports=ports,
            property_template_id=item["property"]["template"],
            property_params=dict(item["property"]["params"]),
            correct_file=item["files"]["correct"],
            vulnerable_file=item["files"]["vulnerable"],
            extra_instructions=tuple(item.get("extra_instructions", ())),
            prompt_io=tuple(item.get("prompt_io", ())),
        )
        specs.append(spec)
    _validate(templates, specs)
    return templates, tuple(specs)


def _validate(templates: dict[str, str], specs: list[ProblemSpec]) -> None:
    pairs = {(s.cwe_id, s.difficulty) for s in specs}
    if len(pairs) != len(specs) or len(specs) != 30:
        raise CatalogError("catalog must hold exactly 30 unique "
                           "(cwe, difficulty) problems")
    for s in specs:
        if s.cwe_id not in CWE_IDS:
            raise CatalogError(f"unknown cwe {s.cwe_id}")
        if s.difficulty not in DIFFICULTIES:
            raise CatalogError(f"unknown difficulty {s.difficulty!r}")
        if s.property_template_id not in templates:
            raise CatalogError(f"{s.problem_id}: unknown template "
                               f"{s.property_template_id!r}")


def list_problems(cwe: int | None = None,
                  difficulty: str | None = None) -> list[ProblemSpec]:
    """Stable (cwe, difficulty) order; filters are conjunctive."""
    if cwe is not None and cwe not in CWE_IDS:
        raise CatalogError(f"unknown cwe id {cwe}")
    if difficulty is not None and difficulty not in DIFFICULTIES:
        raise CatalogError(f"unknown difficulty {difficulty!r}")
    _, specs = load_catalog()
    out = [s for s in specs
           if (cwe is None or s.cwe_id == cwe)
           and (difficulty is None or s.difficulty == difficulty)]
    out.sort(key=lambda s: (CWE_IDS.index(s.cwe_id),
                            DIFFICULTIES.index(s.difficulty)))
    return out


def instantiate_property_text(spec: ProblemSpec) -> str:
    templates, _ = load_catalog()
    template = templates[spec.property_template_id]
    try:
        return template.format(**spec.property_params)
    except KeyError as e:
        raise CatalogError(f"{spec.problem_id}: missing template "
                           f"parameter {e}") from None

