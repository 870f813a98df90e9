"""The stub pipeline's outputs, pinned byte for byte.

`generate --stub --n 20` -> `label` -> `metrics` -> `report --json` runs
at two seeds, and the sha256 of every file it writes, of the report,
and of the generation log with its timestamps removed must equal the
pinned digests.  The stub's completion memo and the log and dataset
readers hold each repeated text once: that changes which objects the
generations and rows share, never a byte the pipeline writes.
"""

from __future__ import annotations

import hashlib
import re

import pytest

from clirun import invoke
from svsec.catalog import list_problems
from svsec.gen import StubProvider, load_cache
from svsec.metrics import import_csv

# seed -> file -> sha256 of its bytes.
PIPELINE_DIGESTS = {
    1: {
        "dataset.csv":
            "4b607fae5425adc5a646354a11f62eada2fbe46b24d522dc68b4a5ba89433b22",
        "passatk.csv":
            "845ff06fad44fb4a5cba62915fec41e63223c5109058ad3f17c31f39baff91ab",
        "heatmap.json":
            "2e3133a7426ec37ddddfa7e34e654e5a2f42fd2bcabefb929cb1bf1c67571843",
        "keywords.csv":
            "88ff0959a6ee6c7730bc03c4a1e7541d3e7d43171c760a05e16316a8f50879d1",
        "report.json":
            "061e66f0c8de4a0b1261f2320f318f60fc7ed31600b68a89a60d22afe8ecf87c",
        "generations.jsonl":
            "4ac7a80e2e6b8f18d9562e07f641c7230c2a377bd9dd14f1a12a51a6daddbbad",
    },
    2: {
        "dataset.csv":
            "0adaedbf0599eb63659f4321621a80783f216cac51e4539aaf9e6271091c062e",
        "passatk.csv":
            "845ff06fad44fb4a5cba62915fec41e63223c5109058ad3f17c31f39baff91ab",
        "heatmap.json":
            "357834dedd644c81412d5f5eec70a85ddc6679b21978abefebbf2a2e287b6b3f",
        "keywords.csv":
            "88ff0959a6ee6c7730bc03c4a1e7541d3e7d43171c760a05e16316a8f50879d1",
        "report.json":
            "061e66f0c8de4a0b1261f2320f318f60fc7ed31600b68a89a60d22afe8ecf87c",
        "generations.jsonl":
            "db228cd8a064804c040aa21bd7f3542362e882f65476884c80e6a0c21f50f204",
    },
}

_TIMESTAMP = re.compile(rb', "timestamp": [^}]*\}')


def pipeline_digests(out, seed: int) -> dict[str, str]:
    """Run the stub pipeline into `out` and digest what it wrote."""
    seed_arg = ("--seed", str(seed))
    for args in (("generate", "--stub", "--n", "20", "--workers", "1",
                  "--out", str(out)),
                 ("label", "--cache", f"{out}/cache", "--out", str(out)),
                 ("metrics", "--dataset", f"{out}/dataset.csv",
                  "--cache", f"{out}/cache", "--out", str(out))):
        res = invoke(*args, *seed_arg)
        assert res.exit_code == 0, res.output
    res = invoke("report", "--dataset", f"{out}/dataset.csv", "--json")
    assert res.exit_code == 0, res.output
    blobs = {name: (out / name).read_bytes()
             for name in ("dataset.csv", "passatk.csv", "heatmap.json",
                          "keywords.csv")}
    blobs["report.json"] = res.output.encode()
    blobs["generations.jsonl"] = _TIMESTAMP.sub(
        b"}", (out / "cache" / "generations.jsonl").read_bytes())
    return {name: hashlib.sha256(blob).hexdigest()
            for name, blob in blobs.items()}


@pytest.mark.parametrize("seed", sorted(PIPELINE_DIGESTS))
def test_pipeline_outputs_are_unchanged(tmp_path, seed):
    assert pipeline_digests(tmp_path, seed) == PIPELINE_DIGESTS[seed]
    # The readers hold each repeated text once.
    gens = load_cache(tmp_path / "cache")
    for field in ("problem_id", "provider_id", "raw"):
        values = [getattr(g, field) for g in gens]
        assert len({id(v) for v in values}) == len(set(values)), field
    rows = import_csv(tmp_path / "dataset.csv")
    assert len({id(r.provider) for r in rows}) == \
        len({r.provider for r in rows}) == 4


def test_equal_completions_are_one_object():
    stub = StubProvider(seed=1, n=20)
    by_text = {}
    for spec in list_problems():
        for i in range(20):
            raw = stub.complete("stub-a", spec, i)
            assert by_text.setdefault(raw, raw) is raw
            assert stub.complete("stub-a", spec, i) is raw
    # 60 cells of 20 completions repeat a few hundred texts.
    assert len(by_text) < 20 * len(list_problems()) / 2
