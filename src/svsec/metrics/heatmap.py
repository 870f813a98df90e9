"""Provider x CWE pass-rate matrices, serialized as JSON.

Each cell aggregates all three difficulty tiers of one CWE for one
provider.  Both variants ship side by side: excluding and including
non-compilable designs in the denominator.
"""

from __future__ import annotations

import json

import svsec
from svsec.catalog.problems import CWE_IDS
from svsec.metrics.passatk import passatk_by_cwe


def heatmap(rows, include_noncompilable: bool = False) -> dict:
    """{providers, cwes, matrix} with matrix[provider][cwe] rates."""
    table = passatk_by_cwe(rows, include_noncompilable=include_noncompilable)
    providers = sorted({p for p, _ in table})
    matrix = [[round(table[(p, cwe)], 6) for cwe in CWE_IDS]
              for p in providers]
    return {"providers": providers, "cwes": list(CWE_IDS), "matrix": matrix}


def write_heatmap_json(rows, path, seed: int = 0) -> None:
    exclude = heatmap(rows, False)
    doc = {
        "toolkit_version": svsec.__version__,
        "seed": seed,
        "providers": exclude["providers"],
        "cwes": list(CWE_IDS),
        "exclude_noncompilable": exclude["matrix"],
        "include_noncompilable": heatmap(rows, True)["matrix"],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")

