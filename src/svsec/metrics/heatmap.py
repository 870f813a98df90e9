"""Provider x CWE pass-rate matrices, serialized as JSON.

Each cell aggregates all three difficulty tiers of one CWE for one
provider.  Both variants ship side by side: excluding and including
non-compilable designs in the denominator.
"""

from __future__ import annotations

import json

import svsec
from svsec.catalog.problems import CWE_IDS
from svsec.metrics.passatk import check_scope, passatk_by_cwe


def heatmap(rows, include_noncompilable: bool = False,
            n: int | None = None) -> dict:
    """{providers, cwes, matrix} with matrix[provider][cwe] rates; `n` as
    for `passatk_by_cwe`."""
    table = passatk_by_cwe(rows, include_noncompilable=include_noncompilable,
                           n=n)
    providers = sorted({p for p, _ in table})
    matrix = [[round(table[(p, cwe)], 6) for cwe in CWE_IDS]
              for p in providers]
    return {"providers": providers, "cwes": list(CWE_IDS), "matrix": matrix}


def write_heatmap_json(rows, path, seed: int = 0,
                       n: int | None = None) -> None:
    """Both matrices as JSON; `n` as for `passatk_by_cwe`, so the scope
    is checked once, here or by the caller."""
    if n is None:
        n = check_scope(rows)
    exclude = heatmap(rows, False, n)
    doc = {
        "toolkit_version": svsec.__version__,
        "seed": seed,
        "providers": exclude["providers"],
        "cwes": list(CWE_IDS),
        "exclude_noncompilable": exclude["matrix"],
        "include_noncompilable": heatmap(rows, True, n)["matrix"],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")

