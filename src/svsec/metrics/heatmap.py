"""Provider x CWE pass-rate matrices, serialized as JSON.

Each cell aggregates all three difficulty tiers of one CWE for one
provider.  Both variants ship side by side, excluding and including
non-compilable designs in the denominator, and both come from one
`passatk_by_cwe` table, whose cells hold the two; `pass_at_k` is their
formula.
"""

from __future__ import annotations

import json

import svsec
from svsec.catalog.problems import CWE_IDS
from svsec.metrics.passatk import passatk_by_cwe


def write_heatmap_json(rows, path, n: int, seed: int = 0) -> None:
    """Both matrices as JSON, matrix[provider][cwe] with the providers
    sorted; `n` is what `check_scope(rows)` returned."""
    table = passatk_by_cwe(rows, n)
    providers = sorted({p for p, _ in table})

    def matrix(variant: int) -> list:
        return [[round(table[(p, cwe)][variant], 6) for cwe in CWE_IDS]
                for p in providers]

    doc = {
        "toolkit_version": svsec.__version__,
        "seed": seed,
        "providers": providers,
        "cwes": list(CWE_IDS),
        "exclude_noncompilable": matrix(0),
        "include_noncompilable": matrix(1),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
