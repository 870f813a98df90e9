"""Pull SystemVerilog source out of free-form model responses.

Fenced code blocks win; otherwise the spans from each `module` keyword
to its `endmodule` are taken verbatim.  Responses with neither yield
None and are labeled compile errors downstream.
"""

from __future__ import annotations

import re

# A fence's body runs to the first ``` after its opening line.  It is
# spelled as runs of non-backticks and lone backticks, the same match as
# a lazy `(.*?)````, which tries the closing fence after every character
# and so took most of an extraction's time.
_FENCE = re.compile(r"```[ \t]*[\w+-]*[ \t]*\n([^`]*(?:`(?!``)[^`]*)*)```")
_MODULE_SPAN = re.compile(r"\bmodule\b.*?\bendmodule\b", re.DOTALL)


def extract_code(raw: str) -> str | None:
    if not raw:
        return None
    fenced = [m.group(1) for m in _FENCE.finditer(raw)
              if re.search(r"\bmodule\b", m.group(1))]
    if fenced:
        return "\n".join(block.strip("\n") + "\n" for block in fenced)
    spans = _MODULE_SPAN.findall(raw)
    if spans:
        return "\n\n".join(spans) + "\n"
    return None
