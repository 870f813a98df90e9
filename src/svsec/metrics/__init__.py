from svsec.metrics.heatmap import write_heatmap_json
from svsec.metrics.keywords import (DEFAULT_KEYWORDS, keyword_frequency,
                                    write_keywords_csv)
from svsec.metrics.label import label_batch, label_design
from svsec.metrics.passatk import (ScopeError, check_scope, pass_at_k,
                                   passatk_by_cwe, passatk_by_difficulty,
                                   verdict_counts)
from svsec.metrics.rows import (CSV_HEADER, VERDICTS, DatasetRow, RowError,
                                export_csv, import_csv)

__all__ = ["write_heatmap_json",
           "DEFAULT_KEYWORDS", "keyword_frequency", "write_keywords_csv",
           "label_batch", "label_design", "ScopeError", "check_scope",
           "pass_at_k", "passatk_by_cwe", "passatk_by_difficulty",
           "verdict_counts",
           "CSV_HEADER", "VERDICTS", "DatasetRow", "RowError",
           "export_csv", "import_csv"]
