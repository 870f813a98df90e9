from svsec.catalog.problems import (CWE_IDS, DIFFICULTIES, Port, ProblemSpec,
                                    instantiate_property_text, list_problems,
                                    load_catalog)

__all__ = ["CWE_IDS", "DIFFICULTIES", "Port", "ProblemSpec",
           "instantiate_property_text", "list_problems", "load_catalog"]
