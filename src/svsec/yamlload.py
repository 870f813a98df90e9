"""The one YAML loader, for the catalog and for provider configs.

PyYAML's libyaml-backed `CSafeLoader` parses the catalog about eight
times faster than the pure-Python `SafeLoader` and builds an equal
document.  `SafeLoader` remains for a PyYAML built without libyaml.
`yaml` is imported on the first load, so a command that reads no YAML
(`svsec verify --property`) never imports it.
"""

from __future__ import annotations


def load_yaml(stream):
    """The document in `stream` (a str or an open file), safe-loaded."""
    import yaml

    loader = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
    return yaml.load(stream, Loader=loader)
