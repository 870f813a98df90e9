"""HTTP chat-completion client with retries, backoff, and key hygiene.

One wire format serves every vendor: POST a JSON body with a
`messages` array and read `choices[0].message.content` back.  API keys
come from the environment variable named in the provider config and
are never written to logs, caches, or dataset rows.
"""

from __future__ import annotations

import logging
import os
import time
from dataclasses import MISSING, dataclass, fields

from svsec.yamlload import load_yaml

log = logging.getLogger(__name__)

RETRYABLE_STATUS = {429, 500, 502, 503, 504}


class ProviderError(Exception):
    pass


@dataclass(frozen=True)
class ProviderConfig:
    provider_id: str
    endpoint: str
    model: str
    temperature: float = 1.0
    max_tokens: int = 2048
    auth_env: str = ""
    timeout_seconds: float = 60.0
    max_attempts: int = 3
    backoff_base_seconds: float = 0.5

    def auth_token(self) -> str | None:
        return os.environ.get(self.auth_env) if self.auth_env else None


def load_providers(path: str) -> list[ProviderConfig]:
    """Read provider configs from YAML; `id`, `endpoint` and `model` are
    required, and every other field is optional with ProviderConfig's
    default and the type of that default."""
    with open(path, encoding="utf-8") as fh:
        doc = load_yaml(fh)
    optional = [f for f in fields(ProviderConfig) if f.default is not MISSING]
    return [ProviderConfig(provider_id=item["id"], endpoint=item["endpoint"],
                           model=item["model"],
                           **{f.name: type(f.default)(item[f.name])
                              for f in optional if f.name in item})
            for item in doc["providers"]]


def request_completion(cfg: ProviderConfig, prompt: str,
                       transport=None, sleep=time.sleep) -> str:
    """Send one chat request, retrying transport and throttle errors.

    `transport` is a callable (url, json, headers, timeout) -> response
    object with .status_code and .json(); it defaults to requests.post
    and exists so tests can inject faults without a network.
    """
    import requests  # here, not at module level: it slows every CLI start

    post = transport or _default_transport
    body = {
        "model": cfg.model,
        "temperature": cfg.temperature,
        "max_tokens": cfg.max_tokens,
        "messages": [{"role": "user", "content": prompt}],
    }
    headers = {"Content-Type": "application/json"}
    token = cfg.auth_token()
    if token:
        headers["Authorization"] = f"Bearer {token}"

    last_error = "no attempts made"
    for attempt in range(cfg.max_attempts):
        if attempt:
            sleep(cfg.backoff_base_seconds * (2 ** (attempt - 1)))
        try:
            resp = post(cfg.endpoint, json=body, headers=headers,
                        timeout=cfg.timeout_seconds)
        except requests.RequestException as exc:
            last_error = f"transport error: {exc.__class__.__name__}"
            log.warning("%s: attempt %d/%d failed (%s)", cfg.provider_id,
                        attempt + 1, cfg.max_attempts, last_error)
            continue
        if resp.status_code in RETRYABLE_STATUS:
            last_error = f"http {resp.status_code}"
            log.warning("%s: attempt %d/%d failed (%s)", cfg.provider_id,
                        attempt + 1, cfg.max_attempts, last_error)
            continue
        if resp.status_code != 200:
            raise ProviderError(f"{cfg.provider_id}: http {resp.status_code}")
        try:
            return resp.json()["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise ProviderError(
                f"{cfg.provider_id}: malformed response ({exc})") from None
    raise ProviderError(
        f"{cfg.provider_id}: retries exhausted ({last_error})")


def _default_transport(url, json, headers, timeout):
    import requests

    return requests.post(url, json=json, headers=headers, timeout=timeout)
