from svsec.gen.batch import Generation, generate_batch, load_cache
from svsec.gen.extract import extract_code
from svsec.gen.prompts import render_prompt
from svsec.gen.provider import (ProviderConfig, ProviderError, load_providers,
                                request_completion)
from svsec.gen.stub import DEFAULT_MIX, STUB_PROVIDERS, StubProvider

__all__ = ["Generation", "generate_batch", "load_cache",
           "extract_code", "render_prompt", "ProviderConfig", "ProviderError",
           "load_providers", "request_completion", "DEFAULT_MIX",
           "STUB_PROVIDERS", "StubProvider"]
