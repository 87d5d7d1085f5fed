"""LLM gateway: prompt construction, providers, and response parsing."""
