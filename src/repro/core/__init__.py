"""Communix core: signatures, history, validation, generalization, plugin,
agent — the paper's primary contribution (§III).

Import from the modules (``repro.core.signature``, ``repro.core.node``,
...); the package itself exports nothing, so the server can use
``repro.core.signature`` without loading the client half.
"""
