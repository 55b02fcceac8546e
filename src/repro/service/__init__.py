"""Simulation-as-a-service over the sweep engine.

Layered, bottom up:

* :mod:`repro.service.store` -- content-addressed result stores behind
  the ``ResultStore`` interface (``LocalDirStore``, ``MemoryStore``,
  ``NullStore``) plus the explicit :class:`CacheConfig` that replaces
  the old env-var-only cache configuration.
* :mod:`repro.service.session` -- :class:`SimService`: store + memo +
  sharded worker pool with explicit lifecycle phases, in-flight dedup
  and admission control.  It is the only engine that runs simulations:
  every job, on every executor backend, goes through one worker body
  and one dispatch helper.
* :mod:`repro.service.wire` -- the JSON wire format for ``SimSpec``.
* :mod:`repro.service.httpapi` / :mod:`repro.service.client` -- the
  stdlib HTTP/JSON front end (``repro serve``) and its client
  (``repro submit``; ``ServiceClient`` is session-shaped, so drivers
  accept it via their ``session=`` argument).

The ``repro.experiments.runner`` entry points (``run_many``/``sweep``/
``suite_pairs``/``run_pair``) are thin facades over a process-wide
default session and stay bit-identical; ``run_spec`` is the pure
simulation the worker body performs.

Submodules import lazily (PEP 562) so ``repro.experiments.runner`` can
import :mod:`repro.service.store` without dragging in the HTTP stack.
"""

from __future__ import annotations

_EXPORTS = {
    "CacheClearance": "repro.service.store",
    "CacheConfig": "repro.service.store",
    "LocalDirStore": "repro.service.store",
    "MemoryStore": "repro.service.store",
    "NullStore": "repro.service.store",
    "ResultStore": "repro.service.store",
    "StoreInfo": "repro.service.store",
    "build_store": "repro.service.store",
    "content_address": "repro.service.store",
    "AdmissionError": "repro.service.session",
    "Batch": "repro.service.session",
    "Job": "repro.service.session",
    "PhaseError": "repro.service.session",
    "ServiceError": "repro.service.session",
    "ServiceStats": "repro.service.session",
    "SimService": "repro.service.session",
    "ServiceHTTPServer": "repro.service.httpapi",
    "serve": "repro.service.httpapi",
    "ServiceClient": "repro.service.client",
    "ServiceClientError": "repro.service.client",
    "spec_from_doc": "repro.service.wire",
    "spec_to_doc": "repro.service.wire",
    "specs_from_docs": "repro.service.wire",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module), name)
