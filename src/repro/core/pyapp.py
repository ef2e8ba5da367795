"""Adapter exposing a live Python program as a validation target.

The agent's client-side validation needs two things from "the application"
(:class:`repro.core.validation.AppView`): a hash for the code containing any
signature frame, and the set of nested synchronized-block sites.  For the
synthetic Java-like model, :class:`repro.appmodel.Application` provides both
from static artifacts.  For a live Python program this adapter provides:

* **frame hashes** from a registry of (module, function) -> code-object hash
  built by scanning the given modules (the same ``co_code`` hashes that
  :func:`repro.dimmunix.frames.capture_stack` embeds into local frames);
* **nested sites** from the Dimmunix runtime's first-run dynamic discovery —
  locations observed acquiring a lock while already holding one.  This is
  the documented substitution for the Soot static analysis (see "Client
  half: the Dimmunix runtime" in ``docs/architecture.md``): the *check*
  the agent performs (set membership of outer-top locations) is
  identical, only the producer of the set differs.
"""

from __future__ import annotations

import inspect
from types import ModuleType

from repro.dimmunix.frames import python_code_hash
from repro.dimmunix.runtime import DimmunixRuntime


class PythonAppAdapter:
    def __init__(self, name: str, modules: list[ModuleType],
                 runtime: DimmunixRuntime | None = None,
                 extra_nested_sites: set | None = None):
        self.name = name
        self._modules = list(modules)
        self._runtime = runtime
        self._registry: dict[tuple[str, str], str] = {}
        self._extra_nested = set(extra_nested_sites or ())
        self.generation = 0
        self.refresh()

    # ------------------------------------------------------------ registry
    def refresh(self) -> None:
        """(Re)scan the modules for functions and methods."""
        registry: dict[tuple[str, str], str] = {}
        for module in self._modules:
            module_name = module.__name__
            for obj in vars(module).values():
                if inspect.isfunction(obj):
                    registry[(module_name, obj.__name__)] = python_code_hash(
                        obj.__code__
                    )
                elif inspect.isclass(obj) and obj.__module__ == module_name:
                    for attr in vars(obj).values():
                        func = inspect.unwrap(attr) if callable(attr) else None
                        if inspect.isfunction(func):
                            registry[(module_name, func.__name__)] = (
                                python_code_hash(func.__code__)
                            )
        self._registry = registry
        self.generation += 1

    def add_module(self, module: ModuleType) -> None:
        self._modules.append(module)
        self.refresh()

    # ------------------------------------------------------------- AppView
    def frame_hash(self, frame) -> str | None:
        return self._registry.get((frame.class_name, frame.method))

    def nested_sync_sites(self, force: bool = False) -> set:
        sites = set(self._extra_nested)
        if self._runtime is not None:
            sites |= self._runtime.nested_sites
        return sites

    def register_nested_site(self, location: tuple[str, str, int]) -> None:
        """Persisted sites from previous runs (the first-run cache)."""
        self._extra_nested.add(location)
