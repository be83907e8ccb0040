"""Declarative core registry: paradigms are discovered, not enumerated.

Every timing-core paradigm registers one :class:`CoreDescriptor` at import
time (see the bottom of each core module).  Everything that used to keep a
private hard-coded core table — ``build_core``, the validate oracle, the
fault-injection campaign planner, the complexity/energy/AVF analyses, the
CI smoke scripts, the conformance tests — now asks the registry instead,
so a new paradigm is one component file plus one ``register_core`` call
and every layer applies to it with zero per-layer edits.

The descriptor carries the plumbing identity (kind, CLI key, class,
config factory, whether it consumes the braided program); the *behavioral*
contract a paradigm owes the surrounding layers (fault structures and
injectors, complexity-model terms) lives as class-level declarations on
the core class itself (:class:`~repro.sim.core.TimingCore` documents the
defaults), keeping each paradigm's knowledge in its own file.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from .config import CoreKind, MachineConfig


class CoreRegistryError(LookupError):
    """An unknown or mis-declared core paradigm was requested."""


@dataclass(frozen=True)
class CoreDescriptor:
    """Everything the surrounding layers need to know about one paradigm."""

    #: the :class:`~repro.sim.config.CoreKind` this paradigm simulates
    kind: CoreKind
    #: short CLI/report key (``"ooo"``, ``"braid"``, ...)
    key: str
    #: the :class:`~repro.sim.core.TimingCore` subclass
    core_class: type
    #: ``factory(width=8, **overrides) -> MachineConfig``
    config_factory: Callable[..., MachineConfig]
    #: True when the paradigm runs the braid-annotated program
    braided: bool = False
    #: one-line description for CLI help and reports
    description: str = ""


_REGISTRY: Dict[CoreKind, CoreDescriptor] = {}
#: modules that self-register the built-in paradigms on import
_BUILTIN_MODULES = ("ooo", "inorder", "depsteer", "braidcore", "blockooo")
#: presentation order (reports, sweeps, CLI help): the paper's four, then
#: later additions; keys outside this list follow in registration order
_CANONICAL_ORDER = ("ooo", "inorder", "depsteer", "braid", "blockooo")
_builtins_loaded = False


def register_core(descriptor: CoreDescriptor) -> CoreDescriptor:
    """Register one paradigm; validates the declarative contract loudly.

    Raises :class:`CoreRegistryError` on a duplicate kind/key or when the
    core class declares a fault structure without a matching injector —
    the silent-AVF-zero bug class this registry exists to prevent.
    """
    kind = descriptor.kind
    if kind in _REGISTRY and _REGISTRY[kind].core_class is not descriptor.core_class:
        raise CoreRegistryError(
            f"core kind {kind.value!r} already registered by "
            f"{_REGISTRY[kind].core_class.__name__}"
        )
    for existing in _REGISTRY.values():
        if existing.key == descriptor.key and existing.kind is not kind:
            raise CoreRegistryError(
                f"core key {descriptor.key!r} already registered for kind "
                f"{existing.kind.value!r}"
            )
    core_class = descriptor.core_class
    missing = [
        structure for structure in core_class.fault_structures
        if structure not in core_class.fault_injectors
    ]
    if missing:
        raise CoreRegistryError(
            f"{core_class.__name__} declares fault structures {missing} "
            f"with no matching injectors in fault_injectors — a campaign "
            f"over them would silently classify nothing"
        )
    _REGISTRY[kind] = descriptor
    return descriptor


def _ensure_builtins() -> None:
    """Import the built-in core modules (each self-registers)."""
    global _builtins_loaded
    if _builtins_loaded:
        return
    _builtins_loaded = True
    for name in _BUILTIN_MODULES:
        importlib.import_module(f"{__package__}.{name}")


def core_registry() -> Dict[str, CoreDescriptor]:
    """``key -> descriptor`` for every registered paradigm, in
    presentation order (import order never leaks into report order)."""
    _ensure_builtins()
    rank = {key: index for index, key in enumerate(_CANONICAL_ORDER)}
    ordered = sorted(
        enumerate(_REGISTRY.values()),
        key=lambda item: (rank.get(item[1].key, len(rank)), item[0]),
    )
    return {descriptor.key: descriptor for _, descriptor in ordered}


def core_keys() -> Tuple[str, ...]:
    """Registered paradigm keys, in registration order."""
    return tuple(core_registry())


def descriptor_for(kind: CoreKind) -> CoreDescriptor:
    """The descriptor registered for ``kind`` (loud when unknown)."""
    _ensure_builtins()
    try:
        return _REGISTRY[kind]
    except KeyError:
        known = ", ".join(sorted(k.value for k in _REGISTRY))
        raise CoreRegistryError(
            f"no timing core registered for kind {kind!r}; "
            f"registered kinds: {known}"
        ) from None


def descriptor_for_key(key: str) -> CoreDescriptor:
    """The descriptor registered under CLI key ``key`` (loud when unknown)."""
    registry = core_registry()
    try:
        return registry[key]
    except KeyError:
        raise CoreRegistryError(
            f"no timing core registered under key {key!r}; "
            f"registered keys: {', '.join(registry)}"
        ) from None
