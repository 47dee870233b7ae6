"""Canonical, hashable encoding of scenario configs and results.

:func:`config_fingerprint` serializes a
:class:`~repro.net.scenario.BanScenarioConfig` (recursively covering
nested dataclasses, so the calibration constants, node specs, topology
and loss model are all part of it) — or any result dataclass — into
one unambiguous string.  ``tools/determinism_check.py`` and the
end-to-end benchmark hash scenario results with it, so "equal" there
means equal down to the last float bit.

Configs that embed arbitrary callables (e.g. a custom
``sync_policy_factory``) have no canonical serialization; encoding them
raises :class:`Uncacheable`.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Any


class Uncacheable(Exception):
    """Raised when a config has no canonical serialization.

    Typically because it embeds an arbitrary callable (custom
    ``sync_policy_factory``) or an object of a type the canonical
    encoder does not know to be value-like.
    """


def _encode(value: Any, out: list) -> None:
    """Append a canonical, unambiguous encoding of ``value`` to ``out``.

    Covers None, bools, ints, floats, strings, bytes, enums, sequences,
    mappings and (recursively) dataclasses.  Anything else — callables,
    open handles, arbitrary instances — raises :class:`Uncacheable`,
    because equality of such objects does not imply equal behaviour.
    """
    if isinstance(value, enum.Enum):
        cls = type(value)
        out.append(
            f"enum:{cls.__module__}.{cls.__qualname__}.{value.name};")
    elif value is None or isinstance(value, (bool, int, str, bytes)):
        out.append(f"{type(value).__name__}:{value!r};")
    elif isinstance(value, float):
        # hex() is exact: distinct floats never collide, equal floats
        # always encode identically (repr would do too, but hex is
        # explicit about it).
        out.append(f"float:{value.hex()};")
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        cls = type(value)
        out.append(f"dc:{cls.__module__}.{cls.__qualname__}(")
        for field in dataclasses.fields(value):
            out.append(f"{field.name}=")
            _encode(getattr(value, field.name), out)
        out.append(");")
    elif isinstance(value, (list, tuple)):
        out.append(f"{type(value).__name__}[")
        for item in value:
            _encode(item, out)
        out.append("];")
    elif isinstance(value, dict):
        out.append("dict{")
        for key in sorted(value, key=repr):
            _encode(key, out)
            out.append("->")
            _encode(value[key], out)
        out.append("};")
    else:
        raise Uncacheable(
            f"no canonical serialization for {type(value).__qualname__} "
            f"(value {value!r})")


def config_fingerprint(config: Any) -> str:
    """Canonical serialization of ``config`` (before hashing).

    Raises :class:`Uncacheable` for configs embedding callables or
    unknown object types.
    """
    out: list = []
    _encode(config, out)
    return "".join(out)


__all__ = ["Uncacheable", "config_fingerprint"]
