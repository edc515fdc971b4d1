"""Fixture package: a re-export is not a read, a use in code is."""

from .mod import only_reexported, used_by_init

_HOOKS = [used_by_init]

__all__ = ["only_reexported", "used_by_init"]
