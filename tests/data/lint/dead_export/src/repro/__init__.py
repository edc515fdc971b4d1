"""Fixture root package: its __all__ is a root of the reader index."""

__all__ = ["ROOTED"]
