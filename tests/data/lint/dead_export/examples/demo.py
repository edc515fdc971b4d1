"""Fixture: an example's import is a read."""

from repro.pkg.mod import read_by_example

print(read_by_example())
