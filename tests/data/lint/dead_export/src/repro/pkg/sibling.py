"""Fixture: a sibling module's import and call are reads."""

from .mod import read_by_sibling

VALUE = read_by_sibling()
