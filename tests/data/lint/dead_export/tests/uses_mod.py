"""Fixture: tests are not readers, so this import keeps nothing alive."""

from repro.pkg.mod import read_by_test_only

assert read_by_test_only() == 6
