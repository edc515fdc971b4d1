"""Fixture module: each exported name has one kind of reader, or none."""

__all__ = [
    "ROOTED",
    "read_by_sibling",
    "read_by_example",
    "read_by_perfbench",
    "used_by_init",
    "only_reexported",
    "read_by_test_only",
    "read_only_here",
    "suppressed",  # repro-lint: disable=dead-export -- fixture: kept on purpose
]

ROOTED = 1


def read_by_sibling():
    return read_only_here()


def read_by_example():
    return 2


def read_by_perfbench():
    return 3


def used_by_init():
    return 4


def only_reexported():
    return 5


def read_by_test_only():
    return 6


def read_only_here():
    return 7


def suppressed():
    return 8
