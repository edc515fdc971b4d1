"""Fixture: perfbench's attribute access is a read."""

import repro.pkg.mod as mod

print(mod.read_by_perfbench())
