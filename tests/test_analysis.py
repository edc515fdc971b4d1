"""Tests for the ``repro.analysis`` lint framework.

The fixture corpus under ``tests/data/lint/`` contains known-bad and
known-good snippets per rule; tests assert exact rule ids and line
numbers, suppression behavior, config-driven scoping, baseline
subtraction, and the CLI's exit-code contract (0 clean / 1 findings /
2 bad invocation).
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.analysis import RULES, LintConfig, lint_paths
from repro.analysis.__main__ import main as analysis_main
from repro.analysis.config import DEFAULT_SCOPES
from repro.analysis.findings import SUPPRESSION_RULE
from repro.cli import main as cli_main

pytestmark = pytest.mark.lint

DATA = Path(__file__).resolve().parent / "data" / "lint"


def unscoped_config() -> LintConfig:
    """Every rule enabled everywhere (fixtures live outside default scopes)."""
    config = LintConfig.default()
    for rule in config.rules.values():
        rule.include = []
    return config


def lint_fixture(name: str):
    return lint_paths([DATA / name], config=unscoped_config()).findings


def rule_lines(findings, rule: str):
    return sorted(f.line for f in findings if f.rule == rule)


# --------------------------------------------------------------------- #
# Registry sanity
# --------------------------------------------------------------------- #
def test_rule_registry_matches_scopes():
    assert set(RULES) == set(DEFAULT_SCOPES) == {
        "lock-discipline",
        "spawn-safety",
        "determinism",
        "float-sum",
        "dtype-discipline",
        "error-contract",
        "dead-export",
    }


# --------------------------------------------------------------------- #
# Fixture corpus: exact rule ids and line numbers
# --------------------------------------------------------------------- #
def test_lock_discipline_fixture():
    findings = lint_fixture("lock_bad.py")
    assert rule_lines(findings, "lock-discipline") == [17, 20, 25]
    assert {f.rule for f in findings} == {"lock-discipline"}
    symbols = {f.symbol for f in findings}
    assert symbols == {
        "Service.bad_read",
        "Service.bad_write",
        "Service.bad_escaping_closure",
    }
    assert lint_fixture("lock_good.py") == []


def test_spawn_safety_fixture():
    findings = lint_fixture("spawn_bad.py")
    assert rule_lines(findings, "spawn-safety") == [22, 26, 35, 38, 42]
    assert {f.rule for f in findings} == {"spawn-safety"}
    messages = " ".join(f.message for f in findings)
    assert "lambda" in messages
    assert "bound method self.helper" in messages
    assert "nested function 'inner'" in messages
    assert "initializer" in messages
    assert "set_start_method('fork')" in messages
    assert lint_fixture("spawn_good.py") == []


def test_determinism_fixture():
    findings = lint_fixture("determinism_bad.py")
    assert rule_lines(findings, "determinism") == [10, 14, 18, 22]
    assert {f.rule for f in findings} == {"determinism"}
    assert lint_fixture("determinism_good.py") == []


def test_float_sum_fixture():
    findings = lint_fixture("float_sum_bad.py")
    assert rule_lines(findings, "float-sum") == [5, 9, 13, 17]
    assert {f.rule for f in findings} == {"float-sum"}
    assert {f.symbol for f in findings} == {
        "bad_float_total", "bad_float_list", "bad_opaque_iterable", "bad_true_division",
    }
    assert all("plain_sum" in f.message for f in findings)
    assert lint_fixture("float_sum_good.py") == []


def test_float_sum_scope_is_the_package():
    # The determinism pass's own scope is the numeric layers; its float-sum
    # rule patrols every file of src/repro, service and obs included.
    config = LintConfig.default()
    assert config.rule("float-sum").applies_to("/x/src/repro/service/queue.py")
    assert not config.rule("determinism").applies_to("/x/src/repro/service/queue.py")
    assert not config.rule("float-sum").applies_to("/x/tests/test_service.py")


def test_dtype_discipline_fixture():
    findings = lint_fixture("dtype_bad.py")
    assert rule_lines(findings, "dtype-discipline") == [7, 11, 15]
    assert {f.rule for f in findings} == {"dtype-discipline"}
    assert lint_fixture("dtype_good.py") == []


def test_error_contract_fixture():
    bad_cli = lint_fixture("bad_cli.py")
    assert rule_lines(bad_cli, "error-contract") == [4]
    assert bad_cli[0].symbol == "main"
    assert lint_fixture("good_cli.py") == []

    bad_http = lint_fixture("bad_http.py")
    assert rule_lines(bad_http, "error-contract") == [5, 8]
    assert {f.symbol for f in bad_http} == {"Handler.do_GET", "Handler.do_POST"}
    assert lint_fixture("good_http.py") == []


def test_dead_export_fixture():
    # The fixture tree has its own pyproject.toml, so it is its own project:
    # readers are searched in its src/, examples/, benchmarks/, perfbench/.
    mod = DATA / "dead_export" / "src" / "repro" / "pkg" / "mod.py"
    findings = lint_paths([mod]).findings
    # Clean: the root's __all__ (4), a sibling module (5), an example (6),
    # perfbench (7), an __init__'s use in code (8), a suppression with a
    # reason (12).  Dead: read only by the __init__ re-export (9), only by
    # a test (10), only by its own module (11).
    assert rule_lines(findings, "dead-export") == [9, 10, 11]
    assert [f.symbol for f in findings] == [
        "only_reexported", "read_by_test_only", "read_only_here",
    ]
    assert {f.rule for f in findings} == {"dead-export"}


def test_dead_export_ignores_init_modules():
    package = DATA / "dead_export" / "src" / "repro"
    init_files = sorted(package.rglob("__init__.py"))
    assert init_files and lint_paths(init_files).findings == []


def test_dead_export_finds_what_only_an_example_reads(tmp_path):
    # Non-vacuity on the real tree: without examples/, the names only
    # examples/streaming_online.py reads are flagged.
    repo = Path(__file__).resolve().parent.parent
    shutil.copy(repo / "pyproject.toml", tmp_path)
    for folder in ("src", "benchmarks", "perfbench"):
        for path in (repo / folder).rglob("*.py"):
            target = tmp_path / path.relative_to(repo)
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy(path, target)
    sources = tmp_path / "src" / "repro" / "streaming" / "sources.py"
    findings = lint_paths([sources]).findings
    assert {f.rule for f in findings} == {"dead-export"}
    assert "stream_stack" in {f.symbol for f in findings}


def test_dead_export_index_follows_edits_to_the_tree(tmp_path):
    # The reader index is cached per project root; a second lint in the
    # same process sees a reader that was removed, then one that was added.
    tree = tmp_path / "tree"
    shutil.copytree(DATA / "dead_export", tree)
    mod = tree / "src" / "repro" / "pkg" / "mod.py"

    def symbols():
        return {f.symbol for f in lint_paths([mod]).findings}

    assert "read_by_example" not in symbols()
    demo = tree / "examples" / "demo.py"
    demo.unlink()
    assert "read_by_example" in symbols()
    demo.write_text("from repro.pkg.mod import read_by_example, read_only_here\n")
    assert {"read_by_example", "read_only_here"}.isdisjoint(symbols())


def test_dead_export_parses_no_file_the_engine_parsed(monkeypatch):
    # The reader index takes the trees the engine parsed for the same run;
    # only readers outside the linted paths are parsed again.
    from repro.analysis.passes import dead_export

    repo = Path(__file__).resolve().parent.parent
    package = repo / "src" / "repro"
    parsed = []
    parse = dead_export._parse

    def counting_parse(path):
        parsed.append(path)
        return parse(path)

    monkeypatch.setattr(dead_export, "_INDEXES", {})
    monkeypatch.setattr(dead_export, "_parse", counting_parse)
    assert lint_paths([package]).findings == []
    assert parsed, "the index was not rebuilt"
    assert not [path for path in parsed if package in path.parents]


def test_dead_export_unparseable_reader_raises_value_error(tmp_path):
    (tmp_path / "pyproject.toml").write_text("")
    module = tmp_path / "src" / "repro" / "mod.py"
    module.parent.mkdir(parents=True)
    module.write_text('__all__ = ["name"]\nname = 1\n')
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "broken.py").write_text("def broken(:\n")
    with pytest.raises(ValueError, match="broken.py"):
        lint_paths([module])


# --------------------------------------------------------------------- #
# Suppressions
# --------------------------------------------------------------------- #
def test_suppression_with_reason_suppresses_and_without_reason_reports():
    findings = lint_fixture("suppressed.py")
    # Line 7's dtype finding is suppressed (reason given); line 11 keeps
    # its dtype finding AND gains a `suppression` meta-finding.
    assert rule_lines(findings, "dtype-discipline") == [11]
    assert rule_lines(findings, SUPPRESSION_RULE) == [11]
    assert len(findings) == 2


def test_suppression_only_covers_named_rules(tmp_path):
    source = tmp_path / "snippet.py"
    source.write_text(
        "import numpy as np\n"
        "\n"
        "def f():\n"
        "    return np.arange(3)  # repro-lint: disable=determinism -- wrong rule\n"
    )
    findings = lint_paths([source], config=unscoped_config()).findings
    assert rule_lines(findings, "dtype-discipline") == [4]


# --------------------------------------------------------------------- #
# Config-driven scoping
# --------------------------------------------------------------------- #
def test_default_scopes_exclude_fixture_paths():
    # Under the default config the fixture tree matches no rule scope
    # except the annotation-driven lock pass (which needs annotations)
    # and the suppression meta-rule — dtype_bad.py therefore lints clean.
    result = lint_paths([DATA / "dtype_bad.py"])
    assert result.findings == []


def test_config_file_overrides_scope_and_disables_rules(tmp_path):
    config_file = tmp_path / "lint.json"
    config_file.write_text(json.dumps({
        "rules": {
            "dtype-discipline": {"include": ["*"]},
            "determinism": {"enabled": False},
        }
    }))
    result = lint_paths(
        [DATA / "dtype_bad.py", DATA / "determinism_bad.py"],
        config_file=config_file,
    )
    rules = {f.rule for f in result.findings}
    assert "dtype-discipline" in rules
    assert "determinism" not in rules


@pytest.mark.parametrize("payload", [
    "not json at all {",
    json.dumps(["a", "list"]),
    json.dumps({"unknown_key": {}}),
    json.dumps({"rules": {"no-such-rule": {}}}),
    json.dumps({"rules": {"determinism": {"enabled": "yes"}}}),
    json.dumps({"rules": {"determinism": {"include": "src"}}}),
])
def test_malformed_config_raises_value_error(tmp_path, payload):
    config_file = tmp_path / "lint.json"
    config_file.write_text(payload)
    with pytest.raises(ValueError):
        lint_paths([DATA / "dtype_bad.py"], config_file=config_file)


def test_missing_path_raises_value_error():
    with pytest.raises(ValueError, match="does not exist"):
        lint_paths([DATA / "no_such_file.py"])


# --------------------------------------------------------------------- #
# Baseline
# --------------------------------------------------------------------- #
def test_baseline_subtracts_known_findings(tmp_path):
    findings = lint_fixture("dtype_bad.py")
    baseline_file = tmp_path / "baseline.json"
    baseline_file.write_text(
        json.dumps([f.baseline_key() for f in findings[:2]])
    )
    config = unscoped_config()
    result = lint_paths(
        [DATA / "dtype_bad.py"], config=config, baseline_file=baseline_file
    )
    assert len(result.baselined) == 2
    assert len(result.findings) == 1
    assert result.exit_code() == 1


def test_malformed_baseline_raises_value_error(tmp_path):
    baseline_file = tmp_path / "baseline.json"
    baseline_file.write_text(json.dumps([{"rule": "x"}]))
    with pytest.raises(ValueError, match="baseline"):
        lint_paths([DATA / "dtype_bad.py"], baseline_file=baseline_file)


# --------------------------------------------------------------------- #
# CLI exit codes (repro lint + python -m repro.analysis parity)
# --------------------------------------------------------------------- #
def _scoped_config_file(tmp_path) -> str:
    config_file = tmp_path / "lint.json"
    config_file.write_text(json.dumps({
        "rules": {name: {"include": ["*"]} for name in RULES}
    }))
    return str(config_file)


@pytest.mark.parametrize("entry", [cli_main, analysis_main])
def test_cli_exit_codes(entry, tmp_path, capsys):
    config = _scoped_config_file(tmp_path)
    prefix = ["lint"] if entry is cli_main else []

    assert entry(prefix + [str(DATA / "dtype_good.py")]) == 0

    assert entry(prefix + ["--config", config, str(DATA / "dtype_bad.py")]) == 1
    out = capsys.readouterr().out
    assert "dtype-discipline" in out

    assert entry(prefix + [str(DATA / "no_such_file.py")]) == 2

    bad_config = tmp_path / "bad.json"
    bad_config.write_text("{broken")
    assert entry(
        prefix + ["--config", str(bad_config), str(DATA / "dtype_good.py")]
    ) == 2


def test_cli_requires_paths():
    with pytest.raises(SystemExit) as excinfo:
        cli_main(["lint"])
    assert excinfo.value.code == 2


def test_cli_json_format(tmp_path, capsys):
    config = _scoped_config_file(tmp_path)
    code = cli_main([
        "lint", "--config", config, "--format", "json",
        str(DATA / "dtype_bad.py"),
    ])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["files_checked"] == 1
    assert [f["line"] for f in payload["findings"]] == [7, 11, 15]
