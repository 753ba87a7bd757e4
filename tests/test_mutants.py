"""``scripts/mutants.py`` still finds the source text of every mutant.

The mutants themselves run under ``make mutants``.  Here each mutant is only
applied to a copy of its target file, so a refactor that moves a mutated
line fails tier-1 at once, not only the mutants job; and each mutant's
killing tests must be entries of the mutant test set.  The ``--mutant NAME``
selection runs against a stand-in for the test runs.
"""

from __future__ import annotations

import importlib.util
import shutil
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "mutants", REPO_ROOT / "scripts" / "mutants.py"
)
mutants = importlib.util.module_from_spec(_spec)
# Registered first: the dataclass decorator looks its module up by name.
sys.modules[_spec.name] = mutants
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda mutant: mutant.name)
def test_each_mutant_applies_to_the_tree(mutant, tmp_path):
    target = tmp_path / mutant.path
    target.parent.mkdir(parents=True)
    shutil.copy(REPO_ROOT / mutant.path, target)
    assert mutants.apply(mutant, tmp_path) is None
    assert target.read_text() != (REPO_ROOT / mutant.path).read_text()


def test_a_missing_source_text_is_reported(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "module.py").write_text("pass\n")
    mutant = mutants.Mutant("absent", "src/module.py", (("return 1", ""),))
    assert "found 0 times" in mutants.apply(mutant, tmp_path)


def test_each_mutant_runs_its_killing_tests_first():
    """Every mutant names its killers from the test set; they run first and
    the rest of the set follows, each test once."""
    assert mutants.ordered_tests(None) == mutants.TESTS
    for mutant in mutants.MUTANTS:
        assert mutant.kills and set(mutant.kills) <= set(mutants.TESTS), mutant.name
        order = mutants.ordered_tests(mutant)
        assert order[:len(mutant.kills)] == mutant.kills
        assert sorted(order) == sorted(mutants.TESTS)


def record_runs(monkeypatch) -> list:
    """Stand in for the test runs: the baseline passes, every mutant dies."""
    ran = []

    def run_tests(mutant):
        ran.append(None if mutant is None else mutant.name)
        return ("passed", "ok") if mutant is None else ("failed", "1 failed")

    monkeypatch.setattr(mutants, "run_tests", run_tests)
    return ran


def test_named_mutants_run_alone_after_the_baseline(monkeypatch, capsys):
    ran = record_runs(monkeypatch)
    names = ["abort-commits", "no-stamp-fold", "abort-commits"]
    assert mutants.main([arg for name in names for arg in ("--mutant", name)]) == 0
    assert ran == [None, "abort-commits", "no-stamp-fold"]
    assert "mutants: 2 of 2 killed" in capsys.readouterr().out


def test_without_a_name_every_mutant_runs(monkeypatch):
    ran = record_runs(monkeypatch)
    assert mutants.main([]) == 0
    assert ran == [None, *(mutant.name for mutant in mutants.MUTANTS)]


def test_an_unknown_mutant_name_exits_2_and_lists_the_valid_names(monkeypatch, capsys):
    ran = record_runs(monkeypatch)
    with pytest.raises(SystemExit) as excinfo:
        mutants.main(["--mutant", "no-stamp-fold", "--mutant", "no-such-mutant"])
    assert excinfo.value.code == 2
    assert ran == []
    error = capsys.readouterr().err
    assert "unknown mutant 'no-such-mutant'" in error
    assert all(mutant.name in error for mutant in mutants.MUTANTS)
