"""The exit status of ``tools/mutants.py`` on canned verdicts; no test suite is run."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "mutants.py"
spec = importlib.util.spec_from_file_location("mutants", TOOL)
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)


@pytest.mark.parametrize("verdicts, status", [
    (["killed", "killed"], 0),
    (["killed", "survived"], 1),
    (["stale", "killed"], 1),
], ids=["all-killed", "one-survived", "one-stale"])
def test_exit_status_is_1_when_a_mutant_survived_or_is_stale(monkeypatch, capsys, verdicts,
                                                             status):
    names = list(mutants.MUTANTS)[:len(verdicts)]
    canned = iter(verdicts)
    monkeypatch.setattr(mutants, "run_mutant", lambda path, old, new: (next(canned), "(canned)"))
    assert mutants.main(names) == status
    assert capsys.readouterr().out.splitlines() == [
        f"{name}: {verdict} (canned)" for name, verdict in zip(names, verdicts)]


def test_a_mutant_whose_text_moved_is_stale_and_fails_the_run(monkeypatch, capsys):
    monkeypatch.setitem(mutants.MUTANTS, "moved", ("src/qmeter/cli.py", "no such text", ""))
    assert mutants.main(["moved"]) == 1
    assert capsys.readouterr().out == (
        "moved: stale (0 matches of its old text in src/qmeter/cli.py)\n")
