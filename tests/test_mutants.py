"""tools/mutants.py: the mutation table still applies to src; no mutant runs here."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "mutants.py"


def test_table_applies_and_ledger_is_current():
    spec = importlib.util.spec_from_file_location("mutants", TOOL)
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert len(mutants.MUTANTS) >= 15
    for m in mutants.MUTANTS:
        assert all(isinstance(v, str) for v in (m.name, m.file, m.old, m.new)), m.name
        assert m.tests and all(isinstance(t, str) and t.startswith("tests/") for t in m.tests), m.name
    assert mutants.table_problems() == []
    # the committed ledger holds one killed row per table entry
    ledger = json.loads(Path(mutants.LEDGER).read_text())
    rows = {row["name"]: row for row in ledger["mutants"]}
    assert sorted(rows) == sorted(m.name for m in mutants.MUTANTS)
    assert all(row["status"] == "killed" for row in rows.values())
