"""Every fault of ``tools/fault_score.py`` still fits the code it edits: its
anchor occurs exactly once in its file, and the edited file compiles.  So a
refactor that orphans a fault fails here, not at the next scoring run.
Standard library only."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("fault_score", ROOT / "tools" / "fault_score.py")
fault_score = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(fault_score)


def test_every_fault_applies_once_and_compiles():
    assert len(fault_score.FAULTS) >= 30
    for fault in fault_score.FAULTS:
        compile(fault.apply(ROOT), fault.path, "exec")  # a ValueError names a lost anchor
