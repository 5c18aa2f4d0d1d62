import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_mutant_is_unique_and_applies_once():
    # A mutant whose original text left the source can no longer break it.
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    names = [name for name, *_ in mutants.MUTANTS]
    assert len(names) == len(set(names))
    for name, path, old, new, _ in mutants.MUTANTS:
        assert (ROOT / path).read_text().count(old) == 1, name
        assert old != new, name
