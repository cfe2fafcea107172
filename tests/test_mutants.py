"""The mutant list of tests/mutants.py stays in step with the code it edits."""

from mutants import CHECKOUT, MUTANTS


def test_every_mutant_edits_one_place():
    # a mutant whose old text is gone or repeated would be STALE
    stale = [
        name
        for name, path, old, _, _ in MUTANTS
        if (CHECKOUT / path).read_text().count(old) != 1
    ]
    assert stale == []
