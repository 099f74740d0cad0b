"""The answer corpus: every case of ``tests/answers/record.py`` still gives
the answers recorded in ``tests/answers/corpus.json``.

Supports, names, flags and counts must match exactly and numbers within
1e-10 relative.  To change an answer on purpose, re-record the corpus (see
``record.py``) and say which entries moved and why.
"""

import dataclasses
import importlib.util
import json
from pathlib import Path

import pytest

from sparsedyn.config import _TAGS

ANSWERS = Path(__file__).with_name("answers")
_spec = importlib.util.spec_from_file_location("answer_cases", ANSWERS / "record.py")
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)
CORPUS = json.loads((ANSWERS / "corpus.json").read_text())


def test_corpus_holds_every_case():
    assert list(CORPUS) == list(record.CASES)


@pytest.mark.parametrize("name", list(record.CASES))
def test_answers_unchanged(name):
    differences = record.same_answers(record.run(name), CORPUS[name], name)
    assert not differences, "\n".join(differences[:20])


def _classes(obj) -> set:
    found = {type(obj)}
    if dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            found |= _classes(getattr(obj, f.name))
    elif isinstance(obj, tuple):
        for item in obj:
            found |= _classes(item)
    return found


def test_corpus_covers_every_tagged_class():
    used = set().union(*(_classes(specs) for specs, _ in record.CASES.values()))
    missing = sorted(cls.__name__ for cls in _TAGS if cls not in used)
    assert not missing


class TestSameAnswers:
    def test_relative_bound(self):
        assert not record.same_answers([1.0, 2.0], [1.0 + 1e-11, 2.0])
        assert record.same_answers([1.0, 2.0], [1.0 + 1e-9, 2.0])

    def test_noise_far_below_the_array_scale_is_forgiven(self):
        assert not record.same_answers([1e-17, 1.0], [0.0, 1.0])
        assert record.same_answers([1e-13, 1.0], [0.0, 1.0])

    def test_flags_counts_and_keys_are_exact(self):
        assert record.same_answers({"a": True}, {"a": False})
        assert record.same_answers({"a": 3}, {"a": 4})
        assert record.same_answers({"a": 3}, {"b": 3})
        assert record.same_answers([1.0], [1.0, 2.0])
        assert record.same_answers(["inf"], [1.0])
