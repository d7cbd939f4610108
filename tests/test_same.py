"""The comparison functions of ``scripts/same.py``, on synthetic corpus lines and verify records."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "same.py"


@pytest.fixture(scope="module")
def same():
    spec = importlib.util.spec_from_file_location("same", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def line(argv, exit=0, stdout="a" * 64, stderr="b" * 64, **extra):
    return json.dumps({"argv": argv, "exit": exit, "stdout": stdout, "stderr": stderr, **extra}, sort_keys=True)


def record(check, elapsed_s=0.5, **fields):
    return {"suite": "tor", "check": check, "ok": True, "detail": "", "cases": "4", "elapsed_s": elapsed_s, **fields}


def test_equal_inputs_differ_nowhere(same):
    lines = [line(["hilbert", "--f", "1"]), line(["stats"], stdin="[]"), line(["stats"], stdin="{}")]
    records = [record("one"), record("two")]
    assert same.corpus_differences(lines, list(lines)) == []
    assert same.record_differences(records, [dict(r) for r in records]) == []


def test_a_changed_elapsed_s_is_no_difference(same):
    assert same.record_differences([record("one", 0.5)], [record("one", 7.25)]) == []
    assert same.record_differences([record("one")], [record("one", ok=False)]) == [
        {"key": json.dumps(["tor", "one"]), "fields": ["ok"]}]


def test_one_changed_digest_names_exactly_that_argv(same):
    argvs = [["hilbert", "--f", str(f)] for f in range(1, 6)]
    old = [line(a) for a in argvs]
    new = list(old)
    new[2] = line(argvs[2], stderr="c" * 64)
    assert same.corpus_differences(old, new) == [{"key": json.dumps([argvs[2], None]), "fields": ["stderr"]}]


def test_an_argv_on_one_side_only_is_a_difference(same):
    old, new = [line(["a"]), line(["b"])], [line(["b"]), line(["c"], exit=2)]
    assert same.corpus_differences(old, new) == [
        {"key": json.dumps([["a"], None]), "parent": 1, "change": 0},
        {"key": json.dumps([["c"], None]), "parent": 0, "change": 1},
    ]
