"""Compare this checkout's behaviour with a git revision's: the CLI corpus and the verify records.

Usage (from anywhere):

    python3 scripts/same.py REV [SUMMARY.json]

It extracts REV with ``git archive`` into a throwaway directory.  In that
tree and in this checkout (its working files, committed or not) it runs
the tree's own ``scripts/cli_corpus.py`` and ``serrecalc verify --all
--report json`` with the tree's ``src/`` first on ``PYTHONPATH``.  It
prints every argv whose exit code, stdout digest or stderr digest differs,
or that only one corpus holds, and every verify record that differs in a
field other than ``elapsed_s``.  There is no allow-list: an intended change
is listed like any other, and CHANGES.md says why.  The last line printed is
one JSON summary, also written to SUMMARY.json when that is given.  Exit
code 0 when nothing differs, 1 when something does, 2 on a usage error,
a REV git cannot archive, or a tree whose run fails.  Standard library only.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS_FIELDS = ("exit", "stdout", "stderr")


def _grouped(items: list[dict], key) -> dict[str, list[dict]]:
    """Items by ``key``, in order: a key the list holds twice is compared occurrence by occurrence."""
    out: dict[str, list[dict]] = {}
    for item in items:
        out.setdefault(key(item), []).append(item)
    return out


def _compare(old: list[dict], new: list[dict], key, fields) -> list[dict]:
    """One entry per key whose items differ in ``fields(old_item, new_item)``, or that one side lacks."""
    before, after = _grouped(old, key), _grouped(new, key)
    out = []
    for k in list(before) + [k for k in after if k not in before]:
        a, b = before.get(k, []), after.get(k, [])
        if len(a) != len(b):
            out.append({"key": k, "parent": len(a), "change": len(b)})
            continue
        changed = sorted({f for x, y in zip(a, b) for f in fields(x, y)})
        if changed:
            out.append({"key": k, "fields": changed})
    return out


def corpus_differences(old_lines: list[str], new_lines: list[str]) -> list[dict]:
    """The corpus lines (``cli_corpus.py`` JSON lines) whose exit code or a digest differs, keyed by argv and stdin."""
    def key(rec: dict) -> str:
        return json.dumps([rec["argv"], rec.get("stdin")])

    def fields(a: dict, b: dict) -> list[str]:
        return [f for f in CORPUS_FIELDS if a[f] != b[f]]

    return _compare([json.loads(x) for x in old_lines if x.strip()], [json.loads(x) for x in new_lines if x.strip()],
                    key, fields)


def record_differences(old: list[dict], new: list[dict]) -> list[dict]:
    """The ``verify --report json`` records that differ outside ``elapsed_s``, keyed by suite and check."""
    def key(rec: dict) -> str:
        return json.dumps([rec["suite"], rec["check"]])

    def fields(a: dict, b: dict) -> list[str]:
        return [f for f in sorted(set(a) | set(b)) if f != "elapsed_s" and a.get(f) != b.get(f)]

    return _compare(old, new, key, fields)


def _behaviour(tree: str, scratch: str) -> tuple[list[str], list[dict], int]:
    """The corpus lines, the ``verify --all`` records and its exit code of the checkout at ``tree``."""
    env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src")}
    out = os.path.join(scratch, "corpus.jsonl")
    subprocess.run([sys.executable, os.path.join(tree, "scripts", "cli_corpus.py"), out], cwd=tree, env=env,
                   check=True)
    with open(out, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    done = subprocess.run([sys.executable, "-m", "serrecalc.cli", "verify", "--all", "--report", "json"], cwd=tree,
                          env=env, capture_output=True, text=True)
    if done.returncode not in (0, 1):
        raise RuntimeError(f"verify --all in {tree} exited {done.returncode}: {done.stderr.strip()}")
    return lines, json.loads(done.stdout), done.returncode


def compare(rev: str) -> dict:
    """Run both trees and collect every difference into one summary."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev], capture_output=True, check=True)
    commit = subprocess.run(["git", "-C", ROOT, "rev-parse", rev], capture_output=True, text=True, check=True)
    with tempfile.TemporaryDirectory() as tmp:
        parent = os.path.join(tmp, "parent")
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(parent, filter="data")
        old_lines, old_records, old_exit = _behaviour(parent, tmp)
        new_lines, new_records, new_exit = _behaviour(ROOT, tmp)
    argvs = corpus_differences(old_lines, new_lines)
    records = record_differences(old_records, new_records)
    return {
        "parent": commit.stdout.strip(),
        "corpus_argvs": [len(old_lines), len(new_lines)],
        "verify_records": [len(old_records), len(new_records)],
        "verify_exit": [old_exit, new_exit],
        "argv_differences": argvs,
        "record_differences": records,
        "same": not argvs and not records and old_exit == new_exit,
    }


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    try:
        summary = compare(argv[0])
    except (subprocess.CalledProcessError, RuntimeError) as exc:  # git refused REV, or a tree's run failed
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for d in summary["argv_differences"]:
        print("argv differs:", d["key"], d.get("fields", f"{d.get('parent')} vs {d.get('change')} lines"))
    for d in summary["record_differences"]:
        print("record differs:", d["key"], d.get("fields", f"{d.get('parent')} vs {d.get('change')} records"))
    text = json.dumps(summary, sort_keys=True)
    print(text)
    if len(argv) == 2:
        with open(argv[1], "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0 if summary["same"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
