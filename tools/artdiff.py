"""Compare two tools/runset.py output directories field by field.

    python tools/artdiff.py OLD NEW

Lists the files that differ, then the largest relative change
|a - b| / max(|a|, |b|) of each numeric field over those files, with the
file where it occurs and how many of its values changed.  A field is a
JSON key path with list indices dropped (`uniqueness.distinct.p0`), a
CSV column (`dA`), a `# name = value` line's name, or `message` for the
numbers inside any other line (an error message).  Every other token is
compared as text: keys, CSV headers, `pass`/`passed` flags, `best`, the
words of a message, and an exit code.  So are the uniqueness counts
(`n_starts`, `n_converged`, `n_distinct`) and `n_checks`.

Exits 1 if a file is missing on one side, or if any count, flag or other
non-numeric token differs, and prints each such difference; exits 0 if
the two directories differ at most in the digits of numeric fields.
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

# integers that must match exactly, not within a relative change
EXACT = {"n_starts", "n_converged", "n_distinct", "n_checks", "exit_code"}
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
HEADER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(?:,[A-Za-z_][A-Za-z0-9_]*)+")


def _json_fields(value, path=""):
    """(field, value) of every leaf of a parsed JSON document, list indices dropped."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _json_fields(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        yield f"{path}[]", len(value)   # a length is a count
        for item in value:
            yield from _json_fields(item, path)
    else:
        yield path, value


def _number(token):
    """token as a float if it is a finite number, else None."""
    if isinstance(token, bool) or not isinstance(token, (int, float, str)):
        return None
    if isinstance(token, str) and not NUMBER.fullmatch(token):
        return None
    value = float(token)
    return value if math.isfinite(value) else None


def _text_fields(text):
    """(field, token) of a CSV artifact, its # lines, or any other text, line by line."""
    header = None
    for line in text.splitlines():
        if line.startswith("# ") and " = " in line:
            name, value = line[2:].split(" = ", 1)
            yield name, value
        elif header is None and HEADER.fullmatch(line):
            header = line.split(",")
            yield "header", line
        elif header is not None and line.count(",") == len(header) - 1:
            yield from zip(header, line.split(","))
        else:
            # the words of a message as text, each number in it as a value of `message`
            yield "text", NUMBER.sub("#", line)
            for token in NUMBER.findall(line):
                yield "message", token


def fields(path):
    """(field, token) pairs of one runset file, in order."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".code":
        return [("exit_code", text.strip())]
    if text.lstrip().startswith("{"):
        try:
            return list(_json_fields(json.loads(text)))
        except json.JSONDecodeError:
            pass
    return list(_text_fields(text))


def _strict(field):
    return field.split(".")[-1] in EXACT or field.endswith("[]")


def compare(old_dir, new_dir):
    """(file names, differing ones, {field: [largest change, file, values changed]},
    non-numeric differences)."""
    names = sorted({p.name for p in old_dir.iterdir()} | {p.name for p in new_dir.iterdir()})
    differing, changes, faults = [], {}, []
    for name in names:
        old, new = old_dir / name, new_dir / name
        if not (old.exists() and new.exists()):
            faults.append(f"{name}: only in {old_dir if old.exists() else new_dir}")
            continue
        if old.read_bytes() == new.read_bytes():
            continue
        differing.append(name)
        a, b = fields(old), fields(new)
        if [f for f, _ in a] != [f for f, _ in b]:
            faults.append(f"{name}: the fields differ in number or order")
            continue
        for (field, x), (_, y) in zip(a, b):
            if x == y:
                continue
            u, v = _number(x), _number(y)
            if _strict(field) or u is None or v is None:
                faults.append(f"{name}: {field}: {x!r} -> {y!r}")
                continue
            rel = abs(u - v) / max(abs(u), abs(v)) if u != v else 0.0
            entry = changes.setdefault(field, [0.0, name, 0])
            entry[2] += 1
            if rel > entry[0]:
                entry[:2] = rel, name
    return names, differing, changes, faults


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2 or not all(Path(arg).is_dir() for arg in argv):
        print(__doc__, file=sys.stderr)
        return 2
    old_dir, new_dir = map(Path, argv)
    names, differing, changes, faults = compare(old_dir, new_dir)
    print(f"{len(differing)} of {len(names)} files differ")
    for name in differing:
        print(f"  {name}")
    if changes:
        print(f"\n{'field':32s} {'largest rel':>12s} {'changed':>8s}  at")
        for field, (rel, name, count) in sorted(changes.items()):
            print(f"{field:32s} {rel:12.3e} {count:8d}  {name}")
    if faults:
        print("\nnon-numeric differences:")
        for line in faults:
            print(f"  {line}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
