#!/usr/bin/env python
"""Lint: backend-abstracted kernel modules must not call numpy directly.

The four hot-path modules behind the ``ArrayBackend`` protocol do all of
their math through a backend handle — either the explicit host handle
``B`` (= the shared ``NUMPY`` instance, for planning work that must stay on
the host) or the engine-selected ``xp`` (for device math).  A bare
``import numpy`` or ``np.`` call in one of them silently pins that
operation to the host backend for *every* backend, which is exactly the
bug class the abstraction exists to prevent.  CI runs this script and
fails the build on any hit.

Allowed: ``numpy`` mentioned in comments/docstrings (this is a token-level
check over code lines only).
"""

from __future__ import annotations

import io
import re
import sys
import tokenize
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The backend-abstracted kernel modules (the tentpole's refactor surface).
ABSTRACTED_MODULES = (
    "src/repro/likelihood/felsenstein.py",
    "src/repro/likelihood/fused.py",
    "src/repro/likelihood/logspace.py",
    "src/repro/likelihood/mutation_models.py",
)

_IMPORT_RE = re.compile(r"^\s*(import\s+numpy|from\s+numpy\b)")


def violations_in(path: Path) -> list[tuple[int, str]]:
    """(line, message) pairs for every direct numpy use in ``path``."""
    source = path.read_text()
    found: list[tuple[int, str]] = []
    for lineno, line in enumerate(source.splitlines(), start=1):
        if _IMPORT_RE.match(line):
            found.append((lineno, f"direct numpy import: {line.strip()}"))
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    previous = None
    for tok in tokens:
        if (
            tok.type == tokenize.NAME
            and tok.string in ("np", "numpy")
            and previous is not None
            and previous.string not in (".",)  # attribute like backend.np is fine
        ):
            found.append((tok.start[0], f"direct numpy reference {tok.string!r}"))
        if tok.type in (tokenize.NAME, tokenize.OP):
            previous = tok
    return found


def main() -> int:
    failed = False
    for relative in ABSTRACTED_MODULES:
        path = REPO_ROOT / relative
        if not path.exists():
            print(f"MISSING {relative}: abstracted module not found", file=sys.stderr)
            failed = True
            continue
        for lineno, message in violations_in(path):
            print(f"{relative}:{lineno}: {message}", file=sys.stderr)
            failed = True
    if failed:
        print(
            "\nbackend purity check failed: route the operation through the "
            "host handle B or the engine's xp (see src/repro/backend/)",
            file=sys.stderr,
        )
        return 1
    print(f"backend purity OK ({len(ABSTRACTED_MODULES)} modules clean)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
