#!/usr/bin/env python
"""Lint: no module under ``src/repro`` imports scipy, except the Wright–Fisher simulator.

Importing ``scipy.optimize`` alone costs a process about as much start-up
time and memory as everything else a run imports, so the package carries
its own Brent root-finder (``repro.brent``) and keeps scipy off every
import and run path.  The one allowed use is the lazy ``scipy.stats``
import in ``repro/simulate/wright_fisher.py``.  This is an AST walk, so
imports inside functions count and mentions in comments or strings do not.
CI runs this script and fails the build on any hit.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE = REPO_ROOT / "src" / "repro"

#: Modules (relative to ``src/repro``) allowed to import scipy.
ALLOWED = ("simulate/wright_fisher.py",)


def _is_scipy(name: str | None) -> bool:
    return name is not None and (name == "scipy" or name.startswith("scipy."))


def scipy_imports(path: Path) -> list[tuple[int, str]]:
    """(line, imported module) for every scipy import in ``path``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names if _is_scipy(alias.name)]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and _is_scipy(node.module):
            found.append((node.lineno, node.module))
    return sorted(found)


def violations() -> list[str]:
    """``path:line: message`` for every disallowed scipy import in the package."""
    out = []
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = path.relative_to(PACKAGE).as_posix()
        if relative in ALLOWED:
            continue
        for lineno, module in scipy_imports(path):
            out.append(f"src/repro/{relative}:{lineno}: imports {module}")
    return out


def main() -> int:
    found = violations()
    for line in found:
        print(line, file=sys.stderr)
    if found:
        print(
            "\nruntime import check failed: scipy is allowed only in "
            + ", ".join(ALLOWED)
            + " (use repro.brent for root-finding)",
            file=sys.stderr,
        )
        return 1
    print("runtime imports OK (no scipy outside " + ", ".join(ALLOWED) + ")")
    return 0


if __name__ == "__main__":
    sys.exit(main())
