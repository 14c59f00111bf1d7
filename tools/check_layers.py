#!/usr/bin/env python
"""Static import-boundary lint for the package's layer diagram.

The architecture is layered (DESIGN.md §10): ``core/`` is the algorithm
layer and must stay importable without the service or benchmark layers
existing at all.  This script walks every module's AST (stdlib only —
nothing is imported, so it is safe on broken trees) and fails when a
module imports something its layer is not allowed to see.

Rules::

    repro.core.*     may not import repro.service.*, repro.bench.* or
                     repro.query.*
    repro.streams.*  same bans as core
    repro.sorting.*  same bans as core
    repro.gpu.*      same bans as core
    repro.backends   same bans as core
    repro.obs.*      may not import any other repro layer (leaf)

The ``query`` layer sits at the top of the stack (it imports core,
service, bench *and* obs), so everything below it must never look up
at it — the same rule the service/bench bans enforce, one layer
higher.

Run from the repository root::

    python tools/check_layers.py

Exit status 0 when clean, 1 with one ``path:line`` diagnostic per
violation otherwise.
"""

from __future__ import annotations

import ast
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC_ROOT = REPO_ROOT / "src" / "repro"

#: Layer prefix (relative to ``repro``) -> forbidden target layers.
RULES: dict[str, tuple[str, ...]] = {
    "core": ("service", "bench", "query"),
    "streams": ("service", "bench", "query"),
    "sorting": ("service", "bench", "query"),
    "gpu": ("service", "bench", "query"),
    "backends": ("service", "bench", "query"),
    # obs is the leaf every layer may emit into; it must never look
    # back up the stack (its sources are duck-typed for exactly this).
    "obs": ("core", "streams", "sorting", "gpu", "backends", "service",
            "bench", "cli", "query"),
}


def module_name(path: pathlib.Path) -> str:
    """Dotted module name of ``path`` relative to the package root."""
    rel = path.relative_to(SRC_ROOT).with_suffix("")
    parts = [p for p in rel.parts if p != "__init__"]
    return ".".join(["repro", *parts]) if parts else "repro"


def imported_modules(tree: ast.AST, module: str) -> list[tuple[str, int]]:
    """Absolute dotted names imported anywhere in ``tree``.

    Relative imports are resolved against ``module`` so ``from ..bench
    import x`` inside ``repro.core.engine`` reports ``repro.bench``.
    """
    package_parts = module.split(".")[:-1]
    found: list[tuple[str, int]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.extend((alias.name, node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                base = node.module or ""
            else:
                anchor = package_parts[:len(package_parts) - node.level + 1]
                base = ".".join(anchor + ([node.module] if node.module
                                          else []))
            found.append((base, node.lineno))
    return found


def violations() -> list[str]:
    """Every layering violation in the tree, as ``path:line`` messages."""
    problems: list[str] = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        module = module_name(path)
        layer = module.split(".")[1] if "." in module else ""
        forbidden = RULES.get(layer)
        if not forbidden:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for target, lineno in imported_modules(tree, module):
            for banned in forbidden:
                prefix = f"repro.{banned}"
                if target == prefix or target.startswith(prefix + "."):
                    problems.append(
                        f"{path.relative_to(REPO_ROOT)}:{lineno}: "
                        f"{module} ({layer} layer) imports {target}")
    return problems


def main() -> int:
    problems = violations()
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"{len(problems)} layering violation(s)", file=sys.stderr)
        return 1
    print("layering clean: core/streams/sorting/gpu/backends never "
          "import service, bench or query; obs imports no other layer")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
