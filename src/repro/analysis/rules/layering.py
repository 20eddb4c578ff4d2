"""Layering: ``repro`` dependencies point strictly downward.

``docs/architecture.md`` stacks the package in the layers of
:data:`LAYERS`; a module may import only layers below its own.  An
upward import, even a function-local one, makes every importer of the
lower layer load the higher one.  ``obs`` and the side packages sit
outside the table and are not checked.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

from repro.analysis.framework import Finding, SourceFile, rule

#: Layers, lowest first.
LAYERS = ("errors", "rng", "sampling", "kernels", "core", "warehouse",
          "analytics", "serve")
_RANK = {name: rank for rank, name in enumerate(LAYERS)}


def _targets(node: ast.AST, sf: SourceFile) -> Iterator[Tuple[str, ...]]:
    """``repro``-relative module paths an import statement names."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            parts = tuple(alias.name.split("."))
            if parts[0] == "repro":
                yield parts[1:]
        return
    module = tuple(node.module.split(".")) if node.module else ()
    if node.level:  # relative: climb from the file's own package
        package = sf.package_parts[:-1]
        if node.level - 1 > len(package):
            return
        base = package[:len(package) - node.level + 1] + module
    elif module[:1] == ("repro",):
        base = module[1:]
    else:
        return
    if base:
        yield base
    else:  # ``from repro import X``: X may itself be a layer
        yield from ((alias.name,) for alias in node.names)


@rule("RPR121", "layer-upward-import",
      "a repro module imports from a higher layer")
def check_layer_upward_import(sf: SourceFile) -> Iterator[Finding]:
    """Flag every import, module-level or local, of a higher layer."""
    own = sf.package_parts[0].removesuffix(".py") \
        if sf.package_parts else None
    if own not in _RANK:
        return
    for node in ast.walk(sf.tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for target in _targets(node, sf):
            if target and _RANK.get(target[0], -1) > _RANK[own]:
                yield sf.finding(
                    node, "RPR121",
                    f"`{own}` imports `{'.'.join(('repro',) + target)}` "
                    f"from the higher `{target[0]}` layer; dependencies "
                    "point strictly downward (docs/architecture.md)")
