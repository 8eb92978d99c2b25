"""Checker registry: rule ids map to checker classes.

A checker is a class with a ``rule`` id (``VLxxx``), a one-line
``title``, and exactly one of two hooks.  Registration is declarative --
the :func:`register` decorator -- so adding a rule means writing one
module under ``repro.analysis.checkers`` and decorating the class; the
engine, the CLI's ``--rules`` filter, and the self-hosting tests all pick
it up from here.

A *file rule* overrides ``check(module)``: it sees one parsed module and
runs in parallel with no cross-file barrier.  A *project rule* overrides
``check_project(index)``: it runs serially after the fixed-point solve
over the merged :class:`~repro.analysis.project.ProjectIndex`, for
invariants no single file can witness (transitive exception taxonomy,
dead exports).  Every lint run runs both kinds.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Type

from repro.analysis.findings import Finding

__all__ = [
    "ModuleInfo",
    "Checker",
    "register",
    "all_checkers",
    "checker_for",
]


@dataclass
class ModuleInfo:
    """One parsed source module handed to every checker."""

    path: str
    module: str  # dotted name, e.g. "repro.codec.encoder"
    tree: ast.Module
    source: str = ""

    @classmethod
    def from_path(cls, path: str, module: str) -> "ModuleInfo":
        source = Path(path).read_text(encoding="utf-8")
        tree = ast.parse(source, filename=path)
        return cls(path=path, module=module, tree=tree, source=source)

    @property
    def is_package_init(self) -> bool:
        return Path(self.path).name == "__init__.py"


class Checker:
    """Base class for all vlint checkers."""

    rule: str = ""
    title: str = ""

    def check(self, module: ModuleInfo) -> List[Finding]:
        """File-rule findings for one parsed module."""
        return []

    def check_project(self, index) -> List[Finding]:
        """Project-rule findings over a solved ProjectIndex.

        Called once per lint run, after the fixed-point solve.
        Implementations must be deterministic (sorted iteration only) --
        the serial/parallel byte-identity contract covers this phase too.
        """
        return []

    def finding(
        self, module: ModuleInfo, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            rule=self.rule,
            path=module.path,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


_REGISTRY: Dict[str, Type[Checker]] = {}


def register(cls: Type[Checker]) -> Type[Checker]:
    """Class decorator: add a checker to the global registry."""
    if not cls.rule:
        raise ValueError(f"checker {cls.__name__} has no rule id")
    if cls.rule in _REGISTRY:
        raise ValueError(f"duplicate checker rule id {cls.rule}")
    _REGISTRY[cls.rule] = cls
    return cls


def _ensure_loaded() -> None:
    # Importing the checkers package runs every @register decorator.
    import repro.analysis.checkers  # noqa: F401


def checker_for(rule: str) -> Checker:
    """Instantiate the checker registered under ``rule``."""
    _ensure_loaded()
    try:
        return _REGISTRY[rule]()
    except KeyError:
        raise ValueError(
            f"unknown lint rule {rule!r}; known rules: "
            f"{', '.join(sorted(_REGISTRY))}"
        ) from None


def all_checkers(rules: Optional[Sequence[str]] = None) -> List[Checker]:
    """Instantiate every registered checker (or just ``rules``), in id order."""
    _ensure_loaded()
    if rules is None:
        return [_REGISTRY[rule]() for rule in sorted(_REGISTRY)]
    return [checker_for(rule) for rule in sorted(set(rules))]
