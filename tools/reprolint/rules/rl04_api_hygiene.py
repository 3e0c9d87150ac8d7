"""RL04 — API hygiene: stray artifact-version literals.

``serving/artifact.py`` owns version negotiation (``FORMAT_VERSION``, the
``format_version`` payload field).  A version literal written anywhere
else — a hand-rolled ``payload["format_version"] = 2``, a re-defined
``FORMAT_VERSION`` — bypasses that single point of truth and is exactly
how incompatible artifacts get minted.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from tools.reprolint.core import FileContext, Rule, Violation

#: The only file allowed to own artifact-version literals.
VERSION_OWNER = "repro/serving/artifact.py"
VERSION_FIELD = "format_version"
VERSION_CONSTANT = "FORMAT_VERSION"


def _is_under(path: str, suffixes) -> bool:
    normalised = path.replace("\\", "/")
    return any(normalised.endswith(suffix) for suffix in suffixes)


class ApiHygieneRule(Rule):
    rule_id = "RL04"
    name = "api-hygiene"
    hint = ""

    def check(self, context: FileContext) -> Iterable[Violation]:
        if not _is_under(str(context.path), (VERSION_OWNER,)):
            yield from self._check_version_literals(context)

    # ------------------------------------------------------------------ #
    def _check_version_literals(self, context: FileContext
                                ) -> Iterator[Violation]:
        owner_hint = (f"artifact versions are negotiated only in "
                      f"src/{VERSION_OWNER}; import its constants instead "
                      f"of writing literals")
        for node in ast.walk(context.tree):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name) \
                            and target.id == VERSION_CONSTANT:
                        yield self.violation(
                            context, node,
                            f"re-definition of {VERSION_CONSTANT} outside "
                            f"the artifact module", hint=owner_hint)
                    elif _subscript_key_is(target, VERSION_FIELD):
                        yield self.violation(
                            context, node,
                            f"write to the {VERSION_FIELD!r} payload field "
                            f"outside the artifact module", hint=owner_hint)
            elif isinstance(node, ast.Dict):
                for key, value in zip(node.keys, node.values):
                    if isinstance(key, ast.Constant) \
                            and key.value == VERSION_FIELD \
                            and isinstance(value, ast.Constant) \
                            and isinstance(value.value, int):
                        yield self.violation(
                            context, key if key is not None else node,
                            f"literal {VERSION_FIELD!r} version in a dict "
                            f"outside the artifact module", hint=owner_hint)


def _subscript_key_is(node: ast.AST, field: str) -> bool:
    return (isinstance(node, ast.Subscript)
            and isinstance(node.slice, ast.Constant)
            and node.slice.value == field)
