"""Shared parsed-AST store for the static-analysis passes.

``repro analysis lint`` and ``repro analysis flow`` both walk the same
package; parsing ~150 files twice doubles the cost of running the two
passes back to back (CI runs both, and the flow pass itself needs every
module parsed before it can build a call graph).  :class:`ASTStore`
parses each file once and serves the cached tree to every pass in the
process, invalidating on (size, mtime) change so editor-driven loops
stay correct.

The store is deliberately tiny: no persistence, no hashing — just a
per-process dict keyed by absolute path.  ``DEFAULT_STORE`` is the
process-wide instance both CLI passes use; tests construct private
stores to assert parse counts.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, Tuple


class ASTStore:
    """Parse-once cache of ``path -> ast.Module``.

    ``get`` returns the cached tree when the file's (size, mtime_ns)
    fingerprint is unchanged, re-parses otherwise.  ``parse_count``
    counts actual ``ast.parse`` calls, so callers can assert sharing.
    """

    def __init__(self) -> None:
        self._cache: Dict[str, Tuple[Tuple[int, int], str, ast.Module]] = {}
        self.parse_count = 0

    def get(self, path: str) -> Tuple[str, ast.Module]:
        """The (source, tree) for *path*, parsed at most once per change.

        Raises ``SyntaxError`` (with the path as filename) or ``OSError``
        exactly like an uncached read would.
        """
        key = os.path.abspath(path)
        stat = os.stat(key)
        fingerprint = (stat.st_size, stat.st_mtime_ns)
        held = self._cache.get(key)
        if held is not None and held[0] == fingerprint:
            return held[1], held[2]
        with open(key, "r", encoding="utf-8") as handle:
            source = handle.read()
        tree = ast.parse(source, filename=path)
        self.parse_count += 1
        self._cache[key] = (fingerprint, source, tree)
        return source, tree

    def __len__(self) -> int:
        return len(self._cache)


#: Process-wide store shared by ``analysis lint`` and ``analysis flow``.
DEFAULT_STORE = ASTStore()
