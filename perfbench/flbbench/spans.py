"""In-memory span recorder for the traced mode.

The benchmark wraps each call it makes into a layer's public function in
a span (name, start, end, parent span, operation id).  Spans stay in
memory and are written out as JSON lines when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple


class Spans:
    def __init__(self) -> None:
        self.records: List[Tuple[int, Optional[int], str, float, float, Dict[str, Any]]] = []
        self._stack: List[int] = []
        self._next = 0

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[None]:
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.records.append((sid, parent, name, t0, t1, attrs))

    def add(self, name: str, t0: float, t1: float, **attrs: Any) -> None:
        """Record a span measured elsewhere (e.g. a client request)."""
        sid = self._next
        self._next += 1
        self.records.append((sid, None, name, t0, t1, attrs))

    def by_op(self, name: str) -> Dict[Any, float]:
        """``{op id: duration in ms}`` for spans called ``name``."""
        return {a["op"]: (t1 - t0) * 1e3 for _, _, n, t0, t1, a in self.records
                if n == name and "op" in a}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, t0, t1, attrs in self.records:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": t0, "end": t1, **attrs}) + "\n")
