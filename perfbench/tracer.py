"""Spans recorded from outside the program.

The traced run wraps the public functions each layer of ``repro``
exposes -- the names its callers look up at call time -- in timing
spans.  Spans are kept in memory and summarised when the run ends.
Nothing inside ``src/`` changes: a later change may move these spans
into the program itself.
"""

from __future__ import annotations

import contextlib
import functools
import time
from typing import Callable, Dict, Iterator, List, Optional


class Tracer:
    """In-memory span tree: ``(name, start, end, parent, attrs)``."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []

    def begin(self, name: str) -> dict:
        """Open a span as a child of the innermost open span; returns
        the dict that collects the span's attributes."""
        attrs: dict = {}
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, attrs])
        self._stack.append(len(self.spans) - 1)
        return attrs

    def end(self) -> None:
        """Close the innermost open span."""
        self.spans[self._stack.pop()][2] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[dict]:
        """Time the body as a span (see :meth:`begin`)."""
        attrs = self.begin(name)
        try:
            yield attrs
        finally:
            self.end()

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        describe: Optional[Callable[..., dict]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a version that runs in a span.

        ``describe(args, kwargs, result)`` returns attributes to attach
        to the span (scheme, systems simulated, cycles, ...).
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                result = fn(*args, **kwargs)
                if describe is not None:
                    attrs.update(describe(args, kwargs, result))
                return result

        setattr(owner, attr, traced)

    def totals(self) -> Dict[str, float]:
        """Seconds per span name, counting only the outermost span of a
        name so recursion is not counted twice."""
        out: Dict[str, float] = {}
        for record in self.spans:
            name, start, end, parent, _ = record
            if not self._inside(parent, name):
                out[name] = out.get(name, 0.0) + (end - start)
        return out

    def calls(self, name: str) -> List[dict]:
        """Attributes of every span with this name, in call order."""
        return [r[4] for r in self.spans if r[0] == name]

    def durations(self, name: str) -> List[float]:
        """Duration of every span with this name, in call order."""
        return [r[2] - r[1] for r in self.spans if r[0] == name]

    def root_children_s(self, root: int = 0) -> float:
        """Summed duration of the root span's direct children."""
        return sum(r[2] - r[1] for r in self.spans if r[3] == root)

    def _inside(self, parent: Optional[int], name: str) -> bool:
        while parent is not None:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False
