"""In-memory spans around calls into relucert's public functions.

``Tracer.wrap`` replaces a function with a timing wrapper in every loaded
relucert module that holds it, so calls made inside the package (for example
``robustness`` calling ``lazy_solve``) are timed too. Spans nest by call
order: each records its name, start, end and parent span. ``Tracer.unwrap``
puts the original functions back.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans of one run, kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int, **info) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        span.info.update(info)
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def wrap(self, module, attr: str, name: str, on_result=None) -> None:
        """Time every call of ``module.attr`` as span ``name``.

        on_result(args, result) may return extra fields for the span.
        """
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                self.end(index, error=type(exc).__name__)
                raise
            self.end(index, **(on_result(args, result) if on_result else {}))
            return result

        for mod in list(sys.modules.values()):
            mod_name = getattr(mod, "__name__", "")
            if mod_name != "relucert" and not mod_name.startswith("relucert."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
                    self._patched.append((mod, key, original))

    def unwrap(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()
