"""An in-memory span tracer for the benchmark's traced run.

The tracer wraps callables at their module or class attribute — only
while it is installed, so the untraced run executes the program
untouched — and records one :class:`Span` per call: its name, start,
end, parent span and thread.  Spans stay in memory until the run ends.

Parenting follows the call stack of each thread.  A callable handed to
a :class:`concurrent.futures.ThreadPoolExecutor` runs under a
``pool.task`` span whose parent is the span that was open in the
submitting thread, so work done on pool threads is attributed to the
call that caused it.

Self time is a span's duration minus the part of its interval that
its children cover (:func:`self_time`).  Children on other threads may
overlap each other; the union is what counts, never the sum.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: Name of the span a thread-pool task runs under.
POOL_TASK = "pool.task"


class Span:
    """One recorded call: ``[start, end]`` on the tracer's clock."""

    __slots__ = ("id", "name", "start", "end", "parent", "thread", "value")

    def __init__(
        self,
        id: int,
        name: str,
        start: float,
        end: float,
        parent: Optional[int],
        thread: int,
        value: Optional[float] = None,
    ) -> None:
        self.id = id
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.thread = thread
        #: Optional per-call quantity (steps walked, bytes built, ...).
        self.value = value

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around wrapped callables while installed.

    Use :meth:`wrap` / :meth:`wrap_method` to register targets, then
    ``with tracer:`` to patch them in; leaving the block restores every
    original attribute.  ``clock`` is injectable for tests.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.counters: Dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._counter_lock = threading.Lock()
        self._targets: List[Tuple[Any, str, Optional[str], Any, Any]] = []
        self._restore: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _stack(self) -> List[Optional[int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[int]:
        """The id of the innermost open span on this thread."""
        stack = self._stack()
        return stack[-1] if stack else None

    def call(
        self,
        name: str,
        fn: Callable[..., Any],
        args: Sequence[Any] = (),
        kwargs: Optional[Dict[str, Any]] = None,
        *,
        value: Optional[Callable[[Sequence[Any], Dict[str, Any], Any], Optional[float]]] = None,
        parent: Any = ...,
    ) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``.

        ``parent`` defaults to the innermost open span of this thread;
        ``value(args, kwargs, result)`` sets the span's quantity.
        """
        kwargs = {} if kwargs is None else kwargs
        stack = self._stack()
        if parent is ...:
            parent = stack[-1] if stack else None
        span_id = next(self._ids)
        stack.append(span_id)
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            end = self.clock()
            stack.pop()
            self.spans.append(
                Span(span_id, name, start, end, parent, threading.get_ident())
            )
            raise
        end = self.clock()
        stack.pop()
        quantity = value(args, kwargs, result) if value is not None else None
        self.spans.append(
            Span(span_id, name, start, end, parent, threading.get_ident(), quantity)
        )
        return result

    def record(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[int] = None,
        thread: int = 0,
        value: Optional[float] = None,
    ) -> Span:
        """Append a finished span directly (tests, synthetic spans)."""
        span = Span(next(self._ids), name, start, end, parent, thread, value)
        self.spans.append(span)
        return span

    def count(self, name: str, amount: int = 1) -> None:
        with self._counter_lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def counting(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with a call counter and no span (for very hot callables)."""

        @functools.wraps(fn)
        def counted(*args: Any, **kwargs: Any) -> Any:
            self.count(name)
            return fn(*args, **kwargs)

        return counted

    def iterate(self, name: str, iterator: Iterable[Any]) -> Iterator[Any]:
        """Yield from ``iterator``, timing each ``next`` as a span."""
        source = iter(iterator)
        while True:
            try:
                item = self.call(name, next, (source,))
            except StopIteration:
                return
            yield item

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: Optional[str],
        *,
        value: Optional[Callable[[Sequence[Any], Dict[str, Any], Any], Optional[float]]] = None,
        result: Optional[Callable[[Any], Any]] = None,
    ) -> None:
        """Register ``owner.attr``: a function in a module's or a
        class's own namespace.

        ``result`` post-processes the return value (e.g. to time a
        returned iterator or callback); ``name=None`` records no span
        for the call itself.  Nothing is patched until installation.
        """
        self._targets.append((owner, attr, name, value, result))

    def wrap_method(self, base: type, attr: str, name: str, **options: Any) -> None:
        """Register ``attr`` on ``base`` and on every loaded subclass
        that overrides it."""
        for cls in _class_tree(base):
            if attr in vars(cls):
                self.wrap(cls, attr, name, **options)

    def _install_one(
        self, owner: Any, attr: str, name: Optional[str], value: Any, result: Any
    ) -> None:
        function = vars(owner)[attr]
        tracer = self

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if name is None:
                out = function(*args, **kwargs)
            else:
                out = tracer.call(name, function, args, kwargs, value=value)
            return result(out) if result is not None else out

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, function))

    def _install_pool_hook(self) -> None:
        original = ThreadPoolExecutor.submit
        tracer = self

        @functools.wraps(original)
        def submit(executor: ThreadPoolExecutor, fn: Callable[..., Any], /, *args: Any, **kwargs: Any) -> Any:
            parent = tracer.current()

            def task(*task_args: Any, **task_kwargs: Any) -> Any:
                return tracer.call(POOL_TASK, fn, task_args, task_kwargs, parent=parent)

            return original(executor, task, *args, **kwargs)

        ThreadPoolExecutor.submit = submit  # type: ignore[method-assign]
        self._restore.append((ThreadPoolExecutor, "submit", original))

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        try:
            self._install_pool_hook()
            for target in self._targets:
                self._install_one(*target)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()


def _class_tree(base: type) -> List[type]:
    seen: List[type] = []
    pending = [base]
    while pending:
        cls = pending.pop()
        if cls not in seen:
            seen.append(cls)
            pending.extend(cls.__subclasses__())
    return seen


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cover_start = cover_end = None
    for start, end in sorted(intervals):
        if cover_end is None or start > cover_end:
            if cover_end is not None:
                total += cover_end - cover_start
            cover_start, cover_end = start, end
        elif end > cover_end:
            cover_end = end
    if cover_end is not None:
        total += cover_end - cover_start
    return total


def children_of(spans: Iterable[Span]) -> Dict[Optional[int], List[Span]]:
    index: Dict[Optional[int], List[Span]] = {}
    for span in spans:
        index.setdefault(span.parent, []).append(span)
    return index


def self_time(span: Span, children: Dict[Optional[int], List[Span]]) -> float:
    """``span``'s duration minus the union of its children, each
    clipped to ``span``'s interval (a pool task may outlive the call
    that submitted it)."""
    covered = union_length(
        (max(child.start, span.start), min(child.end, span.end))
        for child in children.get(span.id, ())
        if child.end > span.start and child.start < span.end
    )
    return span.duration - covered


def outermost(spans: Sequence[Span], names: Iterable[str]) -> List[Span]:
    """Spans named in ``names`` with no ancestor also named there —
    so recursive or layered calls are not counted twice."""
    wanted = set(names)
    by_id = {span.id: span for span in spans}
    found = []
    for span in spans:
        if span.name not in wanted:
            continue
        parent = by_id.get(span.parent)
        while parent is not None and parent.name not in wanted:
            parent = by_id.get(parent.parent)
        if parent is None:
            found.append(span)
    return found


def tracing_overhead(untraced_s: Sequence[float], traced_s: Sequence[float]) -> float:
    """``trace.overhead_s``: traced minus untraced time over the same
    units of work."""
    if len(untraced_s) != len(traced_s):
        raise ValueError(
            f"overhead compares the same units: {len(untraced_s)} untraced"
            f" vs {len(traced_s)} traced"
        )
    return sum(traced_s) - sum(untraced_s)
