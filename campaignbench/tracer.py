"""In-memory span tracer installed around the repository's public entry points.

Nothing in ``src/`` knows about it: :func:`install` replaces attributes of
the library's classes with thin wrappers for the duration of a traced pass
and :meth:`Tracer.uninstall` puts the originals back.

Every wrapped call is a span on one stack.  When a span closes, its
duration is added to its parent's child time, so a layer's *self time*
is its span minus the part its child spans cover.  Coarse boundaries
(units, ``Simulator.run`` calls, journal and report calls, service
messages) are kept one by one as
``(name, start_ns, end_ns, parent, unit_id, detail)`` records and written
out at the end of the run; per-frame and per-event boundaries (medium
transmits, taps, detector callbacks, fast-forward attempts) are folded
into per-name totals as they close, so a dense grid does not hold
millions of records.  Counters count calls where only the number matters
(connection events, receptions, anchors).
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Tuple


class Tracer:
    """Span stack, kept spans, per-name totals and counters."""

    def __init__(self) -> None:
        #: kept spans: (name, start_ns, end_ns, parent index, unit id, detail)
        self.spans: List[Tuple[str, int, int, int, Optional[str], Any]] = []
        #: name -> [calls, total_ns, self_ns]
        self.totals: Dict[str, List[int]] = {}
        self.counts: Counter = Counter()
        self.unit: Optional[str] = None
        self._stack: List[List[Any]] = []  # [name, start, child_ns, kept index]
        self._kept: List[int] = []  # indices of the open kept spans
        self._restore: List[Tuple[Any, str, Any]] = []

    # -- spans ---------------------------------------------------------

    def enter(self, name: str, keep: bool) -> List[Any]:
        """Open a span; returns the frame :meth:`exit` closes."""
        frame = [name, 0, 0, -1]
        if keep:
            frame[3] = len(self.spans)
            self.spans.append((name, 0, 0, self._kept[-1] if self._kept
                               else -1, self.unit, None))
            self._kept.append(frame[3])
        self._stack.append(frame)
        frame[1] = perf_counter_ns()
        return frame

    def exit(self, frame: List[Any], detail: Any = None) -> int:
        """Close ``frame``; returns its duration in ns."""
        end = perf_counter_ns()
        name, start, child, index = frame
        duration = end - start
        self._stack.pop()
        if self._stack:
            self._stack[-1][2] += duration
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0, 0, 0]
        total[0] += 1
        total[1] += duration
        total[2] += duration - child
        if index >= 0:
            self._kept.pop()
            _, _, _, parent, unit, _ = self.spans[index]
            self.spans[index] = (name, start, end, parent, unit, detail)
        return duration

    def kept(self, name: str) -> List[Tuple[str, int, int, int, Any, Any]]:
        """Kept spans called ``name``, in start order."""
        return [span for span in self.spans if span[0] == name]

    def self_ns(self, name: str) -> int:
        """Summed self time of every span called ``name``."""
        return self.totals.get(name, [0, 0, 0])[2]

    def calls(self, name: str) -> int:
        """Closed spans called ``name``."""
        return self.totals.get(name, [0, 0, 0])[0]

    def total_ns(self, name: str) -> int:
        """Summed duration of every span called ``name``."""
        return self.totals.get(name, [0, 0, 0])[1]

    # -- wrapping ------------------------------------------------------

    def patch(self, owner: Any, attr: str,
              make: Callable[[Callable[..., Any]], Callable[..., Any]]) -> None:
        """Replace ``owner.attr`` with ``make(original)`` until uninstall."""
        original = owner.__dict__[attr]
        self._restore.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def span_wrapper(self, name: str, keep: bool = False
                     ) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        """Wrapper factory: one span per call of the wrapped function."""
        enter, exit_ = self.enter, self.exit

        def make(original: Callable[..., Any]) -> Callable[..., Any]:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                frame = enter(name, keep)
                try:
                    return original(*args, **kwargs)
                finally:
                    exit_(frame)
            return wrapper
        return make

    def count_wrapper(self, name: str
                      ) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        """Wrapper factory: count calls only (no clock reads)."""
        counts = self.counts

        def make(original: Callable[..., Any]) -> Callable[..., Any]:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                counts[name] += 1
                return original(*args, **kwargs)
            return wrapper
        return make

    def uninstall(self) -> None:
        """Restore every patched attribute (newest first)."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write kept spans (one JSON line each) plus totals and counters."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for name, start, end, parent, unit, detail in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "unit": unit, "detail": detail}) + "\n")
            fh.write(json.dumps({"totals": {
                name: {"calls": c, "total_ns": t, "self_ns": s}
                for name, (c, t, s) in sorted(self.totals.items())},
                "counts": dict(sorted(self.counts.items()))}) + "\n")
