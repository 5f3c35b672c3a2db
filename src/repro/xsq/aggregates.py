"""The statistics buffer of Section 4.4.

XSQ handles aggregation queries by replacing buffer flushes with updates
to a ``stat`` buffer: ``stat.update(aggr, value)`` folds a value into the
running aggregate and ``stat.output(aggr)`` emits the current value.
The paper modifies ``update`` to emit a new value *whenever the number
changes*, so aggregation queries over unbounded streams always reflect
the data seen so far; :meth:`StatBuffer.snapshots` exposes that stream
of intermediate values.

``count()`` and ``sum()`` are the paper's aggregates; ``avg()``,
``min()`` and ``max()`` are the natural extensions (same machinery) and
are flagged as extensions in DESIGN.md.
"""

from __future__ import annotations

from typing import List, Optional

_KNOWN = ("count", "sum", "avg", "min", "max")


def format_number(value: float) -> str:
    """Render an aggregate value the way both engines and oracle must.

    Integral values print without a decimal point so that ``count()`` of
    3 is ``"3"``, not ``"3.0"``.
    """
    if value != value:  # NaN
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


class StatBuffer:
    """Running aggregate for one aggregation function.

    >>> stat = StatBuffer("sum")
    >>> stat.update(2.0); stat.update(3.5)
    >>> stat.render()
    '5.5'
    >>> StatBuffer("count").render()
    '0'
    >>> StatBuffer("min").render()
    'NA'
    """

    def __init__(self, name: str, track_snapshots: bool = False):
        if name not in _KNOWN:
            raise ValueError("unknown aggregate %r (expected one of %s)"
                             % (name, ", ".join(_KNOWN)))
        self.name = name
        self._tracks = track_snapshots
        self.reset()

    def reset(self) -> None:
        """Back to the empty aggregate, for the next document."""
        self._n = 0
        self._total = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._snapshots: Optional[List[str]] = [] if self._tracks else None

    @property
    def contributions(self) -> int:
        """Number of values folded in so far."""
        return self._n

    def update(self, value: float) -> None:
        """Fold one numeric contribution into the aggregate."""
        self._n += 1
        self._total += value
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value
        if self._snapshots is not None:
            self._snapshots.append(self.render())

    def update_text(self, text: str) -> bool:
        """Fold a text chunk if it parses as a number; return whether it did.

        Non-numeric chunks are skipped (XPath's number() would make the
        whole sum NaN; skipping keeps streaming aggregates useful, and
        the oracle applies the identical rule).
        """
        try:
            value = float(text.strip())
        except ValueError:
            return False
        self.update(value)
        return True

    def value(self) -> Optional[float]:
        """Current aggregate value, or None when undefined (empty min/max/avg)."""
        if self.name == "count":
            return float(self._n)
        if self.name == "sum":
            return self._total
        if self._n == 0:
            return None
        if self.name == "avg":
            return self._total / self._n
        if self.name == "min":
            return self._min
        return self._max

    def render(self) -> str:
        """Formatted current value (the paper's ``stat.output(aggr)``)."""
        value = self.value()
        if value is None:
            return "NA"
        return format_number(value)

    @property
    def snapshots(self) -> List[str]:
        """Intermediate values not yet drained (streaming mode only)."""
        if self._snapshots is None:
            raise RuntimeError("StatBuffer built without track_snapshots")
        return list(self._snapshots)

    def drain_snapshots(self) -> List[str]:
        """Return and forget pending intermediate values.

        The streaming engines drain per event so unbounded streams run
        in bounded memory.
        """
        if self._snapshots is None:
            raise RuntimeError("StatBuffer built without track_snapshots")
        drained, self._snapshots = self._snapshots, []
        return drained
