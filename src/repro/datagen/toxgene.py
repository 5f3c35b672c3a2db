"""ToxGene analogue: template-driven datasets for Figures 21 and 22.

Two fixed templates from Section 6.4:

* :func:`generate_ordered` — the data-ordering probe.  Each record is::

      <a id="N"> <prior>1</prior>
                 <foo>1</foo>   (repeated `filler_repeats` times)
                 <posterior>1</posterior> </a>

  The three queries ``/a[prior=0]``, ``/a[posterior=0]`` and
  ``/a[@id=0]`` all return empty results, but an engine that buffers
  (XSQ-NC) pays very differently depending on *when* it can decide the
  predicate: at the begin event (``@id``), after the first child
  (``prior`` — though a failed test is not a falsified predicate, so
  buffering continues), or only at the end (``posterior``).

* :func:`generate_colors` — the result-size probe: 10% ``red``, 30%
  ``green``, 60% ``blue`` elements, one character of content each, so
  ``/a/Red|Green|Blue`` selects 10/30/60% of the data.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.datagen.base import finish, open_target


def generate_ordered(target_bytes: int = 1_000_000,
                     filler_repeats: int = 10_000,
                     path: Optional[str] = None) -> Optional[str]:
    """The ``prior``/``foo``*N/``posterior`` ordering dataset.

    Deterministic (no randomness in the paper's template).  The paper
    repeats ``foo`` 10,000 times per record; pass a smaller
    ``filler_repeats`` for laptop-scale runs.
    """
    writer, stream = open_target(path)
    writer.begin("root")
    record_id = 0
    while writer.bytes_written < target_bytes:
        record_id += 1
        writer.begin("a", id=str(record_id))
        writer.element("prior", "1")
        for _ in range(filler_repeats):
            writer.element("foo", "1")
            if writer.bytes_written >= target_bytes:
                break
        writer.element("posterior", "1")
        writer.end()
    return finish(writer, stream, path)


def generate_predicate_probe(target_bytes: int = 1_000_000, seed: int = 31,
                             path: Optional[str] = None) -> Optional[str]:
    """Records exercising every predicate category at once.

    Each record carries an attribute (category 1), own text (2), a
    ``flag`` child (3), a ``k`` child with an attribute and numeric text
    (4/5), and a nested ``sub/leaf`` path (6), so one dataset supports
    the predicate-cost ablation with all queries selecting the same
    ~50% of records.  Every record has a ``k`` child (``not(k=7)``
    needs one on the unselected records), so the existence test is on
    ``flag``, which only selected records carry.
    """
    rng = random.Random(seed)
    writer, stream = open_target(path)
    writer.begin("root")
    record = 0
    while writer.bytes_written < target_bytes:
        record += 1
        selected = rng.random() < 0.5
        if selected:
            writer.begin("g", id=str(record))
        else:
            writer.begin("g")
        writer.text("t" if selected else "")
        if selected:
            writer.element("flag", "")
        writer.begin("k", a="1" if selected else "0")
        writer.text("5" if selected else "7")
        writer.end()
        writer.begin("sub")
        writer.element("leaf", "5" if selected else "7")
        writer.end()
        writer.element("n", "payload-%d" % record)
        writer.end()
    return finish(writer, stream, path)


def generate_colors(target_bytes: int = 1_000_000, seed: int = 29,
                    path: Optional[str] = None) -> Optional[str]:
    """The red/green/blue result-size dataset (10% / 30% / 60%)."""
    rng = random.Random(seed)
    writer, stream = open_target(path)
    # The document element is <a> itself, so the paper's queries
    # (/a/Red etc.) apply verbatim.
    writer.begin("a")
    while writer.bytes_written < target_bytes:
        roll = rng.random()
        if roll < 0.10:
            tag = "Red"
        elif roll < 0.40:
            tag = "Green"
        else:
            tag = "Blue"
        writer.element(tag, rng.choice("abcdefghij"))
    return finish(writer, stream, path)
