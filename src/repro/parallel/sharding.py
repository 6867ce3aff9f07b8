"""Scenario-chunk planning for the forest solve engine.

The scenario-batched kernels materialize ``(N, S)`` working planes;
chunking the scenario axis (:func:`scenario_chunks`) caps that working set
at roughly :func:`default_chunk_cells` elements per plane, so a
(2k-instance x 256-scenario) sweep runs as a few bounded passes instead of
one allocation proportional to ``N x S``.

The planner is a pure function of sizes -- it holds no state, so it is
always consistent with the forest's *current* layout (after
:meth:`~repro.flat.FlatForest.replace_tree` splices, the next call simply
sees the new node count).
"""

from __future__ import annotations

import os
from typing import List, Optional, Tuple

from repro.core.exceptions import AnalysisError

__all__ = [
    "CHUNK_BYTES_ENV",
    "DEFAULT_CHUNK_CELLS",
    "MAX_CHUNK_CELLS",
    "default_chunk_cells",
    "scenario_chunks",
]

#: Floor on the per-plane cell budget (nodes x scenarios) when the scenario
#: axis is chunked: 2**21 doubles == 16 MiB per (N, S) float64 plane.  The
#: memory-derived default (:func:`default_chunk_cells`) never goes below
#: this, so chunking behaves identically to the historical fixed budget on
#: small machines.
DEFAULT_CHUNK_CELLS = 1 << 21

#: Ceiling on the derived cell budget: 2**26 doubles == 512 MiB per plane.
#: Past this point wider chunks stop helping (the sweeps are bandwidth
#: bound) and only inflate peak RSS.
MAX_CHUNK_CELLS = 1 << 26

#: Environment override for the per-plane budget, in **bytes** of one
#: float64 working plane.  When set, it is exact (no floor/ceiling
#: clamping), so constrained CI jobs can pin tiny chunks.
CHUNK_BYTES_ENV = "REPRO_CHUNK_BYTES"

#: Fraction of MemAvailable granted to one working plane.  The batched
#: kernels hold a handful of (N, S) planes live at once and callers may run
#: several solves concurrently, so a single plane gets 1/64th.
_MEM_FRACTION = 64


def _available_memory_bytes() -> Optional[int]:
    """``MemAvailable`` from ``/proc/meminfo``, or ``None`` off-Linux."""
    try:
        with open("/proc/meminfo", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):  # pragma: no cover - non-Linux
        return None
    return None  # pragma: no cover - MemAvailable present on modern kernels


def default_chunk_cells() -> int:
    """The per-plane cell budget used when no explicit ``chunk`` is given.

    ``REPRO_CHUNK_BYTES`` in the environment wins and is exact: the budget
    is that many bytes of one float64 plane (at least one cell).  Otherwise
    the budget is derived from available memory -- ``MemAvailable`` /
    ``_MEM_FRACTION`` bytes per plane -- clamped to
    [:data:`DEFAULT_CHUNK_CELLS`, :data:`MAX_CHUNK_CELLS`] so small hosts
    keep the historical fixed budget and big hosts do not trade RSS for
    nothing.  Falls back to :data:`DEFAULT_CHUNK_CELLS` when the probe is
    unavailable.
    """
    raw = os.environ.get(CHUNK_BYTES_ENV, "")
    if raw:
        try:
            chunk_bytes = int(raw)
        except ValueError:
            raise AnalysisError(
                f"{CHUNK_BYTES_ENV} must be an integer byte count, got {raw!r}"
            )
        if chunk_bytes < 1:
            raise AnalysisError(
                f"{CHUNK_BYTES_ENV} must be >= 1, got {chunk_bytes}"
            )
        return max(1, chunk_bytes // 8)
    available = _available_memory_bytes()
    if available is None:
        return DEFAULT_CHUNK_CELLS
    derived = available // _MEM_FRACTION // 8
    return int(min(MAX_CHUNK_CELLS, max(DEFAULT_CHUNK_CELLS, derived)))


def scenario_chunks(
    count: int, node_count: int, *, chunk: Optional[int] = None
) -> List[Tuple[int, int]]:
    """Split ``count`` scenarios into evenly sized ``[lo, hi)`` chunks.

    With ``chunk=None`` the width is chosen so one ``(N, chunk)`` float64
    plane stays near :func:`default_chunk_cells` elements (memory-derived,
    ``REPRO_CHUNK_BYTES``-overridable, never below
    :data:`DEFAULT_CHUNK_CELLS`); pass an explicit ``chunk`` to override
    (tests pin small chunks to exercise the loop).  The requested width is
    an upper bound -- the actual widths are balanced (``ceil(count /
    pieces)``) so the last chunk is never a sliver.
    """
    if count < 1:
        raise AnalysisError(f"scenario count must be >= 1, got {count}")
    if chunk is None:
        width = max(1, default_chunk_cells() // max(int(node_count), 1))
    else:
        width = int(chunk)
        if width < 1:
            raise AnalysisError(f"scenario_chunk must be >= 1, got {chunk}")
    pieces = -(-count // width)  # ceil
    width = -(-count // pieces)
    return [(lo, min(lo + width, count)) for lo in range(0, count, width)]
