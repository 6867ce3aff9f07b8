"""Streaming ingest: SPEF and generated netlists straight into shard files.

Nothing here ever materializes a concatenated forest.  SPEF sections flow
``file handle -> iter_spef_nets -> spef_block -> add_block`` about one
shard of nets at a time; generator blocks flow ``stream_random_nets ->
add_block`` one numpy batch at a time.  Peak RSS is O(shard) either way,
which is the property the ``tests-out-of-core`` CI job pins.

Ingest is transactional: every entry point runs the writer as a context
manager, so a malformed stream (a SPEF parse error or a bad element value
included) aborts the writer and deletes every shard file written so far --
no partial store is ever left behind.  JSON netlists take the same path
through :class:`repro.graph.DesignDB` with ``store_dir=``, which streams
its compiled stage trees through this writer.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, List, Tuple

import numpy as np

from repro.spef.reader import SpefNet, SpefSource, iter_spef_nets, spef_block
from repro.store.format import Manifest
from repro.store.writer import DEFAULT_SHARD_NODES, ShardStoreWriter

if TYPE_CHECKING:  # pragma: no cover - typing-only import (no runtime cycle)
    from repro.generators.random_designs import NetBlock


def _batches(records: Iterable[SpefNet], nodes: int) -> Iterator[List[SpefNet]]:
    """Group streamed records into runs of at least ``nodes`` nodes.

    One :func:`~repro.spef.reader.spef_block` and one writer call per run
    keep the per-net numpy overhead off million-net ingests, and a run of
    about one shard keeps the buffered records O(shard).
    """
    batch: List[SpefNet] = []
    count = 0
    for record in records:
        batch.append(record)
        count += len(record.parent)
        if count >= nodes:
            yield batch
            batch, count = [], 0
    if batch:
        yield batch


def ingest_spef(
    source: SpefSource,
    directory: str,
    *,
    shard_nodes: int = DEFAULT_SHARD_NODES,
    overwrite: bool = False,
) -> Tuple[Manifest, List[str]]:
    """Stream SPEF nets into a shard store at ``directory``.

    ``source`` is a whole SPEF string or any iterable of lines (pass an
    open file handle to ingest without holding the text).  Nets reach the
    writer about one shard at a time, as :func:`~repro.spef.reader.spef_block`
    blocks with their depths.  A malformed net (a
    :class:`~repro.core.exceptions.ParseError` from the reader, or an
    :class:`~repro.core.exceptions.ElementValueError` naming the net) rolls
    the store back.  Returns the written manifest and the net names in
    tree order (tree ``i`` of the store is net ``names[i]``).
    """
    names: List[str] = []
    with ShardStoreWriter(
        directory, shard_nodes=shard_nodes, overwrite=overwrite
    ) as writer:
        for batch in _batches(iter_spef_nets(source), shard_nodes):
            starts, parent, resistance, capacitance, depth, _ = spef_block(batch)
            writer.add_block(
                starts,
                parent,
                resistance,
                np.zeros(len(parent)),
                capacitance,
                depth=depth,
            )
            names += [net.name for net in batch]
        manifest = writer.close()
    return manifest, names


def ingest_blocks(
    blocks: "Iterable[NetBlock]",
    directory: str,
    *,
    shard_nodes: int = DEFAULT_SHARD_NODES,
    overwrite: bool = False,
) -> Manifest:
    """Stream pre-batched tree blocks (e.g. from
    :func:`repro.generators.stream_random_nets`) into a shard store.

    Each block supplies ``starts``/``parent``/``edge_r``/``edge_c``/
    ``node_c`` (and optionally ``depth``) as block-local arrays -- the
    zero-copy bulk path that fabricates a million-instance store in
    seconds.
    """
    with ShardStoreWriter(
        directory, shard_nodes=shard_nodes, overwrite=overwrite
    ) as writer:
        for block in blocks:
            writer.add_block(
                block.starts,
                block.parent,
                block.edge_r,
                block.edge_c,
                block.node_c,
                depth=getattr(block, "depth", None),
            )
        return writer.close()
