"""Per-rank primitive sequence generation for the collective algorithms.

Every common collective (all-reduce, all-gather, reduce-scatter, reduce,
broadcast, all-to-all) is compiled into a sequence of primitives for each
participating rank, exactly as described in Sec. 4.1: the input is divided
into regular chunks and the rank executes its primitive sequence once per
chunk loop.

Three algorithm families are supported, mirroring NCCL:

* ``ring`` — the default: bandwidth-optimal ring (all-reduce, all-gather,
  reduce-scatter) and chain variants (broadcast, reduce);
* ``tree`` — latency-optimal trees for the small-message regime: a double
  binary tree for all-reduce (reduce up + broadcast down over two
  complementary trees, each carrying half the payload) and binomial trees for
  broadcast and reduce.  All-gather and reduce-scatter have no tree variant
  (NCCL likewise only runs them on rings) and fall back to the ring;
* ``hierarchical`` — a two-level all-reduce for node-structured fabrics:
  reduce-scatter inside each island over the intra-node links, ring
  all-reduce of the partials across islands (position peers only cross the
  pod/spine links), all-gather back inside the island.  The island structure
  is supplied by the caller via ``island_size`` (derived from the participant
  devices with :func:`hierarchical_island_size`); groups without a usable
  two-level structure fall back to the flat ring.

All-to-all is a pairwise-exchange schedule (the MoE expert-parallel
collective): each rank copies its own slice locally, then in step ``s`` sends
slice ``(rank+s) mod n`` while receiving from ``(rank-s) mod n``.  It has a
single schedule and ignores the algorithm knob, like all-gather.
"""

from __future__ import annotations

import math

from repro.common.errors import ConfigurationError
from repro.common.types import CollectiveKind
from repro.collectives.primitives import (
    PRIM_COPY,
    PRIM_RECV,
    PRIM_RECV_COPY_SEND,
    PRIM_RECV_REDUCE_COPY,
    PRIM_RECV_REDUCE_COPY_SEND,
    PRIM_RECV_REDUCE_SEND,
    PRIM_SEND,
    Primitive,
)

#: Default chunk size (bytes) per ring slice, matching NCCL's Simple protocol
#: slice granularity order of magnitude.
DEFAULT_CHUNK_BYTES = 128 << 10

#: Algorithm names accepted by :func:`generate_primitive_sequence`.
ALGORITHM_RING = "ring"
ALGORITHM_TREE = "tree"
ALGORITHM_HIERARCHICAL = "hierarchical"
ALGORITHMS = (ALGORITHM_RING, ALGORITHM_TREE, ALGORITHM_HIERARCHICAL)

#: Collectives that have a dedicated tree variant.
TREE_KINDS = (
    CollectiveKind.ALL_REDUCE,
    CollectiveKind.BROADCAST,
    CollectiveKind.REDUCE,
)

#: Collectives that have a two-level hierarchical variant.
HIERARCHICAL_KINDS = (CollectiveKind.ALL_REDUCE,)

#: Below this payload the double binary tree sends everything through one
#: tree: the per-rank executor serializes the two trees, so splitting a
#: latency-bound message across both would double the alpha cost for no
#: bandwidth gain.
TREE_SPLIT_MIN_BYTES = 256 << 10


class _SharedInts(dict):
    """``table[i]`` is the one int object equal to ``i`` that every compiled
    sequence stores; the first object looked up for a value becomes it."""

    def __missing__(self, value):
        self[value] = value
        return value


#: The one table that :func:`generate_primitive_sequence` passes each
#: ``loop`` through, and every builder each ``step`` and ``chunk_index``.
#: CPython caches only the ints -5..256, so without it a 512-rank all-reduce
#: would hold a fresh 32-byte int per field of most of its half a million
#: primitives.  It grows on demand, by one entry per distinct value.
_INTS = _SharedInts()


def chunk_loops(nbytes, group_size, chunk_bytes=DEFAULT_CHUNK_BYTES, per_rank_slices=True):
    """Split ``nbytes`` into chunk loops.

    Returns a list of per-loop chunk sizes (the bytes each primitive of that
    loop carries).  When ``per_rank_slices`` is true the data is additionally
    divided across the ``group_size`` ring slices, as all-reduce and
    reduce-scatter do; broadcast-style chains process the whole chunk per loop.
    """
    if nbytes <= 0:
        raise ConfigurationError(f"collective payload must be positive, got {nbytes}")
    divisor = group_size if per_rank_slices else 1
    loop_bytes = chunk_bytes * divisor
    nloops = max(1, math.ceil(nbytes / loop_bytes))
    sizes = []
    remaining = nbytes
    for _ in range(nloops):
        this_loop = min(loop_bytes, remaining)
        sizes.append(max(1, math.ceil(this_loop / divisor)))
        remaining -= this_loop
    return sizes


def _ring_peers(group_rank, group_size):
    send_peer = (group_rank + 1) % group_size
    recv_peer = (group_rank - 1) % group_size
    return send_peer, recv_peer


def _all_reduce_loop(group_rank, group_size, loop, nbytes):
    """2n-1 primitives: send, recvReduceSend x(n-2), recvReduceCopySend,
    recvCopySend x(n-2), recv.

    Steps ``1..n-1`` are the reduce-scatter phase, ``n-1..2n-2`` the
    all-gather phase (the fused recvReduceCopySend belongs to both).  The
    ring builders pass ``Primitive`` its arguments positionally: a 512-rank
    all-reduce compiles half a million of them.
    """
    n = group_size
    ints = _INTS
    send_peer, recv_peer = _ring_peers(group_rank, n)
    primitives = [Primitive(PRIM_SEND, loop, 0, ints[group_rank], nbytes,
                            send_peer)]
    primitives += [
        Primitive(PRIM_RECV_REDUCE_SEND, loop, ints[step],
                  ints[(group_rank - step) % n], nbytes, send_peer, recv_peer)
        for step in range(1, n - 1)
    ]
    primitives.append(
        Primitive(PRIM_RECV_REDUCE_COPY_SEND, loop, ints[n - 1],
                  ints[(group_rank + 1) % n], nbytes, send_peer, recv_peer))
    primitives += [
        Primitive(PRIM_RECV_COPY_SEND, loop, ints[step],
                  ints[(group_rank - step) % n], nbytes, send_peer, recv_peer)
        for step in range(n, 2 * n - 2)
    ]
    primitives.append(
        Primitive(PRIM_RECV, loop, ints[2 * n - 2], ints[(group_rank + 2) % n],
                  nbytes, None, recv_peer))
    return primitives


def _all_gather_loop(group_rank, group_size, loop, nbytes):
    """n primitives: send own slice, forward n-2 slices, receive the last."""
    n = group_size
    ints = _INTS
    send_peer, recv_peer = _ring_peers(group_rank, n)
    primitives = [Primitive(PRIM_SEND, loop, 0, ints[group_rank], nbytes,
                            send_peer)]
    primitives += [
        Primitive(PRIM_RECV_COPY_SEND, loop, ints[step],
                  ints[(group_rank - step) % n], nbytes, send_peer, recv_peer)
        for step in range(1, n - 1)
    ]
    primitives.append(
        Primitive(PRIM_RECV, loop, ints[n - 1], ints[(group_rank + 1) % n],
                  nbytes, None, recv_peer))
    return primitives


def _reduce_scatter_loop(group_rank, group_size, loop, nbytes):
    """n primitives: send, n-2 recvReduceSend, final recvReduceCopy."""
    n = group_size
    ints = _INTS
    send_peer, recv_peer = _ring_peers(group_rank, n)
    primitives = [Primitive(PRIM_SEND, loop, 0, ints[group_rank], nbytes,
                            send_peer)]
    primitives += [
        Primitive(PRIM_RECV_REDUCE_SEND, loop, ints[step],
                  ints[(group_rank - step) % n], nbytes, send_peer, recv_peer)
        for step in range(1, n - 1)
    ]
    primitives.append(
        Primitive(PRIM_RECV_REDUCE_COPY, loop, ints[n - 1],
                  ints[(group_rank + 1) % n], nbytes, None, recv_peer))
    return primitives


def _all_to_all_loop(group_rank, group_size, loop, nbytes):
    """Pairwise exchange: 1 local copy + (n-1) independent send/recv pairs.

    Step ``s`` sends this rank's slice for peer ``(rank+s) mod n`` while
    receiving the slice peer ``(rank-s) mod n`` addressed to this rank.  The
    send and recv of one step are separate primitives (nothing is forwarded:
    every rank injects its own data), so the executor first drains the send
    into the bounded channel, then blocks on the matching recv.
    """
    ints = _INTS
    primitives = [
        Primitive(PRIM_COPY, loop, 0, chunk_index=ints[group_rank], nbytes=nbytes)
    ]
    step = 1
    for offset in range(1, group_size):
        send_peer = ints[(group_rank + offset) % group_size]
        recv_peer = ints[(group_rank - offset) % group_size]
        primitives.append(
            Primitive(PRIM_SEND, loop, ints[step], chunk_index=send_peer,
                      nbytes=nbytes, send_peer=send_peer)
        )
        step += 1
        primitives.append(
            Primitive(PRIM_RECV, loop, ints[step], chunk_index=recv_peer,
                      nbytes=nbytes, recv_peer=recv_peer)
        )
        step += 1
    return primitives


def hierarchical_island_size(nodes):
    """Island size usable by the hierarchical all-reduce, or ``None``.

    ``nodes`` is one hashable island label per group rank (typically the
    device's node id), in group-rank order.  The two-level schedule needs the
    rank space to decompose into >= 2 equal contiguous islands whose members
    share a label — exactly the layout row-major rank assignment over
    equal-sized nodes produces.  Anything else (a single node, ragged islands
    after an elastic shrink, interleaved subgroups) returns ``None`` and the
    caller falls back to the flat ring.
    """
    nodes = list(nodes)
    total = len(nodes)
    if total < 4:
        return None
    labels = []
    for label in nodes:
        if not labels or labels[-1] != label:
            labels.append(label)
    islands = len(labels)
    if islands < 2 or len(set(labels)) != islands:
        return None
    size, remainder = divmod(total, islands)
    if remainder or size < 1:
        return None
    if any(nodes[rank] != labels[rank // size] for rank in range(total)):
        return None
    return size


def _hierarchical_all_reduce_loop(group_rank, group_size, loop, nbytes,
                                  island_size):
    """Two-level all-reduce: intra-island reduce-scatter, inter-island ring
    all-reduce of the partials, intra-island all-gather.

    ``nbytes`` is the per-slice payload of this chunk loop (the loop total
    divided across ``group_size`` ring slices, as in the flat ring).  With
    ``k = group_size // island_size`` islands:

    * phase 1 moves ``island_size - 1`` slabs of ``k`` slices over intra-island
      links, leaving each rank with the island-wide partial of its 1/m share;
    * phase 2 runs a ring all-reduce of that share among the ``k`` position
      peers (one rank per island), ``2(k-1)`` single-slice steps over the
      inter-island links;
    * phase 3 all-gathers the fully reduced shares back inside the island.

    Per rank the wire volume is ``2(m-1)·k + 2(k-1) = 2(n-1)`` slices — the
    same total as the flat ring, but with only ``2(k-1)`` slices crossing
    island boundaries.
    """
    m = island_size
    k = group_size // m
    island = group_rank // m
    position = group_rank % m
    base = island * m
    intra_send = base + (position + 1) % m
    intra_recv = base + (position - 1) % m
    inter_send = ((island + 1) % k) * m + position
    inter_recv = ((island - 1) % k) * m + position
    slab = nbytes * k  # one 1/m share of the loop payload (k slices)
    ints = _INTS

    primitives = []
    step = 0

    # -- phase 1: intra-island reduce-scatter (m-1 slab steps) -----------------
    if m > 1:
        primitives.append(
            Primitive(PRIM_SEND, loop, ints[step], chunk_index=ints[position],
                      nbytes=slab, send_peer=intra_send)
        )
        for _ in range(m - 2):
            step += 1
            primitives.append(
                Primitive(PRIM_RECV_REDUCE_SEND, loop, ints[step],
                          chunk_index=ints[(position - step) % m], nbytes=slab,
                          send_peer=intra_send, recv_peer=intra_recv)
            )
        step += 1
        primitives.append(
            Primitive(PRIM_RECV_REDUCE_COPY, loop, ints[step],
                      chunk_index=ints[(position + 1) % m], nbytes=slab,
                      recv_peer=intra_recv)
        )
        step += 1

    # -- phase 2: inter-island ring all-reduce of the 1/m share ----------------
    primitives.append(
        Primitive(PRIM_SEND, loop, ints[step], chunk_index=ints[island],
                  nbytes=nbytes, send_peer=inter_send)
    )
    substep = 0
    for _ in range(k - 2):
        step += 1
        substep += 1
        primitives.append(
            Primitive(PRIM_RECV_REDUCE_SEND, loop, ints[step],
                      chunk_index=ints[(island - substep) % k], nbytes=nbytes,
                      send_peer=inter_send, recv_peer=inter_recv)
        )
    step += 1
    substep += 1
    primitives.append(
        Primitive(PRIM_RECV_REDUCE_COPY_SEND, loop, ints[step],
                  chunk_index=ints[(island - substep) % k], nbytes=nbytes,
                  send_peer=inter_send, recv_peer=inter_recv)
    )
    for _ in range(k - 2):
        step += 1
        substep += 1
        primitives.append(
            Primitive(PRIM_RECV_COPY_SEND, loop, ints[step],
                      chunk_index=ints[(island - substep) % k], nbytes=nbytes,
                      send_peer=inter_send, recv_peer=inter_recv)
        )
    step += 1
    substep += 1
    primitives.append(
        Primitive(PRIM_RECV, loop, ints[step],
                  chunk_index=ints[(island - substep) % k], nbytes=nbytes,
                  recv_peer=inter_recv)
    )
    step += 1

    # -- phase 3: intra-island all-gather of the reduced shares ----------------
    if m > 1:
        primitives.append(
            Primitive(PRIM_SEND, loop, ints[step], chunk_index=ints[position],
                      nbytes=slab, send_peer=intra_send)
        )
        substep = 0
        for _ in range(m - 2):
            step += 1
            substep += 1
            primitives.append(
                Primitive(PRIM_RECV_COPY_SEND, loop, ints[step],
                          chunk_index=ints[(position - substep) % m], nbytes=slab,
                          send_peer=intra_send, recv_peer=intra_recv)
            )
        step += 1
        primitives.append(
            Primitive(PRIM_RECV, loop, ints[step],
                      chunk_index=ints[(position + 1) % m], nbytes=slab,
                      recv_peer=intra_recv)
        )
    return primitives


def _chain_loop(group_rank, group_size, loop, nbytes, root, reducing):
    """One primitive per loop for broadcast (root → ring) or reduce (ring → root)."""
    # The chain visits ranks in ring order starting after the root and ending
    # at the rank just before the root (broadcast) or at the root (reduce).
    position = (group_rank - root) % group_size
    send_peer = (group_rank + 1) % group_size
    recv_peer = (group_rank - 1) % group_size
    if reducing:
        # Reduce: data flows towards the root; chain start is root+1.
        if position == 1 or group_size == 1:
            return [Primitive(PRIM_SEND, loop, 0, chunk_index=loop, nbytes=nbytes,
                              send_peer=send_peer)]
        if group_rank == root:
            return [Primitive(PRIM_RECV_REDUCE_COPY, loop, 0,
                              chunk_index=loop, nbytes=nbytes, recv_peer=recv_peer)]
        return [Primitive(PRIM_RECV_REDUCE_SEND, loop, 0,
                          chunk_index=loop, nbytes=nbytes,
                          send_peer=send_peer, recv_peer=recv_peer)]
    # Broadcast: data flows away from the root; chain end is root-1.
    if group_rank == root:
        return [Primitive(PRIM_SEND, loop, 0, chunk_index=loop, nbytes=nbytes,
                          send_peer=send_peer)]
    if position == group_size - 1:
        return [Primitive(PRIM_RECV, loop, 0, chunk_index=loop, nbytes=nbytes,
                          recv_peer=recv_peer)]
    return [Primitive(PRIM_RECV_COPY_SEND, loop, 0, chunk_index=loop,
                      nbytes=nbytes, send_peer=send_peer, recv_peer=recv_peer)]


# -- tree structures ------------------------------------------------------------


def binary_tree_relations(group_rank, group_size, mirror=False):
    """Parent and children of ``group_rank`` in a heap-shaped binary tree.

    With ``mirror=True`` the tree is the mirror image (rank ``r`` occupies the
    heap position of rank ``n-1-r``): the second tree of the double binary
    tree, in which the leaves of the first tree become interior ranks.
    """
    index = (group_size - 1 - group_rank) if mirror else group_rank

    def to_rank(heap_index):
        return (group_size - 1 - heap_index) if mirror else heap_index

    parent = to_rank((index - 1) // 2) if index > 0 else None
    children = [to_rank(c) for c in (2 * index + 1, 2 * index + 2) if c < group_size]
    return parent, children


def binomial_tree_relations(group_rank, group_size, root=0):
    """Parent and children of ``group_rank`` in a binomial tree rooted at ``root``.

    Children are ordered largest subtree first, which is the order a binomial
    broadcast forwards them in.
    """
    rel = (group_rank - root) % group_size
    if rel == 0:
        parent = None
    else:
        parent = ((rel ^ (1 << (rel.bit_length() - 1))) + root) % group_size
    children = []
    k = rel.bit_length()
    while rel + (1 << k) < group_size:
        children.append(((rel + (1 << k)) + root) % group_size)
        k += 1
    children.reverse()
    return parent, children


def _tree_reduce_phase(parent, children, loop, step, nbytes):
    """Reduce-toward-root primitives of one rank: recv-reduce each child, then
    forward the partial result to the parent (fused with the last reduce)."""
    ints = _INTS
    primitives = []
    if not children:
        primitives.append(
            Primitive(PRIM_SEND, loop, ints[step], chunk_index=loop, nbytes=nbytes,
                      send_peer=parent)
        )
        return primitives, step + 1
    for child in children[:-1]:
        primitives.append(
            Primitive(PRIM_RECV_REDUCE_COPY, loop, ints[step],
                      chunk_index=loop, nbytes=nbytes, recv_peer=child)
        )
        step += 1
    last = children[-1]
    if parent is None:
        primitives.append(
            Primitive(PRIM_RECV_REDUCE_COPY, loop, ints[step],
                      chunk_index=loop, nbytes=nbytes, recv_peer=last)
        )
    else:
        primitives.append(
            Primitive(PRIM_RECV_REDUCE_SEND, loop, ints[step],
                      chunk_index=loop, nbytes=nbytes,
                      send_peer=parent, recv_peer=last)
        )
    return primitives, step + 1


def _tree_broadcast_phase(parent, children, loop, step, nbytes):
    """Broadcast-from-root primitives of one rank: receive from the parent and
    forward to every child (fused with the first send)."""
    ints = _INTS
    primitives = []
    if parent is None:
        for child in children:
            primitives.append(
                Primitive(PRIM_SEND, loop, ints[step], chunk_index=loop,
                          nbytes=nbytes, send_peer=child)
            )
            step += 1
        return primitives, step
    if not children:
        primitives.append(
            Primitive(PRIM_RECV, loop, ints[step], chunk_index=loop, nbytes=nbytes,
                      recv_peer=parent)
        )
        return primitives, step + 1
    primitives.append(
        Primitive(PRIM_RECV_COPY_SEND, loop, ints[step], chunk_index=loop,
                  nbytes=nbytes, send_peer=children[0], recv_peer=parent)
    )
    step += 1
    for child in children[1:]:
        primitives.append(
            Primitive(PRIM_SEND, loop, ints[step], chunk_index=loop, nbytes=nbytes,
                      send_peer=child)
        )
        step += 1
    return primitives, step


def _all_reduce_tree_loop(group_rank, group_size, loop, nbytes):
    """Double binary tree all-reduce: reduce up then broadcast down each tree.

    Large payloads are split in half across the two complementary trees so
    that interior/leaf duties balance; small payloads travel through the first
    tree only (see :data:`TREE_SPLIT_MIN_BYTES`).
    """
    if nbytes >= TREE_SPLIT_MIN_BYTES and group_size > 2:
        halves = [nbytes - nbytes // 2, nbytes // 2]
    else:
        halves = [nbytes]
    primitives = []
    step = 0
    for tree_index, half in enumerate(halves):
        parent, children = binary_tree_relations(
            group_rank, group_size, mirror=(tree_index == 1)
        )
        up, step = _tree_reduce_phase(parent, children, loop, step, half)
        down, step = _tree_broadcast_phase(parent, children, loop, step, half)
        primitives.extend(up)
        primitives.extend(down)
    return primitives


def _broadcast_tree_loop(group_rank, group_size, loop, nbytes, root):
    parent, children = binomial_tree_relations(group_rank, group_size, root)
    primitives, _ = _tree_broadcast_phase(parent, children, loop, 0, nbytes)
    return primitives


def _reduce_tree_loop(group_rank, group_size, loop, nbytes, root):
    parent, children = binomial_tree_relations(group_rank, group_size, root)
    primitives, _ = _tree_reduce_phase(parent, children, loop, 0, nbytes)
    return primitives


def generate_primitive_sequence(
    kind,
    group_rank,
    group_size,
    nbytes,
    chunk_bytes=DEFAULT_CHUNK_BYTES,
    root=0,
    algorithm=ALGORITHM_RING,
    island_size=None,
):
    """Generate the full primitive sequence of one rank for one collective call.

    ``nbytes`` is the collective's input payload in bytes (per-rank input for
    all-gather and all-to-all, total for the others), matching
    :class:`CollectiveSpec.nbytes`.  ``algorithm`` selects the ring, tree or
    hierarchical family; ``"auto"`` must be resolved to a concrete algorithm by
    :class:`repro.collectives.selector.AlgorithmSelector` before this layer.

    ``island_size`` enables the two-level hierarchical all-reduce: it is the
    number of consecutive group ranks that share a fast intra-island domain
    (typically one node), as computed by :func:`hierarchical_island_size`.
    When ``algorithm="hierarchical"`` but ``island_size`` does not describe a
    valid two-level decomposition (``None``, does not divide ``group_size``,
    or degenerate), the schedule falls back to the flat ring — the safe
    topology-oblivious default.
    """
    if algorithm not in ALGORITHMS:
        raise ConfigurationError(
            f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}"
        )
    if group_size < 1:
        raise ConfigurationError("group_size must be at least 1")
    if not 0 <= group_rank < group_size:
        raise ConfigurationError(f"group_rank {group_rank} out of range for size {group_size}")
    if group_size == 1:
        return [Primitive(PRIM_COPY, 0, 0, chunk_index=0, nbytes=nbytes)]

    tree = algorithm == ALGORITHM_TREE and kind in TREE_KINDS
    hierarchical = (
        algorithm == ALGORITHM_HIERARCHICAL
        and kind in HIERARCHICAL_KINDS
        and island_size is not None
        and 1 < island_size < group_size
        and group_size % island_size == 0
    )
    sliced = not tree and kind in (
        CollectiveKind.ALL_REDUCE,
        CollectiveKind.REDUCE_SCATTER,
        CollectiveKind.ALL_GATHER,
        CollectiveKind.ALL_TO_ALL,
    )
    loops = chunk_loops(nbytes, group_size, chunk_bytes, per_rank_slices=sliced)

    sequence = []
    for loop, loop_nbytes in enumerate(loops):
        loop = _INTS[loop]
        if kind is CollectiveKind.ALL_REDUCE:
            if tree:
                sequence.extend(_all_reduce_tree_loop(group_rank, group_size, loop,
                                                      loop_nbytes))
            elif hierarchical:
                sequence.extend(_hierarchical_all_reduce_loop(
                    group_rank, group_size, loop, loop_nbytes, island_size))
            else:
                sequence.extend(_all_reduce_loop(group_rank, group_size, loop, loop_nbytes))
        elif kind is CollectiveKind.ALL_TO_ALL:
            sequence.extend(_all_to_all_loop(group_rank, group_size, loop, loop_nbytes))
        elif kind is CollectiveKind.ALL_GATHER:
            sequence.extend(_all_gather_loop(group_rank, group_size, loop, loop_nbytes))
        elif kind is CollectiveKind.REDUCE_SCATTER:
            sequence.extend(_reduce_scatter_loop(group_rank, group_size, loop, loop_nbytes))
        elif kind is CollectiveKind.BROADCAST:
            if tree:
                sequence.extend(_broadcast_tree_loop(group_rank, group_size, loop,
                                                     loop_nbytes, root))
            else:
                sequence.extend(_chain_loop(group_rank, group_size, loop, loop_nbytes,
                                            root, False))
        elif kind is CollectiveKind.REDUCE:
            if tree:
                sequence.extend(_reduce_tree_loop(group_rank, group_size, loop,
                                                  loop_nbytes, root))
            else:
                sequence.extend(_chain_loop(group_rank, group_size, loop, loop_nbytes,
                                            root, True))
        elif kind is CollectiveKind.SEND_RECV:
            # Point-to-point modelled as a two-rank broadcast chain.
            sequence.extend(_chain_loop(group_rank, group_size, loop, loop_nbytes, root, False))
        else:  # pragma: no cover - defensive
            raise ConfigurationError(f"unsupported collective kind {kind}")
    return sequence


def primitive_count(kind, group_size, nbytes, chunk_bytes=DEFAULT_CHUNK_BYTES,
                    algorithm=ALGORITHM_RING):
    """Number of primitives a rank executes for one collective call."""
    sequence = generate_primitive_sequence(kind, 0, group_size, nbytes, chunk_bytes,
                                           algorithm=algorithm)
    return len(sequence)
