"""Per-rank schedule compilation for the collective algorithms.

Every common collective (all-reduce, all-gather, reduce-scatter, reduce,
broadcast, all-to-all) is compiled into a primitive sequence for each
participating rank, exactly as described in Sec. 4.1: the input is divided
into regular chunks and the rank executes its primitive sequence once per
chunk loop.  The compiled form is that loop body itself — a
:class:`~repro.collectives.primitives.Schedule` of ``(action, count)`` runs,
one body for the full loops and one for a smaller tail — not the expanded
sequence: a 512-rank ring all-reduce is five runs per rank however many
loops it takes, and its primitives are views built only when read.

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

Each builder returns one loop body.  One ring pass (:func:`_ring`) builds
the ring family and each hierarchical phase; one pair of tree phases builds
the trees and the chains (a chain is a path-shaped tree,
:func:`chain_relations`).  All-to-all is a pairwise-exchange schedule (the
MoE expert-parallel collective): each rank copies its own slice locally,
then in step ``s`` sends slice ``(rank+s) mod n`` while receiving from
``(rank-s) mod n``.  It ignores the algorithm knob, like all-gather.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import groupby

from repro.common.errors import ConfigurationError
from repro.common.types import CollectiveKind, PrimitiveAction
from repro.collectives.primitives import (
    PRIM_COPY,
    PRIM_RECV,
    PRIM_RECV_COPY_SEND,
    PRIM_RECV_REDUCE_COPY,
    PRIM_RECV_REDUCE_COPY_SEND,
    PRIM_RECV_REDUCE_SEND,
    PRIM_SEND,
    Schedule,
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


def chunk_loops(nbytes, group_size, chunk_bytes=DEFAULT_CHUNK_BYTES, per_rank_slices=True):
    """Split ``nbytes`` into chunk loops.

    Returns a list of per-loop chunk sizes (the bytes each primitive of that
    loop carries).  When ``per_rank_slices`` is true the data is additionally
    divided across the ``group_size`` ring slices, as all-reduce and
    reduce-scatter do; broadcast-style chains process the whole chunk per loop.
    """
    if nbytes <= 0:
        raise ConfigurationError(f"collective payload must be positive, got {nbytes}")
    if chunk_bytes <= 0:
        raise ConfigurationError(f"chunk_bytes must be positive, got {chunk_bytes}")
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


# -- ring passes ----------------------------------------------------------------


#: The send / recv bit of a fused action: a ring pass gives a primitive the
#: send / recv peer exactly when its action has the bit.  (Integer bits, not
#: a dict of actions: an enum's hash is a Python-level call.)
_SENDS = PrimitiveAction.SEND.value
_RECVS = PrimitiveAction.RECV.value


def _reduce_scatter_runs(n):
    """n primitives: send, n-2 recvReduceSend, final recvReduceCopy."""
    return ((PRIM_SEND, 1), (PRIM_RECV_REDUCE_SEND, n - 2),
            (PRIM_RECV_REDUCE_COPY, 1))


def _all_gather_runs(n):
    """n primitives: send own slice, forward n-2 slices, receive the last."""
    return ((PRIM_SEND, 1), (PRIM_RECV_COPY_SEND, n - 2), (PRIM_RECV, 1))


def _all_reduce_runs(n):
    """2n-1 primitives: send, recvReduceSend x(n-2), recvReduceCopySend,
    recvCopySend x(n-2), recv.

    Steps ``1..n-1`` are the reduce-scatter phase, ``n-1..2n-2`` the
    all-gather phase (the fused recvReduceCopySend belongs to both).
    """
    return ((PRIM_SEND, 1), (PRIM_RECV_REDUCE_SEND, n - 2),
            (PRIM_RECV_REDUCE_COPY_SEND, 1), (PRIM_RECV_COPY_SEND, n - 2),
            (PRIM_RECV, 1))


def _ring(rank, n, nbytes, send_peer, recv_peer, runs, first_step=0):
    """One pass of ``rank`` around an ``n``-rank ring: ``runs`` is a tuple of
    ``(action, count)`` pairs in step order, starting at step ``first_step``.

    Step ``t`` carries chunk ``(rank + first_step - t) mod n``: the chunk a
    rank handles moves back by one each step while the data moves forward.
    Returns the pass as schedule runs, one per pair.
    """
    chunk = (rank + first_step, n)
    built = []
    step = first_step
    for action, count in runs:
        bits = action._value_
        built.append((action, count, step, chunk, nbytes,
                      send_peer if bits & _SENDS else None,
                      recv_peer if bits & _RECVS else None))
        step += count
    return built


def _ring_builder(group_rank, group_size, runs):
    """The loop-body builder of a flat ring-family collective."""
    return partial(_ring, group_rank, group_size,
                   send_peer=(group_rank + 1) % group_size,
                   recv_peer=(group_rank - 1) % group_size, runs=runs)


def _all_to_all_body(group_rank, group_size, nbytes):
    """Pairwise exchange: 1 local copy + (n-1) independent send/recv pairs.

    Step ``s`` sends this rank's slice for peer ``(rank+s) mod n`` while
    receiving the slice peer ``(rank-s) mod n`` addressed to this rank.  The
    send and recv of one step are separate primitives (nothing is forwarded:
    every rank injects its own data), so the executor first drains the send
    into the bounded channel, then blocks on the matching recv.
    """
    body = [(PRIM_COPY, 1, 0, group_rank, nbytes, None, None)]
    for offset in range(1, group_size):
        send_peer = (group_rank + offset) % group_size
        recv_peer = (group_rank - offset) % group_size
        body.append((PRIM_SEND, 1, 2 * offset - 1, send_peer, nbytes,
                     send_peer, None))
        body.append((PRIM_RECV, 1, 2 * offset, recv_peer, nbytes,
                     None, recv_peer))
    return body


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


def _hierarchical_builder(group_rank, group_size, island_size):
    """The loop-body builder of the two-level all-reduce: three ring passes.

    A loop's ``nbytes`` is its per-slice payload (the loop total divided
    across ``group_size`` ring slices, as in the flat ring).  With
    ``m = island_size`` and ``k = group_size // m`` islands:

    * phase 1 is a reduce-scatter pass of the ``m`` island members over
      intra-island links (``m`` primitives moving slabs of ``k`` slices),
      leaving each rank with the island-wide partial of its 1/m share;
    * phase 2, from step ``m``, is a ring all-reduce of that share among the
      ``k`` position peers (one rank per island), ``2k-1`` single-slice
      primitives over the inter-island links;
    * phase 3, from step ``m + 2k - 1``, all-gathers the fully reduced shares
      back inside the island.

    Per rank the wire volume is ``2(m-1)·k + 2(k-1) = 2(n-1)`` slices — the
    same total as the flat ring, but with only ``2(k-1)`` slices crossing
    island boundaries.
    """
    m = island_size
    k = group_size // m
    island, position = divmod(group_rank, m)
    base = island * m
    intra = (base + (position + 1) % m, base + (position - 1) % m)
    inter = (((island + 1) % k) * m + position, ((island - 1) % k) * m + position)
    scatter, ring, gather = _reduce_scatter_runs(m), _all_reduce_runs(k), _all_gather_runs(m)
    gather_step = m + 2 * k - 1

    def build(nbytes):
        slab = nbytes * k  # one 1/m share of the loop payload (k slices)
        return (_ring(position, m, slab, *intra, scatter)
                + _ring(island, k, nbytes, *inter, ring, m)
                + _ring(position, m, slab, *intra, gather, gather_step))
    return build


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


def chain_relations(group_rank, group_size, root, reducing):
    """Parent and children of ``group_rank`` in the chain rooted at ``root``.

    The chain is one path over every rank in ring order.  A broadcast flows
    away from the root (``root → root+1 → … → root-1``); a reduce flows toward
    it (``root+1 → … → root-1 → root``).  Every rank has at most one child.
    """
    after = (group_rank + 1) % group_size
    before = (group_rank - 1) % group_size
    if reducing:
        parent, child, leaf = after, before, (root + 1) % group_size
    else:
        parent, child, leaf = before, after, (root - 1) % group_size
    return (None if group_rank == root else parent), ([] if group_rank == leaf else [child])


def _tree_run(action, step, nbytes, send_peer=None, recv_peer=None):
    """One tree-phase primitive as a run: its chunk index is the loop's."""
    return (action, 1, step, None, nbytes, send_peer, recv_peer)


def _tree_reduce_phase(parent, children, step, nbytes):
    """Reduce-toward-root runs of one rank: recv-reduce each child, then
    forward the partial result to the parent (fused with the last reduce)."""
    if not children:
        return [_tree_run(PRIM_SEND, step, nbytes, parent)], step + 1
    runs = []
    for child in children[:-1]:
        runs.append(_tree_run(PRIM_RECV_REDUCE_COPY, step, nbytes, None, child))
        step += 1
    last = PRIM_RECV_REDUCE_COPY if parent is None else PRIM_RECV_REDUCE_SEND
    runs.append(_tree_run(last, step, nbytes, parent, children[-1]))
    return runs, step + 1


def _tree_broadcast_phase(parent, children, step, nbytes):
    """Broadcast-from-root runs of one rank: receive from the parent and
    forward to every child (fused with the first send)."""
    runs = []
    if parent is not None:
        if not children:
            return [_tree_run(PRIM_RECV, step, nbytes, None, parent)], step + 1
        runs.append(_tree_run(PRIM_RECV_COPY_SEND, step, nbytes, children[0],
                              parent))
        step += 1
        children = children[1:]
    for child in children:
        runs.append(_tree_run(PRIM_SEND, step, nbytes, child))
        step += 1
    return runs, step


def _all_reduce_tree_body(group_rank, group_size, nbytes):
    """Double binary tree all-reduce: reduce up then broadcast down each tree.

    Large payloads are split in half across the two complementary trees so
    that interior/leaf duties balance; small payloads travel through the first
    tree only (see :data:`TREE_SPLIT_MIN_BYTES`).
    """
    if nbytes >= TREE_SPLIT_MIN_BYTES and group_size > 2:
        halves = [nbytes - nbytes // 2, nbytes // 2]
    else:
        halves = [nbytes]
    body = []
    step = 0
    for tree_index, half in enumerate(halves):
        parent, children = binary_tree_relations(
            group_rank, group_size, mirror=(tree_index == 1)
        )
        up, step = _tree_reduce_phase(parent, children, step, half)
        down, step = _tree_broadcast_phase(parent, children, step, half)
        body += up + down
    return body


def _rooted_builder(kind, group_rank, group_size, root, tree):
    """The loop-body builder of a broadcast, reduce or send/recv: one tree
    phase over the binomial tree (``tree``) or the chain."""
    reducing = kind is CollectiveKind.REDUCE
    if tree:
        parent, children = binomial_tree_relations(group_rank, group_size, root)
    else:
        parent, children = chain_relations(group_rank, group_size, root, reducing)
    phase = _tree_reduce_phase if reducing else _tree_broadcast_phase

    def build(nbytes):
        return phase(parent, children, 0, nbytes)[0]
    return build


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
    """Compile one rank's :class:`Schedule` for one collective call.

    The schedule holds one loop body of runs per distinct loop payload (the
    full chunk loops and the tail) and reads as the rank's full primitive
    sequence.
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
        return Schedule([(0, 1, [(PRIM_COPY, 1, 0, 0, nbytes, None, None)])])

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

    if kind is CollectiveKind.ALL_TO_ALL:
        build = partial(_all_to_all_body, group_rank, group_size)
    elif tree and kind is CollectiveKind.ALL_REDUCE:
        build = partial(_all_reduce_tree_body, group_rank, group_size)
    elif hierarchical:
        build = _hierarchical_builder(group_rank, group_size, island_size)
    elif kind is CollectiveKind.ALL_REDUCE:
        build = _ring_builder(group_rank, group_size, _all_reduce_runs(group_size))
    elif kind is CollectiveKind.ALL_GATHER:
        build = _ring_builder(group_rank, group_size, _all_gather_runs(group_size))
    elif kind is CollectiveKind.REDUCE_SCATTER:
        build = _ring_builder(group_rank, group_size, _reduce_scatter_runs(group_size))
    else:  # broadcast, reduce, send/recv (a two-rank broadcast chain)
        build = _rooted_builder(kind, group_rank, group_size, root, tree)

    # Equal loop payloads run one body: the full loops, then the tail.
    segments = []
    first_loop = 0
    for loop_nbytes, equal in groupby(loops):
        count = len(list(equal))
        segments.append((first_loop, count, build(loop_nbytes)))
        first_loop += count
    return Schedule(segments)
