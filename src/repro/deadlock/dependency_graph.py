"""Dependency graph and cycle detection for the deadlock simulator.

Nodes are collective *parts* — (collective, GPU) pairs.  Two kinds of directed
edges exist (Sec. 2.4.1):

1. an executing collective part points to all of its invoked (not yet
   executing) counterparts on other GPUs — it waits for them to join;
2. an invoked collective part points to every collective part currently
   executing on the same GPU — it waits for them to release the GPU.

A cycle in this graph is a deadlock.
"""

from __future__ import annotations

from collections import defaultdict


class DependencyGraph:
    """Incrementally maintained wait-for graph over collective parts."""

    def __init__(self):
        self._edges = defaultdict(set)

    def clear(self):
        self._edges.clear()

    def add_edge(self, src, dst):
        if src != dst:
            self._edges[src].add(dst)

    def remove_node(self, node):
        self._edges.pop(node, None)
        for targets in self._edges.values():
            targets.discard(node)

    def edges(self):
        return {node: set(targets) for node, targets in self._edges.items()}

    def __len__(self):
        return sum(len(targets) for targets in self._edges.values())

    def has_cycle(self):
        """Iterative three-colour DFS cycle detection."""
        WHITE, GREY, BLACK = 0, 1, 2
        colour = defaultdict(int)
        for start in list(self._edges):
            if colour[start] != WHITE:
                continue
            stack = [(start, iter(self._edges.get(start, ())))]
            colour[start] = GREY
            while stack:
                node, child_iter = stack[-1]
                advanced = False
                for child in child_iter:
                    if colour[child] == GREY:
                        return True
                    if colour[child] == WHITE:
                        colour[child] = GREY
                        stack.append((child, iter(self._edges.get(child, ()))))
                        advanced = True
                        break
                if not advanced:
                    colour[node] = BLACK
                    stack.pop()
        return False

    def find_cycle(self):
        """Return one cycle as a list of nodes, or ``None``."""
        WHITE, GREY, BLACK = 0, 1, 2
        colour = defaultdict(int)
        parent = {}
        for start in list(self._edges):
            if colour[start] != WHITE:
                continue
            stack = [(start, iter(self._edges.get(start, ())))]
            colour[start] = GREY
            while stack:
                node, child_iter = stack[-1]
                advanced = False
                for child in child_iter:
                    if colour[child] == GREY:
                        # Walk back from node to child to extract the cycle.
                        cycle = [child, node]
                        current = node
                        while current != child and current in parent:
                            current = parent[current]
                            if current != child:
                                cycle.append(current)
                        cycle.reverse()
                        return cycle
                    if colour[child] == WHITE:
                        colour[child] = GREY
                        parent[child] = node
                        stack.append((child, iter(self._edges.get(child, ()))))
                        advanced = True
                        break
                if not advanced:
                    colour[node] = BLACK
                    stack.pop()
        return None
