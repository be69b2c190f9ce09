"""Loop detection based on Havlak's nesting algorithm.

The paper (§II): "MAO offers a loop detection mechanism based on Havlak.
It builds a hierarchical loop structure graph (LSG) representing the nesting
relationships of a given loop nest ...  The algorithm allows distinguishing
between reducible and irreducible loops."

This is a faithful implementation of Havlak's algorithm (TOPLAS 1997) with
the usual union-find acceleration: one DFS to number blocks, back-edge
classification against the DFS spanning tree, and a bottom-up pass that
collapses discovered loop bodies.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.analysis.cfg import CFG, BasicBlock


class Loop:
    """One node of the loop structure graph."""

    def __init__(self, index: int, header: Optional[BasicBlock],
                 is_root: bool = False) -> None:
        self.index = index
        self.header = header
        self.is_root = is_root
        self.is_reducible = True
        self.parent: Optional["Loop"] = None
        self.children: List["Loop"] = []
        #: Basic blocks directly in this loop (not in nested children).
        self.blocks: List[BasicBlock] = []
        self.nesting_level = 0

    def set_parent(self, parent: "Loop") -> None:
        self.parent = parent
        parent.children.append(self)

    def all_blocks(self) -> List[BasicBlock]:
        """Blocks of this loop including all nested loops."""
        collected = list(self.blocks)
        for child in self.children:
            collected.extend(child.all_blocks())
        return collected

    def depth(self) -> int:
        depth = 0
        node = self.parent
        while node is not None and not node.is_root:
            depth += 1
            node = node.parent
        return depth

    def __repr__(self) -> str:
        kind = "root" if self.is_root else (
            "loop" if self.is_reducible else "irreducible-loop")
        header = self.header.index if self.header else "-"
        return "<%s header=bb%s blocks=%d children=%d>" % (
            kind, header, len(self.blocks), len(self.children))


class LoopStructureGraph:
    """The hierarchical loop structure graph of one function."""

    def __init__(self) -> None:
        self.root = Loop(0, None, is_root=True)
        self.loops: List[Loop] = [self.root]

    def create_loop(self, header: Optional[BasicBlock]) -> Loop:
        loop = Loop(len(self.loops), header)
        self.loops.append(loop)
        return loop

    def inner_loops(self) -> List[Loop]:
        """All non-root loops with no loop children (innermost loops)."""
        return [l for l in self.loops
                if not l.is_root and not l.children]

    def non_root_loops(self) -> List[Loop]:
        return [l for l in self.loops if not l.is_root]

    def __len__(self) -> int:
        return len(self.loops) - 1   # exclude root


class _UnionFind:
    def __init__(self, size: int) -> None:
        self.parent = list(range(size))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, child: int, parent: int) -> None:
        self.parent[self.find(child)] = self.find(parent)


_BB_TOP = 0
_BB_NONHEADER = 1
_BB_REDUCIBLE = 2
_BB_SELF = 3
_BB_IRREDUCIBLE = 4
_UNVISITED = -1


def build_lsg(cfg: CFG) -> LoopStructureGraph:
    """Run Havlak's algorithm over the CFG and return the LSG."""
    lsg = LoopStructureGraph()
    if cfg.entry is None:
        return lsg

    # Iterative preorder DFS numbering from the entry block; `last[w]`
    # is the maximum DFS number in w's spanning subtree (Havlak's ancestor
    # test is then a simple interval check).
    number: Dict[int, int] = {}
    preorder: List[BasicBlock] = []
    parent_of: Dict[int, int] = {}
    visited: Set[int] = set()
    stack2: List[tuple] = [(cfg.entry, None)]
    while stack2:
        node, parent = stack2.pop()
        if id(node) in visited or node is cfg.exit:
            continue
        visited.add(id(node))
        number[id(node)] = len(preorder)
        if parent is not None:
            parent_of[len(preorder)] = parent
        preorder.append(node)
        for succ in reversed(node.successors):
            if id(succ) not in visited and succ is not cfg.exit:
                stack2.append((succ, number[id(node)]))

    reachable = len(preorder)
    nodes = preorder
    last = [0] * reachable
    for w in range(reachable - 1, -1, -1):
        last[w] = max([w] + [last[v] for v in range(reachable)
                             if parent_of.get(v) == w])

    def is_ancestor(w: int, v: int) -> bool:
        return w <= v <= last[w]

    non_back_preds: List[Set[int]] = [set() for _ in range(reachable)]
    back_preds: List[List[int]] = [[] for _ in range(reachable)]
    types = [_BB_NONHEADER] * reachable
    header = [0] * reachable

    for w, node in enumerate(nodes):
        for pred in node.predecessors:
            if id(pred) not in number:
                continue   # unreachable predecessor
            v = number[id(pred)]
            if is_ancestor(w, v):
                back_preds[w].append(v)
            else:
                non_back_preds[w].add(v)

    header[0] = 0
    uf = _UnionFind(reachable)
    loop_of: Dict[int, Loop] = {}

    for w in range(reachable - 1, -1, -1):
        node_pool: List[int] = []
        for v in back_preds[w]:
            if v != w:
                node_pool.append(uf.find(v))
            else:
                types[w] = _BB_SELF

        if node_pool:
            types[w] = _BB_REDUCIBLE

        worklist = list(node_pool)
        while worklist:
            x = worklist.pop(0)
            for y in list(non_back_preds[x]):
                ydash = uf.find(y)
                if not is_ancestor(w, ydash):
                    types[w] = _BB_IRREDUCIBLE
                    non_back_preds[w].add(ydash)
                elif ydash != w and ydash not in node_pool:
                    node_pool.append(ydash)
                    worklist.append(ydash)

        if node_pool or types[w] == _BB_SELF:
            loop = lsg.create_loop(nodes[w])
            loop.is_reducible = types[w] != _BB_IRREDUCIBLE
            loop.blocks.append(nodes[w])
            loop_of[w] = loop
            for x in node_pool:
                header[x] = w
                uf.union(x, w)
                if x in loop_of:
                    loop_of[x].set_parent(loop)
                else:
                    loop.blocks.append(nodes[x])

    # Attach remaining top-level loops to the root.
    for loop in lsg.loops:
        if not loop.is_root and loop.parent is None:
            loop.set_parent(lsg.root)
    return lsg
