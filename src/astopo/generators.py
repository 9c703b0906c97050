"""Growing-network topology models: BA, AB, GLP, and PFP.

All four share the same machinery: a ring seed, a Fenwick-tree sampler that
draws nodes proportionally to a degree kernel in O(log N), and collision
handling that redraws from the renormalized remaining candidates (rejection
first, exact masking as a fallback). A fixed (params, seed) pair always
yields the same graph, and no generator ever emits a self-loop or a parallel
edge.

The growth loop keeps its state flat: one neighbour set per node in a list,
kernel values tabulated per degree, and the sampler's prefix total cached
between weight changes. The rejection loop runs inside the sampler, and
every walk over its tree follows link tables cached for the last capacity
used, so a step is a list lookup. Every tree cell still receives the same
float additions in the same order, each draw makes the same comparisons,
and the RNG is called in the same order, so these shortcuts change no
output bit. Each edge is also kept once in a packed record, which AB's
rewiring draws from by index. The run ends by dropping its neighbour sets
and sampler, then building the CsrGraph that the metrics read and the
generate command writes, straight from that record (_decode); a node that
AB rewiring left without edges is still one of its nodes.

generate_with_trajectory also records k_max at N for each checkpoint N, read
after the growth step that brings the node count to N: for PFP, after the
host's peer links too. The seed ring is the m0 row, and AB and GLP steps that
add no node record nothing.

Kernels:
  BA   w(k) = k
  AB   w(k) = k + 1
  GLP  w(k) = k - beta           (beta < 1 keeps weights positive)
  PFP  w(k) = k^(1 + delta*log10 k)
"""

from __future__ import annotations

import functools
import math
import random
import sys
from array import array
from dataclasses import dataclass
from typing import Callable, Collection, Iterable, Sequence

import numpy as np

from .errors import ParameterError
from .graph import AS_MAX, CsrGraph

MODELS = ("ba", "ab", "glp", "pfp")

_REJECTION_TRIES = 32

_LOG10_FLOAT_MAX = math.log10(sys.float_info.max)


@dataclass
class GeneratorParams:
    """Growth-model parameters; only the fields a model reads are used.

    m0 defaults to max(m, 3); the seed graph is a ring of m0 nodes so runs
    start connected and edge bookkeeping is exact for pure-growth models.
    """

    model: str
    n_target: int
    seed: int
    m: int = 2
    m0: int | None = None
    p: float = 0.0
    q: float = 0.0
    beta: float = 0.0
    delta: float = 0.0

    def seed_size(self) -> int:
        return self.m0 if self.m0 is not None else max(self.m, 3)

    def validate(self) -> None:
        if self.model not in MODELS:
            raise ParameterError(f"unknown model {self.model!r} (expected one of {MODELS})")
        for name in ("beta", "delta"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite, got {getattr(self, name)}")
        if self.m < 1:
            raise ParameterError(f"m must be >= 1, got {self.m}")
        m0 = self.seed_size()
        if m0 < 2:
            raise ParameterError(f"m0 must be >= 2, got {m0}")
        if self.m > m0:
            raise ParameterError(f"m must be <= m0, got m={self.m} m0={m0}")
        if self.n_target < m0:
            raise ParameterError(f"n_target must be >= m0, got n_target={self.n_target} m0={m0}")
        # Node ids 0 .. n_target - 1 are written out as AS numbers.
        if self.n_target - 1 > AS_MAX:
            raise ParameterError(
                f"n_target must be <= {AS_MAX + 1}, since node ids are AS numbers, "
                f"got {self.n_target}"
            )
        if not 0.0 <= self.p <= 1.0:
            raise ParameterError(f"p must be in [0, 1], got {self.p}")
        if not 0.0 <= self.q <= 1.0:
            raise ParameterError(f"q must be in [0, 1], got {self.q}")
        if self.model == "ab":
            if self.p + self.q > 1.0:
                raise ParameterError(f"p + q must be <= 1, got {self.p + self.q}")
            if self.n_target > m0 and self.p + self.q >= 1.0:
                raise ParameterError(
                    "p + q must be < 1 to ever add a node (n_target exceeds m0)"
                )
        if self.model == "glp":
            if self.beta >= 1.0:
                raise ParameterError(f"beta must be < 1, got {self.beta}")
            if self.n_target > m0 and self.p >= 1.0:
                raise ParameterError("p must be < 1 to ever add a node (n_target exceeds m0)")
            # Below 2**52 floats lie at most 0.5 apart: each degree keeps its own k - beta.
            if self.n_target - 1 - self.beta >= 2.0**52:
                raise ParameterError(
                    f"beta={self.beta} puts the weight k - beta at or past 2^52 by degree "
                    f"{self.n_target - 1}, where two degrees can get the same float weight"
                )
        if self.model == "pfp":
            if self.delta < 0.0:
                raise ParameterError(f"delta must be >= 0, got {self.delta}")
            # n_target times the weight at degree n_target - 1 bounds the
            # sampler's total of all weights, which must stay a finite float.
            log_k = math.log10(self.n_target - 1)
            log_total = math.log10(self.n_target) + (1.0 + self.delta * log_k) * log_k
            if log_total > _LOG10_FLOAT_MAX:
                raise ParameterError(
                    f"delta={self.delta} puts n_target times the kernel weight at degree "
                    f"{self.n_target - 1} at 10^{log_total:.1f}, past float range"
                )


@dataclass
class Trajectory:
    """(N, k_max) pairs recorded during one growth run."""

    checkpoints: list[tuple[int, int]]

    def to_csv(self) -> str:
        lines = ["N,k_max"] + [f"{n},{k}" for n, k in self.checkpoints]
        return "\n".join(lines) + "\n"


# One growth run needs the tables of one capacity, and at 10**6 cells they
# take about 61 MB: keep only the last capacity's.
@functools.lru_cache(maxsize=1)
def _links(cap: int) -> tuple[list[int], list[int], list[int], list[int]]:
    """The next cell of each Fenwick walk over cells 1..cap, as four lists.

    up[j] is the next cell an update adds to (j + lowbit(j)), down[j] the
    next cell a prefix sum reads (j - lowbit(j)). A draw that takes cell c
    compares c + lowbit(c)/2 next, hi[c], and one that passes it compares
    c - lowbit(c)/2, lo[c]; hi skips the cells past cap, which the stride
    descent passes without a compare. 0 ends every walk. Every entry is one
    of the same cap + 1 int objects, which the four lists share rather than
    each holding ints of its own.
    """
    cells = list(range(cap + 1))
    up, down, hi, lo = ([0] * (cap + 1) for _ in range(4))
    for j in cells[1:]:
        low = j & -j
        half = low >> 1
        if j + low <= cap:
            up[j] = cells[j + low]
        down[j] = cells[j - low]
        if half:
            lo[j] = cells[j - half]
            c = j + half
            while c > cap:
                step = (c & -c) >> 1
                c = c - step if step else 0
            hi[j] = cells[c]
    return up, down, hi, lo


class WeightedPicker:
    """Fenwick tree over per-node weights: O(log n) update and draw.

    Every walk over the tree follows the link lists that _links caches for
    its capacity, so a step is a list lookup rather than int arithmetic.
    A walk visits the cells that the stride loops j += j & -j, j -= j & -j
    and the halving descent visit, in the same order, with the same float
    operations, so every cell, total and draw is as they make it (the
    reference picker in tests/oracles.py keeps those loops). The prefix
    total is cached. Every weight change drops it, and so does every append, since
    a larger size moves the prefix path even when the new weight is 0.
    """

    __slots__ = (
        "_cap", "_tree", "_weights", "_size", "_top", "_up", "_down", "_hi", "_lo", "_total"
    )

    def __init__(self, capacity: int) -> None:
        self._cap = max(capacity, 1)
        self._tree = [0.0] * (self._cap + 1)
        self._weights = [0.0] * self._cap
        self._size = 0
        # The descent's first cell: the top power of two <= capacity.
        self._top = 1 << (self._cap.bit_length() - 1)
        self._up, self._down, self._hi, self._lo = _links(self._cap)
        self._total: float | None = 0.0

    @property
    def size(self) -> int:
        return self._size

    def append(self, weight: float) -> int:
        if self._size >= self._cap:
            raise ParameterError("picker capacity exceeded")
        index = self._size
        self._size += 1
        self._total = None
        self.set_weight(index, weight)
        return index

    def weight(self, index: int) -> float:
        return self._weights[index]

    def set_weight(self, index: int, weight: float) -> None:
        delta = weight - self._weights[index]
        if delta == 0.0:
            return
        self._weights[index] = weight
        self._total = None
        tree = self._tree
        up = self._up
        j = index + 1
        while j:
            tree[j] += delta
            j = up[j]

    def total(self) -> float:
        s = self._total
        if s is None:
            s = 0.0
            tree = self._tree
            down = self._down
            j = self._size
            while j:
                s += tree[j]
                j = down[j]
            self._total = s
        return s

    def sample(self, rng: random.Random) -> int | None:
        """One index drawn with probability weight/total; None when no mass."""
        return self.draw(rng, ())

    def draw(self, rng: random.Random, excluded: Collection[int], anchor: int = -1) -> int | None:
        """Preferential draw avoiding anchor and every index in excluded.

        Rejection sampling conditioned on acceptance equals the renormalized
        distribution over the remaining candidates; after a bounded number of
        misses the exact masked draw takes over so runtime stays predictable.
        None when no mass is left.
        """
        total = self.total()
        if total <= 0.0:
            return None
        random_ = rng.random
        tree = self._tree
        weights = self._weights
        top = self._top
        hi = self._hi
        lo = self._lo
        last = self._size - 1
        for _ in range(_REJECTION_TRIES):
            remaining = random_() * total
            pos = 0
            c = top
            while c:
                cell = tree[c]
                if cell < remaining:
                    remaining -= cell
                    pos = c
                    c = hi[c]
                else:
                    c = lo[c]
            index = pos if pos < last else last
            if weights[index] == 0.0:
                # Float roundoff can land on a masked slot; take the nearest live one.
                index = self._nearest_live(index)
                if index is None:
                    return None
            if index != anchor and index not in excluded:
                return index
        return self.sample_excluding(rng, [anchor, *excluded] if anchor >= 0 else excluded)

    def _nearest_live(self, index: int) -> int | None:
        """The live slot nearest index, above it first; None when every
        weight is 0 and only float residue in the tree cells left a total."""
        j = index + 1
        while j < self._size:
            if self._weights[j] > 0.0:
                return j
            j += 1
        j = index - 1
        while j >= 0:
            if self._weights[j] > 0.0:
                return j
            j -= 1
        return None

    def sample_excluding(self, rng: random.Random, excluded: Iterable[int]) -> int | None:
        """Renormalized draw with the given indices masked out."""
        saved = []
        for i in excluded:
            w = self._weights[i]
            if w:
                saved.append((i, w))
                self.set_weight(i, 0.0)
        try:
            return self.sample(rng)
        finally:
            for i, w in saved:
                self.set_weight(i, w)


# The kernel w(k) of each model at degree k, reading its parameters from params.
_KERNELS: dict[str, Callable[[int, GeneratorParams], float]] = {
    "ba": lambda k, params: float(k),
    "ab": lambda k, params: float(k + 1),
    "glp": lambda k, params: k - params.beta if k > 0 else 0.0,
    "pfp": lambda k, params: k ** (1.0 + params.delta * math.log10(k)) if k > 0 else 0.0,
}


class _KernelTable(dict):
    """The model's kernel w(k) per degree k, each computed once, when a node first reaches k."""

    def __init__(self, params: GeneratorParams) -> None:
        super().__init__()
        self.params = params
        self.kernel = _KERNELS[params.model]

    def __missing__(self, k: int) -> float:
        weight = self[k] = self.kernel(k, self.params)
        return weight


class _Growth:
    """One growth run: adjacency, edge record, kernel-weighted picker, RNG and trajectory.

    Node i's neighbours are adj[i]; their insertion order is the order the
    picker's masked fallback reads them in. The edge record holds each edge
    once, packed as u * n_target + v with u < v: the sorted seed ring, then
    every link in the order it was made, a rewired edge swap-removed. The
    kernel is tabulated per degree, and each link or unlink reweights u, then v.
    """

    def __init__(self, params: GeneratorParams, checkpoints: Sequence[int] = ()) -> None:
        self.rng = random.Random(params.seed)
        self.kernel_of = _KernelTable(params)
        self.n_target = params.n_target
        m0 = params.seed_size()
        self.adj: list[set[int]] = [set() for _ in range(m0)]
        for i in range(m0):  # for m0 = 2 the closing edge (1, 0) is a duplicate
            self.adj[i].add((i + 1) % m0)
            self.adj[(i + 1) % m0].add(i)
        # n_target <= 2**32, so every key fits in 64 bits.
        ring = (u * self.n_target + v for u, nbrs in enumerate(self.adj) for v in nbrs if u < v)
        self.edges = array("Q", sorted(ring))
        self.picker = WeightedPicker(params.n_target)
        for nbrs in self.adj:
            self.picker.append(self.kernel_of[len(nbrs)])
        # Checkpoints not yet reached, the next one last.
        self.pending = sorted(checkpoints, reverse=True)
        self.trajectory = Trajectory(checkpoints=[])
        self.record()

    def record(self) -> None:
        """Add (N, k_max) for each pending checkpoint that the node count N has reached."""
        pending = self.pending
        n = len(self.adj)
        while pending and n >= pending[-1]:
            pending.pop()
            self.trajectory.checkpoints.append((n, max(map(len, self.adj))))

    def connect(self, u: int, v: int) -> None:
        """Link u and v, which the caller knows to be distinct and not yet linked."""
        adj = self.adj
        adj[u].add(v)
        adj[v].add(u)
        self.edges.append(u * self.n_target + v if u < v else v * self.n_target + u)
        self.picker.set_weight(u, self.kernel_of[len(adj[u])])
        self.picker.set_weight(v, self.kernel_of[len(adj[v])])

    def rewire(self, pos: int, kept: int, detached: int, b: int) -> None:
        """Move edge pos of the record, kept-detached, to kept-b."""
        adj = self.adj
        adj[kept].remove(detached)
        adj[detached].remove(kept)
        self.picker.set_weight(kept, self.kernel_of[len(adj[kept])])
        self.picker.set_weight(detached, self.kernel_of[len(adj[detached])])
        last = self.edges.pop()
        if pos < len(self.edges):
            self.edges[pos] = last
        self.connect(kept, b)

    def attach(self, count: int) -> list[int]:
        """A new node linked to up to count distinct preferential draws; the draws."""
        draw = self.picker.draw
        rng = self.rng
        chosen: set[int] = set()
        targets: list[int] = []
        for _ in range(count):
            idx = draw(rng, chosen)
            if idx is None:
                break
            chosen.add(idx)
            targets.append(idx)
        self.adj.append(set())
        node = self.picker.append(0.0)
        for t in targets:
            self.connect(node, t)
        return targets

    def pick_peer(self, anchor: int) -> int | None:
        """Preferential partner for anchor: not anchor, not already linked."""
        nbrs = self.adj[anchor]
        if len(nbrs) >= len(self.adj) - 1:
            return None
        return self.picker.draw(self.rng, nbrs, anchor)


def _decode(edges: array, n_target: int, n: int) -> CsrGraph:
    """The graph over nodes 0..n-1 of an edge record packed as u * n_target + v,
    every node kept, edges or not."""
    pairs = np.empty((len(edges), 2), np.int64)
    # Both operands uint64, so the quotient and remainder never pass through float.
    keys = np.frombuffer(edges, np.uint64)
    np.divmod(keys, np.uint64(n_target), out=(pairs[:, 0], pairs[:, 1]))
    return CsrGraph(pairs, np.arange(n))


def _grow_ba(growth: _Growth, params: GeneratorParams) -> None:
    for _ in range(params.n_target - params.seed_size()):
        growth.attach(params.m)
        growth.record()


def _grow_ab(growth: _Growth, params: GeneratorParams) -> None:
    rng = growth.rng
    adj = growth.adj
    edges = growth.edges
    while len(adj) < params.n_target:
        roll = rng.random()
        if roll < params.p:
            # m new internal links: one uniform end, one preferential end.
            for _ in range(params.m):
                n = len(adj)
                if len(edges) >= n * (n - 1) // 2:
                    break
                a = rng.randrange(n)
                while len(adj[a]) >= n - 1:
                    a = rng.randrange(n)
                b = growth.pick_peer(a)
                if b is not None:
                    growth.connect(a, b)
        elif roll < params.p + params.q:
            # m rewires: detach one end of a uniform edge, reattach preferentially.
            # Links and rewires never shrink the record, so it is never empty.
            for _ in range(params.m):
                pos = rng.randrange(len(edges))
                u, v = divmod(edges[pos], params.n_target)
                kept, detached = (u, v) if rng.random() < 0.5 else (v, u)
                b = growth.pick_peer(kept)
                if b is not None:
                    growth.rewire(pos, kept, detached, b)
        else:
            growth.attach(params.m)
            growth.record()


def _grow_glp(growth: _Growth, params: GeneratorParams) -> None:
    rng = growth.rng
    adj = growth.adj
    draw = growth.picker.draw
    while len(adj) < params.n_target:
        if rng.random() < params.p:
            # m new internal links, both endpoints preferential.
            for _ in range(params.m):
                n = len(adj)
                if len(growth.edges) >= n * (n - 1) // 2:
                    break
                tried: set[int] = set()
                while True:
                    a = draw(rng, tried)
                    if a is None:
                        break
                    b = growth.pick_peer(a)
                    if b is not None:
                        growth.connect(a, b)
                        break
                    tried.add(a)
        else:
            growth.attach(params.m)
            growth.record()


def _grow_pfp(growth: _Growth, params: GeneratorParams) -> None:
    rng = growth.rng
    for _ in range(params.n_target - params.seed_size()):
        if rng.random() < params.p:
            # New node joins one host; the host gains two links to peers.
            host = growth.attach(1)[0]
            for _ in range(2):
                peer = growth.pick_peer(host)
                if peer is None:
                    break
                growth.connect(host, peer)
        else:
            # New node joins two hosts; the first host gains one peer link.
            host = growth.attach(2)[0]
            peer = growth.pick_peer(host)
            if peer is not None:
                growth.connect(host, peer)
        growth.record()


_GROWERS = {"ba": _grow_ba, "ab": _grow_ab, "glp": _grow_glp, "pfp": _grow_pfp}


def generate(params: GeneratorParams) -> CsrGraph:
    """Grow one topology under params.model (one of MODELS); deterministic in (params, seed)."""
    return generate_with_trajectory(params, [])[0]


def generate_with_trajectory(
    params: GeneratorParams, checkpoints: Sequence[int] | None = None
) -> tuple[CsrGraph, Trajectory]:
    """One growth run returning both the final graph and its (N, k_max) trace.

    The trace has one row per checkpoint, at that node count. The default
    checkpoints are m0, each power of ten between m0 and n_target, and
    n_target: the trajectory that the generate command writes.
    """
    params.validate()
    m0, n_target = params.seed_size(), params.n_target
    if checkpoints is None:
        powers = (10**k for k in range(1, len(str(n_target))))
        checkpoints = sorted({m0, n_target, *(p for p in powers if m0 < p < n_target)})
    checkpoints = list(checkpoints)
    if checkpoints != sorted(set(checkpoints)):
        raise ParameterError("checkpoints must be strictly ascending")
    if checkpoints and checkpoints[0] < m0:
        raise ParameterError(f"checkpoint {checkpoints[0]} is below the seed size m0={m0}")
    if checkpoints and checkpoints[-1] > n_target:
        raise ParameterError(f"last checkpoint {checkpoints[-1]} exceeds n_target {n_target}")
    growth = _Growth(params, checkpoints)
    _GROWERS[params.model](growth, params)
    edges, n, trajectory = growth.edges, len(growth.adj), growth.trajectory
    # Freed here, so the neighbour sets and sampler are not held through the CSR build.
    del growth
    return _decode(edges, n_target, n), trajectory
