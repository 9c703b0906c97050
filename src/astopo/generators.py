"""Growing-network topology models: BA, AB, GLP, and PFP.

All four share the same machinery: a ring seed, a Fenwick-tree sampler that
draws nodes proportionally to a degree kernel in O(log N), and collision
handling that redraws from the renormalized remaining candidates (rejection
first, exact masking as a fallback). A fixed (params, seed) pair always
yields the same graph, and no generator ever emits a self-loop or a parallel
edge.

The growth loop keeps its state flat: one neighbour set per node in a list,
kernel values tabulated per degree, and the sampler's prefix total cached
between weight changes. The rejection loop runs inside the sampler. Every
tree cell still receives the same float additions in the same order, and
the RNG is called in the same order, so these shortcuts change no output
bit. The run ends by building the CsrGraph that the metrics read and the
generate command writes, straight from the neighbour sets; a node that AB
rewiring left without edges is still one of its nodes.

generate_with_trajectory(params) also records k_max at m0, at each power of
ten between m0 and n_target, and at n_target, unless given other checkpoints.

Kernels:
  BA   w(k) = k
  AB   w(k) = k + 1
  GLP  w(k) = k - beta           (beta < 1 keeps weights positive)
  PFP  w(k) = k^(1 + delta*log10 k)
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass
from itertools import chain
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


class WeightedPicker:
    """Fenwick tree over per-node weights: O(log n) update and draw.

    The prefix total is cached. Every weight change drops it, and so does
    every append, since a larger size moves the prefix path even when the
    new weight is 0.
    """

    __slots__ = ("_cap", "_tree", "_weights", "_size", "_steps", "_total")

    def __init__(self, capacity: int) -> None:
        self._cap = max(capacity, 1)
        self._tree = [0.0] * (self._cap + 1)
        self._weights = [0.0] * self._cap
        self._size = 0
        # The descent's strides: the top power of two <= capacity, halved down to 1.
        self._steps = tuple(1 << b for b in reversed(range(self._cap.bit_length())))
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
        cap = self._cap
        j = index + 1
        while j <= cap:
            tree[j] += delta
            j += j & (-j)

    def total(self) -> float:
        s = self._total
        if s is None:
            s = 0.0
            tree = self._tree
            j = self._size
            while j > 0:
                s += tree[j]
                j -= j & (-j)
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
        cap = self._cap
        steps = self._steps
        last = self._size - 1
        for _ in range(_REJECTION_TRIES):
            remaining = random_() * total
            pos = 0
            for step in steps:
                nxt = pos + step
                if nxt <= cap and tree[nxt] < remaining:
                    remaining -= tree[nxt]
                    pos = nxt
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


class _KernelTable(dict):
    """kernel(k) per degree k, each computed once, when a node first reaches k."""

    def __init__(self, kernel: Callable[[int], float]) -> None:
        super().__init__()
        self.kernel = kernel

    def __missing__(self, k: int) -> float:
        weight = self[k] = self.kernel(k)
        return weight


class _Growth:
    """One growth run: adjacency, kernel-weighted picker, and RNG in lockstep.

    Node i's neighbours are adj[i]; their insertion order is the order the
    picker's masked fallback reads them in. The kernel is tabulated per
    degree, and connect and disconnect reweight u, then v.
    """

    def __init__(self, params: GeneratorParams, kernel: Callable[[int], float]) -> None:
        self.rng = random.Random(params.seed)
        self.kernel_of = _KernelTable(kernel)
        m0 = params.seed_size()
        self.adj: list[set[int]] = [set() for _ in range(m0)]
        for i in range(m0):  # for m0 = 2 the closing edge (1, 0) is a duplicate
            self.adj[i].add((i + 1) % m0)
            self.adj[(i + 1) % m0].add(i)
        self.edge_count = sum(map(len, self.adj)) // 2
        self.picker = WeightedPicker(params.n_target)
        for nbrs in self.adj:
            self.picker.append(self.kernel_of[len(nbrs)])

    def graph(self) -> CsrGraph:
        """The grown graph over nodes 0..n-1, every node kept, edges or not."""
        edges = ((u, v) for u, nbrs in enumerate(self.adj) for v in nbrs if u < v)
        pairs = np.fromiter(chain.from_iterable(edges), np.int64, 2 * self.edge_count)
        return CsrGraph(pairs.reshape(-1, 2), np.arange(len(self.adj)))

    def add_node(self) -> int:
        self.adj.append(set())
        return self.picker.append(0.0)

    def connect(self, u: int, v: int) -> bool:
        nbrs = self.adj[u]
        if u == v or v in nbrs:
            return False
        nbrs.add(v)
        self.adj[v].add(u)
        self.edge_count += 1
        self.picker.set_weight(u, self.kernel_of[len(nbrs)])
        self.picker.set_weight(v, self.kernel_of[len(self.adj[v])])
        return True

    def disconnect(self, u: int, v: int) -> None:
        self.adj[u].remove(v)
        self.adj[v].remove(u)
        self.edge_count -= 1
        self.picker.set_weight(u, self.kernel_of[len(self.adj[u])])
        self.picker.set_weight(v, self.kernel_of[len(self.adj[v])])

    def max_degree(self) -> int:
        return max(map(len, self.adj))

    def pick_distinct(self, count: int) -> list[int]:
        draw = self.picker.draw
        rng = self.rng
        chosen: set[int] = set()
        out: list[int] = []
        for _ in range(count):
            idx = draw(rng, chosen)
            if idx is None:
                break
            chosen.add(idx)
            out.append(idx)
        return out

    def pick_peer(self, anchor: int) -> int | None:
        """Preferential partner for anchor: not anchor, not already linked."""
        nbrs = self.adj[anchor]
        if len(nbrs) >= len(self.adj) - 1:
            return None
        return self.picker.draw(self.rng, nbrs, anchor)


class _Recorder:
    """Collects (N, k_max) the first time node count reaches each checkpoint."""

    def __init__(self, checkpoints: Sequence[int] | None) -> None:
        self.pending = sorted(checkpoints) if checkpoints else []
        self.rows: list[tuple[int, int]] = []

    def __call__(self, growth: _Growth) -> None:
        if not self.pending:
            return
        n = len(growth.adj)
        recorded = None
        while self.pending and n >= self.pending[0]:
            self.pending.pop(0)
            if recorded is None:
                recorded = growth.max_degree()
            self.rows.append((n, recorded))


def _kernel_ba(k: int) -> float:
    return float(k)


def _kernel_ab(k: int) -> float:
    return float(k + 1)


def _make_kernel_glp(beta: float) -> Callable[[int], float]:
    def kernel(k: int) -> float:
        return k - beta if k > 0 else 0.0

    return kernel


def _make_kernel_pfp(delta: float) -> Callable[[int], float]:
    def kernel(k: int) -> float:
        if k <= 0:
            return 0.0
        return k ** (1.0 + delta * math.log10(k))

    return kernel


def _grow_ba(params: GeneratorParams, record: _Recorder) -> _Growth:
    growth = _Growth(params, _kernel_ba)
    record(growth)
    for _ in range(params.n_target - params.seed_size()):
        targets = growth.pick_distinct(params.m)
        node = growth.add_node()
        for t in targets:
            growth.connect(node, t)
        record(growth)
    return growth


def _grow_ab(params: GeneratorParams, record: _Recorder) -> _Growth:
    growth = _Growth(params, _kernel_ab)
    record(growth)
    rng = growth.rng
    adj = growth.adj

    # Uniform edge picks for rewiring need an indexable edge list.
    edge_list: list[tuple[int, int]] = []
    edge_pos: dict[tuple[int, int], int] = {}

    def connect(u: int, v: int) -> None:
        if growth.connect(u, v):
            key = (u, v) if u < v else (v, u)
            edge_pos[key] = len(edge_list)
            edge_list.append(key)

    def disconnect(u: int, v: int) -> None:
        growth.disconnect(u, v)
        key = (u, v) if u < v else (v, u)
        pos = edge_pos.pop(key)
        last = edge_list.pop()
        if pos < len(edge_list):
            edge_list[pos] = last
            edge_pos[last] = pos

    for key in sorted((u, v) for u, nbrs in enumerate(adj) for v in nbrs if u < v):
        edge_pos[key] = len(edge_list)
        edge_list.append(key)

    while len(adj) < params.n_target:
        roll = rng.random()
        if roll < params.p:
            # m new internal links: one uniform end, one preferential end.
            for _ in range(params.m):
                n = len(adj)
                if growth.edge_count >= n * (n - 1) // 2:
                    break
                a = rng.randrange(n)
                while len(adj[a]) >= n - 1:
                    a = rng.randrange(n)
                b = growth.pick_peer(a)
                if b is not None:
                    connect(a, b)
        elif roll < params.p + params.q:
            # m rewires: detach one end of a uniform edge, reattach preferentially.
            for _ in range(params.m):
                if not edge_list:
                    break
                u, v = edge_list[rng.randrange(len(edge_list))]
                kept, detached = (u, v) if rng.random() < 0.5 else (v, u)
                b = growth.pick_peer(kept)
                if b is None:
                    continue
                disconnect(kept, detached)
                connect(kept, b)
        else:
            targets = growth.pick_distinct(params.m)
            node = growth.add_node()
            for t in targets:
                connect(node, t)
            record(growth)
    return growth


def _grow_glp(params: GeneratorParams, record: _Recorder) -> _Growth:
    growth = _Growth(params, _make_kernel_glp(params.beta))
    record(growth)
    rng = growth.rng
    adj = growth.adj
    draw = growth.picker.draw
    while len(adj) < params.n_target:
        if rng.random() < params.p:
            # m new internal links, both endpoints preferential.
            for _ in range(params.m):
                n = len(adj)
                if growth.edge_count >= n * (n - 1) // 2:
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
            targets = growth.pick_distinct(params.m)
            node = growth.add_node()
            for t in targets:
                growth.connect(node, t)
            record(growth)
    return growth


def _grow_pfp(params: GeneratorParams, record: _Recorder) -> _Growth:
    growth = _Growth(params, _make_kernel_pfp(params.delta))
    record(growth)
    rng = growth.rng
    for _ in range(params.n_target - params.seed_size()):
        if rng.random() < params.p:
            # New node joins one host; the host gains two links to peers.
            hosts = growth.pick_distinct(1)
            node = growth.add_node()
            growth.connect(node, hosts[0])
            for _ in range(2):
                peer = growth.pick_peer(hosts[0])
                if peer is None:
                    break
                growth.connect(hosts[0], peer)
        else:
            # New node joins two hosts; the first host gains one peer link.
            hosts = growth.pick_distinct(2)
            node = growth.add_node()
            for h in hosts:
                growth.connect(node, h)
            peer = growth.pick_peer(hosts[0])
            if peer is not None:
                growth.connect(hosts[0], peer)
        record(growth)
    return growth


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
    recorder = _Recorder(checkpoints)
    growth = _GROWERS[params.model](params, recorder)
    return growth.graph(), Trajectory(checkpoints=recorder.rows)
