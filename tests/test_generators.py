import math
import random
import statistics
import weakref
from array import array

import oracles
import pytest

from astopo import (
    AS_MAX,
    CsrGraph,
    GeneratorParams,
    ParameterError,
    degree_ccdf,
    generate,
    generate_with_trajectory,
    powerlaw_exponent,
)
from astopo import generators
from astopo.generators import WeightedPicker, _decode, _Growth, _KernelTable, _links


def kmax(g):
    return int(g.degrees().max())


def is_connected(g):
    return len(g.giant()) == g.node_count


def assert_simple(g):
    rows = g.rows()
    assert (rows != g.indices).all()  # no self-loop
    assert len(set(zip(rows.tolist(), g.indices.tolist()))) == len(rows)  # no parallel arc
    edges = g.edges()
    assert g.has_edges(edges[:, ::-1]).all()  # every edge stored both ways
    assert len(rows) == 2 * len(edges) == 2 * g.edge_count


def kmax_trajectory(params, checkpoints):
    return generate_with_trajectory(params, checkpoints)[1]


def ba(n, seed, m=2, m0=None):
    return GeneratorParams(model="ba", n_target=n, seed=seed, m=m, m0=m0)


def test_param_validation():
    with pytest.raises(ParameterError, match="model"):
        GeneratorParams(model="xx", n_target=10, seed=0).validate()
    with pytest.raises(ParameterError, match="m0"):
        GeneratorParams(model="ba", n_target=10, seed=0, m=4, m0=3).validate()
    with pytest.raises(ParameterError, match="n_target"):
        GeneratorParams(model="ba", n_target=2, seed=0, m=2).validate()
    with pytest.raises(ParameterError, match="p"):
        GeneratorParams(model="glp", n_target=10, seed=0, p=1.5).validate()
    with pytest.raises(ParameterError, match="p \\+ q"):
        GeneratorParams(model="ab", n_target=10, seed=0, p=0.6, q=0.6).validate()
    with pytest.raises(ParameterError, match="beta"):
        GeneratorParams(model="glp", n_target=10, seed=0, beta=1.0).validate()
    with pytest.raises(ParameterError, match="delta"):
        GeneratorParams(model="pfp", n_target=10, seed=0, delta=-0.1).validate()
    # no growth step can ever fire, so the target is unreachable
    with pytest.raises(ParameterError, match="add a node"):
        GeneratorParams(model="ab", n_target=10, seed=0, p=0.0, q=1.0).validate()
    with pytest.raises(ParameterError, match="add a node"):
        GeneratorParams(model="glp", n_target=10, seed=0, p=1.0).validate()


@pytest.mark.parametrize("model", ["ba", "ab", "glp", "pfp"])
def test_n_target_bound_keeps_node_ids_as_numbers(model):
    """Node ids run up to n_target - 1 and are written as AS numbers; only
    validate() runs, since a growth run this size would need a 2**32-slot picker."""
    GeneratorParams(model=model, n_target=AS_MAX + 1, seed=0).validate()
    with pytest.raises(ParameterError, match="n_target"):
        GeneratorParams(model=model, n_target=AS_MAX + 2, seed=0).validate()


def test_glp_beta_bound_keeps_degree_weights_distinct():
    n = 200
    beta = -(2.0**52 - n)  # the top weight n - 1 - beta is 2**52 - 1
    GeneratorParams(model="glp", n_target=n, seed=0, beta=beta).validate()
    assert len({k - beta for k in range(1, n)}) == n - 1
    with pytest.raises(ParameterError, match="beta"):
        GeneratorParams(model="glp", n_target=n, seed=0, beta=beta - 1.0).validate()


def test_ba_seed_only_returns_ring():
    g = generate(ba(3, seed=0, m=2, m0=3))
    assert g.edges().tolist() == [[0, 1], [0, 2], [1, 2]]


def test_ba_edge_bookkeeping():
    g = generate(ba(100, seed=1, m=2))
    assert g.node_count == 100
    assert g.edge_count == 3 + 2 * 97
    assert is_connected(g)
    assert_simple(g)


def test_ba_determinism():
    a = generate(ba(500, seed=42))
    b = generate(ba(500, seed=42))
    c = generate(ba(500, seed=43))
    assert a.edges().tolist() == b.edges().tolist()
    assert a.edges().tolist() != c.edges().tolist()


def test_ba_exponent_near_three():
    rs = []
    for seed in range(5):
        g = generate(ba(5000, seed=seed))
        rs.append(powerlaw_exponent(degree_ccdf(g), k_min=2))
    assert 2.7 <= statistics.fmean(rs) <= 3.3


def test_weighted_picker_tracks_weights():
    picker = WeightedPicker(4)
    for w in (1.0, 2.0, 3.0, 0.0):
        picker.append(w)
    assert picker.total() == 6.0
    rng = random.Random(0)
    counts = [0, 0, 0, 0]
    for _ in range(30_000):
        counts[picker.sample(rng)] += 1
    assert counts[3] == 0
    for i, expected in enumerate((1 / 6, 2 / 6, 3 / 6)):
        freq = counts[i] / 30_000
        assert abs(freq - expected) < 4 * math.sqrt(expected * (1 - expected) / 30_000)
    picker.set_weight(1, 0.0)
    assert picker.total() == 4.0
    assert picker.sample_excluding(rng, [0, 2]) is None or picker.weight(
        picker.sample_excluding(rng, [0, 2])
    ) > 0


def test_preferential_frequencies_match_kernel():
    # A hub with two short tails, rewired out of the seed ring 0-1-2-3-4-5-6-0.
    params = ba(7, seed=9, m0=7)
    growth = _Growth(params)
    for kept, detached, b in [(3, 2, 0), (4, 5, 0), (2, 1, 0)]:
        key = min(kept, detached) * 7 + max(kept, detached)
        growth.rewire(growth.edges.index(key), kept, detached, b)
    assert sorted(divmod(packed, 7) for packed in growth.edges) == [
        (0, 1), (0, 2), (0, 3), (0, 4), (0, 6), (3, 4), (5, 6)
    ]
    degs = {u: len(nbrs) for u, nbrs in enumerate(growth.adj)}
    assert degs == {0: 5, 1: 1, 2: 1, 3: 2, 4: 2, 5: 1, 6: 2}
    assert all(growth.picker.weight(u) == d for u, d in degs.items())
    total = sum(degs.values())
    assert growth.picker.total() == total
    rng = random.Random(123)
    n_draws = 40_000
    counts = {u: 0 for u in degs}
    for _ in range(n_draws):
        counts[growth.picker.sample(rng)] += 1
    for u, d in degs.items():
        expected = d / total
        freq = counts[u] / n_draws
        assert abs(freq - expected) < 4 * math.sqrt(expected * (1 - expected) / n_draws)


def test_edge_record_decodes_the_top_key():
    # At n_target = 2**32 the last pair packs into a key past 2**63: a decode
    # that stepped through int64 or float64 would move or lose its ends.
    top = AS_MAX
    graph = _decode(array("Q", [(top - 1) * (top + 1) + top]), top + 1, 3)
    assert graph.edges().tolist() == [[top - 1, top]]
    assert graph.labels.tolist() == [0, 1, 2, top - 1, top]


@pytest.mark.parametrize("model", generators.MODELS)
def test_growth_state_is_freed_before_the_csr_build(monkeypatch, model):
    # The neighbour sets and the sampler would otherwise stay alive while the
    # CSR build allocates, raising the run's peak memory.
    runs = []
    init = _Growth.__init__

    def tracked(self, *args):
        init(self, *args)
        runs.append(weakref.ref(self))

    built = []
    build = generators.CsrGraph

    def checked(*args):
        built.append([run() is None for run in runs])
        return build(*args)

    monkeypatch.setattr(_Growth, "__init__", tracked)
    monkeypatch.setattr(generators, "CsrGraph", checked)
    g = generate(GeneratorParams(model=model, n_target=60, seed=2, p=0.2, q=0.2))
    assert g.node_count == 60
    assert built == [[True]]


def test_link_tables_are_kept_for_the_last_capacity_only():
    _links.cache_clear()
    for n in (50, 60):
        generate(ba(n, seed=1))
    info = _links.cache_info()
    assert info.currsize == 1
    _links(60)
    assert _links.cache_info().hits == info.hits + 1


def test_ab_reduces_to_ba_bookkeeping():
    g = generate(GeneratorParams(model="ab", n_target=500, seed=3, m=2, p=0.0, q=0.0))
    assert g.node_count == 500
    assert g.edge_count == 3 + 2 * 497
    assert_simple(g)


def test_ab_rewiring_conserves_nodes_and_edges():
    g = generate(GeneratorParams(model="ab", n_target=400, seed=5, m=1, p=0.0, q=0.5))
    assert g.node_count == 400
    assert g.edge_count == 3 + 397  # rewires move edges, never create or destroy
    assert_simple(g)


def test_ab_q1_accepted_at_seed_size():
    g = generate(GeneratorParams(model="ab", n_target=3, seed=0, p=0.0, q=1.0))
    assert g.edges().tolist() == [[0, 1], [0, 2], [1, 2]]


def test_ab_mixed_run_stays_simple():
    g = generate(GeneratorParams(model="ab", n_target=2000, seed=7, m=2, p=0.2, q=0.3))
    assert g.node_count == 2000
    assert_simple(g)


def test_glp_pure_growth_bookkeeping():
    g = generate(GeneratorParams(model="glp", n_target=300, seed=2, m=2, p=0.0, beta=0.5))
    assert g.edge_count == 3 + 2 * 297
    assert is_connected(g)
    assert_simple(g)


def kernel(model, **params):
    return _KernelTable(GeneratorParams(model=model, n_target=100, seed=0, **params))


def test_glp_beta_zero_kernel_matches_ba():
    glp, ba_ = kernel("glp", beta=0.0), kernel("ba")
    assert all(glp[k] == ba_[k] for k in range(1, 20))


def test_glp_reference_params_beat_ba_max_degree():
    glp_k, ba_k = [], []
    for seed in range(10):
        glp_k.append(
            kmax(generate(GeneratorParams(
                model="glp", n_target=10_000, seed=seed, m=2, p=0.4695, beta=0.6447)))
        )
        ba_k.append(kmax(generate(ba(10_000, seed=seed))))
    assert statistics.median(glp_k) > statistics.median(ba_k)


def test_pfp_delta_zero_kernel_is_linear():
    pfp = kernel("pfp", delta=0.0)
    assert all(pfp[k] == float(k) for k in range(1, 20))


def test_pfp_stays_simple_and_connected():
    g = generate(GeneratorParams(model="pfp", n_target=3000, seed=11, p=0.4, delta=0.021))
    assert g.node_count == 3000
    assert is_connected(g)
    assert_simple(g)


def test_ab_kernel_shift():
    ab = kernel("ab")
    assert ab[0] == 1.0 and ab[3] == 4.0


def test_trajectory_deterministic():
    params = GeneratorParams(model="pfp", n_target=2000, seed=4, p=0.4, delta=0.021)
    t1 = kmax_trajectory(params, [100, 1000, 2000])
    t2 = kmax_trajectory(params, [100, 1000, 2000])
    assert t1.checkpoints == t2.checkpoints


def test_trajectory_seed_checkpoint():
    t = kmax_trajectory(ba(100, seed=0, m=2, m0=5), [5, 100])
    assert t.checkpoints[0] == (5, 2)  # ring seed: every degree is 2


def test_trajectory_ba_strictly_increasing():
    t = kmax_trajectory(ba(10_000, seed=1), [100, 1000, 10_000])
    ks = [k for _, k in t.checkpoints]
    assert ks == sorted(ks) and len(set(ks)) == len(ks)


def test_trajectory_checkpoint_validation():
    with pytest.raises(ParameterError, match="ascending"):
        kmax_trajectory(ba(100, seed=0), [50, 50])
    with pytest.raises(ParameterError, match="n_target"):
        kmax_trajectory(ba(100, seed=0), [200])
    # the ring seed already has m0 nodes, so no row can be recorded below m0
    with pytest.raises(ParameterError, match="checkpoint -5 is below the seed size m0=3"):
        kmax_trajectory(ba(100, seed=0), [-5, 3, 10])
    with pytest.raises(ParameterError, match="checkpoint 0 is below"):
        kmax_trajectory(ba(100, seed=0), [0, 100])
    with pytest.raises(ParameterError, match="checkpoint 4 is below the seed size m0=5"):
        kmax_trajectory(ba(100, seed=0, m0=5), [4, 100])


def test_trajectory_csv():
    t = kmax_trajectory(ba(50, seed=0), [10, 50])
    lines = t.to_csv().splitlines()
    assert lines[0] == "N,k_max"
    assert len(lines) == 3


def test_generate_dispatch():
    g = generate(ba(50, seed=6))
    assert g.node_count == 50


@pytest.mark.parametrize("model", generators.MODELS)
def test_entry_points_return_csr_graph(model):
    params = GeneratorParams(model=model, n_target=60, seed=2, p=0.2, q=0.2, beta=0.5, delta=0.02)
    graph, _ = generate_with_trajectory(params, [60])
    assert type(graph) is CsrGraph
    graph = generate(params)
    assert type(graph) is CsrGraph and graph.labels.tolist() == list(range(60))


# Corners of the growth loop that the differential check must cover.
REFERENCE_CASES = {
    "ba_m0_2_duplicate_ring_edge": dict(model="ba", n_target=400, m=2, m0=2),
    "ba_m1": dict(model="ba", n_target=400, m=1),
    "ab_bench": dict(model="ab", n_target=1500, m=2, p=0.2, q=0.1),
    "ab_m1_m0_2": dict(model="ab", n_target=400, m=1, m0=2, p=0.3, q=0.3),
    "ab_p0": dict(model="ab", n_target=400, m=2, p=0.0, q=0.4),
    "ab_q_near_1_minus_p": dict(model="ab", n_target=60, m=2, p=0.3, q=0.69),
    "glp_bench": dict(model="glp", n_target=1500, m=2, p=0.4, beta=0.6),
    "glp_p0": dict(model="glp", n_target=400, m=2, p=0.0, beta=0.5),
    "glp_beta_negative": dict(model="glp", n_target=400, m=1, p=0.6, beta=-2.0),
    "pfp_bench": dict(model="pfp", n_target=1500, p=0.4, delta=0.021),
    "pfp_delta0": dict(model="pfp", n_target=400, p=0.4, delta=0.0),
    "pfp_p0": dict(model="pfp", n_target=400, p=0.0, delta=0.05),
    # The picker's capacity is n_target: a power of two, then one past it,
    # where the draw's descent starts at cell 512 and skips cells past 513.
    "ba_n512": dict(model="ba", n_target=512, m=2),
    "ba_n513": dict(model="ba", n_target=513, m=2),
}


def picker_cells(picker):
    """Every Fenwick cell and weight, bit for bit."""
    return [x.hex() for x in picker._tree], [x.hex() for x in picker._weights]


def assert_matches_reference(params, checkpoints):
    graph, trajectory = generate_with_trajectory(params, checkpoints)
    reference, ref_rows = oracles.grow_reference_run(params, checkpoints)
    assert graph.edges().tolist() == sorted(map(list, reference.g.edges()))
    assert graph.labels.tolist() == list(reference.g.nodes())
    assert graph.edge_count == reference.g.edge_count
    assert trajectory.checkpoints == ref_rows
    # Float drift from masking shows in the tree cells long before it moves an edge.
    growth = _Growth(params)
    generators._GROWERS[params.model](growth, params)
    # The record holds each edge once: linking a linked pair would add a key the graph drops.
    assert len(growth.edges) == graph.edge_count
    assert picker_cells(growth.picker) == picker_cells(reference.picker)


@pytest.mark.parametrize("name", sorted(REFERENCE_CASES))
# Under seed 8 the masked draws of glp_bench and pfp_bench leave cell residue
# that depends on the order of the mask and unmask writes.
@pytest.mark.parametrize("seed", [3, 8])
def test_growth_matches_reference(name, seed):
    params = GeneratorParams(seed=seed, **REFERENCE_CASES[name])
    m0 = params.seed_size()
    assert_matches_reference(params, [m0, (m0 + params.n_target) // 2, params.n_target])


@pytest.mark.parametrize(
    "name", sorted(name for name, case in REFERENCE_CASES.items() if case["n_target"] <= 600)
)
@pytest.mark.parametrize("seed", [3, 8])
def test_trajectory_matches_reference_at_every_n(name, seed):
    # A row at every node count pins where each step records: after the
    # growth step that reaches N, PFP's peer links included.
    params = GeneratorParams(seed=seed, **REFERENCE_CASES[name])
    checkpoints = range(params.seed_size(), params.n_target + 1)
    _, trajectory = generate_with_trajectory(params, checkpoints)
    assert trajectory.checkpoints == oracles.grow_reference(params, checkpoints)[1]


def test_reference_case_strands_nodes():
    # Rewiring leaves these nodes without edges; test_growth_matches_reference
    # checks that the CsrGraph still lists them, as the reference graph does.
    for seed in (3, 8):
        graph = generate(GeneratorParams(seed=seed, **REFERENCE_CASES["ab_m1_m0_2"]))
        assert (graph.degrees() == 0).any()


def test_picker_total_follows_zero_weight_append():
    # Seven weights of 0.1 sum to 0.7000000000000001 along the prefix path
    # of size 7 (cells 7, 6, 4) and to 0.7 in cell 8, the path of size 8.
    # Appending weight 0 moves the path, so the cached total must go.
    picker = WeightedPicker(8)
    for _ in range(7):
        picker.append(0.1)
    assert picker.total() == 0.7000000000000001
    picker.append(0.0)
    assert picker.total() == 0.7 == oracles.WeightedPicker.total(picker)


@pytest.mark.parametrize("picker_class", [WeightedPicker, oracles.WeightedPicker])
def test_picker_draws_none_when_only_residue_is_left(picker_class):
    # Tree cell 2 holds 0.1 + 0.2 = 0.30000000000000004; taking both weights
    # back out leaves 2**-55 there, a positive total with no live slot.
    picker = picker_class(4)
    picker.append(0.1)
    picker.append(0.2)
    rng = random.Random(1)
    assert picker.sample_excluding(rng, [0, 1]) is None
    assert picker.total() == 0.30000000000000004
    picker.set_weight(0, 0.0)
    picker.set_weight(1, 0.0)
    assert picker.total() == 2**-55
    assert picker.sample(rng) is None
    if picker_class is WeightedPicker:
        assert picker.draw(rng, {0}, 1) is None


class _FixedRandom:
    """A stand-in RNG whose every draw is the same value."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


@pytest.mark.parametrize("picker_class", [WeightedPicker, oracles.WeightedPicker])
def test_picker_moves_down_from_masked_last_slot(picker_class):
    # Tree cell 2 holds 0.1 + 0.2 - 0.2 = 0.10000000000000003 once slot 1 is
    # zeroed, so a draw near the top of the total passes cell 1's 0.1 and
    # lands on slot 1. No live slot lies above it; the search turns down.
    picker = picker_class(2)
    picker.append(0.1)
    picker.append(0.2)
    picker.set_weight(1, 0.0)
    assert picker._tree[2] == 0.10000000000000003
    assert picker.sample(_FixedRandom(0.9999999999999999)) == 0


@pytest.mark.parametrize("picker_class", [WeightedPicker, oracles.WeightedPicker])
def test_picker_append_past_capacity_raises(picker_class):
    picker = picker_class(2)
    picker.append(1.0)
    picker.append(1.0)
    with pytest.raises(ParameterError, match="capacity"):
        picker.append(1.0)
    assert picker.size == 2


LINK_CAPACITIES = [*range(1, 258), 1023, 1024, 1025, 20000]


def stride_chain(j, cap, sign):
    """The cells after j on a stride loop: j += j & -j up to cap, or j -= j & -j down to 0."""
    chain = []
    while True:
        j += sign * (j & -j)
        if not 0 < j <= cap:
            return chain
        chain.append(j)


def link_chain(j, links):
    """The cells after j on a walk of links, cut after len(links).bit_length()
    of them, so that a cycle fails the comparison rather than hanging."""
    chain = []
    while links[j] and len(chain) < len(links).bit_length():
        j = links[j]
        chain.append(j)
    return chain


def stride_descent(cap, take):
    """The cells the stride descent compares, and where it ends, taking cell c when take(c)."""
    compared, pos = [], 0
    step = 1 << (cap.bit_length() - 1)
    while step:
        nxt = pos + step
        if nxt <= cap:
            compared.append(nxt)
            if take(nxt):
                pos = nxt
        step >>= 1
    return compared, pos


def link_descent(cap, take):
    _, _, hi, lo = _links(cap)
    compared, pos = [], 0
    c = 1 << (cap.bit_length() - 1)
    while c and len(compared) <= cap.bit_length():
        compared.append(c)
        if take(c):
            pos, c = c, hi[c]
        else:
            c = lo[c]
    return compared, pos


@pytest.mark.parametrize("cap", LINK_CAPACITIES)
def test_links_follow_the_stride_loops(cap):
    up, down, hi, lo = _links(cap)
    assert len(up) == len(down) == len(hi) == len(lo) == cap + 1
    for j in range(1, cap + 1):
        assert link_chain(j, up) == stride_chain(j, cap, 1)
        assert link_chain(j, down) == stride_chain(j, cap, -1)
    # Taking every cell up to target steers the descent to target, so each
    # cell is both taken and passed on some walk.
    for target in range(cap + 1):
        take = target.__ge__
        assert link_descent(cap, take) == stride_descent(cap, take)


@pytest.mark.parametrize("cap", LINK_CAPACITIES)
def test_picker_draws_match_reference_at_every_capacity(cap):
    ops = random.Random(cap)
    for size in sorted({cap // 2 + 1, cap}):
        picker, reference = WeightedPicker(cap), oracles.WeightedPicker(cap)
        for _ in range(size):
            weight = ops.choice([0.0, ops.random(), float(ops.randrange(1, 9))])
            picker.append(weight)
            reference.append(weight)
        assert picker_cells(picker) == picker_cells(reference)
        assert picker.total() == reference.total()
        for value in (0.0, 0.5, 0.9999999999999999):
            assert picker.sample(_FixedRandom(value)) == reference.sample(_FixedRandom(value))


def outcome(call, *args):
    """call(*args), or the type of the error it raises."""
    try:
        return call(*args)
    except Exception as exc:
        return type(exc)


def test_picker_matches_reference_picker():
    # Random appends (weight 0 included), weight changes, plain and masked
    # draws, on a capacity that is not a power of two.
    ops = random.Random(17)
    picker, reference = WeightedPicker(37), oracles.WeightedPicker(37)
    rng, ref_rng = random.Random(4), random.Random(4)
    for _ in range(3000):
        op = ops.random()
        if op < 0.15 and picker.size < 37:
            weight = ops.choice([0.0, ops.random(), ops.uniform(1, 1e6), float(ops.randrange(9))])
            assert picker.append(weight) == reference.append(weight)
        elif op < 0.5 and picker.size:
            i, weight = ops.randrange(picker.size), ops.choice([0.0, ops.random() * 50])
            picker.set_weight(i, weight)
            reference.set_weight(i, weight)
        elif op < 0.8:
            assert outcome(picker.sample, rng) == outcome(reference.sample, ref_rng)
        elif picker.size:
            masked = ops.sample(range(picker.size), ops.randrange(1, picker.size + 1))
            assert outcome(picker.sample_excluding, rng, masked) == outcome(
                reference.sample_excluding, ref_rng, masked
            )
        assert picker.total() == reference.total()
    assert picker_cells(picker) == picker_cells(reference)


def test_growth_matches_reference_through_masked_draws(monkeypatch):
    # A hub whose kernel dwarfs every other weight by far more than 2**53:
    # peer draws next to it miss 32 times and fall back to the masked draw,
    # masking the hub leaves float residue in the tree cells, and one draw
    # lands on a masked slot and moves to the nearest live one.
    calls = {"sample_excluding": 0, "_nearest_live": 0}
    for name in calls:
        method = getattr(WeightedPicker, name)

        def counted(self, *args, _name=name, _method=method):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(WeightedPicker, name, counted)
    params = GeneratorParams(model="pfp", n_target=20, seed=10, p=0.5, delta=50.0)
    assert_matches_reference(params, [3, 10, 20])
    assert calls["sample_excluding"] > 0
    assert calls["_nearest_live"] > 0
