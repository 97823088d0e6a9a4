"""Color refinement on dynamic graphs: fixtures, file format, the
soundness/monotonicity property suites, and the per-cell reference loop
the array refinement is checked against."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectemp import temporal_wl
from spectemp.errors import DataError, ParameterError, ShapeError
from spectemp.temporal_wl import (DTDG, WLReport, check_spectral_conditions,
                                  distinguishable, fixture_path, format_dtdg,
                                  init_colors, parse_dtdg, read_dtdg,
                                  refine_step, refine_to_stable, wl_test,
                                  write_dtdg)


def random_dtdg(rng, max_nodes=8, max_steps=4, with_features=False):
    n = int(rng.integers(2, max_nodes + 1))
    t = int(rng.integers(1, max_steps + 1))
    edges = []
    for _ in range(t):
        snapshot = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.4:
                    snapshot.append((u, v))
        edges.append(tuple(snapshot))
    features = None
    if with_features:
        features = rng.integers(0, 3, size=(n, t, 1)).astype(float)
    return DTDG(n, tuple(edges), features)


def partition_of(colors):
    """Map color ids to frozen node-index sets, one partition per snapshot."""
    parts = []
    for t in range(colors.shape[1]):
        groups = {}
        for v, c in enumerate(colors[:, t]):
            groups.setdefault(int(c), set()).add(v)
        parts.append(frozenset(frozenset(g) for g in groups.values()))
    return parts


def refines(finer, coarser):
    """Every cell of `finer` sits inside one cell of `coarser`."""
    return all(any(cell <= big for big in coarse)
               for fine, coarse in zip(finer, coarser) for cell in fine)


# ---------------------------------------------------------------------------
# reference refinement: one palette lookup per (node, time) cell
# ---------------------------------------------------------------------------
#
# Keys are nested tuples and cells are visited t-major, so palette ids are
# assigned in first-occurrence order. `init_colors`/`refine_step` must give
# the same colors and palette sizes bitwise on every round.

def reference_neighbor_lists(graph, t):
    out = [[] for _ in range(graph.n_nodes)]
    for u, v in graph.edges[t]:
        out[u].append(v)
        out[v].append(u)
    return out


def reference_palette_id(palette, key):
    if key not in palette:
        palette[key] = len(palette)
    return palette[key]


def reference_init_colors(graph, palette):
    n, t = graph.n_nodes, graph.n_steps
    colors = np.zeros((n, t), dtype=np.int64)
    for step in range(t):
        for v in range(n):
            if graph.features is None:
                key = ("feat", ())
            else:
                key = ("feat", tuple(int(round(x / 1e-9))
                                     for x in graph.features[v, step]))
            colors[v, step] = reference_palette_id(palette, key)
    return colors


def reference_refine_step(graph, colors, palette):
    n, t = colors.shape
    new_colors = np.zeros_like(colors)
    for step in range(t):
        neighbors = reference_neighbor_lists(graph, step)
        for v in range(n):
            multiset = tuple(sorted(colors[u, step] for u in neighbors[v]))
            if step == 0:
                key = ("ref", int(colors[v, step]), multiset)
            else:
                key = ("ref", int(colors[v, step]), int(colors[v, step - 1]), multiset)
            new_colors[v, step] = reference_palette_id(palette, key)
    return new_colors


def reference_wl_test(g1, g2, steps=None):
    """wl_test's verdict rule over the reference loop."""
    cap = g1.n_nodes * g1.n_steps if steps is None else steps
    palette = {}
    c1 = reference_init_colors(g1, palette)
    c2 = reference_init_colors(g2, palette)

    def end(colors):
        return sorted(colors[:, -1].tolist())

    if end(c1) != end(c2):
        return ("non_isomorphic", 0, 0)
    for round_index in range(1, cap + 1):
        before = len(np.unique(np.concatenate([c1.ravel(), c2.ravel()])))
        c1 = reference_refine_step(g1, c1, palette)
        c2 = reference_refine_step(g2, c2, palette)
        if end(c1) != end(c2):
            return ("non_isomorphic", round_index, round_index)
        if len(np.unique(np.concatenate([c1.ravel(), c2.ravel()]))) == before:
            return ("inconclusive", round_index, None)
    return ("inconclusive", cap, None)


def assert_matches_reference(graphs, rounds):
    """Refine `graphs` (one graph alone, several together as wl_test
    does) and compare with the reference, run graph by graph on one
    palette, after init and after every round."""
    joint = graphs[0] if len(graphs) == 1 else tuple(graphs)
    reference = {}
    state = init_colors(joint)
    expected = [reference_init_colors(g, reference) for g in graphs]
    for round_index in range(rounds + 1):
        if round_index:
            state = refine_step(joint, state)
            expected = [reference_refine_step(g, colors, reference)
                        for g, colors in zip(graphs, expected)]
        assert state.colors.dtype == np.int64
        assert np.array_equal(state.colors,
                              expected[0] if len(graphs) == 1 else np.stack(expected))
        assert len(state.palette) == len(reference)


def oracle_dtdg(rng, n, t, density, features=None):
    """One snapshot per entry of `density` cycling; 0 gives an empty
    snapshot, 1 a complete one."""
    snapshots = []
    for step in range(t):
        p = density[step % len(density)]
        snapshots.append(tuple((u, v) for u in range(n) for v in range(u + 1, n)
                               if rng.random() < p))
    return DTDG(n, tuple(snapshots), features)


def test_refinement_matches_reference_loop_random_graphs():
    rng = np.random.default_rng(110)
    for trial in range(150):
        g = random_dtdg(rng, max_nodes=10, max_steps=5, with_features=bool(trial % 2))
        assert_matches_reference([g], rounds=g.n_nodes * g.n_steps // 2 + 2)


def test_refinement_matches_reference_loop_edge_cases():
    rng = np.random.default_rng(111)
    cases = [
        DTDG(1, ((),)),                                    # one cell
        DTDG(5, ((), (), ())),                             # every snapshot empty
        DTDG(4, (((0, 1),),)),                             # T = 1, isolated nodes
        oracle_dtdg(rng, 9, 6, (0.0, 0.3, 1.0, 0.5)),     # empty and complete snapshots
        oracle_dtdg(rng, 7, 1, (0.5,), rng.integers(0, 2, size=(7, 1, 2)).astype(float)),
        # continuous, repeated and signed-zero features
        oracle_dtdg(rng, 8, 4, (0.3, 0.0),
                    rng.choice([-0.0, 0.0, 1.5e-9, -2.5e-9, 0.1, 1e12, 7.3e15],
                               size=(8, 4, 3))),
        oracle_dtdg(rng, 6, 3, (0.6,), rng.standard_normal((6, 3, 1))),
    ]
    for g in cases:
        assert_matches_reference([g], rounds=g.n_nodes * g.n_steps + 1)


def test_shared_palette_matches_reference_across_max_degrees():
    # a star (max degree 7) and a path (max degree 2) refined against one
    # palette: keys must not depend on how wide a graph pads its rows
    star = tuple((0, v) for v in range(1, 8))
    path = tuple((v, v + 1) for v in range(7))
    rng = np.random.default_rng(112)
    pairs = [(DTDG(8, (star, path, ())), DTDG(8, (path, path, star))),
             (DTDG(8, (path,)), DTDG(8, (star,)))]
    for _ in range(20):
        n, t = int(rng.integers(3, 10)), int(rng.integers(1, 5))
        feats = rng.integers(0, 2, size=(n, t, 1)).astype(float)
        pairs.append((oracle_dtdg(rng, n, t, (0.2,), feats),
                      oracle_dtdg(rng, n, t, (0.8,), feats[::-1])))
    for g1, g2 in pairs:
        assert_matches_reference([g1, g2], rounds=g1.n_nodes * g1.n_steps + 1)


def test_wl_test_reports_match_reference():
    rng = np.random.default_rng(113)
    for trial in range(120):
        g = random_dtdg(rng, max_nodes=9, max_steps=4, with_features=bool(trial % 3))
        other = (g.permuted(rng.permutation(g.n_nodes)) if trial % 2
                 else oracle_dtdg(rng, g.n_nodes, g.n_steps, (0.4,), g.features))
        for steps in (None, 1):
            report = wl_test(g, other, steps)
            assert ((report.verdict, report.rounds, report.diverged_at)
                    == reference_wl_test(g, other, steps)), trial


def test_mixed_feature_pairs_match_reference():
    # init dedupes the feature rows of both graphs together, grouped by
    # width: a featureless graph (rows of the tag alone) against a featured
    # one, and D=1 against D=2 features, must keep their colors apart
    rng = np.random.default_rng(116)
    for trial in range(30):
        n, t = int(rng.integers(2, 8)), int(rng.integers(1, 4))
        one = rng.integers(0, 2, size=(n, t, 1)).astype(float)
        two = np.concatenate([one, rng.integers(0, 2, size=(n, t, 1))], axis=2)
        plain = oracle_dtdg(rng, n, t, (0.4,))
        pairs = [(plain, DTDG(n, plain.edges, one)),
                 (DTDG(n, plain.edges, two), plain),
                 (DTDG(n, plain.edges, one), oracle_dtdg(rng, n, t, (0.4,), two))]
        for g1, g2 in pairs:
            assert_matches_reference([g1, g2], rounds=3)
            for steps in (None, 1):
                report = wl_test(g1, g2, steps)
                assert ((report.verdict, report.rounds, report.diverged_at)
                        == reference_wl_test(g1, g2, steps)), trial


def with_hub(graph, hub=0, steps=None):
    """`graph` with node `hub` joined to every other node in `steps`
    (default: every snapshot)."""
    steps = range(graph.n_steps) if steps is None else steps
    spokes = {(min(hub, v), max(hub, v)) for v in range(graph.n_nodes) if v != hub}
    return DTDG(graph.n_nodes,
                tuple(tuple(set(snap) | spokes) if t in steps else snap
                      for t, snap in enumerate(graph.edges)),
                graph.features)


def test_hub_graphs_match_reference():
    # one high-degree cell beside many low-degree ones, alone and against a
    # graph without a hub on one shared palette
    rng = np.random.default_rng(115)
    for trial in range(12):
        n, t = int(rng.integers(20, 60)), int(rng.integers(1, 5))
        feats = rng.integers(0, 2, size=(n, t, 1)).astype(float) if trial % 2 else None
        plain = oracle_dtdg(rng, n, t, (0.05, 0.0, 0.1), feats)
        hubbed = with_hub(plain, int(rng.integers(n)), steps=range(0, t, 2))
        assert_matches_reference([hubbed], rounds=4)
        assert_matches_reference([plain, hubbed], rounds=4)
        report = wl_test(hubbed, hubbed.permuted(rng.permutation(n)))
        assert ((report.verdict, report.rounds, report.diverged_at)
                == reference_wl_test(hubbed, hubbed.permuted(rng.permutation(n))))


def test_hand_built_state_refines_as_reference():
    # a state made by hand: the default palette, and colors with gaps that
    # start at 0, above 0 or below 0 (a color of -1 is not "no previous"),
    # or that span the whole int64 range
    rng = np.random.default_rng(118)
    for trial in range(50):
        g = random_dtdg(rng, max_nodes=9, max_steps=4)
        shades = [(0, 1), (0, 3, 9), (5, 6, 40), (-4, -1, 2),
                  (-2 ** 63, 0, 2 ** 62, 2 ** 63 - 1)][trial % 5]
        colors = rng.choice(shades, size=(g.n_nodes, g.n_steps))
        refined = refine_step(g, temporal_wl.ColoringState(colors, len(np.unique(colors))))
        expected = reference_refine_step(g, colors, {})
        assert np.array_equal(refined.colors, expected), trial
        assert refined.palette == range(len(np.unique(expected)))


def test_refine_step_rejects_a_malformed_state():
    # N=2, T=3: a (3, 2) grid was misread as (2, 3), a (4, 2) one failed
    # to reshape, and float colors reached np.bincount
    g = DTDG(2, (((0, 1),), (), ((0, 1),)))
    for colors in (np.zeros((3, 2), dtype=np.int64), np.zeros((4, 2), dtype=np.int64)):
        with pytest.raises(ShapeError, match=r"\(2, 3\)"):
            refine_step(g, temporal_wl.ColoringState(colors, 1))
    with pytest.raises(ShapeError, match=r"\(1, 2, 3\)"):
        refine_step((g,), temporal_wl.ColoringState(np.zeros((2, 3), dtype=np.int64), 1))
    square = DTDG(2, (((0, 1),), ()))
    with pytest.raises(ParameterError, match="integer array"):
        refine_step(square, temporal_wl.ColoringState(np.array([[0.2, 0.2], [0.7, 0.7]]), 2))


def test_colors_of_any_integer_dtype_refine_as_int64():
    rng = np.random.default_rng(126)
    for trial in range(20):
        g = random_dtdg(rng, max_nodes=7, max_steps=4)
        colors = rng.integers(0, 3, size=(g.n_nodes, g.n_steps))
        if trial % 2:
            colors -= 2 ** 31 - 2  # near the bottom of int32
        expected = refine_step(g, temporal_wl.ColoringState(colors, 3))
        dtypes = (np.int32,) if trial % 2 else (np.uint8, np.uint64, np.int16, np.int32)
        for dtype in dtypes:
            refined = refine_step(g, temporal_wl.ColoringState(colors.astype(dtype), 3))
            assert np.array_equal(refined.colors, expected.colors), (trial, dtype)
            assert (refined.n_colors, refined.palette) == (expected.n_colors, expected.palette)


# ---------------------------------------------------------------------------
# reference dedupe: np.unique over each block's rows viewed as void bytes
# ---------------------------------------------------------------------------

def reference_assign_ids(groups, size, issued):
    """Ids by first occurrence from one byte-compared np.unique per block;
    blocks must have distinct widths."""
    first, inverses, count = [], [], 0
    for cells, rows in groups:
        void = np.dtype((np.void, rows.itemsize * rows.shape[1]))
        _, at, inverse = np.unique(np.ascontiguousarray(rows).view(void).ravel(),
                                   return_index=True, return_inverse=True)
        inverses.append((cells, inverse.ravel() + count))
        count += at.size
        first.append(cells[at])
    by_key = np.empty(count, dtype=np.int64)
    by_key[np.argsort(np.concatenate(first))] = np.arange(issued, issued + count)
    out = np.empty(size, dtype=np.int64)
    for cells, inverse in inverses:
        out[cells] = by_key[inverse]
    return out, count


def lead_and_number(groups, size, issued, radix):
    """Ids of the ``size`` cells that ``groups`` cover, and the number of
    distinct keys, as ``init_colors`` makes them."""
    leader = np.empty(size, dtype=np.int64)
    temporal_wl._lead(groups, leader, radix)
    return temporal_wl._number(leader, issued)


@pytest.mark.parametrize("values", [1, 2, 2 ** 31 - 2])
def test_key_fold_matches_void_row_dedupe(values):
    # digits take `values` values, 1..values (radix values + 1): one value
    # makes every row of a block equal, 2**31 - 2 leaves two digits per
    # number, so a row is ranked at every level. Widths run from 1 to past
    # 600, and rows repeat: each block draws from a small pool of rows.
    rng = np.random.default_rng(119)
    widths = (1, 2, 3, 4, 5, 7, 31, 62, 63, 64, 601, 640)
    for trial in range(6):
        sizes = rng.integers(1, 60, size=len(widths))
        cells = np.split(rng.permutation(int(sizes.sum())), np.cumsum(sizes)[:-1])
        groups = []
        for width, mine in zip(widths, cells):
            pool = rng.integers(1, values + 1, size=(int(rng.integers(1, 8)), width))
            groups.append((np.sort(mine), pool[rng.integers(len(pool), size=mine.size)]))
        issued = int(rng.integers(0, 1000))
        ids, count = lead_and_number(groups, int(sizes.sum()), issued, values + 1)
        expected, expected_count = reference_assign_ids(groups, int(sizes.sum()), issued)
        assert np.array_equal(ids, expected), (values, trial)
        assert count == expected_count


def test_key_fold_tells_rows_of_different_widths_apart():
    # Rows of 2 and 3 full numbers, all but the last the smallest number of
    # the level. They rank alike, so the next level's rows are (a, b) and
    # (a, a, b); only ranks counted from 1 keep a from reading as nothing.
    for radix, step in ((2 ** 31 - 1, 2), (3, 31)):
        groups = [(np.array([0]), np.array([[1] * (2 * step - 1) + [2]])),
                  (np.array([1]), np.array([[1] * (3 * step - 1) + [2]]))]
        ids, count = lead_and_number(groups, 2, 0, radix)
        assert (ids.tolist(), count) == ([0, 1], 2), radix


def test_key_fold_keeps_equally_wide_blocks_together():
    # rows of one width split over two blocks are still one key space:
    # equal rows in different blocks share an id
    rng = np.random.default_rng(120)
    rows = rng.integers(1, 4, size=(50, 9))  # row c belongs to cell c
    split = rng.permutation(50)
    halves = [(np.sort(part), rows[np.sort(part)]) for part in (split[:20], split[20:])]
    ids, count = lead_and_number(halves, 50, 7, 4)
    expected, expected_count = reference_assign_ids([(np.arange(50), rows)], 50, 7)
    assert np.array_equal(ids, expected)
    assert count == expected_count


@pytest.mark.parametrize("n, t", [(1000, 5), (5000, 100)])
def test_star_refinement_memory_is_linear_in_cells_and_edges(n, t):
    # A star in every snapshot: one cell of degree N-1 per snapshot beside
    # N-1 leaves. A layout that pads every cell to the largest degree would
    # hold N*T*(N+2) entries, 20 GB at N=5000, T=100; a round must stay
    # within a constant number of bytes per cell and edge end.
    import tracemalloc

    star = tuple((0, v) for v in range(1, n))
    graph = DTDG(n, (star,) * t)
    state = init_colors(graph)
    graph._cells
    tracemalloc.start()
    try:
        for _ in range(2):
            state = refine_step(graph, state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 160 * (n * t + 2 * len(star) * t)
    # in each snapshot the leaves share one color and the hub has another
    assert np.array_equal(state.colors[1:], np.broadcast_to(state.colors[1], (n - 1, t)))
    assert np.all(state.colors[0] != state.colors[1])


def test_signed_zero_features_share_a_color():
    g = DTDG(2, ((),), features=np.array([[-0.0], [0.0]]))
    state = init_colors(g)
    assert state.colors[0, 0] == state.colors[1, 0]


def test_large_features_stay_distinct():
    # 1e12 / 1e-9 is past the int64 range; the quantized values must not wrap
    g = DTDG(3, ((),), features=np.array([[1e12], [2e12], [1e12]]))
    state = init_colors(g)
    assert state.colors[0, 0] != state.colors[1, 0]
    assert state.colors[0, 0] == state.colors[2, 0]


@pytest.mark.parametrize("pair", [(1e300, 2e300), (1e12, np.nextafter(1e12, np.inf))],
                         ids=["past_the_grid_quotient_range", "adjacent_floats"])
def test_distinct_large_features_get_distinct_colors(pair):
    # 1e300 / 1e-9 overflows, and 1e12 / 1e-9 rounds adjacent floats
    # together, though they lie 1.2e-4 apart, far more than a grid step
    g = DTDG(2, ((),), features=np.array([[pair[0]], [pair[1]]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state = init_colors(g)
    assert state.n_colors == 2


def benchmark_shape_dtdg(rng, n, t, n_edges, churn):
    def fill(edges):
        while len(edges) < n_edges:
            u, v = (int(i) for i in rng.integers(0, n, size=2))
            if u != v:
                edges.add((min(u, v), max(u, v)))
        return sorted(edges)

    snapshots = [fill(set())]
    for _ in range(1, t):
        current = snapshots[-1]
        drop = set(rng.choice(len(current), int(churn * n_edges), replace=False).tolist())
        snapshots.append(fill({e for i, e in enumerate(current) if i not in drop}))
    return DTDG(n, tuple(tuple(s) for s in snapshots))


def test_moved_edge_diverges_at_last_snapshot_at_benchmark_scale(monkeypatch):
    # N=500, T=20, 1000 edges per snapshot. Moving one snapshot-0 edge so
    # the degree multiset changes splits snapshot 0 in round 1; the split
    # reaches the last snapshot, which wl_test compares, at round T.
    n, t = 500, 20
    rng = np.random.default_rng(114)
    base = benchmark_shape_dtdg(rng, n, t, 1000, 0.1)
    first = list(base.edges[0])
    degree = np.bincount(np.asarray(first).ravel(), minlength=n)
    while True:
        u, v = first[int(rng.integers(len(first)))]
        w = int(rng.integers(n))
        if w not in (u, v) and (min(u, w), max(u, w)) not in first \
                and degree[v] != degree[w] + 1:
            break
    moved = [e for e in first if e != (u, v)] + [(min(u, w), max(u, w))]
    other = DTDG(n, (tuple(moved),) + base.edges[1:])

    sizes = []
    step = temporal_wl.refine_step

    def recording_step(graph, state):
        refined = step(graph, state)
        sizes.append(len(refined.palette))
        return refined

    monkeypatch.setattr(temporal_wl, "refine_step", recording_step)
    report = wl_test(base, other)
    assert (report.verdict, report.rounds, report.diverged_at) == ("non_isomorphic", t, t)
    assert len(sizes) == t  # one call per round refines both graphs
    assert sizes[-1] > 2 ** 16


# ---------------------------------------------------------------------------
# worklist rounds: a round keys only the classes a split can reach
# ---------------------------------------------------------------------------

def edge_ends(graphs):
    """(owner, neighbour) for both ends of every edge of `graphs`, in their
    joint (graph, t, v) cell numbering, read straight from the edge lists."""
    n, t = graphs[0].n_nodes, graphs[0].n_steps
    ends = [((i * t + step) * n + a, (i * t + step) * n + b)
            for i, g in enumerate(graphs) for step, snapshot in enumerate(g.edges)
            for u, v in snapshot for a, b in ((u, v), (v, u))]
    return np.array(ends, dtype=np.int64).reshape(-1, 2).T


def test_joint_cell_index_merges_each_graphs_own_index():
    # Graphs refined together merge their cached indices one degree run at
    # a time. The joint order, degree runs and end offsets are those of
    # indexing every cell at once; only the order of a cell's ends within
    # its slot may differ.
    rng = np.random.default_rng(121)
    for trial in range(40):
        n, t = int(rng.integers(1, 9)), int(rng.integers(1, 4))
        graphs = tuple(oracle_dtdg(rng, n, t, (rng.uniform(0.0, 0.8),))
                       for _ in range(int(rng.integers(2, 4))))
        if trial % 4 == 0:
            graphs = (graphs[0],) + graphs  # a graph beside itself
        joint = temporal_wl._joint_cells(graphs)
        owner, neighbour = edge_ends(graphs)
        at_once = temporal_wl._cell_index(owner, neighbour, len(graphs) * n * t)
        assert np.array_equal(joint.order, at_once.order), trial
        assert joint.degrees == at_once.degrees, trial
        assert np.array_equal(joint.offsets, at_once.offsets), trial
        joint_owner = np.repeat(joint.order, np.diff(joint.offsets))
        assert (sorted(zip(joint_owner.tolist(), joint.neighbour.tolist()))
                == sorted(zip(owner.tolist(), neighbour.tolist()))), trial


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_ends_read_through_the_offsets_equal_a_scan_of_every_end(data):
    # Random graphs, alone or refined together, and random split and keyed
    # cells: the ends `_ends` gathers by slot offsets are those a boolean
    # scan over every edge end finds, each end's owner read from the edge
    # lists, not from the offsets.
    n, t, count = (data.draw(st.integers(1, most)) for most in (7, 3, 3))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    graphs = tuple(DTDG(n, tuple(tuple(p for p in pairs if data.draw(st.booleans()))
                                 for _ in range(t))) for _ in range(count))
    cells = temporal_wl._joint_cells(graphs)
    size = count * n * t
    split, keyed = (np.array(data.draw(st.lists(st.booleans(), min_size=size,
                                                max_size=size)), dtype=bool)
                    for _ in range(2))
    owner, neighbour = edge_ends(graphs)
    by_slot = np.repeat(cells.order, np.bincount(owner, minlength=size)[cells.order])
    # a split cell's neighbours are the owners of the ends that reach it
    reached = temporal_wl._ends(cells, np.flatnonzero(split[cells.order]))
    assert np.array_equal(np.sort(reached), np.sort(owner[split[neighbour]]))
    # the keyed cells' ends, slot after slot, as a scan keeps them
    rows = temporal_wl._ends(cells, np.flatnonzero(keyed[cells.order]))
    assert np.array_equal(rows, cells.neighbour[keyed[by_slot]])


def test_late_rounds_key_only_the_classes_a_split_reaches(monkeypatch):
    # A moved snapshot-0 edge splits snapshot 0 in round 1, and the split
    # moves on one snapshot per round. Once the graphs' own structure has
    # settled, a round keys only the classes the split reaches, and still
    # makes the state a round keying every cell makes.
    n, t = 80, 10
    rng = np.random.default_rng(122)
    base = benchmark_shape_dtdg(rng, n, t, 120, 0.1)
    first = list(base.edges[0])
    u, v = first[0]
    w = next(w for w in range(n) if w not in (u, v) and (min(u, w), max(u, w)) not in first)
    other = DTDG(n, (tuple(first[1:] + [(min(u, w), max(u, w))]),) + base.edges[1:])
    keyed = []
    lead = temporal_wl._lead

    def counting(groups, leader, radix):
        keyed.append(sum(cells.size for cells, _ in groups))
        return lead(groups, leader, radix)

    monkeypatch.setattr(temporal_wl, "_lead", counting)
    states = list(temporal_wl._refinements((base, other), None))
    by_round = keyed[-(len(states) - 1):]
    assert len(by_round) > t and by_round[0] == 2 * n * t
    assert max(by_round[t // 2:]) < 2 * n * t / 4, by_round  # a quarter of the cells
    for before, after in zip(states, states[1:]):
        full = refine_step((base, other), temporal_wl.ColoringState(
            before.colors, before.n_colors, before.palette))
        assert np.array_equal(after.colors, full.colors)
        assert (after.n_colors, after.palette) == (full.n_colors, full.palette)


def test_rounds_key_no_one_cell_class_and_every_cell_after_a_dense_split(monkeypatch):
    # The pair of the test above. A round after one that split at least
    # half of the cells keys every cell; any other round keys no class of
    # one cell, which cannot split.
    n, t = 80, 10
    rng = np.random.default_rng(122)
    base = benchmark_shape_dtdg(rng, n, t, 120, 0.1)
    first = list(base.edges[0])
    u, v = first[0]
    w = next(w for w in range(n) if w not in (u, v) and (min(u, w), max(u, w)) not in first)
    other = DTDG(n, (tuple(first[1:] + [(min(u, w), max(u, w))]),) + base.edges[1:])
    keyed = []
    lead = temporal_wl._lead

    def recording(groups, leader, radix):
        keyed.append(np.concatenate([np.empty(0, dtype=np.int64)]
                                    + [cells for cells, _ in groups]))
        return lead(groups, leader, radix)

    monkeypatch.setattr(temporal_wl, "_lead", recording)
    states = list(temporal_wl._refinements((base, other), None))
    assert len(keyed) == len(states) - 1  # featureless: init_colors keys nothing
    dense = partial = 0
    for history, cells in zip((s._history for s in states[1:-1]), keyed[1:]):
        if np.count_nonzero(history.split) >= history.split.size / 2:
            assert np.array_equal(np.sort(cells), np.arange(2 * n * t))
            dense += 1
        else:
            alone = np.bincount(history.leader, minlength=2 * n * t)[history.leader] == 1
            assert not alone[cells].any()
            partial += alone.any()
    assert dense >= 3 and partial >= 5, (dense, partial)


def test_a_refinement_builds_one_joint_cell_index(monkeypatch):
    # the index travels with each round's history, so a caller refining a
    # plain tuple round after round builds it once
    rng = np.random.default_rng(127)
    base = benchmark_shape_dtdg(rng, 40, 6, 60, 0.1)
    other = base.permuted(rng.permutation(40))
    built = []
    joint_cells = temporal_wl._joint_cells

    def counting(graphs):
        built.append(len(graphs))
        return joint_cells(graphs)

    monkeypatch.setattr(temporal_wl, "_joint_cells", counting)
    states = list(temporal_wl._refinements((base, other), None))
    assert len(states) > 3 and built == [2]
    built.clear()
    state = init_colors((base, other))
    for _ in range(len(states) - 1):
        state = refine_step((base, other), state)
    assert built == [2]
    assert np.array_equal(state.colors, states[-1].colors)


def test_refined_colors_are_read_only():
    g = read_dtdg(fixture_path("wl_pair_right"))
    state = refine_step(g, init_colors(g))
    with pytest.raises(ValueError):
        state.colors[0, 0] = 7


# ---------------------------------------------------------------------------
# initialization and single refinement steps
# ---------------------------------------------------------------------------

def test_featureless_graph_starts_monochrome():
    g = DTDG(4, (((0, 1), (2, 3)),))
    state = init_colors(g)
    assert len(set(state.colors.flatten().tolist())) == 1


def zero_width_twin(graph):
    """`graph` with (N, T, 0) features when it has none: every cell's key
    row is empty as before, but `init_colors` dedupes the rows instead of
    taking its featureless shortcut."""
    if graph.features is not None:
        return graph
    return DTDG(graph.n_nodes, graph.edges, np.zeros((graph.n_nodes, graph.n_steps, 0)))


def test_featureless_init_matches_the_general_path():
    rng = np.random.default_rng(117)
    for trial in range(40):
        n, t = int(rng.integers(1, 9)), int(rng.integers(1, 5))
        feats = rng.integers(0, 2, size=(n, t, 1)).astype(float)
        plain = oracle_dtdg(rng, n, t, (0.4, 0.0))
        other = oracle_dtdg(rng, n, t, (0.6,), feats if trial % 2 else None)
        for graphs in ([plain], [plain, other], [other, plain]):
            joint = graphs[0] if len(graphs) == 1 else tuple(graphs)
            twins = [zero_width_twin(g) for g in graphs]
            twin_joint = twins[0] if len(twins) == 1 else tuple(twins)
            state, twin_state = init_colors(joint), init_colors(twin_joint)
            for _ in range(3):
                assert state.colors.dtype == twin_state.colors.dtype == np.int64
                assert np.array_equal(state.colors, twin_state.colors), trial
                assert state.n_colors == twin_state.n_colors
                assert state.palette == twin_state.palette
                state = refine_step(joint, state)
                twin_state = refine_step(twin_joint, twin_state)
        for steps in (None, 1):
            assert wl_test(plain, other, steps) == wl_test(
                zero_width_twin(plain), zero_width_twin(other), steps), trial


def test_distinct_features_get_distinct_colors():
    g = DTDG(3, ((),), features=np.array([[1.0], [2.0], [3.0]]))
    state = init_colors(g)
    assert len(set(state.colors[:, 0].tolist())) == 3


def test_equal_features_share_color_across_time():
    feats = np.array([[[1.0], [2.0]], [[2.0], [1.0]]])   # (N=2, T=2, D=1)
    g = DTDG(2, ((), ()), features=feats)
    state = init_colors(g)
    assert state.colors[0, 0] == state.colors[1, 1]
    assert state.colors[0, 1] == state.colors[1, 0]


def test_regular_featureless_snapshot_stays_monochrome():
    # a 4-cycle is 2-regular: refinement cannot split anything
    g = DTDG(4, (((0, 1), (1, 2), (2, 3), (0, 3)),))
    state = refine_to_stable(g)
    assert len(set(state.colors[:, 0].tolist())) == 1


def test_degree_difference_separates_nodes():
    g = DTDG(3, (((0, 1),),))   # node 2 isolated
    state = refine_step(g, init_colors(g))
    assert state.colors[0, 0] == state.colors[1, 0]
    assert state.colors[2, 0] != state.colors[0, 0]


# ---------------------------------------------------------------------------
# packaged fixtures
# ---------------------------------------------------------------------------

def test_left_fixture_has_blind_spot():
    g = read_dtdg(fixture_path("wl_pair_left"))
    assert distinguishable(g, 0, 2, 1) is False
    assert g.n_steps == 2


def test_right_fixture_separates_all_pairs():
    g = read_dtdg(fixture_path("wl_pair_right"))
    t1 = g.n_steps - 1
    for u in range(g.n_nodes):
        for v in range(u + 1, g.n_nodes):
            assert distinguishable(g, u, v, t1) is True


def test_fixture_pair_tests_non_isomorphic():
    left = read_dtdg(fixture_path("wl_pair_left"))
    right = read_dtdg(fixture_path("wl_pair_right"))
    assert wl_test(left, right).verdict == "non_isomorphic"


def test_graph_against_itself_is_inconclusive():
    g = read_dtdg(fixture_path("wl_pair_left"))
    assert wl_test(g, g).verdict == "inconclusive"


def test_triangles_with_different_features_separate():
    tri = ((0, 1), (1, 2), (0, 2))
    g1 = DTDG(3, (tri,), features=np.array([[1.0], [0.0], [0.0]]))
    g2 = DTDG(3, (tri,), features=np.array([[2.0], [0.0], [0.0]]))
    assert wl_test(g1, g2).verdict == "non_isomorphic"


def test_distinguishable_same_node_is_false():
    g = read_dtdg(fixture_path("wl_pair_right"))
    assert distinguishable(g, 1, 1, 0) is False


def test_distinguishable_refines_once_per_graph_and_cap(monkeypatch):
    calls = []
    stable = temporal_wl.refine_to_stable

    def counting(graph, max_rounds=None):
        calls.append(max_rounds)
        return stable(graph, max_rounds)

    monkeypatch.setattr(temporal_wl, "refine_to_stable", counting)
    g = read_dtdg(fixture_path("wl_pair_right"))
    answers = [distinguishable(g, u, v, 1) for u in range(g.n_nodes)
               for v in range(g.n_nodes)]
    assert distinguishable(g, 0, 2, 1, steps=0) is False
    assert calls == [None, 0]
    assert answers == [u != v for u in range(g.n_nodes) for v in range(g.n_nodes)]
    assert distinguishable(g.permuted(np.arange(g.n_nodes)), 0, 1, 1)
    assert calls == [None, 0, None]


def test_distinguishable_validates_indices():
    g = DTDG(2, (((0, 1),),))
    with pytest.raises(ParameterError):
        distinguishable(g, 0, 5, 0)
    with pytest.raises(ParameterError):
        distinguishable(g, 0, 1, 3)


@pytest.mark.parametrize("at", [0, 1, 2])
@pytest.mark.parametrize("index", [0.5, 1.0, True, "0"], ids=["half", "one", "bool", "str"])
def test_distinguishable_rejects_indices_that_are_not_integers(index, at):
    g = DTDG(3, (((0, 1), (1, 2)), ()))
    args = [0, 1, 0]
    args[at] = index
    with pytest.raises(ParameterError, match="integer"):
        distinguishable(g, *args)
    assert distinguishable(g, np.int64(0), np.int32(2), np.uint8(1)) is False
    assert distinguishable(g, np.int8(0), np.int16(1), np.int64(0)) is True


# ---------------------------------------------------------------------------
# property suites over random graphs
# ---------------------------------------------------------------------------

def test_refinement_monotonicity_200_random_graphs():
    rng = np.random.default_rng(100)
    for trial in range(200):
        g = random_dtdg(rng, with_features=bool(trial % 2))
        state = init_colors(g)
        for _ in range(g.n_nodes * g.n_steps):
            nxt = refine_step(g, state)
            assert refines(partition_of(nxt.colors), partition_of(state.colors))
            if nxt.n_colors == state.n_colors:
                break
            state = nxt


def test_distinguishable_matches_any_round_separation_150_random_graphs():
    # Oracle: a pair is distinguishable when any partition in the refinement
    # sequence (init, then up to ``steps`` rounds, stopping once stable)
    # separates it.
    rng = np.random.default_rng(103)
    checks = 0
    for trial in range(150):
        g = random_dtdg(rng, with_features=bool(trial % 2))
        for steps in (None, 0, 1, 2):
            state = init_colors(g)
            separated = np.zeros((g.n_nodes, g.n_nodes, g.n_steps), dtype=bool)
            cap = g.n_nodes * g.n_steps if steps is None else steps
            for round_index in range(cap + 1):
                separated |= state.colors[:, None, :] != state.colors[None, :, :]
                if round_index == cap:
                    break
                nxt = refine_step(g, state)
                if nxt.n_colors == state.n_colors:
                    break
                state = nxt
            for u in range(g.n_nodes):
                for v in range(u, g.n_nodes):
                    for t in range(g.n_steps):
                        assert distinguishable(g, u, v, t, steps) == separated[u, v, t]
                        checks += 1
    assert checks > 5_000


def test_stabilization_within_nt_rounds():
    rng = np.random.default_rng(101)
    for _ in range(50):
        g = random_dtdg(rng)
        state = refine_to_stable(g)
        again = refine_step(g, state)
        assert partition_of(again.colors) == partition_of(state.colors)


def test_isomorphism_soundness_200_random_graphs():
    rng = np.random.default_rng(102)
    for trial in range(200):
        g = random_dtdg(rng, with_features=bool(trial % 3))
        perm = rng.permutation(g.n_nodes)
        assert wl_test(g, g.permuted(perm)).verdict == "inconclusive"


def test_wl_test_rejects_size_mismatch():
    g1 = DTDG(2, (((0, 1),),))
    g2 = DTDG(3, (((0, 1),),))
    with pytest.raises(ShapeError):
        wl_test(g1, g2)


def wl_pair():
    return read_dtdg(fixture_path("wl_pair_left")), read_dtdg(fixture_path("wl_pair_right"))


@pytest.mark.parametrize("cap", [-3, 2.5, True])
def test_wl_test_rejects_a_round_cap_that_is_not_a_count(cap):
    left, right = wl_pair()
    with pytest.raises(ParameterError, match="round cap"):
        wl_test(left, right, steps=cap)
    assert wl_test(left, right, steps=0) == WLReport("inconclusive", 0, None)
    assert wl_test(left, right, steps=np.int64(1)) == WLReport("non_isomorphic", 1, 1)


@pytest.mark.parametrize("cap", [-5, 1.0, False])
def test_refine_to_stable_rejects_a_round_cap_that_is_not_a_count(cap):
    graph = wl_pair()[1]
    with pytest.raises(ParameterError, match="round cap"):
        refine_to_stable(graph, max_rounds=cap)
    assert np.array_equal(refine_to_stable(graph, max_rounds=0).colors,
                          init_colors(graph).colors)


def test_distinguishable_rejects_a_negative_round_cap():
    graph = wl_pair()[1]
    with pytest.raises(ParameterError, match="round cap"):
        distinguishable(graph, 0, 2, 1, steps=-1)
    assert distinguishable(graph, 0, 2, 1, steps=0) is False


# ---------------------------------------------------------------------------
# spectral precondition checks
# ---------------------------------------------------------------------------

def test_k2_constant_signal_misses_high_frequency():
    g = DTDG(2, (((0, 1),),), features=np.array([[1.0], [1.0]]))
    report = check_spectral_conditions(g)
    assert report.repeated_eigenvalues is False
    assert (0, 1) in {tuple(map(int, pair)) for pair in report.missing_components}
    assert report.conditions_hold is False


def test_complete_triangle_has_repeated_eigenvalues():
    tri = ((0, 1), (1, 2), (0, 2))
    g = DTDG(3, (tri,), features=np.array([[1.0], [2.0], [3.0]]))
    report = check_spectral_conditions(g)
    assert report.repeated_eigenvalues is True
    assert report.min_gap < 1e-8


def test_random_features_on_path_usually_complete():
    rng = np.random.default_rng(103)
    path = ((0, 1), (1, 2), (2, 3))
    hold = 0
    for _ in range(20):
        feats = rng.standard_normal((4, 1, 1))
        report = check_spectral_conditions(DTDG(4, (path,), feats))
        hold += bool(report.conditions_hold)
    assert hold >= 18


def test_spectral_check_needs_fixed_topology():
    g = DTDG(2, (((0, 1),), ()), features=np.ones((2, 2, 1)))
    with pytest.raises(ParameterError):
        check_spectral_conditions(g)


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

def test_format_roundtrip_plain():
    rng = np.random.default_rng(104)
    g = random_dtdg(rng)
    back = parse_dtdg(format_dtdg(g))
    assert back.n_nodes == g.n_nodes and back.edges == g.edges
    assert back.features is None


def test_format_roundtrip_with_features():
    rng = np.random.default_rng(105)
    g = random_dtdg(rng, with_features=True)
    back = parse_dtdg(format_dtdg(g))
    assert back.edges == g.edges
    assert np.array_equal(back.features, g.features)


def test_write_read_roundtrip(tmp_path):
    rng = np.random.default_rng(106)
    g = random_dtdg(rng, with_features=True)
    path = tmp_path / "graph.dtdg"
    write_dtdg(g, path)
    back = read_dtdg(path)
    assert back.edges == g.edges
    assert np.array_equal(back.features, g.features)


def test_parse_reports_location_of_bad_edge():
    with pytest.raises(DataError, match="snapshot 0"):
        DTDG(3, (((0, 9),),))


def test_parse_rejects_garbage():
    with pytest.raises(DataError):
        parse_dtdg("this is not a graph file")


# each a malformed .dtdg document and the message its DataError carries
BAD_DTDG = {
    "edge with three fields": ("2 1\n0 1 2\n#\n#\n", "line 2: expected 'u v'"),
    "non-integer endpoint": ("2 1\n0 x\n#\n#\n", "line 2: non-integer edge endpoint"),
    "non-numeric feature row": ("2 1\n#\n1.0\nabc\n#\n", "line 4: non-numeric feature row"),
    "no '#' after features": ("2 1\n#\n1.0\n2.0\n", "snapshot 0: missing '#' after feature block"),
    "two feature rows for three nodes": ("3 1\n#\n1.0\n2.0\n#\n",
                                         "feature block has 2 rows, expected 3"),
    "features in one snapshot of two": ("2 2\n#\n1.0\n2.0\n#\n#\n#\n",
                                        "either every snapshot has a feature block or none"),
    "feature rows of different widths": ("2 1\n#\n1.0\n2.0 3.0\n#\n",
                                         "inconsistent feature dimensionality"),
    "nan feature": ("2 1\n#\nnan\n2.0\n#\n", "features contain non-finite values"),
    "endpoint past int64": ("2 1\n0 99999999999999999999\n#\n#\n",
                            "edge 0-99999999999999999999 out of range in snapshot 0"),
    # blank lines count: the bad endpoint is on line 5 of the file, not 3
    "bad endpoint after blank lines": ("3 1\n\n\n0 1\n1 x\n#\n#\n",
                                       "line 5: non-integer edge endpoint"),
    "a snapshot past T": ("3 1\n0 1\n#\n#\n1 2\n#\n#\n",
                          "line 5: '1 2' follows the last of 1 snapshots"),
}


@pytest.mark.parametrize("case", sorted(BAD_DTDG))
def test_parse_dtdg_names_what_is_malformed(case):
    text, message = BAD_DTDG[case]
    with pytest.raises(DataError, match=re.escape(message)):
        parse_dtdg(text)


def test_read_dtdg_skips_a_utf8_byte_order_mark(tmp_path):
    graph = read_dtdg(fixture_path("wl_pair_left"))
    path = tmp_path / "bom.dtdg"
    path.write_bytes(b"\xef\xbb\xbf" + format_dtdg(graph).encode())
    back = read_dtdg(path)
    assert back.edges == graph.edges and np.array_equal(back.features, graph.features)


@pytest.mark.parametrize("n_nodes, edges", [(2 ** 30, ()), (2 ** 30 - 1, ((0, 1),)),
                                             (99999999999999999999, ())],
                         ids=["2**30 cells", "2**30 - 1 cells and an edge", "N past int64"])
def test_init_colors_rejects_graphs_too_large_to_refine(n_nodes, edges):
    # 2 key digits per cell and 1 per edge end pass 2**31 - 2; the check
    # runs before the (N, T) colors would be allocated
    with pytest.raises(DataError, match=re.escape(f"{2 * n_nodes + 2 * len(edges)} key digits")):
        init_colors(DTDG(n_nodes, (edges,)))
    temporal_wl._graphs(DTDG(2 ** 30 - 1, ((),)))  # 2**31 - 2 digits: the largest that passes


@pytest.mark.parametrize("edge", [(0, 1.5), (0, "1"), (True, 2), (0, 1.0), (0, None)],
                         ids=["fraction", "string", "bool", "integral_float", "none"])
def test_edge_endpoints_must_be_integers(edge):
    # (0, 1.5) used to be stored, refined as node 1 and written as "0 1.5",
    # which parse_dtdg rejects; (0, "1") raised a bare TypeError
    with pytest.raises(DataError, match=re.escape(f"edge {edge!r} in snapshot 1")):
        DTDG(3, (((0, 1),), ((1, 2), edge)))


@pytest.mark.parametrize("edge", [(0, 1, 2), (0,), 5], ids=["triple", "single", "int"])
def test_edges_must_be_pairs(edge):
    with pytest.raises(DataError, match=re.escape(f"edge {edge!r} in snapshot 0 is not a pair")):
        DTDG(3, ((edge,),))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 6), st.lists(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                                            max_size=12), min_size=1, max_size=4),
       st.booleans(), st.booleans())
def test_edges_are_stored_sorted_once_each_as_python_ints(n, snapshots, numpy_ints, far):
    # each snapshot's edges become the sorted set of (min, max) pairs;
    # numpy integers are stored as Python ints, and far endpoints (near
    # 2**40) sort as exactly as near ones.
    snapshots = [[(u % n, v % n) for u, v in s if u % n != v % n] for s in snapshots]
    if far:
        n, snapshots = 2 ** 41, [[(u + 2 ** 40, v) for u, v in s] for s in snapshots]
    given_edges = [[tuple(map(np.int64, e)) if numpy_ints else e for e in s]
                   for s in snapshots]
    graph = DTDG(n, tuple(given_edges))
    assert graph.edges == tuple(tuple(sorted({(min(e), max(e)) for e in s}))
                                for s in snapshots)
    assert all(type(x) is int for s in graph.edges for e in s for x in e)


def test_self_loop_rejected():
    with pytest.raises(DataError, match="self loop"):
        DTDG(3, (((1, 1),),))


@pytest.mark.parametrize("perm", [[0, 0, 1], [0, 1], [0, 1, 2, 3], [0.0, 2.0, 1.0],
                                  [True, False, True], [[0, 1, 2]], [0, 1, 3], [-1, 0, 1]],
                         ids=["repeated", "short", "long", "floats", "booleans", "nested",
                              "past_the_end", "negative"])
def test_permuted_rejects_anything_but_a_permutation(perm):
    g = DTDG(3, (((0, 1), (1, 2)),), features=np.array([[1.0], [2.0], [3.0]]))
    with pytest.raises(ParameterError, match="permutation"):
        g.permuted(perm)


def test_permuted_moves_edges_and_features():
    g = DTDG(3, (((0, 1), (1, 2)),), features=np.array([[1.0], [2.0], [3.0]]))
    moved = g.permuted([2, 0, 1])
    assert moved.edges == (((0, 1), (0, 2)),)
    assert moved.features[:, 0, 0].tolist() == [2.0, 3.0, 1.0]
