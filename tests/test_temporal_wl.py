"""Color refinement on dynamic graphs: fixtures, file format, and the
soundness/monotonicity property suites."""

import numpy as np
import pytest

from spectemp.errors import DataError, ParameterError, ShapeError
from spectemp.temporal_wl import (DTDG, check_spectral_conditions,
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
# initialization and single refinement steps
# ---------------------------------------------------------------------------

def test_featureless_graph_starts_monochrome():
    g = DTDG(4, (((0, 1), (2, 3)),))
    state = init_colors(g)
    assert len(set(state.colors.flatten().tolist())) == 1


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


def test_distinguishable_validates_indices():
    g = DTDG(2, (((0, 1),),))
    with pytest.raises(ParameterError):
        distinguishable(g, 0, 5, 0)
    with pytest.raises(ParameterError):
        distinguishable(g, 0, 1, 3)


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
            if nxt.color_count() == state.color_count():
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
                if nxt.color_count() == state.color_count():
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


def test_self_loop_rejected():
    with pytest.raises(DataError, match="self loop"):
        DTDG(3, (((1, 1),),))
