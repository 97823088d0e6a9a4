"""Property tests: permutation equivariance of the forecaster, relabelling
invariance of the temporal WL test and its color counts, the temporal
1-WL bound on what the forecaster can distinguish, checkpoint round
trips, and fuzzing of checkpoint bytes, ``.dtdg`` text, CSV bytes and
config sections.

Hypothesis runs derandomized with a small example budget, so the suite
stays deterministic and fast."""

import dataclasses
import functools
import os
import tempfile
import types
import typing

import numpy as np
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from spectemp import cli
from spectemp import experiments as ex
from spectemp import model_core as mc
from spectemp.config import read_section
from spectemp.dataio import load_csv
from spectemp.errors import ConfigError, DataError, SpectempError
from spectemp.experiments import BASIS_ORDER
from spectemp.temporal_wl import (DTDG, ColoringState, _refinements,
                                  check_spectral_conditions, fixture_path,
                                  init_colors, parse_dtdg, read_dtdg, refine_step,
                                  refine_to_stable, wl_test)
from spectemp.training import TrainConfig

PROPERTY = settings(derandomize=True, max_examples=12, deadline=None)


# ---------------------------------------------------------------------------
# permutation equivariance
# ---------------------------------------------------------------------------

@st.composite
def permuted_problem(draw):
    n = draw(st.integers(3, 6))
    perm = np.array(draw(st.permutations(range(n))))
    seed = draw(st.integers(0, 2 ** 16))
    return n, perm, seed


@PROPERTY
@given(problem=permuted_problem(), basis=st.sampled_from(BASIS_ORDER),
       variant=st.sampled_from(["linear", "nonlinear"]),
       mode=st.sampled_from(["provided", "learned"]))
def test_forward_is_permutation_equivariant(problem, basis, variant, mode):
    """Relabelling the nodes of the window (and of the provided adjacency)
    relabels the forecast the same way when the temporal filters are
    shared across nodes."""
    n, perm, seed = problem
    config = mc.ModelConfig(lookback=8, horizon=2, n_dims=2, blocks=2, degree=3,
                            n_modes=4, basis=basis, variant=variant,
                            adjacency_mode=mode, share_filter_vars=True)
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.uniform(0.0, 1.0, (n, n)), 1)
    adjacency = upper + upper.T
    x = rng.standard_normal((3, n, 8, 2))
    state = mc.init_state(config, n, rng=seed, adjacency=adjacency)
    permuted = mc.init_state(config, n, rng=seed,
                             adjacency=adjacency[perm][:, perm])
    np.testing.assert_allclose(mc.forward(x[:, perm], permuted, config),
                               mc.forward(x, state, config)[:, perm],
                               rtol=1e-9, atol=1e-12)


# ---------------------------------------------------------------------------
# temporal WL under relabelling
# ---------------------------------------------------------------------------

@st.composite
def dynamic_graph_pair(draw):
    n = draw(st.integers(2, 6))
    steps = draw(st.integers(1, 3))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]

    def graph():
        edges = tuple(tuple(draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))))
                      for _ in range(steps))
        features = None
        if draw(st.booleans()):
            features = np.array(draw(st.lists(st.integers(0, 1),
                                              min_size=n * steps,
                                              max_size=n * steps)),
                                dtype=float).reshape(n, steps)
        return DTDG(n, edges, features)

    g1 = graph()
    g2 = graph() if draw(st.booleans()) else g1
    perm = np.array(draw(st.permutations(range(n))))
    return g1, g2, perm


@PROPERTY
@given(graphs=dynamic_graph_pair())
def test_wl_verdict_is_invariant_under_relabelling(graphs):
    g1, g2, perm = graphs
    report = wl_test(g1, g2)
    assert wl_test(g1.permuted(perm), g2) == report
    assert wl_test(g1, g2.permuted(perm)) == report


@PROPERTY
@given(graphs=dynamic_graph_pair())
def test_color_counts_match_a_recount(graphs):
    """Refinement counts colors once, in the relabel. After init and after
    every round, each graph's own count, and the joint count of both
    graphs refined together (what `wl_test` compares), match an
    `np.unique` recount. A joint round issues one id per joint color and
    splits each graph's cells as refining it alone does."""
    g1, g2, perm = graphs
    graphs = (g1, g2.permuted(perm))
    alone = [init_colors(g) for g in graphs]
    joint = init_colors(graphs)
    issued_before = 0
    for round_index in range(g1.n_nodes * g1.n_steps + 1):
        if round_index:
            issued_before = len(joint.palette)
            alone = [refine_step(g, s) for g, s in zip(graphs, alone)]
            joint = refine_step(graphs, joint)
        for state in alone + [joint]:
            assert state.n_colors == len(np.unique(state.colors))
        assert len(joint.palette) - issued_before == joint.n_colors
        for state, colors in zip(alone, joint.colors):
            pairs = np.stack([state.colors.ravel(), colors.ravel()])
            assert (np.unique(pairs, axis=1).shape[1] == state.n_colors
                    == len(np.unique(colors)))


# ---------------------------------------------------------------------------
# worklist rounds: a round keys only the classes a split can reach
# ---------------------------------------------------------------------------

def history_free(state):
    """The same colors and ids, without the history of the round that
    made them."""
    return ColoringState(state.colors, state.n_colors, state.palette)


def assert_same_state(state, other):
    assert np.array_equal(state.colors, other.colors)
    assert (state.n_colors, state.palette) == (other.n_colors, other.palette)


def assert_rounds_match_full_rounds(graph):
    """Along `_refinements`, every state equals a round that keys every
    cell of a history-free copy of the state before it."""
    states = list(_refinements(graph, None))
    for before, after in zip(states, states[1:]):
        assert_same_state(after, refine_step(graph, history_free(before)))


@PROPERTY
@given(graphs=dynamic_graph_pair())
def test_worklist_rounds_equal_full_rounds(graphs):
    g1, g2, perm = graphs
    assert_rounds_match_full_rounds(g1)
    assert_rounds_match_full_rounds((g1, g2.permuted(perm)))


@st.composite
def moved_edge_pair(draw):
    """A graph whose snapshots share one edge set, and a copy with one
    snapshot-0 edge moved. The split starts in snapshot 0 and moves on
    one snapshot per round, so late rounds key only the classes it
    reaches."""
    n = draw(st.integers(4, 8))
    steps = draw(st.integers(3, 6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=2, unique=True))
    u, v = draw(st.sampled_from(edges))
    free = [w for w in range(n) if w not in (u, v) and (min(u, w), max(u, w)) not in edges]
    assume(free)
    w = draw(st.sampled_from(free))
    moved = [e for e in edges if e != (u, v)] + [(min(u, w), max(u, w))]
    features = None
    if draw(st.booleans()):
        features = np.array(draw(st.lists(st.integers(0, 1), min_size=n * steps,
                                          max_size=n * steps)), dtype=float).reshape(n, steps)
    base = DTDG(n, (tuple(edges),) * steps, features)
    return base, DTDG(n, (tuple(moved),) + base.edges[1:], features)


@PROPERTY
@given(pair=moved_edge_pair())
def test_worklist_rounds_follow_a_late_split(pair):
    assert_rounds_match_full_rounds(pair)
    assert_rounds_match_full_rounds(pair[1])


@PROPERTY
@given(graphs=dynamic_graph_pair())
def test_a_state_passed_with_other_graphs_refines_as_history_free(graphs):
    """A state's history holds only for the graphs it was refined on: with
    other graphs, even ones with equal edges, a round keys every cell."""
    g1, g2, perm = graphs
    other = g2.permuted(perm)
    for graph, elsewhere in ((g1, other), ((g1, other), (other, g1))):
        state = init_colors(graph)
        for _ in range(2):
            state = refine_step(graph, state)
        assert_same_state(refine_step(elsewhere, state),
                          refine_step(elsewhere, history_free(state)))


# ---------------------------------------------------------------------------
# the expressivity bound: the model separates no more than temporal 1-WL
# ---------------------------------------------------------------------------

LIFT_STEPS = 8


@st.composite
def two_lift(draw):
    """A random 2-lift of a fixed-topology DTDG: node i of the base graph
    has copies i and i + n, each base edge is kept straight (u-v, u'-v')
    or crossed (u-v', u'-v), and both copies carry the base node's
    features. Base nodes draw their features from three profiles, so WL
    classes can also merge nodes of different fibers."""
    n = draw(st.integers(3, 6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    base = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    edges = []
    for u, v in base:
        crossed = draw(st.booleans())
        edges += [(u, v + crossed * n), (u + n, v + (not crossed) * n)]
    profiles = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    dims = draw(st.integers(1, 2))
    seed = draw(st.integers(0, 2 ** 16))
    features = np.random.default_rng(seed).standard_normal((3, LIFT_STEPS, dims))
    features = np.tile(features[profiles], (2, 1, 1))
    return DTDG(2 * n, (tuple(edges),) * LIFT_STEPS, features), seed


def shared_filter_forecast(graph, basis, variant, mode, seed):
    """The forecast for ``graph``'s features as one window, from a model
    whose temporal filters are shared across nodes, with adjacency
    provided from ``graph.edges[0]`` or learned, and random parameters."""
    adjacency = np.zeros((graph.n_nodes, graph.n_nodes))
    for u, v in graph.edges[0]:
        adjacency[u, v] = adjacency[v, u] = 1.0
    x = graph.features[None]
    config = mc.ModelConfig(lookback=graph.n_steps, horizon=2, n_dims=x.shape[-1],
                            blocks=2, degree=3, n_modes=min(4, graph.n_steps),
                            basis=basis, variant=variant, adjacency_mode=mode,
                            share_filter_vars=True)
    state = mc.init_state(config, graph.n_nodes, rng=seed, adjacency=adjacency)
    # away from the identity initialization, so each stage mixes
    rng = np.random.default_rng(seed + 1)
    for value in state.params.values():
        value += 0.3 * rng.standard_normal(value.shape)
    return mc.forward(x, state, config)[0]


def separated_gaps(graph, out):
    """Each node pair that stable end-time temporal 1-WL separates: the
    largest difference of the pair's forecasts, relative to the largest
    forecast."""
    classes = refine_to_stable(graph).colors[:, -1]
    return {(u, v): float(np.abs(out[u] - out[v]).max() / np.abs(out).max())
            for u in range(graph.n_nodes) for v in range(u + 1, graph.n_nodes)
            if classes[u] != classes[v]}


@settings(PROPERTY, max_examples=10)
@given(lift=two_lift())
def test_forward_agrees_within_each_stable_wl_class(lift):
    """Nodes in one stable end-time temporal 1-WL class get one forecast.
    With the temporal filters shared across nodes, every basis, both
    variants, and adjacency provided from the topology or learned, the
    model distinguishes no pair of nodes that the refinement leaves
    together: the first half of the paper's expressivity theorem."""
    graph, seed = lift
    classes = refine_to_stable(graph).colors[:, -1]
    for basis in BASIS_ORDER:
        for variant in ("linear", "nonlinear"):
            for mode in ("provided", "learned"):
                out = shared_filter_forecast(graph, basis, variant, mode, seed)
                spread = max(np.abs(out[classes == c] - out[classes == c][0]).max()
                             for c in np.unique(classes))
                assert spread <= 1e-12 * np.abs(out).max(), (basis, variant, mode)


@st.composite
def conditioned_graph(draw):
    """A connected fixed-topology DTDG that meets the spectral conditions:
    no repeated Laplacian eigenvalue and no missing eigencomponent at any
    step. Each node takes one of two random feature series, so stable
    temporal 1-WL separates nodes of one series only by structure. The
    first of the graphs drawn from the seed that meets the conditions."""
    n = draw(st.integers(4, 8))
    dims = draw(st.integers(1, 2))
    seed = draw(st.integers(0, 2 ** 16))
    rng = np.random.default_rng(seed)
    for _ in range(1000):
        tree = {(int(rng.integers(v)), v) for v in range(1, n)}
        extra = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.25}
        series = rng.standard_normal((2, LIFT_STEPS, dims))
        graph = DTDG(n, (tuple(tree | extra),) * LIFT_STEPS,
                     series[rng.integers(0, 2, size=n)])
        if check_spectral_conditions(graph).conditions_hold:
            return graph, seed
    raise AssertionError(f"no graph from seed {seed} meets the spectral conditions")


@settings(PROPERTY, max_examples=10)
@given(case=conditioned_graph())
def test_forward_separates_each_pair_stable_wl_separates(case):
    """On a fixed topology that meets the spectral conditions, a linear
    model with shared temporal filters and random parameters gives
    different forecasts to every node pair that stable temporal 1-WL
    separates, by more than 1e-9 of the largest forecast: the converse
    half of the paper's expressivity theorem, for every basis, with the
    topology as the provided adjacency. The theorem is about linear
    models; the nonlinear variant can merge such a pair exactly at random
    parameters (its ReLU can zero the graph branch of both nodes)."""
    graph, seed = case
    for basis in BASIS_ORDER:
        out = shared_filter_forecast(graph, basis, "linear", "provided", seed)
        gaps = separated_gaps(graph, out)
        assert min(gaps.values(), default=1.0) > 1e-9, (basis, gaps)


def test_fixed_topology_fixture_fails_the_conditions_but_separates_every_pair():
    """The bundled fixed-topology graph misses eigencomponents 1 and 3 at
    step 0, so the converse does not cover it. Its features differ node
    by node, so stable temporal 1-WL separates all four nodes, and the
    model separates every pair anyway: by at least 0.14 of the largest
    forecast over every basis and both variants."""
    graph = read_dtdg(fixture_path("fixed_topology"))
    report = check_spectral_conditions(graph)
    assert not report.repeated_eigenvalues and not report.conditions_hold
    assert [tuple(map(int, c)) for c in report.missing_components] == [(0, 1), (0, 3)]
    assert len(np.unique(refine_to_stable(graph).colors[:, -1])) == graph.n_nodes
    for basis in BASIS_ORDER:
        for variant in ("linear", "nonlinear"):
            gaps = separated_gaps(graph, shared_filter_forecast(graph, basis, variant,
                                                                "provided", seed=5))
            assert len(gaps) == 6 and min(gaps.values()) > 0.1, (basis, variant, gaps)


# ---------------------------------------------------------------------------
# checkpoint fuzzing
# ---------------------------------------------------------------------------

CHECKPOINT_CONFIG = mc.ModelConfig(lookback=8, horizon=2, n_dims=1, blocks=2,
                                   degree=2, n_modes=3, adjacency_mode="provided")


@functools.lru_cache(maxsize=1)
def checkpoint_bytes() -> bytes:
    adjacency = np.ones((4, 4)) - np.eye(4)
    state = mc.init_state(CHECKPOINT_CONFIG, 4, rng=0, adjacency=adjacency)
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "model.stck")
        mc.save_checkpoint(path, state, CHECKPOINT_CONFIG)
        with open(path, "rb") as fh:
            return fh.read()


@st.composite
def mutated_checkpoint(draw):
    """A truncated checkpoint, or one with one to three bytes flipped;
    half the flips land in the JSON header (names, shapes, config)."""
    raw = checkpoint_bytes()
    if draw(st.booleans()):
        return raw[:draw(st.integers(0, len(raw) - 1))]
    header_end = 16 + int.from_bytes(raw[8:16], "little")
    data = bytearray(raw)
    for _ in range(draw(st.integers(1, 3))):
        position = draw(st.one_of(st.integers(0, header_end - 1),
                                  st.integers(0, len(raw) - 1)))
        data[position] ^= draw(st.integers(1, 255))
    return bytes(data)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(raw=mutated_checkpoint())
def test_mutated_checkpoints_fail_only_with_data_error(raw):
    """Truncated or byte-flipped checkpoints either raise DataError or load
    into a state that forecasts (or fails with a package error)."""
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "model.stck")
        with open(path, "wb") as fh:
            fh.write(raw)
        try:
            state, config = mc.load_checkpoint(path)
        except DataError:
            return
    x = np.random.default_rng(1).standard_normal((2, 4, config.lookback,
                                                  config.n_dims))
    try:
        mc.forward(x, state, config)
    except SpectempError:
        pass


@st.composite
def checkpoint_case(draw):
    """A freshly initialized state over every checkpointed variation: the
    adjacency modes, projectors, nonlinearities, sharing flags, a missing
    coarse or fine stage, two bases, both mode policies, and the frozen
    low-pass control."""
    nonlinearity = draw(st.sampled_from([{}, {"variant": "nonlinear"},
                                         {"use_relu": True, "use_attention": False}]))
    stages = draw(st.sampled_from([{}, {"use_coarse": False}, {"use_fine": False}]))
    config = mc.ModelConfig(
        lookback=8, horizon=2, n_dims=2, blocks=2, degree=3, n_modes=3,
        basis=draw(st.sampled_from(["gegenbauer", "bernstein"])),
        adjacency_mode=draw(st.sampled_from(["provided", "pearson", "learned"])),
        projector=draw(st.sampled_from(["dft", "random"])),
        mode_policy=draw(st.sampled_from(["lowest", "random"])),
        share_theta_dims=draw(st.booleans()), share_filter_dims=draw(st.booleans()),
        share_filter_vars=draw(st.booleans()), **nonlinearity, **stages)
    seed = draw(st.integers(0, 2 ** 16))
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.uniform(0.0, 1.0, (5, 5)), 1)
    adjacency = upper + upper.T
    if draw(st.booleans()):
        state, config = ex.low_pass_control_state(config, 5, seed, adjacency)
    else:
        state = mc.init_state(config, 5, rng=seed, adjacency=adjacency)
    return config, state, seed


@settings(derandomize=True, max_examples=60, deadline=None)
@given(case=checkpoint_case())
def test_checkpoint_round_trip_is_exact(case):
    """``load_checkpoint(save_checkpoint(state))`` gives back an equal config,
    bitwise-equal parameters, the same mode sets and frozen set, and a
    bitwise-equal forward pass."""
    config, state, seed = case
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "model.stck")
        mc.save_checkpoint(path, state, config)
        loaded, loaded_config = mc.load_checkpoint(path)
    assert loaded_config == config
    assert loaded.params.keys() == state.params.keys()
    for name, value in state.params.items():
        assert loaded.params[name].tobytes() == value.tobytes(), name
    assert len(loaded.mode_sets) == len(state.mode_sets)
    for got, want in zip(loaded.mode_sets, state.mode_sets):
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert loaded.frozen == state.frozen
    x = np.random.default_rng(seed + 1).standard_normal((3, 5, 8, 2))
    assert (mc.forward(x, loaded, loaded_config).tobytes()
            == mc.forward(x, state, config).tobytes())


# ---------------------------------------------------------------------------
# text and CSV fuzzing: only package errors may escape
# ---------------------------------------------------------------------------

FUZZ = settings(derandomize=True, max_examples=300, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

# Fragments of well-formed inputs, so that joined draws reach the parsers'
# later stages (edge lists, feature blocks, ragged rows, imputation).
TOKENS = ["0", "1", "2", "3", "-1", "1.5", "-0.0", "nan", "inf", "1e999", "x",
          "99999999999999999999", "#", " ", ",", '"', "\n", "\r\n", "\t",
          "\x00", "\x1c", "\u2028", "é", "3 2", "0 1", "1 2"]


def fuzz_text():
    return st.one_of(st.text(), st.lists(st.sampled_from(TOKENS), max_size=40)
                     .map("".join))


@FUZZ
@given(text=fuzz_text())
@example(text="0 1\n#\n#\n")
@example(text="-1 1\n#\n#\n")
def test_parse_dtdg_fails_only_with_package_errors(text):
    try:
        graph = parse_dtdg(text)
    except DataError:
        return
    assert graph.n_steps >= 1 and graph.n_nodes >= 1


@FUZZ
@given(raw=st.one_of(st.binary(), fuzz_text().map(str.encode)),
       layout=st.sampled_from(["time_major", "variable_major"]),
       impute=st.sampled_from([None, "ffill"]))
def test_load_csv_fails_only_with_package_errors(tmp_path, raw, layout, impute):
    path = tmp_path / "fuzz.csv"
    path.write_bytes(raw)
    try:
        dataset = load_csv(path, layout=layout, impute=impute)
    except SpectempError:
        return
    assert dataset.n_dims == 1 and np.isfinite(dataset.values).all()


# ---------------------------------------------------------------------------
# config fuzzing: only ConfigError may escape
# ---------------------------------------------------------------------------

SECTION_CLASSES = [ex.SynthTask, ex.DataSource, mc.ModelConfig, TrainConfig,
                   cli.ForecastSection, cli.AblateSection, cli.TheorySection,
                   cli.ColumnSamplingSection, cli.RaceSection, cli.TwlSection,
                   cli.SynthSection]
# Integers stay small: reading a ModelConfig tabulates `degree` recurrence rows.
FLOATS = st.one_of(st.sampled_from([np.nan, np.inf, -np.inf]), st.floats())
JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-1000, 1000),
                         FLOATS, st.text(max_size=6))
JSON_VALUES = st.recursive(
    JSON_SCALARS, lambda inner: st.one_of(st.lists(inner, max_size=4),
                                          st.dictionaries(st.text(max_size=6), inner,
                                                          max_size=4)),
    max_leaves=8)
# Valid choices of the string fields, so drawn sections reach validation.
CHOICES = st.sampled_from([*BASIS_ORDER, "lowest", "random", "linear", "nonlinear",
                           "pearson", "learned", "provided", "dft", "zscore",
                           "minmax", "none", "time_major", "variable_major",
                           "ffill", "basis", "structure", ""])


def typed_value(hint):
    """Values of the declared type, including the non-finite floats."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        return st.one_of(*(st.none() if arg is type(None) else typed_value(arg)
                           for arg in args))
    if dataclasses.is_dataclass(hint):
        return section_data(hint)
    if origin is list:
        return st.lists(typed_value(args[0]), max_size=4)
    if origin is tuple:
        return st.tuples(*map(typed_value, args)).map(list)
    return {bool: st.booleans(), int: st.integers(-1000, 1000), str: CHOICES,
            float: st.one_of(FLOATS, st.integers(-1000, 1000))}[hint]


def section_data(cls):
    """A mapping of some of ``cls``'s keys to their default, to a value of
    their type or, rarely, to any JSON value; sometimes with a key ``cls``
    does not have."""
    hints = typing.get_type_hints(cls)

    @st.composite
    def draw_section(draw):
        data = {}
        for f in dataclasses.fields(cls):
            if not draw(st.booleans()):
                continue
            typed = typed_value(hints[f.name])
            if f.default is not dataclasses.MISSING:
                typed = st.one_of(st.just(f.default), typed)
            data[f.name] = draw(JSON_VALUES if draw(st.integers(0, 9)) == 0 else typed)
        if draw(st.integers(0, 9)) == 0:
            data[draw(st.text(max_size=6))] = draw(JSON_VALUES)
        return data
    return draw_section()


@FUZZ
@given(cls=st.sampled_from(SECTION_CLASSES), data=st.data())
def test_read_section_fails_only_with_config_error(cls, data):
    value = data.draw(JSON_VALUES if data.draw(st.integers(0, 9)) == 0
                      else section_data(cls))
    try:
        section = read_section(cls, value, "fuzz")
    except ConfigError:
        return
    assert isinstance(section, cls)
    leaves = []
    pending = [dataclasses.asdict(section)]
    while pending:
        item = pending.pop()
        if isinstance(item, (dict, list, tuple)):
            pending.extend(item.values() if isinstance(item, dict) else item)
        else:
            leaves.append(item)
    assert all(np.isfinite(v) for v in leaves if isinstance(v, float))
