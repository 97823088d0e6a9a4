"""Color refinement (temporal 1-WL) on discrete-time dynamic graphs.

A discrete-time dynamic graph (DTDG) is a fixed node set observed over T
snapshots, each with its own edge set and optionally an (N, D) feature
block. Refinement colors every (node, time) cell:

* initial colors hash the node features (quantized to a 1e-9 grid), so
  equal features map to equal colors wherever they appear; featureless
  graphs start monochrome;
* one round recolors (v, t) by the tuple (own color, color of (v, t-1),
  sorted multiset of neighbor colors at time t); at t = 0, and when T = 1,
  the previous-time entry is omitted;
* a round's fresh ids continue the ids issued so far, in the order the
  keys first occur, cells visited t-major (t*N + v); graphs refined
  together are visited one after the other, so their colors are directly
  comparable.

A round is one array relabel (the sorting-based 1-WL of Shervashidze et
al. 2011): every cell's key becomes one int64 row (own color, previous
color or -1, neighbor colors sorted within the cell), cells of
equal degree share one exact-width block of rows, and `np.unique` dedupes
each block over every graph refined together. Colors are issued by
counting, not looked up: every key of a round holds an own color issued
in the round before, so no key can repeat an earlier round's, and a
key's id is the number of ids issued so far plus the rank of its first
cell among the round's distinct keys. A round holds O(cells + E)
integers for E edges over all snapshots and costs
O((cells + E)*log(cells + E)) array work whatever the degree spread. The
same dedupe yields each state's color count, so no pass counts colors
again.

`wl_test` compares the end-time color multisets of two graphs after each
round: if they ever differ the graphs are certainly non-isomorphic;
agreement to stabilization is inconclusive (the usual 1-WL one-sided
guarantee). The partition refines monotonically and must stabilize within
N*T rounds, which is the default cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import DataError, ParameterError, ShapeError
from .spectral_graph import Adjacency, eigendecompose, normalized_laplacian

__all__ = [
    "DTDG",
    "ColoringState",
    "WLReport",
    "SpectralConditionReport",
    "NON_ISOMORPHIC",
    "INCONCLUSIVE",
    "init_colors",
    "refine_step",
    "refine_to_stable",
    "wl_test",
    "distinguishable",
    "check_spectral_conditions",
    "parse_dtdg",
    "format_dtdg",
    "read_dtdg",
    "write_dtdg",
    "fixture_path",
]

NON_ISOMORPHIC = "non_isomorphic"
INCONCLUSIVE = "inconclusive"

_FEATURE_GRID = 1e-9


class _CellIndex(NamedTuple):
    """Adjacency of a DTDG over its cells c = t*N + v."""

    owner: np.ndarray      # (2E,) cell of each edge end, ascending
    neighbour: np.ndarray  # (2E,) cell across that edge, same snapshot
    # one (cells, entries) pair per distinct degree d: the cells of degree
    # d, ascending, and the (m, d) positions of their runs in `owner`
    groups: tuple


@dataclass(frozen=True)
class DTDG:
    """Snapshots of an undirected graph on a persistent node set."""

    n_nodes: int
    edges: tuple  # per snapshot: tuple of (u, v) pairs with u < v
    features: np.ndarray | None = None  # (N, T, D)

    def __post_init__(self):
        if self.n_nodes < 1:
            raise ParameterError("a DTDG needs at least one node")
        if len(self.edges) < 1:
            raise ParameterError("a DTDG needs at least one snapshot")
        norm_snapshots = []
        for t, snapshot in enumerate(self.edges):
            seen = set()
            for u, v in snapshot:
                if u == v:
                    raise DataError(f"self loop {u}-{v} in snapshot {t}")
                if not (0 <= u < self.n_nodes and 0 <= v < self.n_nodes):
                    raise DataError(f"edge {u}-{v} out of range in snapshot {t}")
                seen.add((min(u, v), max(u, v)))
            norm_snapshots.append(tuple(sorted(seen)))
        object.__setattr__(self, "edges", tuple(norm_snapshots))
        if self.features is not None:
            feats = np.asarray(self.features, dtype=np.float64)
            if feats.ndim == 2:
                feats = feats[:, :, None]
            if feats.shape[:2] != (self.n_nodes, len(self.edges)):
                raise ShapeError(
                    f"features must be (N, T, D) = ({self.n_nodes}, {len(self.edges)}, D),"
                    f" got {feats.shape}")
            if not np.all(np.isfinite(feats)):
                raise DataError("features contain non-finite values")
            object.__setattr__(self, "features", feats)

    @property
    def n_steps(self) -> int:
        return len(self.edges)

    @property
    def topology_fixed(self) -> bool:
        return all(snapshot == self.edges[0] for snapshot in self.edges)

    @cached_property
    def _cells(self) -> _CellIndex:
        """Built on first refinement, not in the constructor: most graphs
        are only parsed, formatted or permuted."""
        n = self.n_nodes
        sizes = [len(snapshot) for snapshot in self.edges]
        ends = np.fromiter(chain.from_iterable(chain.from_iterable(self.edges)),
                           dtype=np.int64, count=2 * sum(sizes)).reshape(-1, 2)
        ends += np.repeat(np.arange(self.n_steps) * n, sizes)[:, None]
        owner = np.concatenate([ends[:, 0], ends[:, 1]])
        neighbour = np.concatenate([ends[:, 1], ends[:, 0]])
        order = np.argsort(owner, kind="stable")
        owner, neighbour = owner[order], neighbour[order]
        degree = np.bincount(owner, minlength=n * self.n_steps)
        start = np.cumsum(degree) - degree
        by_degree = np.argsort(degree, kind="stable")
        bounds = np.flatnonzero(np.diff(degree[by_degree])) + 1
        groups = tuple((cells, start[cells][:, None] + np.arange(degree[cells[0]]))
                       for cells in np.split(by_degree, bounds))
        return _CellIndex(owner, neighbour, groups)

    def permuted(self, perm: np.ndarray) -> "DTDG":
        """Relabel nodes by perm (node i becomes perm[i])."""
        perm = np.asarray(perm)
        edges = tuple(tuple((int(perm[u]), int(perm[v])) for u, v in snap)
                      for snap in self.edges)
        feats = None
        if self.features is not None:
            feats = np.empty_like(self.features)
            feats[perm] = self.features
        return DTDG(self.n_nodes, edges, feats)


@dataclass
class ColoringState:
    """Colors per (node, time) cell and the ids issued so far.

    ``colors`` is (N, T) for one graph and (G, N, T) for G graphs refined
    together; ``n_colors`` counts the distinct colors of the whole state.
    ``palette`` is ``range(issued)``: the next round's fresh ids follow it.
    """

    colors: np.ndarray
    n_colors: int
    palette: range = range(0)


def _merge_by_width(pairs) -> list:
    """Join the (cells, block) pairs whose blocks are equally wide.

    Pairs listed in ascending cell order keep each joined cell array
    ascending.
    """
    widths: dict = {}
    for cells, block in pairs:
        widths.setdefault(block.shape[1], []).append((cells, block))
    return [(np.concatenate([c for c, _ in same]), np.concatenate([b for _, b in same]))
            for same in widths.values()]


class _Graphs(tuple):
    """Graphs refined together: equal N and T, cells in (graph, t, v)
    order. A DTDG stands for the tuple of itself."""

    def __new__(cls, graph):
        if isinstance(graph, cls):
            return graph
        graphs = super().__new__(cls, (graph,) if isinstance(graph, DTDG) else graph)
        if len({(g.n_nodes, g.n_steps) for g in graphs}) != 1:
            raise ShapeError("graphs refined together need equal node and step counts")
        return graphs

    @cached_property
    def cells(self) -> _CellIndex:
        """The graphs' own cell indices side by side, built once."""
        if len(self) == 1:
            return self[0]._cells
        indices = [g._cells for g in self]
        span = self[0].n_nodes * self[0].n_steps
        shifts = range(0, span * len(self), span)
        ends = np.cumsum([0] + [index.owner.size for index in indices])
        return _CellIndex(
            np.concatenate([index.owner + shift for index, shift in zip(indices, shifts)]),
            np.concatenate([index.neighbour + shift
                            for index, shift in zip(indices, shifts)]),
            tuple(_merge_by_width((cells + shift, entries + end)
                                  for index, shift, end in zip(indices, shifts, ends)
                                  for cells, entries in index.groups)))


def _assign_ids(groups, size: int, issued: int) -> tuple[np.ndarray, int]:
    """Id of every cell and the number of distinct keys.

    ``groups`` holds (cells, rows) pairs: ascending cell indices and one
    int64 key row per cell, all rows of a pair equally wide and no width
    in two pairs, so equal keys are equal rows of one pair. Distinct keys
    are ranked by the cell where they first occur and get the ids
    ``issued + rank``: the ids a palette would issue visiting cells in
    order, as long as no key was issued before. Every refinement key holds
    an own color issued in the round before, so that holds for a state's
    next round.
    """
    first, inverses, count = [], [], 0
    for cells, rows in groups:
        void = np.dtype((np.void, rows.itemsize * rows.shape[1]))
        _, at, inverse = np.unique(rows.view(void).ravel(),
                                   return_index=True, return_inverse=True)
        inverses.append((cells, inverse + count))
        count += at.size
        first.append(cells[at])
    by_key = np.empty(count, dtype=np.int64)
    by_key[np.argsort(np.concatenate(first))] = np.arange(issued, issued + count)
    out = np.empty(size, dtype=np.int64)
    for cells, inverse in inverses:
        out[cells] = by_key[inverse]
    return out, count


def _cell_grid(ids: np.ndarray, shape: tuple) -> np.ndarray:
    """Colors of ``shape`` ((N, T) or (G, N, T)) from ids listed in
    (graph, t, v) order."""
    n, t = shape[-2:]
    return np.ascontiguousarray(ids.reshape(-1, t, n).transpose(0, 2, 1)).reshape(shape)


def init_colors(graph: DTDG | tuple) -> ColoringState:
    """Feature-hash initialization (monochrome when featureless) of one
    graph, or of a tuple of graphs on one palette.

    Features are quantized to the 1e-9 grid as float64 integers (never a
    fixed-width int, which would wrap past 9.2e9), with -0.0 folded to
    0.0, so equal quantized values give equal rows. A cell's row is a 0
    followed by its D features, so a featureless cell's row is not empty
    and graphs with different D never share a color.
    """
    graphs = _Graphs(graph)
    n, t = graphs[0].n_nodes, graphs[0].n_steps
    blocks = []
    for i, g in enumerate(graphs):
        d = 0 if g.features is None else g.features.shape[2]
        rows = np.zeros((t * n, 1 + d), dtype=np.int64)
        if d:
            quantized = np.rint(g.features / _FEATURE_GRID) + 0.0
            rows[:, 1:] = quantized.transpose(1, 0, 2).reshape(t * n, d).view(np.int64)
        blocks.append((np.arange(i * t * n, (i + 1) * t * n), rows))
    ids, count = _assign_ids(_merge_by_width(blocks), len(graphs) * t * n, 0)
    shape = (n, t) if isinstance(graph, DTDG) else (len(graphs), n, t)
    return ColoringState(_cell_grid(ids, shape), count, palette=range(count))


def refine_step(graph: DTDG | tuple, state: ColoringState) -> ColoringState:
    """One refinement round of one graph, or of a tuple of graphs refined
    together; fresh ids continue ``state.palette``.

    Cell (v, t) is keyed by the row (own color, color of (v, t-1) or -1 at
    t = 0, its neighbor colors sorted ascending); cells of degree d get
    rows of exactly 2 + d entries.
    """
    graphs = _Graphs(graph)
    cells = graphs.cells
    n, t = graphs[0].n_nodes, graphs[0].n_steps
    by_step = state.colors.reshape(-1, n, t).transpose(0, 2, 1)
    own = by_step.ravel()
    previous = np.full(by_step.shape, -1, dtype=np.int64)
    previous[:, 1:] = by_step[:, :-1]
    previous = previous.ravel()
    # sorting owner*span + color sorts each owner's run by color in place
    offset = cells.owner * (int(own.max()) + 1)
    neighbours = np.sort(offset + own[cells.neighbour]) - offset
    blocks = []
    for group, entries in cells.groups:
        rows = np.empty((group.size, 2 + entries.shape[1]), dtype=np.int64)
        rows[:, 0] = own[group]
        rows[:, 1] = previous[group]
        rows[:, 2:] = neighbours[entries]
        blocks.append((group, rows))
    issued = len(state.palette)
    ids, count = _assign_ids(blocks, own.size, issued)
    return ColoringState(_cell_grid(ids, state.colors.shape), count,
                         palette=range(issued + count))


def refine_to_stable(graph: DTDG, max_rounds: int | None = None) -> ColoringState:
    """Refine ``init_colors(graph)`` until the partition stops changing (at
    most N*T rounds)."""
    state = init_colors(graph)
    cap = graph.n_nodes * graph.n_steps if max_rounds is None else max_rounds
    for _ in range(cap):
        refined = refine_step(graph, state)
        if refined.n_colors == state.n_colors:
            return refined
        state = refined
    return state


@dataclass(frozen=True)
class WLReport:
    verdict: str
    rounds: int
    diverged_at: int | None  # round index where end-time multisets split


def wl_test(g1: DTDG, g2: DTDG, steps: int | None = None) -> WLReport:
    """Refinement of two graphs together, on one palette.

    Returns NON_ISOMORPHIC as soon as the end-time color multisets differ;
    INCONCLUSIVE if they still agree when the joint partition stabilizes
    (or at the round cap). Each round is one ``refine_step`` over both
    graphs' cells, so its color count is the joint count of both graphs.
    """
    graphs = _Graphs((g1, g2))

    def split(state: ColoringState) -> bool:
        ends = np.sort(state.colors[:, :, -1], axis=1)
        return not np.array_equal(ends[0], ends[1])

    state = init_colors(graphs)
    if split(state):
        return WLReport(NON_ISOMORPHIC, rounds=0, diverged_at=0)
    cap = g1.n_nodes * g1.n_steps if steps is None else steps
    for round_index in range(1, cap + 1):
        refined = refine_step(graphs, state)
        if split(refined):
            return WLReport(NON_ISOMORPHIC, rounds=round_index, diverged_at=round_index)
        if refined.n_colors == state.n_colors:
            return WLReport(INCONCLUSIVE, rounds=round_index, diverged_at=None)
        state = refined
    return WLReport(INCONCLUSIVE, rounds=cap, diverged_at=None)


def distinguishable(graph: DTDG, u: int, v: int, t: int,
                    steps: int | None = None) -> bool:
    """True when refinement (at most ``steps`` rounds) separates cells
    (u, t) and (v, t). Refinement never merges colors, so checking the last
    partition is the same as checking every round. The partition is
    computed once per (graph, steps) and kept on the graph, so querying
    many pairs refines once."""
    if not (0 <= u < graph.n_nodes and 0 <= v < graph.n_nodes):
        raise ParameterError("node indices out of range")
    if not 0 <= t < graph.n_steps:
        raise ParameterError("time index out of range")
    partitions = graph.__dict__.setdefault("_partitions", {})
    if steps not in partitions:
        partitions[steps] = refine_to_stable(graph, max_rounds=steps).colors
    colors = partitions[steps]
    return bool(colors[u, t] != colors[v, t])


@dataclass(frozen=True)
class SpectralConditionReport:
    """Spectral obstructions to distinguishing nodes on a fixed topology.

    repeated_eigenvalues flags Laplacian eigenvalue gaps below 1e-8;
    missing_components lists (t, i) pairs where eigencomponent i of the
    snapshot-t features has norm below tol.
    """

    eigenvalues: np.ndarray
    repeated_eigenvalues: bool
    min_gap: float
    missing_components: tuple
    conditions_hold: bool


def check_spectral_conditions(graph: DTDG, tol: float = 1e-6) -> SpectralConditionReport:
    if not graph.topology_fixed:
        raise ParameterError("spectral conditions require a fixed topology")
    if graph.features is None:
        raise ParameterError("spectral conditions require node features")
    n = graph.n_nodes
    adjacency = np.zeros((n, n))
    for u, v in graph.edges[0]:
        adjacency[u, v] = adjacency[v, u] = 1.0
    spectrum = eigendecompose(normalized_laplacian(Adjacency(adjacency)))
    gaps = np.diff(spectrum.eigenvalues)
    min_gap = float(gaps.min()) if gaps.size else np.inf
    repeated = bool(gaps.size and min_gap < 1e-8)

    missing = []
    for t in range(graph.n_steps):
        hat = spectrum.eigenvectors.T @ graph.features[:, t, :]  # (N, D)
        norms = np.sqrt((hat ** 2).sum(axis=1))
        for i in np.flatnonzero(norms < tol):
            missing.append((t, int(i)))
    return SpectralConditionReport(
        eigenvalues=spectrum.eigenvalues,
        repeated_eigenvalues=repeated,
        min_gap=min_gap,
        missing_components=tuple(missing),
        conditions_hold=not repeated and not missing,
    )


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------
#
# Header line: "N T". Then, per snapshot, two '#'-terminated sections:
# edge lines ("u v"), then N feature rows of D floats (or zero rows for a
# featureless graph). Example with N=3, T=2, D=1:
#
#     3 2
#     0 1
#     1 2
#     #
#     0.5
#     1.0
#     0.5
#     #
#     0 2
#     #
#     0.5
#     1.0
#     0.5
#     #

def parse_dtdg(text: str) -> DTDG:
    lines = [line.strip() for line in text.splitlines()]
    lines = [line for line in lines if line]
    if not lines:
        raise DataError("empty DTDG document")
    header = lines[0].split()
    if len(header) != 2:
        raise DataError(f"header must be 'N T', got {lines[0]!r}")
    try:
        n, t = int(header[0]), int(header[1])
    except ValueError as exc:
        raise DataError(f"non-integer header {lines[0]!r}") from exc

    pos = 1
    snapshots, feature_blocks = [], []
    for step in range(t):
        edges = []
        while pos < len(lines) and lines[pos] != "#":
            parts = lines[pos].split()
            if len(parts) != 2:
                raise DataError(f"line {pos + 1}: expected 'u v', got {lines[pos]!r}")
            try:
                edges.append((int(parts[0]), int(parts[1])))
            except ValueError as exc:
                raise DataError(f"line {pos + 1}: non-integer edge endpoint") from exc
            pos += 1
        if pos >= len(lines):
            raise DataError(f"snapshot {step}: missing '#' after edge list")
        pos += 1  # consume separator
        rows = []
        while pos < len(lines) and lines[pos] != "#":
            try:
                rows.append([float(x) for x in lines[pos].split()])
            except ValueError as exc:
                raise DataError(f"line {pos + 1}: non-numeric feature row") from exc
            pos += 1
        if pos >= len(lines):
            raise DataError(f"snapshot {step}: missing '#' after feature block")
        pos += 1
        if rows and len(rows) != n:
            raise DataError(
                f"snapshot {step}: feature block has {len(rows)} rows, expected {n}")
        snapshots.append(tuple(edges))
        feature_blocks.append(rows)

    has_features = [bool(rows) for rows in feature_blocks]
    if any(has_features) and not all(has_features):
        raise DataError("either every snapshot has a feature block or none does")
    features = None
    if all(has_features):
        dims = {len(row) for rows in feature_blocks for row in rows}
        if len(dims) != 1:
            raise DataError("inconsistent feature dimensionality")
        stacked = np.asarray(feature_blocks, dtype=np.float64)  # (T, N, D)
        features = np.transpose(stacked, (1, 0, 2))
    return DTDG(n_nodes=n, edges=tuple(snapshots), features=features)


def format_dtdg(graph: DTDG) -> str:
    out = [f"{graph.n_nodes} {graph.n_steps}"]
    for t in range(graph.n_steps):
        for u, v in graph.edges[t]:
            out.append(f"{u} {v}")
        out.append("#")
        if graph.features is not None:
            for v in range(graph.n_nodes):
                out.append(" ".join(repr(float(x)) for x in graph.features[v, t]))
        out.append("#")
    return "\n".join(out) + "\n"


def read_dtdg(path) -> DTDG:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as err:
            raise DataError(f"{path}: not UTF-8 text: {err}") from None
    return parse_dtdg(text)


def write_dtdg(graph: DTDG, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_dtdg(graph))


def fixture_path(name: str):
    """Path to a packaged example graph (e.g. 'wl_pair_left')."""
    from importlib.resources import files

    return files("spectemp").joinpath("fixtures", f"{name}.dtdg")
