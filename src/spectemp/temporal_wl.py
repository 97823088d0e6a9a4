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
* fresh ids come from a palette keyed by canonical tuples, so two graphs
  refined against a shared palette are directly comparable.

`wl_test` compares the end-time color multisets of two graphs after each
round: if they ever differ the graphs are certainly non-isomorphic;
agreement to stabilization is inconclusive (the usual 1-WL one-sided
guarantee). The partition refines monotonically and must stabilize within
N*T rounds, which is the default cap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

    def neighbor_lists(self, t: int) -> list[list[int]]:
        out = [[] for _ in range(self.n_nodes)]
        for u, v in self.edges[t]:
            out[u].append(v)
            out[v].append(u)
        return out

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
    """Colors per (node, time) cell plus the palette that issued them."""

    colors: np.ndarray            # (N, T) ints
    palette: dict = field(default_factory=dict)
    rounds: int = 0

    def color_count(self) -> int:
        return len(np.unique(self.colors))


def _palette_id(palette: dict, key) -> int:
    if key not in palette:
        palette[key] = len(palette)
    return palette[key]


def init_colors(graph: DTDG, palette: dict | None = None) -> ColoringState:
    """Feature-hash initialization (monochrome when featureless)."""
    palette = {} if palette is None else palette
    n, t = graph.n_nodes, graph.n_steps
    colors = np.zeros((n, t), dtype=np.int64)
    for step in range(t):
        for v in range(n):
            if graph.features is None:
                key = ("feat", ())
            else:
                quantized = tuple(int(round(x / _FEATURE_GRID))
                                  for x in graph.features[v, step])
                key = ("feat", quantized)
            colors[v, step] = _palette_id(palette, key)
    return ColoringState(colors=colors, palette=palette)


def refine_step(graph: DTDG, state: ColoringState) -> ColoringState:
    """One refinement round; fresh ids are drawn from the shared palette."""
    colors = state.colors
    n, t = colors.shape
    new_colors = np.zeros_like(colors)
    for step in range(t):
        neighbors = graph.neighbor_lists(step)
        for v in range(n):
            multiset = tuple(sorted(colors[u, step] for u in neighbors[v]))
            if step == 0:
                key = ("ref", int(colors[v, step]), multiset)
            else:
                key = ("ref", int(colors[v, step]), int(colors[v, step - 1]), multiset)
            new_colors[v, step] = _palette_id(state.palette, key)
    return ColoringState(colors=new_colors, palette=state.palette,
                         rounds=state.rounds + 1)


def refine_to_stable(graph: DTDG, state: ColoringState | None = None,
                     max_rounds: int | None = None) -> ColoringState:
    """Refine until the partition stops changing (at most N*T rounds)."""
    if state is None:
        state = init_colors(graph)
    cap = graph.n_nodes * graph.n_steps if max_rounds is None else max_rounds
    for _ in range(cap):
        refined = refine_step(graph, state)
        if refined.color_count() == state.color_count():
            return refined
        state = refined
    return state


@dataclass(frozen=True)
class WLReport:
    verdict: str
    rounds: int
    diverged_at: int | None  # round index where end-time multisets split


def _end_multiset(colors: np.ndarray) -> tuple:
    return tuple(sorted(colors[:, -1].tolist()))


def wl_test(g1: DTDG, g2: DTDG, steps: int | None = None) -> WLReport:
    """Parallel refinement of two graphs against one shared palette.

    Returns NON_ISOMORPHIC as soon as the end-time color multisets differ;
    INCONCLUSIVE if they still agree when both partitions stabilize (or at
    the round cap).
    """
    if g1.n_nodes != g2.n_nodes or g1.n_steps != g2.n_steps:
        raise ShapeError("wl_test compares graphs with equal node and step counts")
    cap = g1.n_nodes * g1.n_steps if steps is None else steps
    palette: dict = {}
    s1 = init_colors(g1, palette)
    s2 = init_colors(g2, palette)
    if _end_multiset(s1.colors) != _end_multiset(s2.colors):
        return WLReport(NON_ISOMORPHIC, rounds=0, diverged_at=0)
    for round_index in range(1, cap + 1):
        joint_before = len(np.unique(np.concatenate([s1.colors.ravel(),
                                                     s2.colors.ravel()])))
        s1 = refine_step(g1, s1)
        s2 = refine_step(g2, s2)
        if _end_multiset(s1.colors) != _end_multiset(s2.colors):
            return WLReport(NON_ISOMORPHIC, rounds=round_index, diverged_at=round_index)
        joint_after = len(np.unique(np.concatenate([s1.colors.ravel(),
                                                    s2.colors.ravel()])))
        if joint_after == joint_before:
            return WLReport(INCONCLUSIVE, rounds=round_index, diverged_at=None)
    return WLReport(INCONCLUSIVE, rounds=cap, diverged_at=None)


def distinguishable(graph: DTDG, u: int, v: int, t: int,
                    steps: int | None = None) -> bool:
    """True when refinement (at most ``steps`` rounds) separates cells
    (u, t) and (v, t). Refinement never merges colors, so checking the last
    partition is the same as checking every round."""
    if not (0 <= u < graph.n_nodes and 0 <= v < graph.n_nodes):
        raise ParameterError("node indices out of range")
    if not 0 <= t < graph.n_steps:
        raise ParameterError("time index out of range")
    state = refine_to_stable(graph, max_rounds=steps)
    return bool(state.colors[u, t] != state.colors[v, t])


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
        return parse_dtdg(fh.read())


def write_dtdg(graph: DTDG, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_dtdg(graph))


def fixture_path(name: str):
    """Path to a packaged example graph (e.g. 'wl_pair_left')."""
    from importlib.resources import files

    return files("spectemp").joinpath("fixtures", f"{name}.dtdg")
