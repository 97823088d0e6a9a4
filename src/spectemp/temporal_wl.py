"""Color refinement (temporal 1-WL) on discrete-time dynamic graphs.

A discrete-time dynamic graph (DTDG) is a fixed node set observed over T
snapshots, each with its own edge set and optionally an (N, D) feature
block. Refinement colors every (node, time) cell:

* initial colors hash the node features, rounded to a 1e-9 grid below
  2**22 in magnitude and kept exact above it (where floats are about a
  grid step apart or more), so equal features map to equal colors
  wherever they appear; featureless graphs start monochrome;
* one round recolors (v, t) by the tuple (own color, color of (v, t-1),
  sorted multiset of neighbor colors at time t); at t = 0, and when T = 1,
  the previous-time entry is omitted;
* a round's fresh ids continue the ids issued so far, in the order the
  keys first occur, cells visited t-major (t*N + v); graphs refined
  together are visited one after the other, so their colors are directly
  comparable.

A round is an array relabel (the sorting-based 1-WL of Shervashidze et
al. 2011) of the classes that can split. A cell's key is a row of
digits: its own color, its color at t-1 (a digit for "none" at t = 0)
and its neighbor colors sorted within the cell, each color shifted so
that every digit lies in [1, radix) for a radix just above the state's
color span. Cells of equal degree share one exact-width block of rows.
Each run of digits that fits 62 bits is read as one int64; while a row
needs more than one number, the numbers of all such rows are ranked
jointly by one sort, and the ranks are the next level's digits, so a row
of width w takes O(log w) levels. The rows that became one number are
deduped by one argsort per level, across every block and every graph
refined together: no digit is 0, so a number also tells how many digits
it read, and rows of different widths never share a key. Each class is
led by its first cell. Colors are issued by counting, not looked up: a
class's id is the number of ids issued so far plus the rank of its
leader among all leaders, and every key of a round holds an own color
issued in the round before, so no id repeats an earlier round's.

A class can split in a round only if it has two or more cells and one
of them has a neighbor, or its cell at t-1, in a class that split in the
round before; otherwise its cells see the classes they saw before, and
their keys stay equal (the worklist of colour refinement; Berkholz,
Bonsma and Grohe 2017). So a state from ``refine_step`` carries its joint
cell index, each cell's leader and which classes just split, and the
next round on the same graphs reuses the index and keys only the classes
of two or more cells that those splits reach. Every other class keeps
its cells and its leader, and the leaders' ranks give every cell its new
id, so the colors are bitwise those of keying every cell. Other states,
and rounds after one whose split cells are at least half of all cells
(``_DENSE_SPLIT``), key every cell: after such a split nearly every class
is reached anyway, and finding them costs more than keying the rest. The
index lists each cell's edge ends at per-cell offsets, so a round reads
the ends of only its split and keyed cells. A round holds O(cells + E)
integers for E edges over all snapshots. It makes O(cells) array passes
plus passes over the ends of the split and keyed cells, and
O((k + e)*log(k + e)) sorting for k keyed cells with e edge ends,
whatever the degree spread. The same dedupe yields each state's color
count, so no pass recounts.

`wl_test` compares the end-time color multisets of two graphs after each
round: if they ever differ the graphs are certainly non-isomorphic;
agreement to stabilization is inconclusive (the usual 1-WL one-sided
guarantee). The partition refines monotonically and must stabilize within
N*T rounds, which is the default cap.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import DataError, ParameterError, ShapeError
from .spectral_graph import (_EIGEN_GAP, Adjacency, eigendecompose,
                             normalized_laplacian)

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
_GRID_LIMIT = 2.0 ** 22     # float spacing below it is under half a grid step
# A round after one whose split cells are at least this share of all cells
# keys every cell: finding the classes the split reaches costs more than
# keying the rest. On the wl_refine moved-edge pair (N=500, T=20, seed 3),
# rounds 3 and 4 follow splits of 99.9% and 64% of the cells and reach
# 99.9% and 96% of them, in 3.4 and 3.6 ms, against 2.8 ms keying every
# cell; round 5 follows a 3% split and reaches 7%. On the pairs of seeds
# 3, 7 and 11, no round follows a split of between 6.4% and 61% of cells.
_DENSE_SPLIT = 0.5


class _CellIndex(NamedTuple):
    """Adjacency of a DTDG over its cells c = t*N + v, laid out by degree.

    A cell's slot is its place in ``order``. Edge ends are listed by the
    slot of the cell that owns them: the cell at slot s owns the ends
    ``offsets[s]:offsets[s + 1]``, so a round reads the ends of only the
    cells it needs (``_ends``), and the ends of the ``count`` cells of one
    degree d are one run of count*d entries.
    """

    order: np.ndarray      # (cells,) the cells by degree, then by cell
    neighbour: np.ndarray  # (2E,) cell across each edge end, same snapshot, by slot
    offsets: np.ndarray    # (cells + 1,) first end of each slot, then 2E
    degrees: tuple         # (degree d, count) per run of ``order``, d ascending


def _indexed(order: np.ndarray, neighbour: np.ndarray, degrees: tuple) -> _CellIndex:
    """The index of cells listed by degree run, with each slot's offsets."""
    degree = np.repeat(*np.array(degrees, dtype=np.int64).reshape(-1, 2).T)
    return _CellIndex(order, neighbour, np.concatenate(([0], np.cumsum(degree))), degrees)


def _cell_index(owner: np.ndarray, neighbour: np.ndarray, size: int) -> _CellIndex:
    """The index of ``size`` cells from both ends of every edge."""
    degree = np.bincount(owner, minlength=size)
    order = np.argsort(degree, kind="stable")
    slot = np.empty(size, dtype=np.int64)
    slot[order] = np.arange(size)
    by_slot = np.argsort(slot[owner])
    degrees, counts = np.unique(degree, return_counts=True)
    return _indexed(order, neighbour[by_slot], tuple(zip(degrees.tolist(), counts.tolist())))


def _ends(cells: _CellIndex, slots: np.ndarray) -> np.ndarray:
    """The neighbours of the cells at ``slots``, slot after slot: one
    gather of their ends, not a scan of every end."""
    starts = cells.offsets[slots]
    lengths = cells.offsets[slots + 1] - starts
    at = np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
    return cells.neighbour[at + np.arange(at.size)]


def _checked_pairs(n: int, snapshots) -> list:
    """Every edge as a (u, v) pair of Python ints, snapshot after
    snapshot; the first edge that is not a pair of distinct integers in
    [0, n) raises ``DataError`` naming it and its snapshot."""
    pairs = []
    for t, snapshot in enumerate(snapshots):
        for edge in snapshot:
            try:
                u, v = edge
            except (TypeError, ValueError):
                raise DataError(f"edge {edge!r} in snapshot {t} is not a pair") from None
            if any(isinstance(x, bool) or not isinstance(x, numbers.Integral) for x in edge):
                raise DataError(f"edge {edge!r} in snapshot {t} has an endpoint"
                                " that is not an integer")
            if u == v:
                raise DataError(f"self loop {u}-{v} in snapshot {t}")
            if not (0 <= u < n and 0 <= v < n):
                raise DataError(f"edge {u}-{v} out of range in snapshot {t}")
            pairs.append((int(u), int(v)))
    return pairs


def _normal_edges(n: int, snapshots) -> tuple:
    """Each snapshot's edges as sorted (u, v) tuples of Python ints with
    u < v, each edge once, from one numpy pass over every edge. Only when
    the endpoints' types, or that pass, show something amiss does
    ``_checked_pairs`` visit edge by edge to name it."""
    sizes = [len(snapshot) for snapshot in snapshots]
    pairs = tuple(chain.from_iterable(snapshots))
    if set(map(type, pairs)) - {tuple} or set(map(len, pairs)) - {2}:
        pairs = _checked_pairs(n, snapshots)
    ends = list(chain.from_iterable(pairs))
    if set(map(type, ends)) - {int}:
        ends = list(chain.from_iterable(_checked_pairs(n, snapshots)))
    try:
        ends = np.array(ends, dtype=np.int64).reshape(-1, 2)
    except OverflowError:  # an endpoint past int64
        _checked_pairs(n, snapshots)  # raises if it is out of range, as for any N below 2**63
        raise
    lo, hi = np.minimum(ends[:, 0], ends[:, 1]), np.maximum(ends[:, 0], ends[:, 1])
    if lo.size and (np.any(lo == hi) or lo.min() < 0 or hi.max() >= n):
        _checked_pairs(n, snapshots)  # raises at the first such edge
    step = np.repeat(np.arange(len(sizes)), sizes)
    order = np.lexsort((hi, lo, step))
    step, lo, hi = step[order], lo[order], hi[order]
    fresh = np.ones(lo.size, dtype=bool)
    fresh[1:] = (step[1:] != step[:-1]) | (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    cuts = np.searchsorted(step[fresh], np.arange(len(sizes) + 1)).tolist()
    u, v = lo[fresh].tolist(), hi[fresh].tolist()
    return tuple(tuple(zip(u[a:b], v[a:b])) for a, b in zip(cuts, cuts[1:]))


@dataclass(frozen=True)
class DTDG:
    """Snapshots of an undirected graph on a persistent node set.

    Each edge is a pair of distinct integer node ids in [0, N); a bool is
    not taken for an integer. Each snapshot's edges are stored as sorted
    (u, v) tuples of Python ints with u < v, each edge once, and the first
    malformed edge raises ``DataError`` naming it and its snapshot.
    """

    n_nodes: int
    edges: tuple  # per snapshot: tuple of (u, v) pairs with u < v
    features: np.ndarray | None = None  # (N, T, D)

    def __post_init__(self):
        if self.n_nodes < 1:
            raise ParameterError("a DTDG needs at least one node")
        if len(self.edges) < 1:
            raise ParameterError("a DTDG needs at least one snapshot")
        object.__setattr__(self, "edges", _normal_edges(self.n_nodes, self.edges))
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
        return _cell_index(ends.T.ravel(), ends[:, ::-1].T.ravel(), n * self.n_steps)

    def permuted(self, perm: np.ndarray) -> "DTDG":
        """Relabel nodes by perm (node i becomes perm[i]), a permutation of
        range(N) as integers."""
        perm = np.asarray(perm)
        if (perm.shape != (self.n_nodes,) or not np.issubdtype(perm.dtype, np.integer)
                or not np.array_equal(np.sort(perm), np.arange(self.n_nodes))):
            raise ParameterError(
                f"a node relabelling must be a permutation of range({self.n_nodes}),"
                f" got {perm.tolist()!r}")
        label = perm.tolist()
        edges = tuple(tuple((label[u], label[v]) for u, v in snap) for snap in self.edges)
        feats = None if self.features is None else self.features[np.argsort(perm)]
        return DTDG(self.n_nodes, edges, feats)


class _History(NamedTuple):
    """What a round tells the next one about the state it made."""

    graphs: tuple         # the graphs the round refined
    cells: _CellIndex     # their joint cell index and end offsets, reused next round
    colors: np.ndarray    # the colors it made, read-only
    leader: np.ndarray    # (cells,) first cell of each cell's class, (graph, t, v) order
    split: np.ndarray     # (cells,) True where the cell's class before the round split


@dataclass
class ColoringState:
    """Colors per (node, time) cell and the ids issued so far.

    ``colors`` is (N, T) for one graph and (G, N, T) for G graphs refined
    together; ``n_colors`` counts the distinct colors of the whole state.
    ``palette`` is ``range(issued)``: the next round's fresh ids follow it.

    A state that ``refine_step`` returns also carries its round's history
    (not an argument, not compared): the joint cell index, each cell's
    class leader and the cells whose class just split. Its colors are
    read-only, so the history cannot fall out of step with them. The next
    round reads it only on the same graph objects and colors array. Any
    other state, such as one from ``init_colors``, one built by hand or
    one passed with other graphs, has every cell keyed.
    """

    colors: np.ndarray
    n_colors: int
    palette: range = range(0)
    _history: _History | None = field(default=None, init=False, repr=False,
                                      compare=False)


def _graphs(graph: DTDG | tuple) -> tuple:
    """Graphs refined together: equal N and T, cells in (graph, t, v)
    order. A DTDG stands for the tuple of itself. No radix of ``_lead``
    passes one more than a round's key digits (2 per cell, 1 per edge end)
    or the feature values, and ``_powers`` packs two digits only below
    radix 2**31, so graphs past 2**31 - 2 of either raise ``DataError``."""
    graphs = (graph,) if isinstance(graph, DTDG) else tuple(graph)
    if len({(g.n_nodes, g.n_steps) for g in graphs}) != 1:
        raise ShapeError("graphs refined together need equal node and step counts")
    digits = sum(2 * g.n_nodes * g.n_steps + 2 * sum(map(len, g.edges)) for g in graphs)
    values = sum(g.features.size for g in graphs if g.features is not None)
    if max(digits, values) > 2 ** 31 - 2:
        raise DataError(f"graphs too large to refine: {digits} key digits (2 per cell, 1 per"
                        f" edge end) and {values} feature values, past 2**31 - 2")
    return graphs


def _joint_cells(graphs: tuple) -> _CellIndex:
    """The graphs' own cell indices merged one degree run at a time: the
    cells of each degree, graph after graph, so the joint order is by
    degree, then by (graph, t, v)."""
    if len(graphs) == 1:
        return graphs[0]._cells
    span = graphs[0].n_nodes * graphs[0].n_steps
    runs = []  # (degree, graph, the run's cells, their ends' neighbours)
    for i, index in enumerate(g._cells for g in graphs):
        start = end = 0
        for degree, count in index.degrees:
            runs.append((degree, i, index.order[start:start + count] + i * span,
                         index.neighbour[end:end + count * degree] + i * span))
            start, end = start + count, end + count * degree
    runs.sort(key=lambda run: run[:2])
    degrees = {}
    for degree, _, cells, _ in runs:
        degrees[degree] = degrees.get(degree, 0) + cells.size
    return _indexed(*(np.concatenate([run[k] for run in runs]) for k in (2, 3)),
                    tuple(degrees.items()))


def _powers(radix: int) -> np.ndarray:
    """radix**(k-1), ..., radix, 1: a number of k digits below ``radix``,
    b bits each for b = radix.bit_length(), fits 62 bits for k = 62 // b."""
    return radix ** np.arange(62 // radix.bit_length() - 1, -1, -1, dtype=np.int64)


def _fold(rows: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """Each row's runs of k = ``powers.size`` digits, the last run maybe
    shorter, read as one base-radix number each: (m, ceil(w / k)). An
    empty row reads as 0."""
    (m, width), step = rows.shape, powers.size
    full, rest = divmod(width, step)
    keys = np.zeros((m, max(1, -(-width // step))), dtype=np.int64)
    np.matmul(rows[:, :full * step].reshape(m, full, step), powers, out=keys[:, :full])
    if rest:
        np.matmul(rows[:, full * step:], powers[step - rest:], out=keys[:, full])
    return keys


def _runs(values: np.ndarray) -> tuple:
    """The argsort of ``values``, and where each run of equal values
    starts in it and how long it is."""
    order = np.argsort(values)
    ordered = values[order]
    bounds = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1], [True])))
    return order, bounds[:-1], bounds[1:] - bounds[:-1]


def _lead(groups, leader: np.ndarray, radix: int) -> np.ndarray:
    """Set ``leader`` at each cell of ``groups`` to the first cell of
    ``groups`` holding its key, and return those first cells.

    ``groups`` holds (cells, rows) pairs: one key row per cell, all rows of
    a pair equally wide, every digit in [1, radix). Each level reads each
    row's runs of digits that fit 62 bits as one number (``_fold``). A run
    of L digits reads as a number in [radix**(L-1), radix**L), so a number
    also tells its run's length, and rows of different width never meet.
    Rows that became one number have their final key, and one argsort
    dedupes every row that finished at the level. The other rows' numbers
    are ranked jointly, and rank + 1 are the next level's digits. Ranks
    stay below 2**31, two or more to a number, so each level after the
    first at least halves a row's width: a row of width w takes O(log w)
    levels. A leader depends only on where a key first occurs, not on how
    keys sort, so any injective fold gives the same leaders.
    """
    heads = [np.empty(0, dtype=np.int64)]
    while groups:
        powers = _powers(radix)
        folded = [(cells, _fold(rows, powers)) for cells, rows in groups]
        done = [(cells, keys) for cells, keys in folded if keys.shape[1] == 1]
        if done:
            order, starts, lengths = _runs(np.concatenate([k for _, k in done]).ravel())
            by_key = np.concatenate([c for c, _ in done])[order]
            first = np.minimum.reduceat(by_key, starts)
            leader[by_key] = np.repeat(first, lengths)
            heads.append(first)
        groups = [(cells, keys) for cells, keys in folded if keys.shape[1] > 1]
        if groups:
            order, starts, lengths = _runs(np.concatenate([k.ravel() for _, k in groups]))
            digits = np.empty(order.size, dtype=np.int64)
            digits[order] = np.repeat(np.arange(1, starts.size + 1), lengths)
            bounds = np.cumsum([k.size for _, k in groups])[:-1]
            groups = [(cells, part.reshape(keys.shape))
                      for (cells, keys), part in zip(groups, np.split(digits, bounds))]
            radix = starts.size + 1
    return np.concatenate(heads)


def _number(leader: np.ndarray, issued: int) -> tuple[np.ndarray, int]:
    """Id of every cell and the number of classes: the leaders, numbered
    in cell order, get the ids ``issued + rank``. Those are the ids a
    palette would issue visiting cells in order, as long as no key was
    issued before. Every refinement key holds an own color issued in the
    round before, so that holds for a state's next round."""
    heads = np.zeros(leader.size, dtype=bool)
    heads[leader] = True
    ids = np.cumsum(heads) + (issued - 1)
    return ids[leader], int(ids[-1]) - issued + 1


def _cell_grid(ids: np.ndarray, shape: tuple) -> np.ndarray:
    """Colors of ``shape`` ((N, T) or (G, N, T)) from ids listed in
    (graph, t, v) order."""
    n, t = shape[-2:]
    return np.ascontiguousarray(ids.reshape(-1, t, n).transpose(0, 2, 1)).reshape(shape)


def _feature_keys(features: np.ndarray) -> np.ndarray:
    """Each feature's initial-color key: below ``_GRID_LIMIT`` in magnitude
    its value rounded to the 1e-9 grid, in feature units, so distinct grid
    points stay distinct floats; above it, where adjacent floats lie about
    a grid step or more apart, the value itself."""
    keys = features.copy()
    small = np.abs(features) < _GRID_LIMIT
    keys[small] = np.rint(features[small] / _FEATURE_GRID) * _FEATURE_GRID
    return keys


def init_colors(graph: DTDG | tuple) -> ColoringState:
    """Feature-hash initialization (monochrome when featureless) of one
    graph, or of a tuple of graphs on one palette.

    Features below 2**22 in magnitude are rounded to the 1e-9 grid, and
    larger ones keep their exact value (``_feature_keys``), so no quotient
    overflows and no two distinct large floats share a key. One sort ranks
    the keys of every graph together, and rank + 1 are the key digits, so
    equal values give equal digits and -0.0 meets 0.0. A cell's row is
    its D digits: a featureless cell's row is empty, and graphs
    with different D never share a color. When no graph has features,
    every row is empty, so every cell gets color 0 without a dedupe.
    """
    graphs = _graphs(graph)
    n, t = graphs[0].n_nodes, graphs[0].n_steps
    shape = (n, t) if isinstance(graph, DTDG) else (len(graphs), n, t)
    if all(g.features is None for g in graphs):
        return ColoringState(np.zeros(shape, dtype=np.int64), 1, palette=range(1))
    keyed = [np.empty((t * n, 0)) if g.features is None
             else _feature_keys(g.features).transpose(1, 0, 2).reshape(t * n, -1)
             for g in graphs]
    values, digits = np.unique(np.concatenate([q.ravel() for q in keyed]),
                               return_inverse=True)
    bounds = np.cumsum([q.size for q in keyed])[:-1]
    blocks = [(np.arange(i * t * n, (i + 1) * t * n), part.reshape(q.shape) + 1)
              for i, (q, part) in enumerate(zip(keyed, np.split(digits, bounds)))]
    leader = np.empty(len(graphs) * t * n, dtype=np.int64)
    _lead(blocks, leader, values.size + 1)
    ids, count = _number(leader, 0)
    return ColoringState(_cell_grid(ids, shape), count, palette=range(count))


def _reach(history: _History, cells: _CellIndex, n: int, t: int) -> np.ndarray:
    """Which cells lie in a class the next round can split: a class of
    two or more cells holding a neighbour or the time successor (v, t+1)
    of a cell whose class just split. A class none of whose cells sees
    such a cell sees the same classes as in the round before, so its keys
    stay equal, and a class of one cell cannot split. The neighbours come
    from the split cells' own ends (edges are undirected), so the pass
    reads those ends only."""
    split, leader = history.split, history.leader
    seen = np.zeros(split.size, dtype=bool)
    seen[_ends(cells, np.flatnonzero(split[cells.order]))] = True
    seen.reshape(-1, t, n)[:, 1:] |= split.reshape(-1, t, n)[:, :-1]
    marked = np.zeros(split.size, dtype=bool)
    marked[leader[seen]] = True
    marked &= np.bincount(leader, minlength=split.size) > 1  # one cell cannot split
    return marked[leader]


def refine_step(graph: DTDG | tuple, state: ColoringState) -> ColoringState:
    """One refinement round of one graph, or of a tuple of graphs refined
    together; fresh ids continue ``state.palette``.

    Cell (v, t) is keyed by the row (own color, color of (v, t-1) or none
    at t = 0, its neighbor colors sorted ascending); cells of degree d get
    rows of exactly 2 + d digits. A color c is the digit c - lo + 2 for
    the state's smallest color lo, and "none" is the digit 1, so the radix
    is the state's color span plus 3. A state's own colors span fewer
    values than it has cells; wider colors are ranked first.

    Only the cells of classes that can split are keyed. When ``state``
    came from ``refine_step`` on the same graphs, and its round split
    fewer than half of the cells (``_DENSE_SPLIT``), those are the classes
    of two or more cells its history reaches (``_reach``), and the rows
    read only the keyed cells' ends; every other class keeps its cells and
    its leader, its first cell. Any other state has every cell keyed.
    Either way a class's id is ``issued`` plus the rank of its leader
    among all leaders, so the state equals the one a round keying every
    cell makes.
    The state returned carries the history, this round's joint cell index
    included. Colors that are not integers raise ``ParameterError``, and
    colors not shaped (N, T), or (G, N, T) for G graphs, ``ShapeError``.
    """
    graphs = _graphs(graph)
    n, t = graphs[0].n_nodes, graphs[0].n_steps
    colors = np.asarray(state.colors)
    if not np.issubdtype(colors.dtype, np.integer):
        raise ParameterError(f"state colors must be an integer array, got {colors.dtype}")
    shape = (n, t) if isinstance(graph, DTDG) else (len(graphs), n, t)
    if colors.shape != shape:
        raise ShapeError(f"state colors must be {shape} for these graphs, got {colors.shape}")
    history = state._history
    if history is not None and (history.colors is not colors
                                or list(map(id, history.graphs)) != list(map(id, graphs))):
        history = None
    cells = _joint_cells(graphs) if history is None else history.cells
    lo, hi = int(colors.min()), int(colors.max())
    if hi - lo >= colors.size or colors.dtype != np.int64:
        # colors spread wider than a state's own ids, or not int64 (a hand-built
        # state): their ranks keep order and equality, within a span below the size
        colors = np.unique(colors, return_inverse=True)[1].reshape(colors.shape)
        lo, hi = 0, int(colors.max())
    radix = hi - lo + 3
    by_step = colors.reshape(-1, n, t).transpose(0, 2, 1) - (lo - 2)
    previous = np.ones(by_step.shape, dtype=np.int64)
    previous[:, 1:] = by_step[:, :-1]
    own, previous = by_step.ravel(), previous.ravel()
    order, neighbour = cells.order, cells.neighbour
    counts = [count for _, count in cells.degrees]
    if (history is not None
            and np.count_nonzero(history.split) < _DENSE_SPLIT * history.split.size):
        leader = history.leader.copy()
        kept = np.flatnonzero(_reach(history, cells, n, t)[order])
        order, neighbour = order[kept], _ends(cells, kept)
        counts = np.diff(np.searchsorted(kept, np.cumsum([0] + counts))).tolist()
    else:
        leader = np.empty(colors.size, dtype=np.int64)
    first, second, rest = own[order], previous[order], own[neighbour]
    blocks, start, end = [], 0, 0
    for (degree, _), count in zip(cells.degrees, counts):
        if count:
            rows = np.empty((count, 2 + degree), dtype=np.int64)
            rows[:, 0] = first[start:start + count]
            rows[:, 1] = second[start:start + count]
            ends = rest[end:end + count * degree].reshape(count, degree)
            rows[:, 2:] = np.sort(ends, axis=1) if degree > 1 else ends
            blocks.append((order[start:start + count], rows))
        start, end = start + count, end + count * degree
    heads = _lead(blocks, leader, radix)
    # a keyed class split when its cells now lead more than one class
    split = np.bincount(own[heads], minlength=radix)[own] > 1
    issued = len(state.palette)
    ids, count = _number(leader, issued)
    grid = _cell_grid(ids, shape)
    grid.flags.writeable = False
    refined = ColoringState(grid, count, palette=range(issued + count))
    refined._history = _History(graphs, cells, grid, leader, split)
    return refined


def _refinements(graph: DTDG | tuple, cap: int | None):
    """``init_colors(graph)``, then the state after each round, until the
    first round that adds no color (yielded too) or ``cap`` rounds (N*T
    when None)."""
    if cap is None:
        first = _graphs(graph)[0]
        cap = first.n_nodes * first.n_steps
    elif isinstance(cap, bool) or not isinstance(cap, numbers.Integral) or cap < 0:
        raise ParameterError(f"the round cap must be a non-negative integer, got {cap!r}")
    state = init_colors(graph)
    yield state
    for _ in range(cap):
        refined = refine_step(graph, state)
        yield refined
        if refined.n_colors == state.n_colors:
            return
        state = refined


def refine_to_stable(graph: DTDG, max_rounds: int | None = None) -> ColoringState:
    """Refine ``init_colors(graph)`` until the partition stops changing (at
    most N*T rounds)."""
    for state in _refinements(graph, max_rounds):
        pass
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
    for rounds, state in enumerate(_refinements((g1, g2), steps)):
        ends = np.sort(state.colors[:, :, -1], axis=1)
        if not np.array_equal(ends[0], ends[1]):
            return WLReport(NON_ISOMORPHIC, rounds=rounds, diverged_at=rounds)
    return WLReport(INCONCLUSIVE, rounds=rounds, diverged_at=None)


def distinguishable(graph: DTDG, u: int, v: int, t: int,
                    steps: int | None = None) -> bool:
    """True when refinement (at most ``steps`` rounds) separates cells
    (u, t) and (v, t). Refinement never merges colors, so checking the last
    partition is the same as checking every round. The partition is
    computed once per (graph, steps) and kept on the graph, so querying
    many pairs refines once."""
    for name, index, size in (("u", u, graph.n_nodes), ("v", v, graph.n_nodes),
                              ("t", t, graph.n_steps)):
        if (isinstance(index, bool) or not isinstance(index, numbers.Integral)
                or not 0 <= index < size):
            raise ParameterError(f"{name} must be an integer in [0, {size}), got {index!r}")
    partitions = graph.__dict__.setdefault("_partitions", {})
    if steps not in partitions:
        partitions[steps] = refine_to_stable(graph, max_rounds=steps).colors
    colors = partitions[steps]
    return bool(colors[u, t] != colors[v, t])


@dataclass(frozen=True)
class SpectralConditionReport:
    """Spectral obstructions to distinguishing nodes on a fixed topology.

    repeated_eigenvalues flags Laplacian eigenvalue gaps below the gap at
    which ``spectral_graph`` counts eigenvalues as repeated;
    missing_components lists (t, i) pairs where eigencomponent i of the
    snapshot-t features has norm below 1e-6.
    """

    eigenvalues: np.ndarray
    repeated_eigenvalues: bool
    min_gap: float
    missing_components: tuple
    conditions_hold: bool


def check_spectral_conditions(graph: DTDG) -> SpectralConditionReport:
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
    repeated = bool(gaps.size and min_gap < _EIGEN_GAP)

    missing = []
    for t in range(graph.n_steps):
        hat = spectrum.eigenvectors.T @ graph.features[:, t, :]  # (N, D)
        norms = np.sqrt((hat ** 2).sum(axis=1))
        for i in np.flatnonzero(norms < 1e-6):
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
# featureless graph), and nothing after. Blank lines are skipped; an error
# names its line number in the text. Example with N=3, T=2, D=1:
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
    lines = ((no, s) for no, s in enumerate(map(str.strip, text.splitlines()), 1) if s)
    _, header_line = next(lines, (0, ""))
    if not header_line:
        raise DataError("empty DTDG document")
    header = header_line.split()
    if len(header) != 2:
        raise DataError(f"header must be 'N T', got {header_line!r}")
    try:
        n, t = int(header[0]), int(header[1])
    except ValueError as exc:
        raise DataError(f"non-integer header {header_line!r}") from exc
    if n < 1 or t < 1:
        raise DataError(f"header {header_line!r} needs N >= 1 nodes and T >= 1 snapshots")

    def section(step: int, what: str):
        for no, line in lines:
            if line == "#":
                return
            yield no, line
        raise DataError(f"snapshot {step}: missing '#' after {what}")

    snapshots, feature_blocks = [], []
    for step in range(t):
        edges = []
        for no, line in section(step, "edge list"):
            parts = line.split()
            if len(parts) != 2:
                raise DataError(f"line {no}: expected 'u v', got {line!r}")
            try:
                edges.append((int(parts[0]), int(parts[1])))
            except ValueError as exc:
                raise DataError(f"line {no}: non-integer edge endpoint") from exc
        rows = []
        for no, line in section(step, "feature block"):
            try:
                rows.append([float(x) for x in line.split()])
            except ValueError as exc:
                raise DataError(f"line {no}: non-numeric feature row") from exc
        if rows and len(rows) != n:
            raise DataError(
                f"snapshot {step}: feature block has {len(rows)} rows, expected {n}")
        snapshots.append(tuple(edges))
        feature_blocks.append(rows)
    for no, line in lines:  # anything left follows the last snapshot
        raise DataError(f"line {no}: {line!r} follows the last of {t} snapshots")

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
    with open(path, "r", encoding="utf-8-sig") as fh:
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
