"""Weighted digraphs, out-Laplacians, and the spectral quantities the error
bounds depend on.

Edge convention, used by every module in this package: an edge ``(i, j, w)``
means agent ``i`` receives the state of agent ``j`` with weight ``w``, so the
stored adjacency entry is ``weights[i-1, j-1] = w``.  Row ``i`` of the
adjacency matrix therefore lists everything agent ``i`` can see, and the
out-Laplacian ``L = D_out - A`` built from row sums satisfies ``L @ 1 == 0``
by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "WeightedDigraph",
    "SpectralData",
    "build_digraph",
    "graph_from_json",
    "laplacian",
    "is_weight_balanced",
    "is_strongly_connected",
    "spectral_summary",
    "symmetric_spectrum",
    "topology_preset",
    "TOPOLOGY_PRESETS",
]

BALANCE_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class WeightedDigraph:
    """Immutable weighted digraph on nodes 1..n.

    ``weights[i, j] > 0`` (0-based) means node ``i+1`` receives information
    from node ``j+1``.  The diagonal is zero.
    """

    n: int
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if self.n < 1:
            raise ValueError("digraph needs at least one node")
        if w.shape != (self.n, self.n):
            raise ValueError(f"weight matrix shape {w.shape} does not match n={self.n}")
        if np.any(w < 0):
            raise ValueError("edge weights must be nonnegative")
        if np.any(np.diag(w) != 0):
            raise ValueError("self-loops are not allowed (diagonal must be zero)")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def out_degrees(self) -> np.ndarray:
        return self.weights.sum(axis=1)

    @property
    def in_degrees(self) -> np.ndarray:
        return self.weights.sum(axis=0)

    def edge_list(self) -> list[tuple[int, int, float]]:
        """Edges as 1-based (i, j, weight) tuples, row-major order."""
        rows, cols = np.nonzero(self.weights)
        return [(int(i) + 1, int(j) + 1, float(self.weights[i, j])) for i, j in zip(rows, cols)]


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Spectral summary of a digraph's out-Laplacian.

    ``lambda_hat_2`` is the second-smallest eigenvalue of (L + L^T)/2, the
    connectivity measure entering every error bound; ``re_lambda_2`` is the
    smallest nonzero real part among the eigenvalues of L itself, which sets
    the convergence rate of the homogeneous dynamics.
    """

    lambda_hat_2: float
    re_lambda_2: float
    d_max_out: float
    eigenvalues_L: np.ndarray = field(repr=False)
    eigenvalues_symL: np.ndarray = field(repr=False)


def build_digraph(n: int, edges) -> WeightedDigraph:
    """Construct a digraph from 1-based (from, to, weight) edge tuples.

    ``(i, j, w)`` gives node i access to node j's state.  Rejects self-loops,
    nonpositive weights, out-of-range indices, and duplicate edges.
    """
    w = np.zeros((n, n))
    seen = set()
    for edge in edges:
        try:
            i, j, weight = edge
        except (TypeError, ValueError):
            raise ValueError(f"edge {edge!r} is not a (from, to, weight) triple") from None
        where = f"a node index of edge {list(edge)!r}"
        i, j = as_int(i, where), as_int(j, where)
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"edge ({i}, {j}) has a node index outside [1, {n}]")
        if i == j:
            raise ValueError(f"self-loop on node {i} is not allowed")
        if weight <= 0:
            raise ValueError(f"edge ({i}, {j}) has nonpositive weight {weight}")
        if (i, j) in seen:
            raise ValueError(f"duplicate edge ({i}, {j})")
        seen.add((i, j))
        w[i - 1, j - 1] = float(weight)
    return WeightedDigraph(n=n, weights=w)


def graph_from_json(fragment: dict) -> WeightedDigraph:
    """Build a digraph from {"n": int, "edges": [[from, to, weight], ...]},
    or a named one from {"preset": name} (``topology_preset``)."""
    if isinstance(fragment, dict) and "preset" in fragment:
        return topology_preset(fragment["preset"])
    try:
        n = fragment["n"]
        edges = fragment["edges"]
    except (KeyError, TypeError):
        raise ValueError('digraph JSON needs keys "n" and "edges"') from None
    return build_digraph(as_int(n, 'digraph "n"'), [tuple(e) for e in edges])


def as_int(value, what: str) -> int:
    """value as an int if it is an integer or an integral float, so that a
    JSON field such as 6.7 or "6" is rejected instead of truncated."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"{what} must be an integer, got {value!r}")


def laplacian(g: WeightedDigraph) -> np.ndarray:
    """Out-Laplacian L = D_out - A.  Row sums are exactly zero.

    The result is cached on the digraph and returned read-only; copy before
    mutating.
    """
    cached = getattr(g, "_laplacian_cache", None)
    if cached is None:
        lap = -g.weights.copy()
        np.fill_diagonal(lap, g.out_degrees)
        lap.setflags(write=False)
        object.__setattr__(g, "_laplacian_cache", lap)
        cached = lap
    return cached


def is_weight_balanced(g: WeightedDigraph, tol: float = BALANCE_TOL) -> bool:
    """True iff weighted in-degree equals out-degree at every node (1^T L = 0)."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    return bool(np.max(np.abs(g.in_degrees - g.out_degrees)) <= tol)


def is_strongly_connected(g: WeightedDigraph) -> bool:
    """True iff node 1 reaches every node and every node reaches node 1
    along edges of positive weight.  A single node is strongly connected."""
    return pattern_is_strongly_connected(g.weights > 0)


def pattern_is_strongly_connected(edges: np.ndarray) -> bool:
    """``is_strongly_connected`` for a boolean edge pattern: frontier sweeps
    from node 1 over the pattern and over its transpose."""
    for adj in (edges, edges.T):
        seen = np.zeros(edges.shape[0], dtype=bool)
        seen[0] = True
        frontier = seen
        while frontier.any():
            frontier = adj[frontier].any(axis=0) & ~seen
            seen |= frontier
        if not seen.all():
            return False
    return True


def spectral_summary(g: WeightedDigraph) -> SpectralData:
    """Eigen-summary of the out-Laplacian: lambda_hat_2, Re(lambda_2), d_max_out.

    Undefined for a single node (no second eigenvalue exists).  "Nonzero
    eigenvalue" means real part above 1e-9 * (1 + ||L||), which keeps the
    structural zero eigenvalue from being misclassified at any weight scale.
    """
    if g.n < 2:
        raise ValueError("spectral summary needs at least two nodes")
    lap = laplacian(g)
    eig_l = np.linalg.eigvals(lap)
    eig_l = eig_l[np.argsort(eig_l.real)]
    eig_sym = symmetric_spectrum(g)
    zero_tol = 1e-9 * (1.0 + np.linalg.norm(lap, 2))
    nonzero_re = eig_l.real[eig_l.real > zero_tol]
    re_lambda_2 = float(nonzero_re.min()) if nonzero_re.size else 0.0
    return SpectralData(
        lambda_hat_2=float(eig_sym[1]),
        re_lambda_2=re_lambda_2,
        d_max_out=float(g.out_degrees.max()) if g.n else 0.0,
        eigenvalues_L=eig_l,
        eigenvalues_symL=eig_sym,
    )


def symmetric_spectrum(g: WeightedDigraph) -> np.ndarray:
    """Ascending eigenvalues of (L + L^T)/2; entry 1 is lambda_hat_2.  A
    run reads only this, from the symmetric solver: the general
    eigensolver and the SVD behind ``spectral_summary``'s other fields
    would fault in about 0.7 MB more of LAPACK's code."""
    lap = laplacian(g)
    return np.linalg.eigvalsh(0.5 * (lap + lap.T))


def _cycle_edges(nodes):
    return [(nodes[k], nodes[(k + 1) % len(nodes)], 1.0) for k in range(len(nodes))]


def _preset_edges() -> dict[str, list[tuple[int, int, float]]]:
    return {
        # Six-node reference topologies used throughout the bundled scenarios;
        # all edge weights are 1 and all five graphs are weight-balanced.
        "fig1a": _cycle_edges([1, 2, 3, 4, 5, 6]),
        "fig1b": _cycle_edges([1, 2, 6]) + _cycle_edges([3, 5, 4]),
        "fig1c": [(2, 3, 1.0), (3, 2, 1.0)],
        "fig1d": _cycle_edges([1, 2, 6]),
        "fig1e": _cycle_edges([3, 4, 5]) + [(5, 6, 1.0), (6, 5, 1.0)],
    }


TOPOLOGY_PRESETS = tuple(sorted(_preset_edges()))


def topology_preset(name: str) -> WeightedDigraph:
    """Named six-node reference digraph ("fig1a" .. "fig1e")."""
    edges = _preset_edges().get(name)
    if edges is None:
        raise ValueError(f"unknown topology preset {name!r}; choose from {', '.join(TOPOLOGY_PRESETS)}")
    return build_digraph(6, edges)
