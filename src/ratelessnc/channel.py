"""One stage of adversarial random linear network coding.

The sink observes ``Y = T X + Q Z``: X is what the source put on the wire,
Z is what the adversary injected, and T, Q are the end-to-end transfer
matrices induced by random coding at intermediate nodes.  Two modes are
provided: matrix mode draws T and Q directly (the level at which the whole
analysis lives), and hypergraph mode actually pushes coefficient vectors
through an explicit topology and recovers T, Q from them.

Matrix mode also carries lockstep sessions: given a ``field.GeneratorStack``
and a stack of packet blocks (a leading batch axis), each session draws
its own T, Q and Z exactly as it would alone, and Y is formed for the whole
stack in one product.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from . import linalg
from .field import Field

_ADVERSARY_KINDS = ("none", "uniform-random", "additive-targeted")
_RETRY_CAP = 64  # draws of T before the field is deemed too small for the stage


@dataclass(frozen=True)
class StageParams:
    """Per-stage network state: honest min cut M, adversary min cut z,
    transmission opportunities c at the source."""

    M: int
    z: int
    c: int

    def __post_init__(self):
        if not 0 <= self.z < self.M:
            raise ValueError(f"stage params violate z_i < M_i: z={self.z}, M={self.M}")
        if self.M > self.c:
            raise ValueError(f"stage params violate M_i <= c_i: M={self.M}, c={self.c}")


@dataclass(frozen=True)
class AdversaryStrategy:
    kind: str = "uniform-random"

    def __post_init__(self):
        if self.kind not in _ADVERSARY_KINDS:
            raise ValueError(f"unknown adversary kind {self.kind!r}; expected one of {_ADVERSARY_KINDS}")


@dataclass
class StageOutcome:
    """What one network use produced; Y = T @ X + Q @ Z holds exactly."""

    Y: np.ndarray
    T: np.ndarray
    Q: np.ndarray
    Z: np.ndarray

    def injected_errors(self, declared_z: int) -> int:
        """Effective adversary min cut for bookkeeping (0 when silent)."""
        return min(declared_z, self.Z.shape[-2])

    def check_decomposition(self, field: Field, x: np.ndarray) -> None:
        """Assert Y = T X + Q Z exactly for the packets X that were sent."""
        if not np.array_equal(self.Y, field.add(field.matmul(self.T, x),
                                                field.matmul(self.Q, self.Z))):
            raise AssertionError("channel decomposition Y = T X + Q Z violated")


def _received(field: Field, t: np.ndarray, q: np.ndarray, x: np.ndarray,
              z: np.ndarray) -> np.ndarray:
    """Y = T X + Q Z as the one product [T | Q] [X; Z]."""
    return field.matmul(np.concatenate([t, q], axis=-1), np.concatenate([x, z], axis=-2))


def _full_row_rank(field: Field, t: np.ndarray) -> bool:
    """Whether T has full row rank; for a stack, the verdict its draws
    share.  The stack is eliminated as one; draws that pivot apart (a
    zero entry where the others have none) are checked one at a time, as
    only their verdicts must agree (``linalg.agree``)."""
    try:
        return linalg.rank(field, t) == t.shape[-2]
    except linalg.Stray:
        return linalg.agree(np.array([linalg.rank(field, m) == t.shape[-2] for m in t]))


def sample_transfer(field: Field, params: StageParams,
                    rng) -> tuple[np.ndarray, np.ndarray]:
    """Draw T (M x c, resampled to full row rank M) and Q (M x z, uniform).
    From a ``field.GeneratorStack``, stacks of them, whose sessions redraw
    together or leave the stack (``_full_row_rank``)."""
    for _ in range(_RETRY_CAP):
        t = field.sample(rng, (params.M, params.c))
        if _full_row_rank(field, t):
            q = field.sample(rng, (params.M, params.z))
            return t, q
    raise RuntimeError(
        f"could not draw a rank-{params.M} transfer matrix in {_RETRY_CAP} tries; "
        "field too small for these stage parameters"
    )


def make_errors(field: Field, strategy: AdversaryStrategy, z: int, packet_len: int,
                observed: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Adversary packets, z rows of packet_len symbols.

    uniform-random draws every entry uniformly; additive-targeted mixes
    random combinations of the observed honest packets (the c >= 1 sent
    rows) with a uniform offset, so the rows carry message content yet
    leave its row space.
    """
    if strategy.kind == "none":
        return np.zeros(observed.shape[:-2] + (0, packet_len), dtype=np.int64)
    if strategy.kind == "uniform-random":
        return field.sample(rng, (z, packet_len))
    coeffs = field.sample(rng, (z, observed.shape[-2]))
    mixed = field.matmul(coeffs, observed)
    return field.add(mixed, field.sample(rng, (z, packet_len)))


class MatrixChannel:
    """Default channel: transfer matrices drawn i.i.d. uniform per stage."""

    def __init__(self, field: Field, adversary: AdversaryStrategy):
        self.field = field
        self.adversary = adversary

    def __call__(self, params: StageParams, x: np.ndarray, rng) -> StageOutcome:
        f = self.field
        if x.shape[-2] != params.c:
            raise ValueError(f"source emitted {x.shape[-2]} packets but c={params.c}")
        t, q = sample_transfer(f, params, rng)
        z = make_errors(f, self.adversary, params.z, x.shape[-1], x, rng)
        q = q[..., : z.shape[-2]]
        return StageOutcome(Y=_received(f, t, q, x, z), T=t, Q=q, Z=z)


# ---------------------------------------------------------------------------
# hypergraph mode
# ---------------------------------------------------------------------------

SOURCE = "SRC"
SINK = "SINK"
_ADV_PREFIX = "ADV"


@dataclass
class Hypergraph:
    """Directed hypergraph: each hyperedge is one unit-capacity broadcast
    from a transmitter to a set of receivers.  Node names SRC and SINK are
    the endpoints; names starting with ADV are adversary-controlled."""

    hyperedges: list[tuple[str, tuple[str, ...]]]
    nodes: list[str] = dc_field(init=False)
    order: list[str] = dc_field(init=False)  # the nodes, topologically sorted

    def __post_init__(self):
        import networkx as nx

        seen = dict.fromkeys(n for tx, rxs in self.hyperedges for n in (tx, *rxs))
        self.nodes = list(seen)
        if SOURCE not in seen or SINK not in seen:
            raise ValueError("topology must contain SRC and SINK nodes")
        g = nx.DiGraph()
        g.add_nodes_from(self.nodes)
        g.add_edges_from((tx, rx) for tx, rxs in self.hyperedges for rx in rxs)
        try:
            self.order = list(nx.topological_sort(g))
        except nx.NetworkXUnfeasible as exc:
            raise ValueError("hypergraph topology must be acyclic") from exc

    @classmethod
    def from_text(cls, text: str) -> "Hypergraph":
        """Parse 'tx -> rx[,rx...]' lines; blank lines and # comments ignored."""
        edges = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "->" not in line:
                raise ValueError(f"topology line {lineno}: expected 'tx -> rx[,rx...]'")
            tx, rhs = line.split("->", 1)
            rxs = tuple(r.strip() for r in rhs.split(",") if r.strip())
            if not tx.strip() or not rxs:
                raise ValueError(f"topology line {lineno}: empty endpoint")
            edges.append((tx.strip(), rxs))
        return cls(edges)

    @classmethod
    def from_file(cls, path) -> "Hypergraph":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read())

    def is_adversary(self, node: str) -> bool:
        return node.startswith(_ADV_PREFIX)

    @property
    def adversary_nodes(self) -> list[str]:
        return [n for n in self.nodes if self.is_adversary(n)]

    @property
    def source_slots(self) -> int:
        """Transmission opportunities at the source (its out-hyperedges)."""
        return sum(1 for tx, _ in self.hyperedges if tx == SOURCE)

    @property
    def adversary_slots(self) -> int:
        return sum(1 for tx, _ in self.hyperedges if self.is_adversary(tx))

    def _flow_graph(self, exclude: set[str]):
        import networkx as nx

        g = nx.DiGraph()
        for idx, (tx, rxs) in enumerate(self.hyperedges):
            if tx in exclude:
                continue
            enode = ("edge", idx)
            g.add_edge(tx, enode, capacity=1)
            for rx in rxs:
                if rx in exclude:
                    continue
                g.add_edge(enode, rx)  # uncapacitated; the edge node caps at 1
        return g

    def honest_min_cut(self) -> int:
        """Max flow SRC -> SINK with adversary nodes removed."""
        import networkx as nx

        g = self._flow_graph(set(self.adversary_nodes))
        if SOURCE not in g or SINK not in g:
            return 0
        return int(nx.maximum_flow_value(g, SOURCE, SINK))

    def adversary_min_cut(self) -> int:
        """Max flow from the adversary nodes to SINK; the source does not
        relay, so it is excluded."""
        import networkx as nx

        adv = self.adversary_nodes
        if not adv:
            return 0
        g = self._flow_graph({SOURCE})
        g.add_node("_ADV_SUPER")
        for a in adv:
            if a in g:
                g.add_edge("_ADV_SUPER", a)
        if SINK not in g or not any(a in g for a in adv):
            return 0
        return int(nx.maximum_flow_value(g, "_ADV_SUPER", SINK))


def hypergraph_transfer(field: Field, g: Hypergraph, stage_inputs: np.ndarray,
                        adversary_inputs: np.ndarray,
                        rng: np.random.Generator) -> StageOutcome:
    """Push one stage through the topology.

    The source puts one input row on each of its out-hyperedges, adversary
    nodes put one injected row on each of theirs, and every other node
    transmits fresh uniform combinations of what it has received.  The sink
    row Y decomposes exactly as T @ stage_inputs + Q @ adversary_inputs via
    the tracked coefficient vectors.
    """
    c = g.source_slots
    z_rows = adversary_inputs.shape[0]
    if stage_inputs.shape[0] != c:
        raise ValueError(f"need {c} source packets for this topology, got {stage_inputs.shape[0]}")
    if adversary_inputs.shape[0] and adversary_inputs.shape[0] != g.adversary_slots:
        raise ValueError(
            f"need {g.adversary_slots} adversary packets for this topology, got {z_rows}"
        )

    # per-node buffers of (coeff wrt source rows, coeff wrt adversary rows)
    buffers: dict[str, list[tuple[np.ndarray, np.ndarray]]] = {n: [] for n in g.nodes}
    out_edges: dict[str, list[int]] = {n: [] for n in g.nodes}
    for idx, (tx, _) in enumerate(g.hyperedges):
        out_edges[tx].append(idx)

    src_seq = 0
    adv_seq = 0
    for node in g.order:
        for idx in out_edges[node]:
            ct = np.zeros(c, dtype=np.int64)
            cq = np.zeros(z_rows, dtype=np.int64)
            if node == SOURCE:
                ct[src_seq] = 1
                src_seq += 1
            elif g.is_adversary(node):
                if z_rows:
                    cq[adv_seq] = 1
                adv_seq += 1
            else:
                for bt, bq in buffers[node]:
                    coef = field.sample(rng)
                    ct = field.add(ct, field.mul(coef, bt))
                    cq = field.add(cq, field.mul(coef, bq))
            for rx in g.hyperedges[idx][1]:
                buffers[rx].append((ct, cq))

    sink_packets = buffers[SINK]
    if not sink_packets:
        raise ValueError("sink is disconnected: no packets received")
    t = np.stack([ct for ct, _ in sink_packets])
    q = np.stack([cq for _, cq in sink_packets])
    y = _received(field, t, q, stage_inputs, adversary_inputs)
    return StageOutcome(Y=y, T=t, Q=q, Z=adversary_inputs)


class HypergraphChannel:
    """Channel driven by an explicit topology; declared stage parameters
    must match the topology's min cuts."""

    def __init__(self, field: Field, graph: Hypergraph, adversary: AdversaryStrategy):
        self.field = field
        self.graph = graph
        self.adversary = adversary
        self._m = graph.honest_min_cut()
        self._z = graph.adversary_min_cut()

    def __call__(self, params: StageParams, x: np.ndarray,
                 rng: np.random.Generator) -> StageOutcome:
        if params.M != self._m or params.c != self.graph.source_slots:
            raise ValueError(
                f"declared (M={params.M}, c={params.c}) does not match topology "
                f"(M={self._m}, c={self.graph.source_slots})"
            )
        if self.adversary.kind != "none" and params.z != self._z:
            raise ValueError(f"declared z={params.z} does not match topology z={self._z}")
        if self.adversary.kind == "none":
            z = linalg.zeros(0, x.shape[1])
        else:
            z = make_errors(self.field, self.adversary, self.graph.adversary_slots,
                            x.shape[1], x, rng)
        return hypergraph_transfer(self.field, self.graph, x, z, rng)
