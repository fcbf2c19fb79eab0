"""Core data model: transmission chains, node identities, and the pairwise
interference relation between sending nodes.

A primary path is a chain of N sending nodes feeding one destination; node
(i, j) is the j-th sender of path i and transmits to node (i, j+1), so the
receiver of the last sender is the destination node (i, N+1). Time is slotted
into beats; within one beat a set of senders may transmit simultaneously only
if no two of them interfere. Such a set is called a concurrency subset here.

Interference is modeled either by an explicit symmetric relation over sender
pairs or derived from disk geometry: sender a disturbs sender b whenever a
sits within the interference radius of b's receiver (and vice versa), and
under half-duplex operation a node cannot send and receive in the same beat,
which makes adjacent senders of one chain interfere.

A relation is held one way only, as conflict masks, one integer per node.
An `InterferenceRelation` is its nodes and their masks, and its `NodeRef`
pairs are built only when read, at the API and I/O boundary. A `PathPair`
takes the masks of a relation over its senders in dense order as they are
(`PathPair.relation` is such a view) and re-indexes any other. Every 0/1
matrix becomes row masks in `_row_masks`, and `_disk_masks` builds the
masks of every geometric pair, for derive_relation, the CLI, the corpora
and the optimizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import ConfigurationError, DomainError

__all__ = [
    "NodeRef",
    "PrimaryPath",
    "InterferenceRelation",
    "PathPair",
    "GeometricTopology",
    "RulesReport",
    "derive_relation",
    "is_concurrency_subset",
    "validate_path_rules",
]


class _lazy:
    """An attribute derived on first read, without a lock: the first read
    calls the method and keeps its value in the instance's `__dict__`,
    where every later read finds it before this descriptor. It is a
    non-data descriptor, so a value put in `__dict__` beforehand, or set
    by plain assignment, is read as it is. Two threads racing on a first
    read may both call the method; their values are equal and one is kept.
    """

    def __init__(self, method):
        self.method = method
        self.name = method.__name__
        self.__doc__ = method.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.method(instance)
        return value


@dataclass(frozen=True, order=True)
class NodeRef:
    """Identity of one sending node: (path id, 1-based position on the chain)."""

    path_id: int
    seq: int

    def __post_init__(self):
        if self.path_id not in (1, 2):
            raise DomainError(f"path_id must be 1 or 2, got {self.path_id}")
        _check_counts(f"seq must be >= 1, got {self.seq}", path_id=self.path_id, seq=self.seq)

    def __str__(self) -> str:
        return f"n{self.path_id}.{self.seq}"


@dataclass(frozen=True)
class PrimaryPath:
    """A saturated transmission chain with `n_senders` sending nodes.

    The source is sender 1 and always has fresh data to inject; the
    destination is the (n_senders+1)-th node and only receives.
    """

    id: int
    n_senders: int

    def __post_init__(self):
        if self.id not in (1, 2):
            raise DomainError(f"path id must be 1 or 2, got {self.id}")
        _check_counts(f"path needs at least one sender, got {self.n_senders}", id=self.id, n_senders=self.n_senders)

    @_lazy
    def senders(self) -> tuple[NodeRef, ...]:
        return tuple(NodeRef(self.id, j) for j in range(1, self.n_senders + 1))

    def node(self, seq: int) -> NodeRef:
        if not 1 <= seq <= self.n_senders:
            raise DomainError(f"path {self.id} has senders 1..{self.n_senders}, got {seq}")
        return NodeRef(self.id, seq)


class InterferenceRelation:
    """Symmetric, irreflexive relation over sending nodes.

    Held as distinct nodes and one conflict mask per node, `_conflicts[i]`
    having bit j set when `_nodes[i]` and `_nodes[j]` interfere; nodes come
    in first-seen order from pairs and in the given order from a matrix.
    The `NodeRef` pairs are built on first read.
    """

    def __init__(self, interfering_pairs: Iterable[tuple[NodeRef, NodeRef]] = ()):
        index: dict[NodeRef, int] = {}
        conflicts: list[int] = []
        for a, b in interfering_pairs:
            if a == b:
                raise DomainError(f"a node cannot interfere with itself: {a}")
            i = index.setdefault(a, len(index))
            j = index.setdefault(b, len(index))
            conflicts += [0] * (len(index) - len(conflicts))
            conflicts[i] |= 1 << j
            conflicts[j] |= 1 << i
        self._nodes, self._conflicts = tuple(index), tuple(conflicts)

    @classmethod
    def _view(cls, nodes: tuple[NodeRef, ...], conflicts: tuple[int, ...]) -> "InterferenceRelation":
        """The relation of checked conflict masks over distinct `nodes`, as
        `from_matrix` and `PathPair.relation` build it without pairs."""
        view = cls.__new__(cls)
        view._nodes = nodes
        view._conflicts = conflicts
        return view

    @_lazy
    def _pairs(self) -> frozenset[frozenset[NodeRef]]:
        nodes, conflicts = self._nodes, self._conflicts
        return frozenset(
            frozenset((a, nodes[j])) for i, a in enumerate(nodes) for j in _bits(conflicts[i] & -(2 << i))
        )

    def interferes(self, a: NodeRef, b: NodeRef) -> bool:
        """True when a and b may not transmit in the same beat."""
        if a == b:
            return False
        return frozenset((a, b)) in self._pairs

    def concurrent(self, a: NodeRef, b: NodeRef) -> bool:
        """True when a and b may transmit in the same beat (or are the same node)."""
        return not self.interferes(a, b)

    @property
    def pairs(self) -> frozenset[frozenset[NodeRef]]:
        return self._pairs

    def __eq__(self, other) -> bool:
        return isinstance(other, InterferenceRelation) and self._pairs == other._pairs

    def __hash__(self) -> int:
        return hash(self._pairs)

    def __repr__(self) -> str:
        return f"InterferenceRelation({sum(row.bit_count() for row in self._conflicts) // 2} interfering pairs)"

    @classmethod
    def from_matrix(cls, order: Sequence[NodeRef], rows: Sequence[Sequence[int]]) -> "InterferenceRelation":
        """Build from a symmetric 0/1 matrix over distinct nodes `order`, whose
        rows are the masks; the diagonal must be zero."""
        n = len(order)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise DomainError(f"relation matrix must be {n}x{n} to match the node order")
        if len(set(order)) != n:
            raise DomainError("relation matrix node order names a node twice")
        conflicts, _ = _row_masks(rows)
        for i, row in enumerate(conflicts):
            if row >> i & 1:
                raise DomainError(f"relation matrix diagonal must be zero (node {order[i]})")
            for j in range(i + 1, n):
                if (row >> j ^ conflicts[j] >> i) & 1:
                    raise DomainError(f"relation matrix must be symmetric, differs at {order[i]}/{order[j]}")
        return cls._view(tuple(order), tuple(conflicts))


@dataclass(frozen=True, init=False, repr=False)
class PathPair:
    """One or two primary paths plus the interference relation over their senders.

    Single-chain scenarios use path2=None; operations that genuinely need a
    second path raise DomainError on such a pair.

    The relation is held as conflict masks: path 1's senders take dense
    indices 0..n1-1 and path 2's follow, which is also (path_id, seq) order,
    a set of senders is an integer mask over that index, and `_conflicts[i]`
    is the mask of the senders that interfere with sender i. Equality and
    hashing compare (path1, path2, _conflicts). `relation` is a view of the
    masks, built on first use or kept from `PathPair(path1, path2, relation)`,
    which takes a relation's masks as they are when its nodes are these
    senders in dense order and re-indexes them otherwise; pairs that already
    have masks are built by `_from_conflicts`.

    A pair keeps what its stages derive from it in `_memo`, filled on
    first ask like a `_lazy` attribute: each path's phase masks per spacing
    with the first phase that is no concurrency subset (`periods`), the
    joint matrix per pair of spacings (`periods.build_matrix`), each path's
    phase activations per spacing (`scheduler`), the interference
    witness per member mask (`analysis`), the slot program per beat's
    activations and the proven cold run per schedule's slot programs
    (`simulator`). Its values are immutable, and a caller
    checks its arguments before it asks and keys on checked ints only, so
    3.0 or True never finds what 3 or 1 made. The memo takes no
    part in equality, hashing or repr.
    """

    path1: PrimaryPath
    path2: PrimaryPath | None
    _conflicts: tuple[int, ...]

    def __init__(self, path1: PrimaryPath, path2: PrimaryPath | None, relation: InterferenceRelation):
        n = self._set_paths(path1, path2)
        nodes, conflicts = relation._nodes, relation._conflicts
        if nodes != self.nodes:
            # re-index onto these senders; a node without conflicts is looked up nowhere
            at = [row and self._index.get(node) for node, row in zip(nodes, conflicts)]
            if None in at:
                raise DomainError(f"relation mentions {nodes[at.index(None)]}, which is not a sender of this pair")
            bits, masks = [1 << i for i in at], [0] * n
            for i, row in zip(at, conflicts):
                masks[i] |= _union(bits, row)
            conflicts = tuple(masks)
        object.__setattr__(self, "_conflicts", conflicts)
        self.__dict__["relation"] = relation

    @classmethod
    def _from_conflicts(cls, path1: PrimaryPath, path2: PrimaryPath | None, conflicts: Sequence[int]) -> "PathPair":
        """The pair whose relation is one conflict mask per sender, in dense
        order; the masks must be symmetric, irreflexive and in range."""
        pair = cls.__new__(cls)
        n = pair._set_paths(path1, path2)
        if len(conflicts) != n:
            raise DomainError(f"expected {n} conflict masks, one per sender, got {len(conflicts)}")
        for i, row in enumerate(conflicts):
            if row >> n or row >> i & 1:
                raise DomainError(f"conflict mask of {pair.nodes[i]} names itself or a sender past the last one")
            for j in _bits(row):
                if not conflicts[j] >> i & 1:
                    raise DomainError(f"conflict masks must be symmetric, differ at {pair.nodes[i]}/{pair.nodes[j]}")
        object.__setattr__(pair, "_conflicts", tuple(conflicts))
        return pair

    def _set_paths(self, path1: PrimaryPath, path2: PrimaryPath | None) -> int:
        """Set the paths after checking their ids; returns the sender count."""
        if path1.id != 1:
            raise DomainError("path1 must have id 1")
        if path2 is not None and path2.id != 2:
            raise DomainError("path2 must have id 2")
        object.__setattr__(self, "path1", path1)
        object.__setattr__(self, "path2", path2)
        self.__dict__["_memo"] = {}
        return path1.n_senders + (path2.n_senders if path2 else 0)

    @_lazy
    def relation(self) -> InterferenceRelation:
        """The interfering sender pairs, for the API and I/O boundary."""
        return InterferenceRelation._view(self.nodes, self._conflicts)

    @_lazy
    def _index(self) -> dict[NodeRef, int]:
        return {ref: i for i, ref in enumerate(self.nodes)}

    def __repr__(self) -> str:
        return f"PathPair(path1={self.path1!r}, path2={self.path2!r}, relation={self.relation!r})"

    @property
    def paths(self) -> tuple[PrimaryPath, ...]:
        return (self.path1,) if self.path2 is None else (self.path1, self.path2)

    def path(self, path_id: int) -> PrimaryPath:
        if path_id == 1:
            return self.path1
        if path_id == 2 and self.path2 is not None:
            return self.path2
        raise DomainError(f"pair has no path {path_id}")

    @_lazy
    def nodes(self) -> tuple[NodeRef, ...]:
        """Every sender, in dense-index order."""
        senders = self.path1.senders
        return senders if self.path2 is None else senders + self.path2.senders

    def path_nodes(self, path_id: int) -> tuple[NodeRef, ...]:
        start = self.offset(path_id)
        return self.nodes[start:start + self.path(path_id).n_senders]

    @property
    def total_senders(self) -> int:
        return len(self._conflicts)

    def has_pair(self) -> bool:
        return self.path2 is not None

    def require_pair(self) -> None:
        if self.path2 is None:
            raise DomainError("operation needs two paths, scenario declares only one")

    def offset(self, path_id: int) -> int:
        """Dense index of the first sender of a path."""
        self.path(path_id)
        return 0 if path_id == 1 else self.path1.n_senders

    def mask_of(self, nodes: Iterable[NodeRef]) -> int:
        """Mask of a node set; rejects empty input and nodes that are not senders."""
        index = self._index
        mask = 0
        strangers = []
        for node in nodes:
            i = index.get(node)
            if i is None:
                strangers.append(node)
            else:
                mask |= 1 << i
        if strangers:
            raise DomainError(f"{min(strangers)} is not a sender of this pair")
        if not mask:
            raise DomainError("node set is empty")
        return mask

    def seq_mask(self, path_id: int, seqs: Iterable[int]) -> int:
        """Mask of sender positions on one path. A position past the end of
        the chain names no sender, so it adds nothing."""
        base = self.offset(path_id) - 1
        n = self.path(path_id).n_senders
        mask = 0
        for seq in seqs:
            if type(seq) is not int or seq < 1:
                _check_counts(f"seq must be >= 1, got {seq}", seq=seq)
            if seq <= n:
                mask |= 1 << (base + seq)
        return mask

    def nodes_of(self, mask: int) -> tuple[NodeRef, ...]:
        """Members of a mask, sorted."""
        senders = self.nodes
        out = []
        while mask:
            low = mask & -mask
            out.append(senders[low.bit_length() - 1])
            mask ^= low
        return tuple(out)

    def conflicts_of(self, mask: int) -> int:
        """Mask of every sender that interferes with some member of `mask`."""
        return _union(self._conflicts, mask)

    def is_concurrent_mask(self, mask: int) -> bool:
        """True when no member's conflicts meet the set itself."""
        return not self.conflicts_of(mask) & mask


@dataclass(frozen=True)
class GeometricTopology:
    """Node coordinates for the disk interference model.

    `positions` maps (path_id, seq) to a point, where seq runs over
    1..n_senders+1 so that every sender's receiver has a position too.
    Points may be given as a single number (a line) or an (x, y) pair.
    """

    positions: Mapping[tuple[int, int], object]
    interference_radius: float
    half_duplex: bool = True
    _norm: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        _check_radius(self.interference_radius)
        norm = {}
        for key, value in self.positions.items():
            norm[tuple(key)] = _as_point(value, key)
        object.__setattr__(self, "_norm", norm)

    def position(self, path_id: int, seq: int) -> tuple[float, float]:
        try:
            return self._norm[(path_id, seq)]
        except KeyError:
            raise ConfigurationError(f"no position for node {path_id}.{seq}") from None


_TEXT = (str, bytes, bytearray)
_NOT_NUMBER = (bool, *_TEXT)


def _real(value) -> float:
    """The coordinate rule of the model and the CLI: a number as a float. A
    bool or text is no number (TypeError); a number too large for a float
    becomes an infinity of its sign."""
    if isinstance(value, _NOT_NUMBER):
        raise TypeError(f"{value!r} is no number")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _as_point(value, key) -> tuple[float, float]:
    """A node's position as an (x, y) pair of finite floats; key names the
    node in the error texts."""
    point = _point(value)
    if type(point) is str:
        raise ConfigurationError(f"position of node {key} {point}")
    return point


def _point(value) -> tuple[float, float] | str:
    """_as_point's conversion, returning the problem instead of raising it, so
    a caller can name the node only when its position is bad. A tuple of two
    finite floats is already a point and comes back as it is."""
    if type(value) is tuple and len(value) == 2:
        x, y = value
        if type(x) is float and type(y) is float and math.isfinite(x) and math.isfinite(y):
            return value
    try:
        try:
            # text iterates, but "12" is no point
            coords = (value,) if isinstance(value, _TEXT) else tuple(value)
        except TypeError:
            coords = (value,)  # a single number is a point on the line
        coords = tuple(map(_real, coords))
    except (TypeError, ValueError):
        return "must be a number or an (x, y) pair"
    if not all(math.isfinite(c) for c in coords):
        return f"must be finite, got {coords}"
    if len(coords) == 1:
        return (coords[0], 0.0)
    if len(coords) == 2:
        return coords
    return f"must have 1 or 2 coordinates, got {len(coords)}"


def _check_counts(below_one: str, **counts: int) -> None:
    """Raise DomainError unless every named count is an int >= 1 (a bool is
    not); below_one is the text for an int count below 1."""
    for name, count in counts.items():
        if type(count) is not int:
            raise DomainError(f"{name} must be an int, got {count!r}")
    if min(counts.values()) < 1:
        raise DomainError(below_one)


def _check_radius(radius: float) -> None:
    """Refuse a radius that is no number or no finite one by the coordinate
    rule (`_real`), whose float the finite text shows, or one below 0. The
    sign is the given radius's own, so -1e-400 is below 0 as it is
    compared with a distance; a radius too long for `str` is named by
    its type."""
    try:
        value = _real(radius)
        negative = math.isfinite(value) and radius < 0
    except (TypeError, ValueError):  # float(Decimal("sNaN")) raises ValueError
        raise ConfigurationError(f"interference_radius must be a number, got {radius!r}") from None
    if not math.isfinite(value):
        raise ConfigurationError(f"interference_radius must be finite, got {value}")
    if negative:
        try:
            shown = str(radius)
        except ValueError:  # a Fraction with more digits than the int str limit
            shown = f"a {type(radius).__name__} too long to print"
        raise DomainError(f"interference_radius must be >= 0, got {shown}")


def _bits(mask: int) -> Iterator[int]:
    """Indices of a mask's members, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _row_masks(matrix: Iterable[Iterable[int]]) -> tuple[list[int], int]:
    """Each row of a 0/1 matrix as an integer mask, bit j set iff the row has
    a 1 in column j, plus the matrix's width. Every 0/1 matrix becomes masks
    here, once; rows are checked in order, each for its length before its
    entries."""
    ones, width = [], 0
    for row in map(tuple, matrix):
        if ones and len(row) != width:
            raise DomainError("matrix rows have unequal lengths")
        width = len(row)
        mask = 0
        for j, v in enumerate(row):
            if v not in (0, 1):
                raise DomainError(f"matrix entries must be 0 or 1, got {v!r}")
            if v:
                mask |= 1 << j
        ones.append(mask)
    return ones, width


def _union(conflicts: Sequence[int], mask: int) -> int:
    """OR of conflicts[i] over the members i of `mask`."""
    out = 0
    while mask:
        low = mask & -mask
        out |= conflicts[low.bit_length() - 1]
        mask ^= low
    return out


_Point = tuple[float, float]
_Ends = tuple[_Point, _Point]  # (sender position, receiver position)


def _disk_row(tx: _Point, rx: _Point, others: Sequence[_Ends], radius: float) -> int:
    """The disk test: bit k is set when the sender at tx, sending to rx, and
    the sender of others[k] interfere because one of them lies within the
    radius of the other's receiver. Every geometric relation is tested
    through it."""
    dist = math.dist
    row = 0
    bit = 1
    for tx_b, rx_b in others:
        if dist(tx, rx_b) <= radius or dist(tx_b, rx) <= radius:
            row |= bit
        bit <<= 1
    return row


def _disk_masks(routes: Iterable[Sequence[_Point]], radius: float, half_duplex: bool) -> list[int]:
    """Dense conflict masks of the senders of consecutive routes, each given
    as its senders' points and then its destination's. Two senders interfere
    under the disk test, or under half-duplex when one receives from the
    other. Every geometric pair is built from these masks."""
    ends: list[_Ends] = []
    chained = 0  # bit i: sender i+1 receives from sender i
    for points in routes:
        if half_duplex:
            chained |= ((1 << len(points) - 2) - 1) << len(ends)
        ends += zip(points, points[1:])
    rows = [
        (_disk_row(tx, rx, ends[i + 1:], radius) | chained >> i & 1) << i + 1
        for i, (tx, rx) in enumerate(ends)
    ]
    for i, row in enumerate(rows):
        for j in _bits(row & -(2 << i)):
            rows[j] |= 1 << i
    return rows


def _derive_pair(topology: GeometricTopology, path1: PrimaryPath, path2: PrimaryPath | None = None) -> PathPair:
    """The pair of these paths under derive_relation's disk model, built from masks."""
    paths = (path1,) if path2 is None else (path1, path2)
    routes = [[topology.position(path.id, seq) for seq in range(1, path.n_senders + 2)] for path in paths]
    conflicts = _disk_masks(routes, topology.interference_radius, topology.half_duplex)
    return PathPair._from_conflicts(path1, path2, conflicts)


def derive_relation(topology: GeometricTopology, pair: PathPair) -> InterferenceRelation:
    """Disk model: distinct senders a and b interfere iff

    - a lies within the interference radius of b's receiver, or
    - b lies within the interference radius of a's receiver, or
    - half-duplex and one of them IS the other's receiver (adjacent senders
      of the same chain: a node cannot send and receive in one beat).

    Every sender and every receiver must have a position. Only the pair's
    paths are read, not its relation.
    """
    return _derive_pair(topology, pair.path1, pair.path2).relation


def is_concurrency_subset(pair: PathPair, nodes: Iterable[NodeRef]) -> bool:
    """True when no two distinct members interfere, so the whole set may share
    one beat. Singletons qualify trivially. Empty input is a domain error."""
    return pair.is_concurrent_mask(pair.mask_of(nodes))


@dataclass(frozen=True)
class RulesReport:
    """Outcome of the chain monotonicity check for one path.

    rule_down violations: a ~ concurrent with k-th sender but not with the
    (k+1)-th. rule_up violations: concurrent with k-th but the (j-1)-th
    upstream neighbor is not. Both lists hold (j, k) sender positions.
    """

    path_id: int
    rule_down_violations: tuple[tuple[int, int], ...]
    rule_up_violations: tuple[tuple[int, int], ...]

    @property
    def ok(self) -> bool:
        return not self.rule_down_violations and not self.rule_up_violations


def validate_path_rules(pair: PathPair, path_id: int) -> RulesReport:
    """Check the two monotonicity rules on one chain: if senders j < k are
    concurrent then j stays concurrent with k+1 (moving the far node
    downstream) and j-1 is concurrent with k (moving the near node upstream).

    Relations derived from colinear ascending geometry satisfy both; explicit
    relations may not, which disables period/intensity shortcuts elsewhere.
    """
    n = pair.path(path_id).n_senders
    base = pair.offset(path_id)
    chain = (1 << n) - 1
    down, up = [], []
    before = 0  # the chain-local conflicts of the sender before sender j+1
    for j, conflicts in enumerate(pair._conflicts[base:base + n]):
        local = conflicts >> base & chain  # bit k stands for sender k+1
        later = ~local & chain & -(2 << j)  # the later senders concurrent with sender j+1
        down += [(j + 1, k + 1) for k in _bits(later & local >> 1)]
        up += [(j + 1, k + 1) for k in _bits(later & before)]
        before = local
    return RulesReport(path_id, tuple(down), tuple(up))
