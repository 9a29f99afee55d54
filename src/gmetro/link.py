"""Optical plant: frequency plan, mux/demux filters, topologies (tree,
drop line, horseshoe), span losses, path gains, crosstalk margins and
fiber cuts.

Topologies are immutable; cuts/restores return modified copies.  Path
choice is deterministic: a horseshoe RU uses its west side whenever that
side is intact (revertive protection).

Each Topology compiles its static part into a ``Plant`` on its first
lookup or path query, never at construction, so building and validating a
scenario costs no more than before.  The plant holds dict indexes of spans,
nodes and channels, and folds each candidate path's span and express losses,
its length, its remote filters and its intact flag.  The losses are summed
in the order of the span-by-span formula, so every gain is equal to it bit
for bit.  A cut or restore returns a new Topology, which compiles its own
plant on first use.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field, replace
from enum import Enum


DB_3 = 10.0 * math.log10(2.0)  # 3.0103 dB, the half-power point


class LinkError(Exception):
    pass


class NoPath(LinkError):
    pass


class UnknownSpan(LinkError):
    pass


@dataclass(frozen=True)
class FrequencyPlan:
    """Configurable channel grid; defaults give 16 channels at 100 GHz."""
    channel_count: int = 16
    spacing_ghz: float = 100.0
    first_center_thz: float = 192.1

    def __post_init__(self):
        if self.channel_count < 1:
            raise ValueError("channel_count must be >= 1")
        if self.spacing_ghz <= 0:
            raise ValueError("spacing must be positive")

    def center_thz(self, channel: int) -> float:
        if not 0 <= channel < self.channel_count:
            raise ValueError(f"channel {channel} outside plan")
        return self.first_center_thz + channel * self.spacing_ghz / 1000.0

    def band_edges_thz(self) -> tuple[float, float]:
        half = self.spacing_ghz / 2000.0
        return self.first_center_thz - half, self.center_thz(self.channel_count - 1) + half


@dataclass(frozen=True)
class FilterModel:
    """Super-Gaussian passband with an isolation floor."""
    center_thz: float
    bandwidth_3db_ghz: float = 50.0
    order: int = 2
    isolation_floor_db: float = 35.0

    def __post_init__(self):
        if self.order < 1 or self.bandwidth_3db_ghz <= 0:
            raise ValueError("filter needs order >= 1 and positive bandwidth")

    def attenuation_db(self, f_thz: float) -> float:
        delta_ghz = abs(f_thz - self.center_thz) * 1000.0
        raw = DB_3 * (2.0 * delta_ghz / self.bandwidth_3db_ghz) ** (2 * self.order)
        return min(self.isolation_floor_db, raw)


class NodeKind(Enum):
    CO = "CO"
    REMOTE = "REMOTE"
    RU = "RU"


class TopologyKind(Enum):
    TREE = "tree"
    DROP_LINE = "drop_line"
    HORSESHOE = "horseshoe"


@dataclass(frozen=True)
class Node:
    name: str
    kind: NodeKind


@dataclass(frozen=True)
class Span:
    name: str
    a: str
    b: str
    length_km: float
    loss_db_per_km: float = 0.25
    connector_count: int = 2
    connector_loss_db: float = 0.5
    is_drop: bool = False

    @property
    def loss_db(self) -> float:
        return self.length_km * self.loss_db_per_km + self.connector_count * self.connector_loss_db


@dataclass(frozen=True)
class CandidatePath:
    """One physical route RU <-> CO: spans, intermediate port filters
    (as (node, channel) keys), and pass-through insertion losses."""
    co: str
    span_names: tuple[str, ...]
    filter_keys: tuple[tuple[str, int], ...]
    express_hops: int


@dataclass(frozen=True)
class CompiledPath:
    """A candidate path with its frequency-independent part folded in once."""
    candidate: CandidatePath
    loss_db: float                      # span losses in route order, then express hops
    length_km: float
    filters: tuple[FilterModel, ...]    # the remote port filters, in route order
    intact: bool

    @property
    def co(self) -> str:
        return self.candidate.co

    def loss_at(self, f_thz: float) -> float:
        """Loss up to, not including, the CO port filter."""
        loss = self.loss_db
        for flt in self.filters:
            loss += flt.attenuation_db(f_thz)
        return loss


@dataclass(frozen=True)
class PathGainResult:
    gain_db: float
    span_names: tuple[str, ...]


@dataclass(frozen=True)
class Topology:
    kind: TopologyKind
    nodes: tuple[Node, ...]
    spans: tuple[Span, ...]
    port_filters: dict[tuple[str, int], FilterModel]  # (node, channel) -> filter
    ru_channels: dict[str, int]
    routes: dict[str, tuple[CandidatePath, ...]]      # RU -> candidates, preferred first
    co_names: tuple[str, ...]
    express_loss_db: float = 1.0
    cut_spans: frozenset[str] = field(default_factory=frozenset)
    _plant: "Plant | None" = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind is TopologyKind.HORSESHOE:
            drops = {s.name for s in self.spans if s.is_drop}
            for ru, candidates in self.routes.items():
                ring = [frozenset(c.span_names) - drops for c in candidates]
                if len(ring) == 2 and ring[0] & ring[1]:
                    raise ValueError(f"horseshoe paths of {ru} share ring spans")

    @property
    def plant(self) -> "Plant":
        """The compiled plant, built on first use."""
        if self._plant is None:
            object.__setattr__(self, "_plant", Plant(self))
        return self._plant

    def span(self, name: str) -> Span:
        return self.plant.span(name)

    def node(self, name: str) -> Node:
        try:
            return self.plant.nodes[name]
        except KeyError:
            raise LinkError(f"unknown node {name}") from None

    def active_path(self, ru: str) -> CandidatePath:
        """Deterministic path choice; horseshoe prefers its west side."""
        return self.plant.active_path(ru).candidate

    def path_to_co(self, ru: str, co: str) -> CandidatePath:
        return self.plant.path_to_co(ru, co).candidate

    def ru_for_channel(self, channel: int) -> str:
        try:
            return self.plant.ru_by_channel[channel]
        except KeyError:
            raise LinkError(f"no RU on channel {channel}") from None


class Plant:
    """The static part of one Topology: dict indexes and compiled paths.

    It holds no reference to its Topology, so dropping a cut topology frees
    its plant without waiting for the cycle collector."""

    def __init__(self, topo: Topology):
        self.spans = {s.name: s for s in topo.spans}
        self.nodes = {n.name: n for n in topo.nodes}
        self.ru_by_channel = {ch: ru for ru, ch in topo.ru_channels.items()}
        self.ru_channels = topo.ru_channels
        self.port_filters = topo.port_filters
        self.paths = {ru: tuple(self._compile(topo, c) for c in candidates)
                      for ru, candidates in topo.routes.items()}
        self._carriers: dict[str, tuple[str, float]] = {}
        self._banks: dict[str, FilterBank] = {}

    def span(self, name: str) -> Span:
        try:
            return self.spans[name]
        except KeyError:
            raise UnknownSpan(name) from None

    def _compile(self, topo: Topology, path: CandidatePath) -> CompiledPath:
        spans = [self.span(s) for s in path.span_names]
        loss = sum(s.loss_db for s in spans)
        loss += path.express_hops * topo.express_loss_db
        return CompiledPath(
            candidate=path, loss_db=loss, length_km=sum(s.length_km for s in spans),
            filters=tuple(topo.port_filters[key] for key in path.filter_keys),
            intact=all(s not in topo.cut_spans for s in path.span_names))

    def active_path(self, ru: str) -> CompiledPath:
        for path in self.paths[ru]:
            if path.intact:
                return path
        raise NoPath(f"no intact path for {ru}")

    def path_to_co(self, ru: str, co: str) -> CompiledPath:
        for path in self.paths[ru]:
            if path.co == co:
                if not path.intact:
                    raise NoPath(f"path {ru} <-> {co} interrupted")
                return path
        raise NoPath(f"no route between {ru} and {co}")

    def gain_db(self, path: CompiledPath, f_thz: float, port: int) -> float:
        """Net gain along ``path`` into the CO's demux port ``port``."""
        loss = path.loss_at(f_thz)
        co_filter = self.port_filters.get((path.co, port))
        if co_filter is not None:
            loss += co_filter.attenuation_db(f_thz)
        return -loss

    def carrier(self, ru: str) -> tuple[str, float]:
        """(CO, gain) of an RU's own signal on its active path, taken at the
        centre of its CO port; raises NoPath.  Cached: both depend only on
        the topology."""
        hit = self._carriers.get(ru)
        if hit is None:
            co = self.active_path(ru).co
            channel = self.ru_channels[ru]
            f_thz = self.port_filters[(co, channel)].center_thz
            hit = (co, self.gain_db(self.path_to_co(ru, co), f_thz, channel))
            self._carriers[ru] = hit
        return hit

    def bank(self, co: str) -> "FilterBank":
        """The demux ports of ``co`` on the RUs' channels, in RU order."""
        bank = self._banks.get(co)
        if bank is None:
            bank = self._banks[co] = FilterBank(co, list(self.ru_channels.values()),
                                                self.port_filters)
        return bank


class FilterBank:
    """Filters evaluated together at one frequency.

    ``near(f)`` computes, with ``FilterModel.attenuation_db``, only the
    entries within their floor crossover distance of ``f``, plus a margin
    that float error cannot cross; every other entry is exactly its floor,
    which is what that call would return.  ``floor_groups`` maps each floor
    to its entries in bank order.  A missing filter is floor 0.0 and never
    near."""

    def __init__(self, node: str, channels: list[int],
                 port_filters: dict[tuple[str, int], FilterModel]):
        near = []               # (centre, index, filter, reach)
        self.floor_groups: dict[float, list[int]] = {}
        for i, ch in enumerate(channels):
            f = port_filters.get((node, ch))
            if f is None:
                self.floor_groups.setdefault(0.0, []).append(i)
                continue
            self.floor_groups.setdefault(f.isolation_floor_db, []).append(i)
            # attenuation_db reaches the floor at this distance from the centre
            reach = f.bandwidth_3db_ghz / 2000.0 * \
                (max(f.isolation_floor_db, 0.0) / DB_3) ** (1.0 / (2 * f.order))
            near.append((f.center_thz, i, f, reach * (1.0 + 1e-6) + 1e-9))
        near.sort(key=lambda entry: entry[0])
        self._near = near
        self._centres = [entry[0] for entry in near]
        # the bisect window spans twice the widest reach: a superset
        self._window = 2.0 * max((entry[3] for entry in near), default=0.0)
        self._last: tuple = (None, {})     # (f_thz, result) of the last near()

    def near(self, f_thz: float) -> dict[int, float]:
        """{entry index: attenuation at f_thz} within reach; the dict is reused: read only."""
        if self._last[0] != f_thz:
            lo = bisect.bisect_left(self._centres, f_thz - self._window)
            hi = bisect.bisect_right(self._centres, f_thz + self._window)
            self._last = (f_thz, {i: flt.attenuation_db(f_thz) for centre, i, flt, reach
                                  in self._near[lo:hi] if abs(f_thz - centre) <= reach})
        return self._last[1]


def path_gain(topo: Topology, frm: str, to: str, f_thz: float,
              rx_port_channel: int | None = None) -> PathGainResult:
    """Net gain (<= 0) along the active path, filters included.

    For a query ending at a CO the receiving demux port defaults to the RU's
    own channel; crosstalk queries pass another port explicitly.
    """
    a, b = topo.node(frm), topo.node(to)
    if a.kind is NodeKind.RU and b.kind is NodeKind.RU:
        raise NoPath("no direct connectivity between different radio units")
    if a.kind is not NodeKind.RU and b.kind is not NodeKind.RU:
        raise NoPath("queries run between a CO and an RU")
    ru, other = (frm, to) if a.kind is NodeKind.RU else (to, frm)

    plant = topo.plant
    path = plant.path_to_co(ru, other) if other in topo.co_names else plant.active_path(ru)
    port = topo.ru_channels[ru] if rx_port_channel is None else rx_port_channel
    return PathGainResult(gain_db=plant.gain_db(path, f_thz, port),
                          span_names=path.candidate.span_names)


def crosstalk_margin(topo: Topology, sweeper: tuple[str, float, float],
                     victim_channel: int, victim_tx_power_dbm: float = 0.0) -> float:
    """Victim signal power minus sweeper leakage at the victim's receiver (dB).

    The sweeper's light rides its own physical path; the victim's demux port
    filter is what suppresses it at the shared receiver.  Larger is safer.
    """
    sweeper_node, f_thz, sweeper_power_dbm = sweeper
    victim_co, victim_gain = topo.plant.carrier(topo.ru_for_channel(victim_channel))
    victim_rx = victim_tx_power_dbm + victim_gain
    leak = sweeper_power_dbm + path_gain(
        topo, sweeper_node, victim_co, f_thz, rx_port_channel=victim_channel).gain_db
    return victim_rx - leak


def apply_cut(topo: Topology, span_name: str) -> Topology:
    topo.span(span_name)
    return replace(topo, cut_spans=topo.cut_spans | {span_name})


def restore(topo: Topology, span_name: str) -> Topology:
    topo.span(span_name)
    return replace(topo, cut_spans=topo.cut_spans - {span_name})


# --------------------------------------------------------------------------
# builders

def _co_filters(plan: FrequencyPlan, co: str, filter_bandwidth_ghz: float,
                isolation_floor_db: float) -> dict:
    return {(co, ch): FilterModel(plan.center_thz(ch), filter_bandwidth_ghz,
                                  isolation_floor_db=isolation_floor_db)
            for ch in range(plan.channel_count)}


def _check_assignments(plan: FrequencyPlan, rus: list[tuple[str, int]]):
    seen = set()
    for name, ch in rus:
        plan.center_thz(ch)  # range check
        if ch in seen:
            raise ValueError(f"channel {ch} assigned twice")
        seen.add(ch)


def make_tree(plan: FrequencyPlan, rus: list[tuple[str, int]],
              trunk_km: float = 20.0, drop_km: float = 2.0,
              loss_db_per_km: float = 0.25, connector_loss_db: float = 0.5,
              filter_bandwidth_ghz: float = 50.0, isolation_floor_db: float = 35.0,
              co_name: str = "co0") -> Topology:
    """Trunk fiber to a remote demux node, drop fibers to the RUs."""
    _check_assignments(plan, rus)
    nodes = [Node(co_name, NodeKind.CO), Node("rn", NodeKind.REMOTE)]
    spans = [Span("trunk", co_name, "rn", trunk_km, loss_db_per_km,
                  connector_loss_db=connector_loss_db)]
    filters = _co_filters(plan, co_name, filter_bandwidth_ghz, isolation_floor_db)
    routes, channels = {}, {}
    for name, ch in rus:
        nodes.append(Node(name, NodeKind.RU))
        drop = Span(f"drop_{name}", "rn", name, drop_km, loss_db_per_km,
                    connector_loss_db=connector_loss_db, is_drop=True)
        spans.append(drop)
        filters[("rn", ch)] = FilterModel(plan.center_thz(ch), filter_bandwidth_ghz,
                                          isolation_floor_db=isolation_floor_db)
        routes[name] = (CandidatePath(co_name, ("trunk", drop.name), (("rn", ch),), 0),)
        channels[name] = ch
    return Topology(TopologyKind.TREE, tuple(nodes), tuple(spans), filters,
                    channels, routes, (co_name,))


def _line_segments(rus, segment_km, tail: bool):
    n = len(rus) + (1 if tail else 0)
    if isinstance(segment_km, (int, float)):
        return [float(segment_km)] * n
    if len(segment_km) != n:
        raise ValueError(f"need {n} segment lengths, got {len(segment_km)}")
    return [float(k) for k in segment_km]


def make_drop_line(plan: FrequencyPlan, rus: list[tuple[str, int]],
                   segment_km=5.0, drop_km: float = 1.0,
                   loss_db_per_km: float = 0.25, connector_loss_db: float = 0.5,
                   express_loss_db: float = 1.0,
                   filter_bandwidth_ghz: float = 50.0, isolation_floor_db: float = 35.0,
                   co_name: str = "co0") -> Topology:
    """Bus passing the RUs; node a<i> drops RU i's wavelength."""
    _check_assignments(plan, rus)
    segments = _line_segments(rus, segment_km, tail=False)
    nodes = [Node(co_name, NodeKind.CO)]
    spans = []
    filters = _co_filters(plan, co_name, filter_bandwidth_ghz, isolation_floor_db)
    routes, channels = {}, {}
    prev = co_name
    for i, ((name, ch), seg) in enumerate(zip(rus, segments), start=1):
        add_drop = f"a{i}"
        nodes += [Node(add_drop, NodeKind.REMOTE), Node(name, NodeKind.RU)]
        spans.append(Span(f"s{i}", prev, add_drop, seg, loss_db_per_km,
                          connector_loss_db=connector_loss_db))
        drop = Span(f"drop_{name}", add_drop, name, drop_km, loss_db_per_km,
                    connector_loss_db=connector_loss_db, is_drop=True)
        spans.append(drop)
        filters[(add_drop, ch)] = FilterModel(plan.center_thz(ch), filter_bandwidth_ghz,
                                              isolation_floor_db=isolation_floor_db)
        west = tuple(f"s{j}" for j in range(1, i + 1)) + (drop.name,)
        routes[name] = (CandidatePath(co_name, west, ((add_drop, ch),), i - 1),)
        channels[name] = ch
        prev = add_drop
    return Topology(TopologyKind.DROP_LINE, tuple(nodes), tuple(spans), filters,
                    channels, routes, (co_name,), express_loss_db)


def make_horseshoe(plan: FrequencyPlan, rus: list[tuple[str, int]],
                   segment_km=5.0, drop_km: float = 1.0,
                   loss_db_per_km: float = 0.25, connector_loss_db: float = 0.5,
                   express_loss_db: float = 1.0,
                   filter_bandwidth_ghz: float = 50.0, isolation_floor_db: float = 35.0,
                   co_west: str = "co_w", co_east: str = "co_e") -> Topology:
    """Drop line closed by a second CO; every RU reaches both COs on the
    same wavelength over disjoint ring sections."""
    _check_assignments(plan, rus)
    n = len(rus)
    segments = _line_segments(rus, segment_km, tail=True)
    nodes = [Node(co_west, NodeKind.CO), Node(co_east, NodeKind.CO)]
    spans = []
    filters = _co_filters(plan, co_west, filter_bandwidth_ghz, isolation_floor_db)
    filters.update(_co_filters(plan, co_east, filter_bandwidth_ghz, isolation_floor_db))
    routes, channels = {}, {}
    prev = co_west
    for i, (name, ch) in enumerate(rus, start=1):
        add_drop = f"a{i}"
        nodes += [Node(add_drop, NodeKind.REMOTE), Node(name, NodeKind.RU)]
        spans.append(Span(f"s{i}", prev, add_drop, segments[i - 1], loss_db_per_km,
                          connector_loss_db=connector_loss_db))
        spans.append(Span(f"drop_{name}", add_drop, name, drop_km, loss_db_per_km,
                          connector_loss_db=connector_loss_db, is_drop=True))
        filters[(add_drop, ch)] = FilterModel(plan.center_thz(ch), filter_bandwidth_ghz,
                                              isolation_floor_db=isolation_floor_db)
        channels[name] = ch
        prev = add_drop
    spans.append(Span(f"s{n + 1}", prev, co_east, segments[n], loss_db_per_km,
                      connector_loss_db=connector_loss_db))
    for i, (name, ch) in enumerate(rus, start=1):
        drop = f"drop_{name}"
        west = tuple(f"s{j}" for j in range(1, i + 1)) + (drop,)
        east = tuple(f"s{j}" for j in range(n + 1, i, -1)) + (drop,)
        routes[name] = (CandidatePath(co_west, west, ((f"a{i}", ch),), i - 1),
                        CandidatePath(co_east, east, ((f"a{i}", ch),), n - i))
    return Topology(TopologyKind.HORSESHOE, tuple(nodes), tuple(spans), filters,
                    channels, routes, (co_west, co_east), express_loss_db)
