"""Optical plant: frequency plan, mux/demux filters, topologies (tree,
drop line, horseshoe), span losses, path gains, crosstalk margins and
fiber cuts.

Topologies are immutable; cuts/restores return modified copies.  Path
choice is deterministic: a horseshoe RU uses its west side whenever that
side is intact (revertive protection).
"""

from __future__ import annotations

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

    def length_km(self, topo: "Topology") -> float:
        return sum(topo.span(s).length_km for s in self.span_names)


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

    def __post_init__(self):
        if self.kind is TopologyKind.HORSESHOE:
            for ru, candidates in self.routes.items():
                ring = [frozenset(s for s in c.span_names if not self.span(s).is_drop)
                        for c in candidates]
                if len(ring) == 2 and ring[0] & ring[1]:
                    raise ValueError(f"horseshoe paths of {ru} share ring spans")

    def span(self, name: str) -> Span:
        for s in self.spans:
            if s.name == name:
                return s
        raise UnknownSpan(name)

    def node(self, name: str) -> Node:
        for n in self.nodes:
            if n.name == name:
                return n
        raise LinkError(f"unknown node {name}")

    def path_intact(self, path: CandidatePath) -> bool:
        return all(s not in self.cut_spans for s in path.span_names)

    def active_path(self, ru: str) -> CandidatePath:
        """Deterministic path choice; horseshoe prefers its west side."""
        for candidate in self.routes[ru]:
            if self.path_intact(candidate):
                return candidate
        raise NoPath(f"no intact path for {ru}")

    def path_to_co(self, ru: str, co: str) -> CandidatePath:
        for candidate in self.routes[ru]:
            if candidate.co == co:
                if not self.path_intact(candidate):
                    raise NoPath(f"path {ru} <-> {co} interrupted")
                return candidate
        raise NoPath(f"no route between {ru} and {co}")

    def ru_for_channel(self, channel: int) -> str:
        for ru, ch in self.ru_channels.items():
            if ch == channel:
                return ru
        raise LinkError(f"no RU on channel {channel}")


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

    if other in topo.co_names:
        path = topo.path_to_co(ru, other)
    else:
        path = topo.active_path(ru)

    port = topo.ru_channels[ru] if rx_port_channel is None else rx_port_channel
    loss = sum(topo.span(s).loss_db for s in path.span_names)
    loss += path.express_hops * topo.express_loss_db
    for key in path.filter_keys:
        loss += topo.port_filters[key].attenuation_db(f_thz)
    co_filter = topo.port_filters.get((path.co, port))
    if co_filter is not None:
        loss += co_filter.attenuation_db(f_thz)
    return PathGainResult(gain_db=-loss, span_names=path.span_names)


def received_power(tx_power_dbm: float, gain: PathGainResult) -> float:
    return tx_power_dbm + gain.gain_db


def crosstalk_margin(topo: Topology, sweeper: tuple[str, float, float],
                     victim_channel: int, victim_tx_power_dbm: float = 0.0) -> float:
    """Victim signal power minus sweeper leakage at the victim's receiver (dB).

    The sweeper's light rides its own physical path; the victim's demux port
    filter is what suppresses it at the shared receiver.  Larger is safer.
    """
    sweeper_node, f_thz, sweeper_power_dbm = sweeper
    victim_ru = topo.ru_for_channel(victim_channel)
    victim_co = topo.active_path(victim_ru).co
    victim_f = topo.port_filters[(victim_co, victim_channel)].center_thz
    victim_rx = victim_tx_power_dbm + path_gain(topo, victim_ru, victim_co, victim_f).gain_db
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
