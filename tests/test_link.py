import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmetro.link import (
    DB_3,
    FilterBank,
    FilterModel,
    FrequencyPlan,
    LinkError,
    NoPath,
    Span,
    TopologyKind,
    UnknownSpan,
    apply_cut,
    crosstalk_margin,
    make_drop_line,
    make_horseshoe,
    make_tree,
    path_gain,
    restore,
)
from reference import received_power


PLAN = FrequencyPlan()
RUS8 = [(f"ru{i}", i) for i in range(8)]


# --------------------------------------------------------------------------
# frequency plan

def test_plan_centers():
    assert PLAN.center_thz(0) == pytest.approx(192.1)
    assert PLAN.center_thz(15) == pytest.approx(193.6)
    with pytest.raises(ValueError):
        PLAN.center_thz(16)


def test_plan_band_edges():
    lo, hi = PLAN.band_edges_thz()
    assert lo == pytest.approx(192.05)
    assert hi == pytest.approx(193.65)


def test_plan_validation():
    with pytest.raises(ValueError):
        FrequencyPlan(channel_count=0)
    with pytest.raises(ValueError):
        FrequencyPlan(spacing_ghz=-100.0)


# --------------------------------------------------------------------------
# filter model

def test_filter_zero_at_center():
    f = FilterModel(center_thz=192.1)
    assert f.attenuation_db(192.1) == 0.0


def test_filter_3db_at_half_bandwidth():
    f = FilterModel(center_thz=192.1, bandwidth_3db_ghz=50.0)
    assert f.attenuation_db(192.1 + 0.025) == pytest.approx(3.0, abs=0.05)
    assert f.attenuation_db(192.1 - 0.025) == pytest.approx(3.0, abs=0.05)


def test_filter_adjacent_channel_clamped_to_floor():
    f = FilterModel(center_thz=192.1, bandwidth_3db_ghz=50.0, order=2, isolation_floor_db=35.0)
    # formula value ~770 dB >> 35, so the clamp applies
    assert f.attenuation_db(192.2) == 35.0


@given(st.floats(min_value=0.0, max_value=500.0))
@settings(max_examples=200)
def test_filter_symmetry(delta_ghz):
    f = FilterModel(center_thz=193.0)
    assert f.attenuation_db(193.0 + delta_ghz / 1000.0) == \
        pytest.approx(f.attenuation_db(193.0 - delta_ghz / 1000.0), abs=1e-9)


def test_filter_monotone_up_to_clamp():
    f = FilterModel(center_thz=193.0)
    deltas = [i * 0.5 for i in range(200)]
    values = [f.attenuation_db(193.0 + d / 1000.0) for d in deltas]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert max(values) == f.isolation_floor_db


# --------------------------------------------------------------------------
# spans and path gain

def test_span_loss_arithmetic():
    span = Span("s", "a", "b", length_km=20.0)
    assert span.loss_db == pytest.approx(20.0 * 0.25 + 2 * 0.5)


def test_path_gain_tree_on_center():
    # 20 km trunk at 0.25 + 2x0.5 connectors = 6 dB; 0-length drop adds only
    # its connectors unless zeroed; on-center filters contribute 0 dB
    topo = make_tree(PLAN, [("ru0", 0)], trunk_km=20.0, drop_km=0.0, connector_loss_db=0.0)
    result = path_gain(topo, "ru0", "co0", PLAN.center_thz(0))
    assert result.gain_db == pytest.approx(-5.0)
    assert result.span_names == ("trunk", "drop_ru0")


def test_path_gain_worked_example():
    # 20 km at 0.25 + 2 connectors at 0.5 + on-center filter -> -6.0 dB
    from gmetro.link import CandidatePath, Node, NodeKind, Topology
    topo = Topology(
        kind=TopologyKind.TREE,
        nodes=(Node("co0", NodeKind.CO), Node("ru0", NodeKind.RU)),
        spans=(Span("line", "co0", "ru0", 20.0),),
        port_filters={("co0", 0): FilterModel(PLAN.center_thz(0))},
        ru_channels={"ru0": 0},
        routes={"ru0": (CandidatePath("co0", ("line",), (), 0),)},
        co_names=("co0",),
    )
    result = path_gain(topo, "ru0", "co0", PLAN.center_thz(0))
    assert result.gain_db == pytest.approx(-6.0)


def test_path_gain_zero_length_no_filters():
    from gmetro.link import CandidatePath, Node, NodeKind, Topology
    topo = Topology(
        kind=TopologyKind.TREE,
        nodes=(Node("co0", NodeKind.CO), Node("ru0", NodeKind.RU)),
        spans=(Span("line", "co0", "ru0", 0.0, connector_loss_db=0.0),),
        port_filters={},
        ru_channels={"ru0": 0},
        routes={"ru0": (CandidatePath("co0", ("line",), (), 0),)},
        co_names=("co0",),
    )
    assert path_gain(topo, "ru0", "co0", 192.1).gain_db == 0.0


def test_path_gain_ru_to_ru_refused():
    topo = make_tree(PLAN, [("ru0", 0), ("ru1", 1)])
    with pytest.raises(NoPath):
        path_gain(topo, "ru0", "ru1", 192.1)


def test_path_gain_passivity_and_additivity():
    topo = make_drop_line(PLAN, RUS8)
    for name, ch in RUS8:
        g = path_gain(topo, name, "co0", PLAN.center_thz(ch)).gain_db
        assert g <= 0.0
    # deeper RUs see all shallower spans: gain differences equal the extra
    # segment plus one express hop
    g1 = path_gain(topo, "ru1", "co0", PLAN.center_thz(1)).gain_db
    g2 = path_gain(topo, "ru2", "co0", PLAN.center_thz(2)).gain_db
    seg = topo.span("s2").loss_db
    assert g1 - g2 == pytest.approx(seg + topo.express_loss_db)


def test_received_power():
    topo = make_tree(PLAN, [("ru0", 0)], trunk_km=20.0, drop_km=0.0)
    gain = path_gain(topo, "ru0", "co0", PLAN.center_thz(0))
    assert received_power(0.0, gain) == pytest.approx(gain.gain_db)
    assert received_power(-3.0, gain) == pytest.approx(-3.0 + gain.gain_db)


def test_received_power_can_hit_sensitivity_threshold():
    # -3 dBm launch, -37 dB plant -> -40 dBm, the mgmt sensitivity
    topo = make_tree(PLAN, [("ru0", 0)], trunk_km=140.0, drop_km=2.0, connector_loss_db=0.5)
    gain = path_gain(topo, "ru0", "co0", PLAN.center_thz(0))
    assert gain.gain_db == pytest.approx(-37.5)
    assert received_power(-2.5, gain) == pytest.approx(-40.0)


# --------------------------------------------------------------------------
# crosstalk

def test_crosstalk_zero_margin_by_symmetry():
    # sweeper co-located with the victim at the victim's own frequency and
    # power: identical path, identical launch -> margin exactly 0
    topo = make_tree(PLAN, [("ru0", 0), ("ru1", 1)])
    margin = crosstalk_margin(topo, ("ru0", PLAN.center_thz(0), 0.0), 0,
                              victim_tx_power_dbm=0.0)
    assert margin == pytest.approx(0.0, abs=1e-9)


def test_crosstalk_adjacent_channel_is_isolation_floor():
    # equal launch power and equal path loss: sweeping at your own channel,
    # one channel away from the victim, leaves exactly the victim-port clamp
    topo = make_tree(PLAN, [("ru0", 0), ("ru1", 1)], drop_km=2.0)
    margin = crosstalk_margin(topo, ("ru1", PLAN.center_thz(1), 0.0), 0)
    assert margin == pytest.approx(35.0, abs=1e-9)


def test_crosstalk_linear_in_sweeper_power():
    topo = make_tree(PLAN, [("ru0", 0), ("ru1", 1)])
    base = crosstalk_margin(topo, ("ru1", PLAN.center_thz(1), 0.0), 0)
    quiet = crosstalk_margin(topo, ("ru1", PLAN.center_thz(1), -10.0), 0)
    assert quiet - base == pytest.approx(10.0)


# --------------------------------------------------------------------------
# cuts, restores, protection

def test_cut_and_restore_roundtrip():
    topo = make_tree(PLAN, [("ru0", 0)])
    assert restore(apply_cut(topo, "trunk"), "trunk") == topo


def test_cut_unknown_span():
    topo = make_tree(PLAN, [("ru0", 0)])
    with pytest.raises(UnknownSpan):
        apply_cut(topo, "nonexistent")


def test_tree_trunk_cut_no_path():
    topo = apply_cut(make_tree(PLAN, [("ru0", 0), ("ru1", 1)]), "trunk")
    for ru in ("ru0", "ru1"):
        with pytest.raises(NoPath):
            path_gain(topo, ru, "co0", 192.1)


def test_horseshoe_cut_switches_every_ru_east_same_wavelength():
    topo = make_horseshoe(PLAN, RUS8)
    assert topo.kind is TopologyKind.HORSESHOE
    for name, ch in RUS8:
        assert topo.active_path(name).co == "co_w"
    cut = apply_cut(topo, "s1")
    for name, ch in RUS8:
        path = cut.active_path(name)
        assert path.co == "co_e"
        # the same wavelength still passes its add/drop filter
        g = path_gain(cut, name, "co_e", PLAN.center_thz(ch)).gain_db
        assert g > -40.0
    # restore is revertive
    assert restore(cut, "s1") == topo
    for name, _ in RUS8:
        assert restore(cut, "s1").active_path(name).co == "co_w"


def test_horseshoe_paths_ring_disjoint():
    topo = make_horseshoe(PLAN, RUS8)
    for name, _ in RUS8:
        west, east = topo.routes[name]
        ring_w = {s for s in west.span_names if not topo.span(s).is_drop}
        ring_e = {s for s in east.span_names if not topo.span(s).is_drop}
        assert not ring_w & ring_e


def test_horseshoe_middle_cut_splits_sides():
    topo = make_horseshoe(PLAN, RUS8)
    cut = apply_cut(topo, "s5")  # between a4 and a5
    for i in range(4):
        assert cut.active_path(f"ru{i}").co == "co_w"
    for i in range(4, 8):
        assert cut.active_path(f"ru{i}").co == "co_e"


def test_horseshoe_double_cut_isolates_ru():
    topo = make_horseshoe(PLAN, [("ru0", 0)])
    cut = apply_cut(apply_cut(topo, "s1"), "s2")
    with pytest.raises(NoPath):
        cut.active_path("ru0")


def test_duplicate_channel_assignment_rejected():
    with pytest.raises(ValueError):
        make_tree(PLAN, [("ru0", 3), ("ru1", 3)])


# --------------------------------------------------------------------------
# compiled plant against the scalar formula

PLAN50 = FrequencyPlan(channel_count=8, spacing_ghz=50.0)
RUS50 = [(f"ru{i}", ch) for i, ch in enumerate((0, 1, 3, 4, 6, 7))]


def reference_gain(topo, ru, co, f_thz, port):
    """path_gain written out from the topology's fields alone; None for no path."""
    spans = {s.name: s for s in topo.spans}
    path = next(c for c in topo.routes[ru] if c.co == co)
    if any(s in topo.cut_spans for s in path.span_names):
        return None
    loss = sum(spans[s].loss_db for s in path.span_names)
    loss += path.express_hops * topo.express_loss_db
    for key in path.filter_keys:
        loss += topo.port_filters[key].attenuation_db(f_thz)
    co_filter = topo.port_filters.get((co, port))
    if co_filter is not None:
        loss += co_filter.attenuation_db(f_thz)
    return -loss


def frequency_grid(plan, bandwidth_ghz=50.0, floor_db=35.0):
    """Band edges, every centre, the half-power points, and each side of
    the floor crossover, plus an even grid across the band."""
    lo, hi = plan.band_edges_thz()
    crossover = bandwidth_ghz / 2000.0 * (floor_db / DB_3) ** 0.25
    points = [lo, hi, *np.linspace(lo, hi, 151)]
    for ch in range(plan.channel_count):
        c = plan.center_thz(ch)
        for d in (0.0, bandwidth_ghz / 2000.0, crossover):
            for x in (c - d, c + d):
                points += [x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)]
    return [float(f) for f in points]


def plant_variants():
    """Each topology kind, plus a horseshoe with every ring span cut in turn
    and then restored, and a tree with its trunk cut and restored."""
    tree = make_tree(PLAN50, RUS50)
    horseshoe = make_horseshoe(PLAN50, RUS50[:4])
    out = [pytest.param(tree, id="tree"),
           pytest.param(make_drop_line(PLAN50, RUS50), id="drop_line"),
           pytest.param(horseshoe, id="horseshoe"),
           pytest.param(apply_cut(tree, "trunk"), id="tree-trunk-cut"),
           pytest.param(restore(apply_cut(tree, "trunk"), "trunk"), id="tree-trunk-restored")]
    for span in horseshoe.spans:
        if not span.is_drop:
            cut = apply_cut(horseshoe, span.name)
            out += [pytest.param(cut, id=f"horseshoe-{span.name}-cut"),
                    pytest.param(restore(cut, span.name), id=f"horseshoe-{span.name}-restored")]
    return out


@pytest.mark.parametrize("topo", plant_variants())
def test_compiled_plant_equals_scalar_formula(topo):
    grid = frequency_grid(PLAN50)
    plant = topo.plant
    for ru in topo.ru_channels:
        for co in topo.co_names:
            route = next(c for c in topo.routes[ru] if c.co == co)
            bank = plant.bank(co)
            try:
                compiled = plant.path_to_co(ru, co)
            except NoPath:
                compiled = None
            spans = {s.name: s for s in topo.spans}
            if compiled is not None:
                assert compiled.length_km == sum(spans[s].length_km for s in route.span_names)
            floor_of = {i: floor for floor, members in bank.floor_groups.items()
                        for i in members}
            for f in grid:
                near = bank.near(f)
                for i, port in enumerate(topo.ru_channels.values()):
                    assert near.get(i, floor_of[i]) == \
                        topo.port_filters[(co, port)].attenuation_db(f)
                for port in range(PLAN50.channel_count):
                    want = reference_gain(topo, ru, co, f, port)
                    if want is None:
                        with pytest.raises(NoPath):
                            path_gain(topo, ru, co, f, rx_port_channel=port)
                        continue
                    assert path_gain(topo, ru, co, f, rx_port_channel=port).gain_db == want
                    assert path_gain(topo, co, ru, f, rx_port_channel=port).gain_db == want
                    # the engine's hoisted form: sender loss once, port filter per victim
                    assert -(compiled.loss_at(f) +
                             topo.port_filters[(co, port)].attenuation_db(f)) == want


def test_filter_bank_with_mixed_floors_and_a_missing_filter():
    # channels out of frequency order, two floors, one order-3 filter and
    # channel 5 without a filter at this node
    channels = [4, 0, 5, 2, 7, 1]
    filters = {("n", ch): FilterModel(PLAN50.center_thz(ch), 50.0 + 10.0 * (ch % 2),
                                      order=3 if ch == 7 else 2,
                                      isolation_floor_db=20.0 if ch in (0, 7) else 35.0)
               for ch in channels if ch != 5}
    bank = FilterBank("n", channels, filters)
    assert bank.floor_groups == {35.0: [0, 3, 5], 20.0: [1, 4], 0.0: [2]}
    floor_of = {i: floor for floor, members in bank.floor_groups.items() for i in members}
    for f in frequency_grid(PLAN50) + frequency_grid(PLAN50, 60.0, 20.0):
        near = bank.near(f)
        assert 2 not in near
        for i, ch in enumerate(channels):
            want = 0.0 if ch == 5 else filters[("n", ch)].attenuation_db(f)
            assert near.get(i, floor_of[i]) == want


def test_compiled_plant_follows_cut_and_restore():
    topo = make_horseshoe(PLAN50, RUS50[:4])
    assert topo.plant.active_path("ru0").co == "co_w"
    cut = apply_cut(topo, "s1")
    assert cut.plant is not topo.plant
    assert cut.plant.active_path("ru0").co == "co_e"
    assert topo.plant.active_path("ru0").co == "co_w"
    assert restore(cut, "s1").plant.active_path("ru0").co == "co_w"


def test_lookups_on_unknown_names_raise():
    topo = make_tree(PLAN, [("ru0", 0)])
    path_gain(topo, "ru0", "co0", 192.1)      # the plant is compiled now
    with pytest.raises(UnknownSpan):
        topo.span("nonexistent")
    with pytest.raises(UnknownSpan):
        restore(topo, "nonexistent")
    with pytest.raises(LinkError):
        topo.node("nonexistent")
    with pytest.raises(LinkError):
        path_gain(topo, "ghost", "co0", 192.1)
    with pytest.raises(LinkError):
        topo.ru_for_channel(5)


def test_route_over_unknown_span_raises_on_path_query():
    from gmetro.link import CandidatePath, Node, NodeKind, Topology
    topo = Topology(
        kind=TopologyKind.TREE,
        nodes=(Node("co0", NodeKind.CO), Node("ru0", NodeKind.RU)),
        spans=(Span("line", "co0", "ru0", 20.0),),
        port_filters={},
        ru_channels={"ru0": 0},
        routes={"ru0": (CandidatePath("co0", ("line", "ghost"), (), 0),)},
        co_names=("co0",),
    )
    with pytest.raises(UnknownSpan):
        path_gain(topo, "ru0", "co0", 192.1)
