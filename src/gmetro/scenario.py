"""Scenario file format: line-oriented `[section]` / `key = value` text.

Strict by default: unknown sections or keys are errors, units are explicit
in key names, and the parser reports every independent problem in one pass
(each with its line number) instead of stopping at the first.  Rendering a
parsed scenario back to text and re-parsing yields an equal Scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .engine import (
    CoSpec, FaultSpec, MgmtSpec, RunSpec, RuSpec, Scenario, TopoSpec,
    ValidationError, validate,
)
from .link import FrequencyPlan


class ScenarioError(Exception):
    def __init__(self, issues: list["Issue"]):
        super().__init__("; ".join(str(i) for i in issues))
        self.issues = issues


@dataclass(frozen=True)
class Issue:
    line: int
    code: str       # PARSE_ERROR | UNKNOWN_SECTION | UNKNOWN_KEY |
                    # UNIT_VIOLATION | CROSS_REF_ERROR | MISSING
    message: str

    def __str__(self):
        return f"line {self.line}: {self.code}: {self.message}"


def _parse_bool(text: str) -> bool:
    if text in ("true", "false"):
        return text == "true"
    raise ValueError(f"expected true/false, got {text!r}")


def _positive(x):
    if x <= 0:
        raise ValueError("must be positive")
    return x


def _non_negative(x):
    if x < 0:
        raise ValueError("must be >= 0")
    return x


def _fraction(x):
    if not 0.0 <= x <= 1.0:
        raise ValueError("must be in [0, 1]")
    return x


def _any(x):
    return x


def _choice(*options):
    def check(x):
        if x not in options:
            raise ValueError(f"must be one of {', '.join(options)}")
        return x
    return check


# key -> (type converter, constraint)
_PLAN = {
    "channel_count": (int, _positive),
    "spacing_ghz": (float, _positive),
    "first_center_thz": (float, _positive),
}
_TOPOLOGY = {
    "kind": (str, _choice("tree", "drop_line", "horseshoe")),
    "trunk_km": (float, _non_negative),
    "segment_km": (float, _non_negative),
    "drop_km": (float, _non_negative),
    "loss_db_per_km": (float, _non_negative),
    "connector_loss_db": (float, _non_negative),
    "express_loss_db": (float, _non_negative),
    "filter_bandwidth_ghz": (float, _positive),
    "isolation_floor_db": (float, _positive),
}
_MGMT = {
    "bit_rate": (float, _positive),
    "ber": (float, _fraction),
    "rx_sensitivity_dbm": (float, _any),
    "tx_power_dbm": (float, _any),
    "max_tx_power_dbm": (float, _any),
    "sweep_margin_db": (float, _non_negative),
    "retry_limit": (int, _non_negative),
}
_RU = {
    "channel": (int, _non_negative),
    "laser": (str, _choice("mems", "dbr", "vernier")),
    "calibrated": (_parse_bool, _any),
    "start_ms": (float, _non_negative),
}
_CO = {
    "role": (str, _choice("managed", "primary")),
    "laser": (str, _choice("mems", "dbr", "vernier")),
    "nms_channel": (int, _non_negative),
}
_RUN = {
    "seed": (int, _any),
    "horizon_ms": (float, _positive),
    "stop": (str, _choice("all_locked", "time")),
    "nms_at_ms": (float, _non_negative),
    "drift_sigma_rw_ghz": (float, _non_negative),
    "drift_ramp_ghz_per_s": (float, _any),
    "drift_bound_ghz": (float, _positive),
    "drift_tick_ms": (float, _positive),
    "monitor_tick_ms": (float, _positive),
    "measurement_noise_ghz": (float, _non_negative),
    "latency_worst_ms": (float, _positive),
    "crosstalk_min_margin_db": (float, _any),
    "safety_checks": (_parse_bool, _any),
    "hold_enabled": (_parse_bool, _any),
    "trace_drift": (_parse_bool, _any),
    "allow_unreachable": (_parse_bool, _any),
}


def parse_scenario(text: str) -> Scenario:
    """Parse scenario text; raises ScenarioError carrying every issue found."""
    issues: list[Issue] = []
    sections: dict[str, dict] = {}     # section -> {key: value}
    section_lines: dict[str, int] = {}
    fault_events: list[tuple[int, str]] = []
    order: list[str] = []

    SKIP = "\x00skip"  # keys under an already-reported bad section
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            base = current.split(".", 1)[0]
            if base not in ("plan", "topology", "mgmt", "run", "faults", "ru", "co"):
                issues.append(Issue(lineno, "UNKNOWN_SECTION", f"[{current}]"))
                current = SKIP
                continue
            if base in ("ru", "co") and "." not in current:
                issues.append(Issue(lineno, "PARSE_ERROR",
                                    f"[{base}] sections need a name: [{base}.<name>]"))
                current = SKIP
                continue
            if current in sections:
                issues.append(Issue(lineno, "PARSE_ERROR", f"duplicate section [{current}]"))
            sections.setdefault(current, {})
            section_lines.setdefault(current, lineno)
            if current not in order:
                order.append(current)
            continue
        if "=" not in line:
            issues.append(Issue(lineno, "PARSE_ERROR", f"expected key = value: {line!r}"))
            continue
        if current is SKIP:
            continue
        if current is None:
            issues.append(Issue(lineno, "PARSE_ERROR", "key outside any section"))
            continue
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if current == "faults":
            if key != "event":
                issues.append(Issue(lineno, "UNKNOWN_KEY", f"[faults] takes only 'event', got {key!r}"))
                continue
            fault_events.append((lineno, value))
            continue
        if key in sections[current]:
            issues.append(Issue(lineno, "PARSE_ERROR", f"duplicate key {key!r} in [{current}]"))
            continue
        sections[current][key] = (lineno, value)

    def take(section: str, schema: dict) -> dict:
        out = {}
        for key, (lineno, value) in sections.get(section, {}).items():
            if key not in schema:
                issues.append(Issue(lineno, "UNKNOWN_KEY", f"{key!r} in [{section}]"))
                continue
            convert, constrain = schema[key]
            try:
                out[key] = constrain(convert(value))
            except (ValueError, TypeError) as err:
                issues.append(Issue(lineno, "UNIT_VIOLATION", f"{key} = {value}: {err}"))
        return out

    plan_kw = take("plan", _PLAN)
    topo_kw = take("topology", _TOPOLOGY)
    mgmt_kw = take("mgmt", _MGMT)
    run_kw = take("run", _RUN)

    rus, cos = [], []
    for name in order:
        if name.startswith("ru."):
            kw = take(name, _RU)
            if "channel" not in kw:
                issues.append(Issue(section_lines[name], "MISSING",
                                    f"[{name}] needs a channel"))
                continue
            rus.append(RuSpec(name=name[3:], **kw))
        elif name.startswith("co."):
            kw = take(name, _CO)
            cos.append(CoSpec(name=name[3:], **kw))

    faults = []
    for lineno, value in fault_events:
        parts = value.split()
        try:
            kind = parts[0]
            at = next(p for p in parts if p.startswith("at_ms="))
            at_ms = float(at.split("=", 1)[1])
            if kind in ("cut", "restore"):
                faults.append(FaultSpec(kind=kind, at_ms=at_ms, span=parts[1]))
            elif kind == "ber":
                faults.append(FaultSpec(kind=kind, at_ms=at_ms, ber=_fraction(float(parts[1]))))
            else:
                raise ValueError(f"unknown fault kind {kind!r}")
        except (IndexError, StopIteration, ValueError) as err:
            issues.append(Issue(lineno, "PARSE_ERROR",
                                f"event {value!r}: expected '<cut|restore> <span> at_ms=T' "
                                f"or 'ber <p> at_ms=T' ({err})"))

    if issues:
        raise ScenarioError(sorted(issues, key=lambda i: i.line))

    scenario = Scenario(
        plan=FrequencyPlan(**plan_kw),
        topo=TopoSpec(**topo_kw),
        rus=tuple(rus),
        cos=tuple(cos) if cos else (CoSpec(),),
        mgmt=MgmtSpec(**mgmt_kw),
        run=RunSpec(**run_kw),
        faults=tuple(faults),
    )
    try:
        validate(scenario)
    except (ValidationError, ValueError) as err:
        raise ScenarioError([Issue(0, "CROSS_REF_ERROR", str(err))])
    return scenario


def _render_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _render_section(title: str, obj, skip=()) -> list[str]:
    lines = [f"[{title}]"]
    for f in fields(obj):
        if f.name in skip:
            continue
        value = getattr(obj, f.name)
        if value is None:
            continue
        lines.append(f"{f.name} = {_render_value(value)}")
    lines.append("")
    return lines


def render_scenario(scenario: Scenario) -> str:
    """Canonical text form; parse(render(s)) == s."""
    lines: list[str] = []
    lines += _render_section("plan", scenario.plan)
    lines += _render_section("topology", scenario.topo)
    lines += _render_section("mgmt", scenario.mgmt)
    for co in scenario.cos:
        lines += _render_section(f"co.{co.name}", co, skip=("name",))
    for ru in scenario.rus:
        lines += _render_section(f"ru.{ru.name}", ru, skip=("name",))
    if scenario.faults:
        lines.append("[faults]")
        for f in scenario.faults:
            if f.kind in ("cut", "restore"):
                lines.append(f"event = {f.kind} {f.span} at_ms={_render_value(f.at_ms)}")
            else:
                lines.append(f"event = ber {_render_value(f.ber)} at_ms={_render_value(f.at_ms)}")
        lines.append("")
    lines += _render_section("run", scenario.run)
    return "\n".join(lines)
