"""Scenario configuration: a small line-oriented ``key = value`` format.

The hand-rolled parser exists because the error contract matters more than
the syntax: unknown keys are reported together by name, and malformed
numbers, and non-positive trigger parameters, delta, step, tend and stride,
are reported with their line (or, for a command line flag, with the flag).
Lists are comma separated; blank lines and ``#`` comments are ignored.
``dump_config`` emits the canonical form, which re-parses to an identical
configuration.

Recognized keys:

  scenario         der4 | dispatch(n, seed) | custom
  topology         ring4 | random(n, seed) | edges
  edges            comma list of i-j pairs (with topology = edges)
  trigger          event | periodic | periodic(T) | continuous
  beta1, beta2     scalar or per-agent comma list (event trigger)
  period           broadcast period (periodic trigger)
  a, b, d          per-unit cost coefficients (custom scenario)
  price_intercept, price_slope   price model (custom scenario)
  seed             overrides the dispatch and random-topology seeds
  delta            estimator time-scale parameter (default 0.1)
  step             integration step (default delta / 100)
  tend             simulated horizon (default 200)
  x0               initial decisions (default: preset-specific)
  stride           record every k-th step, and the last (default 10)
  output           output directory (default "out")
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .engine import SimConfig
from .graphs import Graph, random_connected_graph, ring
from .problems import (
    AggregativeProblem,
    DerParameters,
    from_der_parameters,
    make_der_instance,
    make_dispatch_instance,
)
from .triggers import Continuous, Event, Periodic, TriggerScheme

__all__ = ["ConfigError", "ScenarioConfig", "parse_config", "dump_config",
           "scenario_problem", "scenario_graph", "scenario_schemes", "to_sim_config"]

# The four-unit preset's event-trigger parameters.
DER4_BETA1 = (10.0, 8.0, 8.0, 10.0)
DER4_BETA2 = (0.01, 0.1, 0.15, 0.05)
DER4_X0 = (5.0, 6.0, 3.0, 8.0)
DISPATCH_BETA1 = 6.0
DISPATCH_BETA2 = 0.15
DEFAULT_PERIOD = 0.02


class ConfigError(ValueError):
    """Unusable scenario configuration."""


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully resolved scenario; every field has a concrete value or None."""

    scenario: str                                   # der4 | dispatch | custom
    dispatch_n: int | None
    dispatch_seed: int | None
    coefficients: DerParameters | None              # custom scenario only
    topology: str                                   # ring4 | random | edges
    topology_n: int | None
    topology_seed: int | None
    edges: tuple[tuple[int, int], ...] | None
    trigger: str                                    # event | periodic | continuous
    beta1: tuple[float, ...] | None
    beta2: tuple[float, ...] | None
    period: float | None
    delta: float
    step: float
    t_end: float
    x0: tuple[float, ...]
    stride: int
    output_dir: str


_KNOWN_KEYS = {
    "scenario", "topology", "edges", "trigger", "beta1", "beta2", "period",
    "a", "b", "d", "price_intercept", "price_slope", "seed",
    "delta", "step", "tend", "x0", "stride", "output",
}


def parse_raw(text: str) -> dict[str, tuple[str, str]]:
    """Split config text into {key: (value, where)}; checks key names.

    ``where`` ("line 3") locates the value in error messages; entries built
    from command line flags carry the flag ("--tend") instead."""
    entries: dict[str, tuple[str, str]] = {}
    unknown: list[str] = []
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KNOWN_KEYS:
            unknown.append(f"{key!r} (line {lineno})")
            continue
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = (value, f"line {lineno}")
    if unknown:
        raise ConfigError("unknown keys: " + ", ".join(unknown))
    return entries


def _number(value: str, where: str, key: str, positive: bool = False) -> float:
    try:
        number = float(value)
    except ValueError:
        raise ConfigError(f"{where}: malformed number for {key!r}: {value!r}") from None
    if not math.isfinite(number):
        raise ConfigError(f"{where}: {key!r} must be finite, got {value!r}")
    if positive and number <= 0:
        raise ConfigError(f"{where}: {key!r} must be positive, got {value!r}")
    return number


def _int(value: str, where: str, key: str, positive: bool = False) -> int:
    try:
        number = int(value)
    except ValueError:
        raise ConfigError(f"{where}: malformed integer for {key!r}: {value!r}") from None
    if positive and number <= 0:
        raise ConfigError(f"{where}: {key!r} must be positive, got {value!r}")
    return number


def _number_list(value: str, where: str, key: str, positive: bool = False) -> tuple[float, ...]:
    return tuple(_number(part.strip(), where, key, positive) for part in value.split(","))


def _edge_list(value: str, where: str) -> tuple[tuple[int, int], ...]:
    edges = []
    for token in value.split(","):
        token = token.strip()
        mo = re.fullmatch(r"(\d+)\s*-\s*(\d+)", token)
        if mo is None:
            raise ConfigError(f"{where}: malformed edge {token!r}; expected 'i-j'")
        edges.append((int(mo.group(1)), int(mo.group(2))))
    return tuple(edges)


def parse_config(text: str) -> ScenarioConfig:
    """Parse config text and apply all defaults."""
    return resolve_config(parse_raw(text))


def resolve_config(entries: dict[str, tuple[str, str]]) -> ScenarioConfig:
    if "scenario" not in entries:
        raise ConfigError("scenario required")
    scen_text, scen_where = entries["scenario"]

    dispatch_n = dispatch_seed = None
    coefficients = None
    if scen_text == "der4":
        scenario = "der4"
        n_agents = 4
    elif scen_text == "custom":
        scenario = "custom"
        needed = ("a", "b", "d", "price_intercept", "price_slope")
        missing = [k for k in needed if k not in entries]
        if missing:
            raise ConfigError("custom scenario needs keys: " + ", ".join(missing))
        a = _number_list(*entries["a"], "a")
        b = _number_list(*entries["b"], "b")
        d = _number_list(*entries["d"], "d")
        if not (len(a) == len(b) == len(d)):
            raise ConfigError("a, b, d must have equal length")
        coefficients = DerParameters(
            a=a, b=b, d=d,
            price_intercept=_number(*entries["price_intercept"], "price_intercept"),
            price_slope=_number(*entries["price_slope"], "price_slope"),
        )
        n_agents = len(a)
    else:
        mo = re.fullmatch(r"dispatch\(\s*(\d+)\s*,\s*(-?\d+)\s*\)", scen_text)
        if mo is None:
            raise ConfigError(
                f"{scen_where}: scenario must be der4, dispatch(n, seed), or custom; "
                f"got {scen_text!r}"
            )
        scenario = "dispatch"
        dispatch_n, dispatch_seed = int(mo.group(1)), int(mo.group(2))
        if dispatch_n < 1:
            raise ConfigError(f"{scen_where}: 'n' must be positive, got {scen_text!r}")
        n_agents = dispatch_n
    if scenario != "custom":
        for key in ("a", "b", "d", "price_intercept", "price_slope"):
            if key in entries:
                raise ConfigError(f"key {key!r} is only valid with scenario = custom")

    if "seed" in entries:
        seed = _int(*entries["seed"], "seed")
        if scenario == "dispatch":
            dispatch_seed = seed
    else:
        seed = None

    topology_n = topology_seed = None
    edges = None
    if "topology" in entries:
        topo_text, topo_where = entries["topology"]
        if topo_text == "ring4":
            topology = "ring4"
        elif topo_text == "edges":
            if "edges" not in entries:
                raise ConfigError("topology = edges needs an 'edges' key")
            topology = "edges"
            edges = _edge_list(*entries["edges"])
        else:
            mo = re.fullmatch(r"random\(\s*(\d+)\s*,\s*(-?\d+)\s*\)", topo_text)
            if mo is None:
                raise ConfigError(
                    f"{topo_where}: topology must be ring4, random(n, seed), or edges; "
                    f"got {topo_text!r}"
                )
            topology = "random"
            topology_n, topology_seed = int(mo.group(1)), int(mo.group(2))
            if topology_n < 1:
                raise ConfigError(f"{topo_where}: 'n' must be positive, got {topo_text!r}")
        nodes = {"ring4": 4, "random": topology_n}.get(topology)
        if nodes is None:
            nodes = max(max(edge) for edge in edges) + 1
        if nodes != n_agents:
            raise ConfigError(
                f"{topo_where}: topology {topo_text!r} has {nodes} nodes, "
                f"but the scenario has {n_agents} agents"
            )
    elif scenario == "der4":
        topology = "ring4"
    else:
        topology = "random"
        topology_n = n_agents
        topology_seed = dispatch_seed if dispatch_seed is not None else 0
    if "edges" in entries and topology != "edges":
        raise ConfigError("'edges' key is only valid with topology = edges")
    if seed is not None:
        if topology == "random":
            topology_seed = seed
        elif scenario != "dispatch":
            raise ConfigError(
                f"{entries['seed'][1]}: 'seed' is only valid with scenario = dispatch(n, seed) "
                "or topology = random(n, seed)"
            )

    beta1 = beta2 = None
    period = None
    if "trigger" in entries:
        trig_text, trig_where = entries["trigger"]
    else:
        trig_text, trig_where = "event", "default"
    if trig_text == "event":
        trigger = "event"
    elif trig_text == "continuous":
        trigger = "continuous"
    elif trig_text == "periodic":
        trigger = "periodic"
    else:
        mo = re.fullmatch(r"periodic\(\s*([^)]+?)\s*\)", trig_text)
        if mo is None:
            raise ConfigError(
                f"{trig_where}: trigger must be event, periodic, periodic(T), or "
                f"continuous; got {trig_text!r}"
            )
        trigger = "periodic"
        period = _number(mo.group(1), trig_where, "trigger", positive=True)

    def broadcast(values: tuple[float, ...], key: str) -> tuple[float, ...]:
        if len(values) == 1:
            return values * n_agents
        if len(values) != n_agents:
            raise ConfigError(f"{key} needs 1 or {n_agents} values, got {len(values)}")
        return values

    if trigger == "event":
        if "beta1" in entries:
            beta1 = broadcast(_number_list(*entries["beta1"], "beta1", positive=True), "beta1")
        elif scenario == "der4":
            beta1 = DER4_BETA1
        else:
            beta1 = (DISPATCH_BETA1,) * n_agents
        if "beta2" in entries:
            beta2 = broadcast(_number_list(*entries["beta2"], "beta2", positive=True), "beta2")
        elif scenario == "der4":
            beta2 = DER4_BETA2
        else:
            beta2 = (DISPATCH_BETA2,) * n_agents
    else:
        if "beta1" in entries or "beta2" in entries:
            raise ConfigError("beta1/beta2 are only valid with trigger = event")
    if trigger == "periodic":
        if "period" in entries:
            if period is not None:
                raise ConfigError("period given both inline and as a key")
            period = _number(*entries["period"], "period", positive=True)
        elif period is None:
            period = DEFAULT_PERIOD
    elif "period" in entries:
        raise ConfigError("'period' is only valid with trigger = periodic")

    delta = _number(*entries["delta"], "delta", positive=True) if "delta" in entries else 0.1
    step = _number(*entries["step"], "step", positive=True) if "step" in entries else delta / 100.0
    t_end = _number(*entries["tend"], "tend", positive=True) if "tend" in entries else 200.0
    stride = _int(*entries["stride"], "stride", positive=True) if "stride" in entries else 10
    output_dir, where = entries.get("output", ("out", "default"))
    if "#" in output_dir or [output_dir] != output_dir.strip().splitlines():
        raise ConfigError(
            f"{where}: 'output' must be non-empty, without '#', line breaks or leading or "
            f"trailing whitespace, so that its dumped line re-parses; got {output_dir!r}"
        )
    if "x0" in entries:
        x0 = _number_list(*entries["x0"], "x0")
        if len(x0) != n_agents:
            raise ConfigError(f"x0 needs {n_agents} values, got {len(x0)}")
    elif scenario == "der4":
        x0 = DER4_X0
    else:
        x0 = (0.0,) * n_agents

    return ScenarioConfig(
        scenario=scenario,
        dispatch_n=dispatch_n,
        dispatch_seed=dispatch_seed,
        coefficients=coefficients,
        topology=topology,
        topology_n=topology_n,
        topology_seed=topology_seed,
        edges=edges,
        trigger=trigger,
        beta1=beta1,
        beta2=beta2,
        period=period,
        delta=delta,
        step=step,
        t_end=t_end,
        x0=x0,
        stride=stride,
        output_dir=output_dir,
    )


def dump_config(sc: ScenarioConfig) -> str:
    """Canonical text form; parse_config(dump_config(sc)) == sc."""
    lines = []
    if sc.scenario == "dispatch":
        lines.append(f"scenario = dispatch({sc.dispatch_n}, {sc.dispatch_seed})")
    else:
        lines.append(f"scenario = {sc.scenario}")
    if sc.coefficients is not None:
        p = sc.coefficients
        lines.append("a = " + ", ".join(repr(v) for v in p.a))
        lines.append("b = " + ", ".join(repr(v) for v in p.b))
        lines.append("d = " + ", ".join(repr(v) for v in p.d))
        lines.append(f"price_intercept = {p.price_intercept!r}")
        lines.append(f"price_slope = {p.price_slope!r}")
    if sc.topology == "random":
        lines.append(f"topology = random({sc.topology_n}, {sc.topology_seed})")
    else:
        lines.append(f"topology = {sc.topology}")
    if sc.edges is not None:
        lines.append("edges = " + ", ".join(f"{i}-{j}" for i, j in sc.edges))
    if sc.trigger == "periodic":
        lines.append(f"trigger = periodic({sc.period!r})")
    else:
        lines.append(f"trigger = {sc.trigger}")
    if sc.beta1 is not None:
        lines.append("beta1 = " + ", ".join(repr(v) for v in sc.beta1))
    if sc.beta2 is not None:
        lines.append("beta2 = " + ", ".join(repr(v) for v in sc.beta2))
    lines.append(f"delta = {sc.delta!r}")
    lines.append(f"step = {sc.step!r}")
    lines.append(f"tend = {sc.t_end!r}")
    lines.append("x0 = " + ", ".join(repr(v) for v in sc.x0))
    lines.append(f"stride = {sc.stride}")
    lines.append(f"output = {sc.output_dir}")
    return "\n".join(lines) + "\n"


def scenario_problem(sc: ScenarioConfig) -> AggregativeProblem:
    if sc.scenario == "der4":
        return make_der_instance()
    if sc.scenario == "dispatch":
        return make_dispatch_instance(sc.dispatch_n, sc.dispatch_seed)
    return from_der_parameters(sc.coefficients)


def scenario_graph(sc: ScenarioConfig) -> Graph:
    if sc.topology == "ring4":
        return ring(4)
    if sc.topology == "random":
        return random_connected_graph(sc.topology_n, sc.topology_seed)
    n_nodes = max(max(i, j) for i, j in sc.edges) + 1
    return Graph.from_edges(n_nodes, sc.edges)


def scenario_schemes(sc: ScenarioConfig, n_agents: int) -> tuple[TriggerScheme, ...]:
    if sc.trigger == "continuous":
        return (Continuous(),) * n_agents
    if sc.trigger == "periodic":
        return (Periodic(sc.period),) * n_agents
    return tuple(Event(b1, b2) for b1, b2 in zip(sc.beta1, sc.beta2))


def to_sim_config(sc: ScenarioConfig) -> SimConfig:
    problem = scenario_problem(sc)
    graph = scenario_graph(sc)
    try:
        return SimConfig(
            problem=problem,
            graph=graph,
            delta=sc.delta,
            h=sc.step,
            t_end=sc.t_end,
            x0=np.array(sc.x0),
            schemes=scenario_schemes(sc, problem.n_agents),
            output_stride=sc.stride,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
