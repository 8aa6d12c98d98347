"""Scenario configuration: a small line-oriented ``key = value`` format.

The hand-rolled parser exists because the error contract matters more than
the syntax: unknown keys are reported together by name, and every other
rejection names its key and its line (or, for a command line flag, the
flag, whose text arrives here as typed). Seeds must be non-negative, and an
``edges`` pair may not be a self-loop, nor may its graph be disconnected.
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
from .graphs import Graph, is_connected, random_connected_graph, ring
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


def _int(value: str, where: str, key: str, least: int) -> int:
    try:
        number = int(value)
    except ValueError:
        raise ConfigError(f"{where}: malformed integer for {key!r}: {value!r}") from None
    if number < least:
        bound = "positive" if least else "non-negative"
        raise ConfigError(f"{where}: {key!r} must be {bound}, got {value!r}")
    return number


def _number_list(value: str, where: str, key: str, positive: bool = False) -> tuple[float, ...]:
    return tuple(_number(part.strip(), where, key, positive) for part in value.split(","))


def _edge_list(value: str, where: str) -> tuple[tuple[int, int], ...]:
    edges = []
    for token in value.split(","):
        token = token.strip()
        mo = re.fullmatch(r"(\d+)\s*-\s*(\d+)", token)
        if mo is None:
            raise ConfigError(f"{where}: malformed edge {token!r} in 'edges'; expected 'i-j'")
        i, j = int(mo.group(1)), int(mo.group(2))
        if i == j:
            raise ConfigError(f"{where}: edge {token!r} in 'edges' is a self-loop")
        edges.append((i, j))
    if not is_connected(Graph.from_edges(max(map(max, edges)) + 1, edges)):
        raise ConfigError(f"{where}: the graph of 'edges' is not connected")
    return tuple(edges)


# The bare names, and the one name(args) spelling with the pattern of its
# arguments, of each key that names a kind.
_SPELLINGS = {
    "scenario": (("der4", "custom"), "dispatch", r"(\d+)\s*,\s*(-?\d+)",
                 "der4, dispatch(n, seed), or custom"),
    "topology": (("ring4", "edges"), "random", r"(\d+)\s*,\s*(-?\d+)",
                 "ring4, random(n, seed), or edges"),
    "trigger": (("event", "periodic", "continuous"), "periodic", r"([^)]+?)",
                "event, periodic, periodic(T), or continuous"),
}


def _spelling(key: str, text: str, where: str) -> tuple[str, tuple]:
    """The kind a scenario, topology or trigger value names, and the
    arguments of its name(args) spelling: (n, seed), with n positive and
    seed non-negative, or (T,) with T positive; () for a bare name."""
    names, call, pattern, spellings = _SPELLINGS[key]
    if text in names:
        return text, ()
    mo = re.fullmatch(rf"{call}\(\s*{pattern}\s*\)", text)
    if mo is None:
        raise ConfigError(f"{where}: {key} must be {spellings}; got {text!r}")
    if call == "periodic":
        return call, (_number(mo.group(1), where, key, positive=True),)
    n, seed = int(mo.group(1)), int(mo.group(2))
    if n < 1 or seed < 0:
        name, bound = ("n", "positive") if n < 1 else ("seed", "non-negative")
        raise ConfigError(f"{where}: {name!r} must be {bound}, got {key} = {text!r}")
    return call, (n, seed)


# The keys that only some kinds read, and those kinds.
_NEEDS = {
    **dict.fromkeys(("a", "b", "d", "price_intercept", "price_slope"), (("scenario", "custom"),)),
    **dict.fromkeys(("beta1", "beta2"), (("trigger", "event"),)),
    "edges": (("topology", "edges"),),
    "period": (("trigger", "periodic"),),
    "seed": (("scenario", "dispatch(n, seed)"), ("topology", "random(n, seed)")),
}

# The per-agent keys' defaults: der4's, and every other scenario's value
# for each agent.
_PER_AGENT = {
    "beta1": (DER4_BETA1, DISPATCH_BETA1),
    "beta2": (DER4_BETA2, DISPATCH_BETA2),
    "x0": (DER4_X0, 0.0),
}


def _per_agent(entries: dict[str, tuple[str, str]], key: str, scenario: str,
               n_agents: int) -> tuple[float, ...]:
    """beta1, beta2 or x0, one value per agent, or the scenario's default.
    The betas are positive, and one value holds for every agent."""
    der4, other = _PER_AGENT[key]
    if key not in entries:
        return der4 if scenario == "der4" else (other,) * n_agents
    value, where = entries[key]
    beta = key != "x0"
    values = _number_list(value, where, key, positive=beta)
    if beta and len(values) == 1:
        return values * n_agents
    if len(values) != n_agents:
        counts = f"1 or {n_agents}" if beta else n_agents
        raise ConfigError(f"{where}: {key!r} needs {counts} values, got {len(values)}")
    return values


def parse_config(text: str) -> ScenarioConfig:
    """Parse config text and apply all defaults."""
    return resolve_config(parse_raw(text))


def resolve_config(entries: dict[str, tuple[str, str]]) -> ScenarioConfig:
    if "scenario" not in entries:
        raise ConfigError("scenario required")
    scen_text, scen_where = entries["scenario"]
    scenario, args = _spelling("scenario", scen_text, scen_where)
    dispatch_n, dispatch_seed = args or (None, None)
    if "topology" in entries:
        topo_text, topo_where = entries["topology"]
        topology, args = _spelling("topology", topo_text, topo_where)
    else:
        topology, args = ("ring4" if scenario == "der4" else "random"), ()
    topology_n, topology_seed = args or (None, None)
    trigger, args = _spelling("trigger", *entries.get("trigger", ("event", "default")))
    (period,) = args or (None,)
    kinds = {"scenario": scenario, "topology": topology, "trigger": trigger}
    for key, needs in _NEEDS.items():
        if key in entries and all(kinds[k] != kind.split("(")[0] for k, kind in needs):
            settings = " or ".join(f"{k} = {kind}" for k, kind in needs)
            raise ConfigError(f"{entries[key][1]}: {key!r} is only valid with {settings}")

    coefficients = None
    if scenario == "der4":
        n_agents = 4
    elif scenario == "dispatch":
        n_agents = dispatch_n
    else:
        missing = [k for k in ("a", "b", "d", "price_intercept", "price_slope") if k not in entries]
        if missing:
            raise ConfigError(f"{scen_where}: scenario = custom needs keys: " + ", ".join(missing))
        a, b, d = (_number_list(*entries[key], key) for key in ("a", "b", "d"))
        for key, values in (("b", b), ("d", d)):
            if len(values) != len(a):
                raise ConfigError(
                    f"{entries[key][1]}: a, b, d must have equal length; "
                    f"got {len(a)} for 'a' and {len(values)} for {key!r}"
                )
        coefficients = DerParameters(
            a=a, b=b, d=d,
            price_intercept=_number(*entries["price_intercept"], "price_intercept"),
            price_slope=_number(*entries["price_slope"], "price_slope"),
        )
        n_agents = len(a)

    edges = None
    if topology == "edges":
        if "edges" not in entries:
            raise ConfigError(f"{topo_where}: topology = edges needs an 'edges' key")
        edges = _edge_list(*entries["edges"])
    if "topology" in entries:
        nodes = {"ring4": 4, "random": topology_n}.get(topology)
        if nodes is None:
            nodes = max(max(edge) for edge in edges) + 1
        if nodes != n_agents:
            raise ConfigError(
                f"{topo_where}: topology {topo_text!r} has {nodes} nodes, "
                f"but the scenario has {n_agents} agents"
            )
    elif topology == "random":
        topology_n, topology_seed = n_agents, dispatch_seed or 0
    if "seed" in entries:
        seed = _int(*entries["seed"], "seed", least=0)
        if scenario == "dispatch":
            dispatch_seed = seed
        if topology == "random":
            topology_seed = seed

    beta1 = beta2 = None
    if trigger == "event":
        beta1 = _per_agent(entries, "beta1", scenario, n_agents)
        beta2 = _per_agent(entries, "beta2", scenario, n_agents)
    if trigger == "periodic" and "period" in entries:
        if period is not None:
            raise ConfigError(f"{entries['period'][1]}: 'period' given both inline and as a key")
        period = _number(*entries["period"], "period", positive=True)
    elif trigger == "periodic" and period is None:
        period = DEFAULT_PERIOD

    delta = _number(*entries["delta"], "delta", positive=True) if "delta" in entries else 0.1
    step = _number(*entries["step"], "step", positive=True) if "step" in entries else delta / 100.0
    if step == 0.0:
        value, where = entries["delta"]
        raise ConfigError(f"{where}: 'delta' / 100, the default step, is 0 for {value!r}; "
                          "give 'step' or a larger 'delta'")
    t_end = _number(*entries["tend"], "tend", positive=True) if "tend" in entries else 200.0
    stride = _int(*entries["stride"], "stride", least=1) if "stride" in entries else 10
    output_dir, where = entries.get("output", ("out", "default"))
    if "#" in output_dir or [output_dir] != output_dir.strip().splitlines():
        raise ConfigError(
            f"{where}: 'output' must be non-empty, without '#', line breaks or leading or "
            f"trailing whitespace, so that its dumped line re-parses; got {output_dir!r}"
        )
    x0 = _per_agent(entries, "x0", scenario, n_agents)

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
