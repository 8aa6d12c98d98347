import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aggopt.config import (
    ConfigError,
    dump_config,
    parse_config,
    resolve_config,
    scenario_graph,
    scenario_problem,
    scenario_schemes,
    to_sim_config,
)
from aggopt.triggers import Continuous, Event, Periodic


def test_minimal_der4_defaults():
    sc = parse_config("scenario = der4\ntrigger = event\n")
    assert sc.scenario == "der4"
    assert sc.topology == "ring4"
    assert sc.beta1 == (10.0, 8.0, 8.0, 10.0)
    assert sc.beta2 == (0.01, 0.1, 0.15, 0.05)
    assert sc.x0 == (5.0, 6.0, 3.0, 8.0)
    assert sc.delta == 0.1
    assert sc.step == pytest.approx(0.001)
    assert sc.t_end == 200.0
    assert sc.stride == 10
    assert sc.output_dir == "out"


def test_empty_config_requires_scenario():
    with pytest.raises(ConfigError, match="scenario required"):
        parse_config("")


def test_unknown_keys_listed():
    text = "scenario = der4\nfoo = 1\nbar = 2\n"
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    message = str(excinfo.value)
    assert "'foo' (line 2)" in message and "'bar' (line 3)" in message


def test_malformed_number_reports_line():
    with pytest.raises(ConfigError, match="line 2.*delta"):
        parse_config("scenario = der4\ndelta = fast\n")
    with pytest.raises(ConfigError, match="line 2: malformed integer for 'stride': '2.5'"):
        parse_config("scenario = der4\nstride = 2.5\n")
    with pytest.raises(ConfigError, match="line 2: expected 'key = value', got 'delta 0.1'"):
        parse_config("scenario = der4\ndelta 0.1\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("scenario = der4\nscenario = der4\n")


def test_comments_and_blank_lines_ignored():
    sc = parse_config("# a comment\n\nscenario = der4  # trailing\n")
    assert sc.scenario == "der4"


def test_dispatch_scenario_defaults():
    sc = parse_config("scenario = dispatch(15, 1)\n")
    assert sc.scenario == "dispatch"
    assert (sc.dispatch_n, sc.dispatch_seed) == (15, 1)
    assert sc.topology == "random"
    assert (sc.topology_n, sc.topology_seed) == (15, 1)
    assert sc.trigger == "event"
    assert sc.beta1 == (6.0,) * 15
    assert sc.beta2 == (0.15,) * 15
    assert sc.x0 == (0.0,) * 15


def test_seed_flag_overrides_scenario_and_topology():
    sc = parse_config("scenario = dispatch(6, 1)\nseed = 9\n")
    assert sc.dispatch_seed == 9
    assert sc.topology_seed == 9


CUSTOM_PAIR = "scenario = custom\na = 1, 2\nb = 5, 5\nd = 1, 1\nprice_intercept = 9\nprice_slope = 1\n"


@pytest.mark.parametrize(
    "lines",
    ["scenario = der4", "scenario = der4\ntopology = ring4", CUSTOM_PAIR + "topology = edges\nedges = 0-1"],
    ids=["der4", "ring4", "custom_edges"],
)
def test_seed_that_seeds_nothing_rejected(lines):
    text = f"{lines}\nseed = 5\n"
    where = len(text.splitlines())
    with pytest.raises(ConfigError, match=rf"line {where}: 'seed' is only valid with"):
        parse_config(text)


@pytest.mark.parametrize(
    "lines", ["scenario = der4\ntopology = random(4, 1)", CUSTOM_PAIR], ids=["der4", "custom"]
)
def test_seed_seeds_a_random_topology(lines):
    assert parse_config(f"{lines}\nseed = 5\n").topology_seed == 5


def test_custom_scenario_roundtrip():
    text = (
        "scenario = custom\n"
        "a = 1.0, 0.5\nb = 12, 10\nd = 5, 8\n"
        "price_intercept = 200\nprice_slope = 0.2\n"
        "topology = edges\nedges = 0-1\n"
        "trigger = continuous\n"
    )
    sc = parse_config(text)
    assert sc.coefficients.a == (1.0, 0.5)
    assert sc.edges == ((0, 1),)
    assert sc.x0 == (0.0, 0.0)
    assert parse_config(dump_config(sc)) == sc


def test_custom_scenario_missing_coefficients():
    with pytest.raises(ConfigError, match="price_slope"):
        parse_config("scenario = custom\na = 1\nb = 1\nd = 1\nprice_intercept = 200\n")
    with pytest.raises(ConfigError, match="a, b, d must have equal length"):
        parse_config(
            "scenario = custom\na = 1, 2\nb = 1\nd = 1, 2\n"
            "price_intercept = 200\nprice_slope = 0.2\n"
        )


def test_coefficients_only_for_custom():
    with pytest.raises(ConfigError, match="custom"):
        parse_config("scenario = der4\na = 1, 1, 1, 1\n")


def test_periodic_trigger_variants():
    sc = parse_config("scenario = der4\ntrigger = periodic\n")
    assert sc.trigger == "periodic" and sc.period == 0.02
    sc = parse_config("scenario = der4\ntrigger = periodic(0.05)\n")
    assert sc.period == 0.05
    sc = parse_config("scenario = der4\ntrigger = periodic\nperiod = 0.1\n")
    assert sc.period == 0.1
    with pytest.raises(ConfigError, match="inline"):
        parse_config("scenario = der4\ntrigger = periodic(0.05)\nperiod = 0.1\n")
    with pytest.raises(ConfigError, match="periodic"):
        parse_config("scenario = der4\ntrigger = event\nperiod = 0.1\n")


def test_beta_broadcast_and_length_check():
    sc = parse_config("scenario = der4\ntrigger = event\nbeta1 = 7\n")
    assert sc.beta1 == (7.0,) * 4
    with pytest.raises(ConfigError, match="beta2"):
        parse_config("scenario = der4\ntrigger = event\nbeta2 = 0.1, 0.2\n")
    with pytest.raises(ConfigError, match="beta1/beta2"):
        parse_config("scenario = der4\ntrigger = continuous\nbeta1 = 7\n")


def test_x0_length_check():
    with pytest.raises(ConfigError, match="x0"):
        parse_config("scenario = der4\nx0 = 1, 2\n")


def test_malformed_scenario_and_topology():
    with pytest.raises(ConfigError, match="scenario"):
        parse_config("scenario = dispatch(x, 1)\n")
    with pytest.raises(ConfigError, match="topology"):
        parse_config("scenario = der4\ntopology = torus\n")
    with pytest.raises(ConfigError, match="edges"):
        parse_config("scenario = der4\ntopology = edges\n")
    with pytest.raises(ConfigError, match="malformed edge"):
        parse_config("scenario = der4\ntopology = edges\nedges = 0+1\n")
    with pytest.raises(ConfigError, match="'edges' key is only valid with topology = edges"):
        parse_config("scenario = der4\nedges = 0-1, 1-2, 2-3\n")


def test_roundtrip_through_dump():
    for text in (
        "scenario = der4\ntrigger = event\n",
        "scenario = dispatch(5, 3)\ntrigger = periodic(0.04)\ndelta = 0.2\n",
        "scenario = der4\ntrigger = continuous\nstride = 3\noutput = results\n",
    ):
        sc = parse_config(text)
        assert parse_config(dump_config(sc)) == sc


@pytest.mark.parametrize("output", ["", "x#y", "#", " x", "x ", "x\ny", "x\r", "x\u2028y"])
def test_output_that_cannot_roundtrip_rejected(output):
    entries = {"scenario": ("der4", "--scenario"), "output": (output, "--output")}
    with pytest.raises(ConfigError, match=r"^--output: 'output' must be non-empty, without '#'"):
        resolve_config(entries)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(output=st.text())
def test_every_accepted_output_roundtrips(output):
    # an output given as a flag is either rejected, naming the flag and the
    # key, or dumped so that the dump re-parses to the same configuration
    entries = {"scenario": ("der4", "--scenario"), "output": (output, "--output")}
    try:
        sc = resolve_config(entries)
    except ConfigError as exc:
        assert str(exc).startswith("--output: 'output' must be non-empty")
        return
    assert sc.output_dir == output
    assert parse_config(dump_config(sc)) == sc


def test_scenario_builders():
    sc = parse_config("scenario = der4\ntrigger = event\n")
    problem = scenario_problem(sc)
    graph = scenario_graph(sc)
    assert problem.n_agents == 4 and graph.n_nodes == 4
    schemes = scenario_schemes(sc, 4)
    assert all(isinstance(s, Event) for s in schemes)
    sc_cont = parse_config("scenario = der4\ntrigger = continuous\n")
    assert all(isinstance(s, Continuous) for s in scenario_schemes(sc_cont, 4))
    sc_per = parse_config("scenario = der4\ntrigger = periodic\n")
    assert all(isinstance(s, Periodic) for s in scenario_schemes(sc_per, 4))


def test_to_sim_config_checks_sizes():
    # resolve_config rejects the mismatch first, naming its line; to_sim_config
    # still checks a ScenarioConfig that was not resolved from text
    with pytest.raises(ConfigError, match="line 2: topology 'ring4' has 4 nodes"):
        parse_config("scenario = dispatch(5, 1)\ntopology = ring4\n")
    sc = dataclasses.replace(
        parse_config("scenario = dispatch(5, 1)\n"), topology="ring4", topology_n=None
    )
    with pytest.raises(ConfigError, match="nodes"):
        to_sim_config(sc)
    cfg = to_sim_config(parse_config("scenario = der4\n"))
    assert cfg.problem.n_agents == 4
    assert np.array_equal(cfg.x0, [5.0, 6.0, 3.0, 8.0])
