import dataclasses
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aggopt import cli
from aggopt.config import (
    ConfigError,
    dump_config,
    parse_config,
    parse_raw,
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
    with pytest.raises(ConfigError, match=r"^line 1: scenario = custom needs keys: price_slope$"):
        parse_config("scenario = custom\na = 1\nb = 1\nd = 1\nprice_intercept = 200\n")
    with pytest.raises(
        ConfigError, match=r"^line 3: a, b, d must have equal length; got 2 for 'a' and 1 for 'b'$"
    ):
        parse_config(
            "scenario = custom\na = 1, 2\nb = 1\nd = 1, 2\n"
            "price_intercept = 200\nprice_slope = 0.2\n"
        )


def test_coefficients_only_for_custom():
    with pytest.raises(ConfigError, match=r"^line 2: 'a' is only valid with scenario = custom$"):
        parse_config("scenario = der4\na = 1, 1, 1, 1\n")


def test_periodic_trigger_variants():
    sc = parse_config("scenario = der4\ntrigger = periodic\n")
    assert sc.trigger == "periodic" and sc.period == 0.02
    sc = parse_config("scenario = der4\ntrigger = periodic(0.05)\n")
    assert sc.period == 0.05
    sc = parse_config("scenario = der4\ntrigger = periodic\nperiod = 0.1\n")
    assert sc.period == 0.1
    with pytest.raises(ConfigError, match=r"^line 3: 'period' given both inline and as a key$"):
        parse_config("scenario = der4\ntrigger = periodic(0.05)\nperiod = 0.1\n")
    with pytest.raises(ConfigError, match=r"^line 3: 'period' is only valid with trigger = periodic$"):
        parse_config("scenario = der4\ntrigger = event\nperiod = 0.1\n")


def test_beta_broadcast_and_length_check():
    sc = parse_config("scenario = der4\ntrigger = event\nbeta1 = 7\n")
    assert sc.beta1 == (7.0,) * 4
    with pytest.raises(ConfigError, match=r"^line 3: 'beta2' needs 1 or 4 values, got 2$"):
        parse_config("scenario = der4\ntrigger = event\nbeta2 = 0.1, 0.2\n")
    with pytest.raises(ConfigError, match=r"^line 3: 'beta1' is only valid with trigger = event$"):
        parse_config("scenario = der4\ntrigger = continuous\nbeta1 = 7\n")


def test_x0_length_check():
    with pytest.raises(ConfigError, match=r"^line 2: 'x0' needs 4 values, got 2$"):
        parse_config("scenario = der4\nx0 = 1, 2\n")


def test_malformed_scenario_and_topology():
    with pytest.raises(ConfigError, match="scenario"):
        parse_config("scenario = dispatch(x, 1)\n")
    with pytest.raises(ConfigError, match="topology"):
        parse_config("scenario = der4\ntopology = torus\n")
    with pytest.raises(ConfigError, match=r"^line 2: topology = edges needs an 'edges' key$"):
        parse_config("scenario = der4\ntopology = edges\n")
    with pytest.raises(ConfigError, match=r"^line 3: malformed edge '0\+1' in 'edges'; expected 'i-j'$"):
        parse_config("scenario = der4\ntopology = edges\nedges = 0+1\n")
    with pytest.raises(ConfigError, match=r"^line 3: edge '3-3' in 'edges' is a self-loop$"):
        parse_config("scenario = der4\ntopology = edges\nedges = 0-1, 1-2, 2-3, 3-3\n")
    with pytest.raises(ConfigError, match=r"^line 2: 'edges' is only valid with topology = edges$"):
        parse_config("scenario = der4\nedges = 0-1, 1-2, 2-3\n")
    with pytest.raises(ConfigError, match=r"^line 3: the graph of 'edges' is not connected$"):
        parse_config("scenario = der4\ntopology = edges\nedges = 0-1, 2-3\n")


def test_delta_whose_default_step_is_zero_rejected():
    # 5e-324 / 100 underflows to a step of 0, which would dump as an invalid line
    with pytest.raises(
        ConfigError, match=r"^line 2: 'delta' / 100, the default step, is 0 for '5e-324'; give 'step'"
    ):
        parse_config("scenario = der4\ndelta = 5e-324\n")
    assert parse_config("scenario = der4\ndelta = 5e-324\nstep = 1e-3\n").step == 1e-3


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


# Floats at the edges of the range: negative zero, the smallest subnormal,
# the largest finite value and a value that needs all 17 digits.
EDGE_FLOATS = (-0.0, 5e-324, 1.7976931348623157e308, 0.1 + 0.2)
FINITE = st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = FINITE.map(abs).filter(lambda v: v > 0)
SEEDS = st.integers(0, 2**32 - 1)
OUTPUTS = st.text(min_size=1).filter(lambda s: "#" not in s and [s] == s.strip().splitlines())
FLAG_KEYS = ("scenario", "trigger", "delta", "step", "tend", "output", "seed")


def floats_text(draw, values, n):
    return ", ".join(repr(v) for v in draw(st.lists(values, min_size=n, max_size=n)))


@st.composite
def scenario_lines(draw):
    """The lines of a valid scenario file, as {key: value}, over every
    scenario, topology and trigger, and with or without each optional key."""
    lines = {}
    scenario = draw(st.sampled_from(["der4", "dispatch", "custom"]))
    n = 4 if scenario == "der4" else draw(st.integers(1, 6))
    if scenario == "dispatch":
        lines["scenario"] = f"dispatch({n}, {draw(SEEDS)})"
    else:
        lines["scenario"] = scenario
    if scenario == "custom":
        for key in ("a", "b", "d"):
            lines[key] = floats_text(draw, FINITE, n)
        lines["price_intercept"] = repr(draw(FINITE))
        lines["price_slope"] = repr(draw(FINITE))
    topology = draw(st.sampled_from(["default", "ring4", "random", "edges"]))
    if topology == "ring4" and n == 4:
        lines["topology"] = "ring4"
    elif topology == "random":
        lines["topology"] = f"random({n}, {draw(SEEDS)})"
    elif topology == "edges" and n > 1:
        lines["topology"] = "edges"
        pairs = draw(st.permutations([(k, k + 1) for k in range(n - 1)]))
        lines["edges"] = ", ".join(f"{i}-{j}" if draw(st.booleans()) else f"{j}-{i}"
                                   for i, j in pairs)
    if draw(st.booleans()) and (scenario == "dispatch" or "random" in lines.get("topology", "")
                                or (scenario == "custom" and "topology" not in lines)):
        lines["seed"] = str(draw(SEEDS))
    trigger = draw(st.sampled_from(["default", "event", "periodic", "periodic(T)", "continuous"]))
    if trigger == "periodic(T)":
        lines["trigger"] = f"periodic({draw(POSITIVE)!r})"
    elif trigger != "default":
        lines["trigger"] = trigger
    if trigger == "periodic" and draw(st.booleans()):
        lines["period"] = repr(draw(POSITIVE))
    for key in ("beta1", "beta2"):
        if trigger in ("default", "event") and draw(st.booleans()):
            lines[key] = floats_text(draw, POSITIVE, draw(st.sampled_from([1, n])))
    for key in ("delta", "step", "tend"):
        if draw(st.booleans()):
            lines[key] = repr(draw(POSITIVE))
    # a delta whose default step delta / 100 is 0 is rejected (tested above)
    assume("step" in lines or float(lines.get("delta", "0.1")) / 100 > 0)
    if draw(st.booleans()):
        lines["x0"] = floats_text(draw, FINITE, n)
    if draw(st.booleans()):
        lines["stride"] = str(draw(st.integers(1, 10**6)))
    if draw(st.booleans()):
        lines["output"] = draw(OUTPUTS)
    return lines


def invalid_values(key, n):
    """Values of ``key`` that every scenario rejects; ``n`` is its agent count."""
    many = ", ".join(["1"] * (n + 1))
    return {
        "scenario": ["tetris", "dispatch(0, 1)", "dispatch(3, -2)", "custom(2)"],
        "topology": ["torus", "random(0, 1)", "random(4, -3)"],
        # for n >= 3, 0-(n-1) spans every node and isolates node 1
        "edges": ["0+1", "1-1", "0-1, 2-2", *([f"0-{n - 1}"] if n >= 3 else [])],
        "trigger": ["sometimes", "periodic(0)", "periodic(nan)", "periodic(x)"],
        "beta1": ["0", "-1", "nan", many],
        "beta2": ["0", "inf", many],
        "period": ["0", "-inf", "x"],
        "a": ["x", "nan"],
        "b": ["inf", many],
        "d": ["", many],
        "price_intercept": ["x", "inf"],
        "price_slope": ["nan"],
        "seed": ["-1", "1.5", "x"],
        "delta": ["0", "-1", "nan", "1e-400"],
        "step": ["-0.0", "inf", "x"],
        "tend": ["1e-400", "1e400"],
        "x0": ["nan", "x", many],
        "stride": ["0", "-3", "2.5"],
        "output": ["x#y", " x", "x\ny", ""],
    }[key]


@pytest.fixture(scope="module")
def scenario_file(tmp_path_factory):
    return tmp_path_factory.mktemp("property") / "scenario.cfg"


PARSER = cli.build_parser()


def resolve_flags(argv):
    """The configuration the command line ``aggopt dump-config *argv`` resolves."""
    return cli._load_scenario(PARSER.parse_args(["dump-config", *argv]))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(lines=scenario_lines(), data=st.data())
def test_scenario_configs_roundtrip_and_reject_by_key(scenario_file, lines, data):
    text = "".join(f"{key} = {value}\n" for key, value in lines.items())
    sc = parse_config(text)
    dumped = dump_config(sc)
    assert parse_config(dumped) == sc
    assert dump_config(parse_config(dumped)) == dumped

    # keys given as flags resolve as they do from file lines
    flagged = data.draw(st.sets(st.sampled_from([k for k in lines if k in FLAG_KEYS])))
    if flagged != set(lines):
        # a file holds the scenario and every line not given as a flag
        flagged.discard("scenario")
        scenario_file.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()
                                         if k not in flagged))
    flags = [f"--{key}={lines[key]}" for key in sorted(flagged)]
    if "scenario" not in flagged:
        flags.append(f"--scenario=file({scenario_file})")
    assert resolve_flags(flags) == sc

    # one invalid entry is rejected, naming its key and its line or flag
    entries = parse_raw(text)
    key = data.draw(st.sampled_from(sorted(lines)))
    bad = data.draw(st.sampled_from(invalid_values(key, len(sc.x0))))
    where = entries[key][1]
    if key in FLAG_KEYS and data.draw(st.booleans()):
        where = f"--{key}"
    entries[key] = (bad, where)
    with pytest.raises(ConfigError) as excinfo:
        resolve_config(entries)
    message = str(excinfo.value)
    assert message.startswith(f"{where}: ")
    assert re.search(rf"\b{key}\b", message)
    if where.startswith("--"):
        # the flag's text reaches config as typed
        scenario_file.write_text(text)
        source = [] if key == "scenario" else [f"--scenario=file({scenario_file})"]
        with pytest.raises(ConfigError) as excinfo:
            resolve_flags([*source, f"--{key}={bad}"])
        assert str(excinfo.value) == message
