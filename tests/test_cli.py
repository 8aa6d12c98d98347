import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import aggopt
from aggopt import cli, lambda_bound, laplacian, random_connected_graph, solve_kkt_quadratic
from aggopt.cli import main
from aggopt.config import dump_config, parse_config, to_sim_config
from aggopt.problems import Quadratic


def run_cli(args):
    return main(args)


def test_run_writes_output_files(tmp_path, capsys):
    out = tmp_path / "results"
    code = run_cli([
        "run", "--scenario", "der4", "--trigger", "event",
        "--tend", "5", "--output", str(out),
    ])
    assert code == 0
    for name in ("trajectory.csv", "events.csv", "summary.json"):
        assert (out / name).exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["relative_error"] is not None
    assert summary["lambda"] == pytest.approx(1.0, abs=1e-9)
    assert "config" in summary
    assert summary["published_reference_solution"] == [188.0, 377.5, 236.2, 266.9]
    header = (out / "trajectory.csv").read_text().splitlines()[0].split(",")
    assert header[:5] == ["t", "x_1", "x_2", "x_3", "x_4"]
    assert header[-2:] == ["consensus_error", "decision_error"]


def test_run_dispatch_scenario_on_its_random_graph(tmp_path, capsys):
    out = tmp_path / "dispatch"
    code = run_cli([
        "run", "--scenario", "dispatch(5, 1)", "--tend", "0.5", "--output", str(out),
    ])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert "topology = random(5, 1)" in summary["config"]
    graph = to_sim_config(parse_config(summary["config"])).graph
    assert graph == random_connected_graph(5, 1)
    assert summary["lambda"] == lambda_bound(laplacian(graph))
    assert len(summary["final_decisions"]) == 5


def test_run_compare_periodic(tmp_path, capsys):
    out = tmp_path / "cmp"
    code = run_cli([
        "run", "--scenario", "der4", "--trigger", "event",
        "--tend", "10", "--step", "0.005", "--output", str(out),
        "--compare-periodic", "0.02",
    ])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    comp = summary["comparison"]
    assert comp["event_total"] < comp["periodic_total"]
    assert comp["ratio"] < 1.0


def refuse_to_run(*args, **kwargs):
    raise AssertionError("a simulation started before the flag was checked")


COMPARE_PERIODIC_CASES = [
    (entry, value) for entry in ("cli", "library") for value in ("inf", "-1", "0", "nan")
] + [("cli", "1e-400")]


@pytest.mark.parametrize(
    "entry, value",
    COMPARE_PERIODIC_CASES,
    ids=[v if e == "cli" else f"{e}-{v}" for e, v in COMPARE_PERIODIC_CASES],
)
def test_compare_periodic_checked_before_any_run(tmp_path, capsys, monkeypatch, entry, value):
    monkeypatch.setattr(cli, "run", refuse_to_run)
    out = tmp_path / "out"
    message = "--compare-periodic: must be positive and finite"
    if entry == "cli":
        code = run_cli([
            "run", "--scenario", "der4", "--output", str(out), f"--compare-periodic={value}",
        ])
        assert code == 1
        assert f"{message}, got {value!r}" in capsys.readouterr().err
    else:
        sc = parse_config(f"scenario = der4\noutput = {out}\n")
        with pytest.raises(ValueError, match=message):
            cli.run_scenario(sc, compare_periodic=float(value))
    assert not out.exists()


@pytest.mark.parametrize("deltas", ["0.1,inf", "0.1,0", "0.1,-0.2", "nan", "0.1,1e-400"])
def test_sweep_deltas_checked_before_any_run(tmp_path, capsys, monkeypatch, deltas):
    monkeypatch.setattr(cli, "run", refuse_to_run)
    out = tmp_path / "sweep"
    code = run_cli(["sweep", "--scenario", "der4", f"--deltas={deltas}", "--output", str(out)])
    assert code == 1
    # the rejected value as typed: 1e-400 parses to 0
    typed = deltas.split(",")[-1]
    assert f"--deltas: must be positive and finite, got {typed!r}" in capsys.readouterr().err
    assert not out.exists()


def test_memory_error_exits_one_without_traceback(tmp_path, capsys, monkeypatch):
    # a horizon whose time grid cannot be allocated; raised here, because a
    # real allocation can succeed on a host that overcommits
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000001,)")

    monkeypatch.setattr(cli, "run", out_of_memory)
    code = run_cli(["run", "--scenario", "der4", "--tend", "1e9", "--output", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: Unable to allocate 7.28 TiB for an array with shape (1000000001,)\n"


def test_oracle_subcommand(capsys):
    code = run_cli(["oracle", "--scenario", "der4"])
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    from aggopt import make_der_instance

    expected = solve_kkt_quadratic(make_der_instance())
    assert np.allclose(record["x_star"], expected, atol=1e-9)
    assert record["kappa"] > 0
    assert record["rate_bound"] == pytest.approx(
        record["kappa"] / (1 + 2 * record["lipschitz"])
    )


@pytest.mark.parametrize("command", ["run", "oracle"])
def test_der4_commands_probe_the_hessian_once(command, tmp_path, capsys, monkeypatch):
    # the oracle solve and the rate constants share one probe of dim + 1
    # gradients; the residual at x* is the sixth
    calls = []
    gradient = Quadratic.gradient

    def spy(self, x):
        calls.append(x)
        return gradient(self, x)

    monkeypatch.setattr(Quadratic, "gradient", spy)
    flags = ["--tend", "0.1", "--output", str(tmp_path / "out")] if command == "run" else []
    assert run_cli([command, "--scenario", "der4", *flags]) == 0
    assert len(calls) == 6


def test_dump_config_roundtrip(capsys):
    code = run_cli(["dump-config", "--scenario", "der4", "--trigger", "event"])
    assert code == 0
    text = capsys.readouterr().out
    sc = parse_config(text)
    assert dump_config(sc) == text


@pytest.mark.parametrize("command", ["run", "dump-config"])
def test_output_that_cannot_roundtrip_exits_one(command, tmp_path, capsys, monkeypatch):
    # 'x#y' would be written to, but its dumped config re-parses to 'x'
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "run", refuse_to_run)
    assert run_cli([command, "--scenario", "der4", "--tend", "1", "--output", "x#y"]) == 1
    captured = capsys.readouterr()
    assert "--output: 'output' must be non-empty, without '#'" in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_config_file_scenario(tmp_path):
    cfg_file = tmp_path / "scenario.cfg"
    cfg_file.write_text("scenario = der4\ntrigger = continuous\ntend = 2\nstride = 50\n")
    out = tmp_path / "from_file"
    code = run_cli(["run", "--scenario", f"file({cfg_file})", "--output", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert "trigger = continuous" in summary["config"]


def test_flags_override_config_file(tmp_path, capsys):
    cfg_file = tmp_path / "scenario.cfg"
    cfg_file.write_text("scenario = der4\ndelta = 0.1\ntend = 5\n")
    code = run_cli(["dump-config", "--scenario", f"file({cfg_file})", "--delta", "0.2"])
    assert code == 0
    sc = parse_config(capsys.readouterr().out)
    assert sc.delta == 0.2
    assert sc.t_end == 5.0


def test_usage_errors_exit_one(capsys):
    assert run_cli(["run"]) == 1  # scenario required
    assert run_cli(["run", "--scenario", "nonsense42"]) == 1
    assert run_cli(["sweep", "--scenario", "der4", "--deltas", "a,b"]) == 1
    assert run_cli(["run", "--scenario", "der4", "--bogus"]) == 1  # not argparse's 2
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    assert run_cli(["run", "--scenario", "der4", "--trigger", "sometimes"]) == 1
    assert "--trigger: trigger must be event" in capsys.readouterr().err


@pytest.mark.parametrize(
    "lines, flags, key, where",
    [
        ("x0 = nan, 6, 3, 8", [], "x0", "line 2"),
        ("tend = inf", [], "tend", "line 2"),
        ("delta = nan", [], "delta", "line 2"),
        ("beta1 = nan", [], "beta1", "line 2"),
        ("trigger = periodic\nperiod = nan", [], "period", "line 3"),
        ("", ["--tend", "inf"], "tend", "--tend"),
        ("", ["--delta", "nan"], "delta", "--delta"),
        ("", ["--trigger", "periodic(inf)"], "trigger", "--trigger"),
    ],
    ids=["x0", "tend", "delta", "beta1", "period", "flag_tend", "flag_delta", "flag_trigger"],
)
def test_nonfinite_config_values_exit_one(tmp_path, capsys, lines, flags, key, where):
    config = tmp_path / "scenario.cfg"
    config.write_text(f"scenario = der4\n{lines}\n")
    code = run_cli([
        "run", "--scenario", f"file({config})", "--output", str(tmp_path / "out"), *flags,
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{where}: '{key}' must be finite" in err
    assert "line 0" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "lines, flags, key, where",
    [
        ("beta1 = 10, 8, 0, 10", [], "beta1", "line 2"),
        ("beta2 = -0.1", [], "beta2", "line 2"),
        ("trigger = periodic\nperiod = 0", [], "period", "line 3"),
        ("trigger = periodic(-1)", [], "trigger", "line 2"),
        ("", ["--trigger", "periodic(-1)"], "trigger", "--trigger"),
        ("", ["--trigger", "periodic(0)"], "trigger", "--trigger"),
    ],
    ids=["beta1", "beta2", "period", "trigger", "flag_trigger", "flag_trigger_zero"],
)
def test_nonpositive_trigger_parameters_exit_one(tmp_path, capsys, lines, flags, key, where):
    config = tmp_path / "scenario.cfg"
    config.write_text(f"scenario = der4\n{lines}\n")
    for command in ("dump-config", "run"):
        code = run_cli([
            command, "--scenario", f"file({config})", "--output", str(tmp_path / "out"),
            *flags,
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{where}: '{key}' must be positive" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "lines, flags, key, where",
    [
        ("delta = 0", [], "delta", "line 2"),
        ("step = -0.001", [], "step", "line 2"),
        ("tend = 0", [], "tend", "line 2"),
        ("stride = 0", [], "stride", "line 2"),
        ("stride = -3", [], "stride", "line 2"),
        ("", ["--tend", "-1"], "tend", "--tend"),
        ("", ["--delta", "0"], "delta", "--delta"),
        ("", ["--step", "-0.001"], "step", "--step"),
        ("topology = random(0, 1)", [], "n", "line 2"),
        ("", ["--scenario", "dispatch(0, 1)"], "n", "--scenario"),
    ],
    ids=["delta", "step", "tend", "stride", "stride_negative", "flag_tend", "flag_delta",
         "flag_step", "topology_no_agents", "flag_scenario_no_agents"],
)
def test_nonpositive_run_parameters_exit_one(tmp_path, capsys, lines, flags, key, where):
    config = tmp_path / "scenario.cfg"
    config.write_text(f"scenario = der4\n{lines}\n")
    for command in ("dump-config", "run"):
        code = run_cli([
            command, "--scenario", f"file({config})", "--output", str(tmp_path / "out"),
            *flags,
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{where}: '{key}' must be positive" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "scenario, lines, nodes, agents",
    [
        ("der4", "topology = random(3, 1)", 3, 4),
        ("der4", "topology = edges\nedges = 0-1, 1-2", 3, 4),
        ("dispatch(5, 1)", "topology = ring4", 4, 5),
    ],
    ids=["random", "edges", "ring4"],
)
def test_topology_size_mismatch_exits_one(tmp_path, capsys, scenario, lines, nodes, agents):
    config = tmp_path / "scenario.cfg"
    config.write_text(f"scenario = {scenario}\n{lines}\n")
    topology = lines.splitlines()[0].split("= ")[1]
    for command in ("dump-config", "run"):
        code = run_cli([
            command, "--scenario", f"file({config})", "--output", str(tmp_path / "out"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert (f"line 2: topology '{topology}' has {nodes} nodes, "
                f"but the scenario has {agents} agents") in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "lines, flags, message",
    [
        ("", ["--scenario", "dispatch(3, -2)"],
         "--scenario: 'seed' must be non-negative, got scenario = 'dispatch(3, -2)'"),
        ("topology = random(4, -3)", [],
         "line 2: 'seed' must be non-negative, got topology = 'random(4, -3)'"),
        ("", ["--scenario", "dispatch(3, 1)", "--seed", "-1"],
         "--seed: 'seed' must be non-negative, got '-1'"),
        ("topology = random(4, 1)\nseed = -1", [],
         "line 3: 'seed' must be non-negative, got '-1'"),
    ],
    ids=["flag_scenario", "topology", "flag_seed", "seed"],
)
def test_negative_seed_exits_one(tmp_path, capsys, monkeypatch, lines, flags, message):
    # numpy rejects a negative seed only once the run builds its instance
    monkeypatch.setattr(cli, "run", refuse_to_run)
    config = tmp_path / "scenario.cfg"
    config.write_text(f"scenario = der4\n{lines}\n")
    out = tmp_path / "out"
    for command in ("dump-config", "run"):
        code = run_cli([
            command, "--scenario", f"file({config})", "--output", str(out), *flags,
        ])
        assert code == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


def _source_env():
    """This environment with the tested source tree first on the import path."""
    src = Path(aggopt.__file__).resolve().parents[1]
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    return {**os.environ, "PYTHONPATH": path}


def test_module_entry_point_runs_main():
    proc = subprocess.run(
        [sys.executable, "-m", "aggopt.cli", "dump-config", "--scenario", "der4"],
        capture_output=True, text=True, env=_source_env(), check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert "scenario = der4" in proc.stdout.splitlines()


def test_heap_freeze_happens_once_and_only_in_the_cli():
    # a fresh interpreter: the test process has already called cli.main
    script = """
import gc
import aggopt
from aggopt import cli
from aggopt.config import parse_config, to_sim_config

aggopt.run(to_sim_config(parse_config("scenario = der4\\ntend = 0.1\\n")))
assert gc.get_freeze_count() == 0, "the library froze the heap"
assert cli.main(["dump-config", "--scenario", "der4"]) == 0
frozen = gc.get_freeze_count()
assert frozen > 0, "cli.main did not freeze the heap"
walks = []
count = gc.get_freeze_count
gc.get_freeze_count = lambda: walks.append(1) or count()
assert cli.main(["dump-config", "--scenario", "der4"]) == 0
gc.get_freeze_count = count
assert not walks, "a second cli.main walked the frozen generation again"
assert gc.get_freeze_count() == frozen, "a second cli.main froze again"
"""
    # a host that froze its heap first keeps it as it froze it
    host = """
import gc
from aggopt import cli

gc.freeze()
frozen = gc.get_freeze_count()
assert cli.main(["dump-config", "--scenario", "der4"]) == 0
assert gc.get_freeze_count() == frozen, "cli.main froze a host's heap again"
"""
    for code in (script, host):
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=_source_env(), check=False,
        )
        assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_141_quietly(buffered):
    env = _source_env()
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "aggopt.cli", "oracle", "--scenario", "der4"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, check=False,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


@pytest.mark.parametrize("command", ["run", "oracle", "dump-config"])
def test_disconnected_topology_exits_one(tmp_path, capsys, command):
    config = tmp_path / "scenario.cfg"
    config.write_text("scenario = der4\ntopology = edges\nedges = 0-1, 2-3\n")
    code = run_cli([
        command, "--scenario", f"file({config})", "--output", str(tmp_path / "out"),
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert "line 3: the graph of 'edges' is not connected" in captured.err
    assert captured.out == ""


def test_run_warnings_printed_and_recorded_once(tmp_path, capsys):
    # beta2 = 2 is not below der4's spectral bound 1 for any agent, and the
    # step exceeds delta/10; the periodic comparison run adds no warning
    config = tmp_path / "scenario.cfg"
    config.write_text("scenario = der4\ntrigger = event\nbeta2 = 2\n")
    out = tmp_path / "out"
    code = run_cli([
        "run", "--scenario", f"file({config})", "--delta", "0.1", "--step", "0.02",
        "--tend", "0.5", "--compare-periodic", "0.05", "--output", str(out),
    ])
    assert code == 0
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 5 and all(line.startswith("warning: ") for line in lines)
    texts = [line.removeprefix("warning: ") for line in lines]
    assert [text[:8] for text in texts[:4]] == [f"agent {i}:" for i in range(4)]
    step = "step h=0.02 exceeds delta/10=0.01; the fast subsystem may be under-resolved"
    assert texts[4] == step
    assert json.loads((out / "summary.json").read_text())["warnings"] == texts


def test_cli_imports_no_logging(tmp_path):
    # a fresh interpreter: this test process has imported logging already
    script = f"""
import sys
from aggopt import cli

assert "logging" not in sys.modules, "import aggopt.cli loaded logging"
assert cli.main(["run", "--scenario", "der4", "--step", "0.05", "--tend", "0.5",
                 "--output", {str(tmp_path / "out")!r}]) == 0
assert "logging" not in sys.modules, "aggopt.cli run loaded logging"
"""
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=_source_env(), check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.startswith("warning: step h=0.05 exceeds delta/10")


def _divergence_stderr(tmp_path, capsys, flags):
    code = run_cli(["run", "--scenario", "der4", *flags, "--output", str(tmp_path / "boom")])
    assert code == 2
    return capsys.readouterr().err.splitlines()


def test_divergence_exits_two(tmp_path, capsys):
    # the run's warnings, carried by the error, come before it
    assert _divergence_stderr(tmp_path, capsys, ["--step", "5", "--tend", "100"]) == [
        "warning: step h=5 exceeds delta/10=0.01; the fast subsystem may be under-resolved",
        "error: state diverged at t=10 (step h=5): eta[agent 1, component 0] = 1.44502e+12; "
        "reduce the step size",
    ]


def test_comparison_divergence_prints_the_warnings_once(tmp_path, capsys):
    # the event run completes and the periodic(0.3) comparison diverges; its
    # warnings are the main run's, so they are not printed again
    flags = ["--step", "0.02", "--tend", "6", "--compare-periodic", "0.3"]
    warning, error = _divergence_stderr(tmp_path, capsys, flags)
    assert warning == (
        "warning: step h=0.02 exceeds delta/10=0.01; the fast subsystem may be under-resolved"
    )
    assert error.startswith("error: state diverged at t=4.38 (step h=0.02): ")


def test_io_failure_exits_three(tmp_path):
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("occupied")
    code = run_cli([
        "run", "--scenario", "der4", "--tend", "2", "--output", str(blocker),
    ])
    assert code == 3


def test_sweep_writes_per_delta_outputs(tmp_path, capsys):
    out = tmp_path / "sweep"
    code = run_cli([
        "sweep", "--scenario", "der4", "--trigger", "continuous",
        "--tend", "2", "--deltas", "0.1,0.2", "--output", str(out),
    ])
    assert code == 0
    assert (out / "sweep_summary.json").exists()
    for delta in ("0.1", "0.2"):
        assert (out / f"delta_{delta}" / "summary.json").exists()
    sweep = json.loads((out / "sweep_summary.json").read_text())
    assert len(sweep["runs"]) == 2


def test_sweep_names_each_run_by_its_exact_delta(tmp_path, capsys):
    # 0.1 and 0.1000001 print alike under :g; each run keeps its own directory
    out = tmp_path / "sweep"
    code = run_cli([
        "sweep", "--scenario", "der4", "--trigger", "continuous",
        "--tend", "0.05", "--deltas", "0.1,0.1000001", "--output", str(out),
    ])
    assert code == 0
    printed = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in printed] == ["delta=0.1", "delta=0.1000001"]
    sweep = json.loads((out / "sweep_summary.json").read_text())
    assert [run["output"] for run in sweep["runs"]] == [
        str(out / "delta_0.1"), str(out / "delta_0.1000001"),
    ]
    for run in sweep["runs"]:
        summary = json.loads((Path(run["output"]) / "summary.json").read_text())
        assert f"delta = {run['delta']!r}" in summary["config"]


@pytest.mark.parametrize("deltas", ["0.1,0.2,0.1", "0.1,0.10", "0.2,2e-1"])
def test_sweep_rejects_a_repeated_delta(tmp_path, capsys, monkeypatch, deltas):
    monkeypatch.setattr(cli, "run", refuse_to_run)
    out = tmp_path / "sweep"
    code = run_cli(["sweep", "--scenario", "der4", f"--deltas={deltas}", "--output", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "--deltas: " in err and "is given more than once" in err
    assert not out.exists()


def test_trajectory_ends_at_the_final_state_off_the_stride(tmp_path, capsys):
    # 2505 steps at stride 10: the last row is the state at t = 2.505
    out = tmp_path / "off"
    code = run_cli([
        "run", "--scenario", "der4", "--tend", "2.505", "--step", "0.001", "--output", str(out),
    ])
    assert code == 0
    rows = (out / "trajectory.csv").read_text().splitlines()
    assert len(rows) == 1 + 251 + 1
    last = [float(v) for v in rows[-1].split(",")]
    assert last[0] == 2505 * 0.001 and float(rows[-2].split(",")[0]) == 2500 * 0.001
    summary = json.loads((out / "summary.json").read_text())
    assert last[1:5] == summary["final_decisions"]


def test_repeated_runs_byte_identical(tmp_path):
    out = tmp_path / "repeat"
    args = [
        "run", "--scenario", "der4", "--trigger", "event",
        "--tend", "2", "--output", str(out),
    ]
    assert run_cli(args) == 0
    first = {
        name: (out / name).read_bytes()
        for name in ("trajectory.csv", "events.csv", "summary.json")
    }
    assert run_cli(args) == 0
    for name, payload in first.items():
        assert (out / name).read_bytes() == payload


@pytest.mark.parametrize(
    "lines, flags, steps",
    [
        ("step = 0.002\n", [], ("0.002", "0.002")),
        ("step = 0.002\n", ["--step", "0.0005"], ("0.0005", "0.0005")),
        ("", [], ("0.001", "0.002")),
    ],
    ids=["file", "flag", "default"],
)
def test_sweep_resolves_step_like_run(tmp_path, capsys, lines, flags, steps):
    # a step from the file or --step holds for every delta; without one,
    # each run takes the config default delta / 100
    config = tmp_path / "scenario.cfg"
    config.write_text("scenario = der4\ntend = 0.2\n" + lines)
    out = tmp_path / "sweep"
    code = run_cli([
        "sweep", "--scenario", f"file({config})", "--deltas", "0.1,0.2", "--output", str(out),
        *flags,
    ])
    assert code == 0
    for delta, step in zip(("0.1", "0.2"), steps):
        summary = json.loads((out / f"delta_{delta}" / "summary.json").read_text())
        assert f"\nstep = {step}\n" in summary["config"]


def test_flags_reach_config_as_typed(capsys):
    # a flag converted by argparse would report 1e-400 as '0.0'
    assert run_cli(["dump-config", "--scenario", "der4", "--tend", "1e-400"]) == 1
    assert capsys.readouterr() == ("", "error: --tend: 'tend' must be positive, got '1e-400'\n")


def test_seed_that_seeds_nothing_exits_one(capsys):
    code = run_cli(["dump-config", "--scenario", "der4", "--seed", "5"])
    assert code == 1
    assert "--seed: 'seed' is only valid with" in capsys.readouterr().err


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_zero_optimum_writes_strict_json(tmp_path, capsys):
    # b = price_intercept with a flat price puts the optimum at x* = 0,
    # where the relative error is undefined
    config = tmp_path / "zero.cfg"
    config.write_text(
        "scenario = custom\na = 1, 2\nb = 5, 5\nd = 1, 1\n"
        "price_intercept = 5\nprice_slope = 0\n"
        "topology = edges\nedges = 0-1\nx0 = 1, 2\ntend = 2\nstep = 0.005\n"
    )
    out = tmp_path / "zero"
    assert run_cli(["run", "--scenario", f"file({config})", "--output", str(out)]) == 0
    assert "relative error vs oracle: n/a;" in capsys.readouterr().out
    summary = json.loads((out / "summary.json").read_text(), parse_constant=reject_constant)
    assert summary["oracle_solution"] == [0.0, 0.0]
    assert summary["relative_error"] is None
    code = run_cli([
        "sweep", "--scenario", f"file({config})", "--deltas", "0.1", "--output", str(out),
    ])
    assert code == 0
    assert "delta=0.1: relative error n/a" in capsys.readouterr().out
    sweep = json.loads((out / "sweep_summary.json").read_text(), parse_constant=reject_constant)
    assert sweep["runs"][0]["relative_error"] is None
