"""Command-line front end.

Subcommands: run, oracle, sweep, dump-config. Outputs are plot-ready CSV
files plus a JSON summary; rendering is left to external tools. Exit
codes: 0 success, 1 usage/config error, 2 numerical divergence, 3 I/O
failure, 141 standard output closed by its reader (as if killed by SIGPIPE).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import re
import sys
from dataclasses import replace
from pathlib import Path

from .config import (
    ConfigError,
    ScenarioConfig,
    dump_config,
    parse_raw,
    resolve_config,
    scenario_graph,
    scenario_problem,
    to_sim_config,
)
from .consensus import equilibrium_residual
from .engine import DivergenceError, run
from .graphs import laplacian, lambda_bound
from .oracles import solve_kkt_quadratic
from .output import write_events_csv, write_summary, write_trajectory_csv
from .problems import DER4_PUBLISHED_SOLUTION
from .triggers import Periodic

__all__ = ["main", "console_main", "run_scenario"]

# The scenario flags and their help; each gives the config key of its name,
# as typed, so that config parses it and names the flag in its errors.
_SCENARIO_FLAGS = {
    "scenario": "der4 | dispatch(n, seed) | file(path) where path is a config file",
    "trigger": "event | periodic(T) | continuous",
    "delta": "estimator time-scale parameter",
    "step": "integration step",
    "tend": "simulated horizon",
    "output": "output directory",
    "seed": "override scenario/topology seed",
}


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        raise _UsageError(message)


def _scenario_entries(args: argparse.Namespace) -> dict[str, tuple[str, str]]:
    """The config entries of ``--scenario`` and the other flags. Flags
    override file entries, and each is located at its flag in errors."""
    if args.scenario is None:
        raise ConfigError("scenario required")
    mo = re.fullmatch(r"file\((.+)\)", args.scenario)
    entries = {} if mo is None else parse_raw(Path(mo.group(1)).read_text())
    for key in _SCENARIO_FLAGS:
        value = getattr(args, key)
        if value is not None and not (key == "scenario" and mo):
            entries[key] = (value, f"--{key}")
    return entries


def _load_scenario(args: argparse.Namespace) -> ScenarioConfig:
    return resolve_config(_scenario_entries(args))


def _positive_finite(value: float | str, flag: str) -> float:
    """``value``, a number or the text of ``flag`` as typed, as a float;
    ValueError naming the flag and quoting the value unless it is positive
    and finite. Called before any run starts, so nothing is computed or
    written."""
    try:
        number = float(value)
    except ValueError:
        raise _UsageError(f"malformed {flag} value: {value!r}") from None
    if not 0 < number < math.inf:
        raise ValueError(f"{flag}: must be positive and finite, got {value!r}")
    return number


def _error_text(rel: float | None) -> str:
    """A relative error as printed; "n/a" where the optimum is 0."""
    return "n/a" if rel is None else f"{rel:.3e}"


def _rate_bound(problem) -> tuple[float | None, float | None, float | None]:
    if problem.rate_metadata is None:
        return None, None, None
    kappa, lipschitz = problem.rate_metadata
    return kappa, lipschitz, kappa / (1.0 + 2.0 * lipschitz)


def _warn(texts: tuple[str, ...]) -> None:
    for text in texts:
        print(f"warning: {text}", file=sys.stderr)


def run_scenario(sc: ScenarioConfig, compare_periodic: float | None = None) -> dict:
    """Oracle solve + distributed run; writes trajectory.csv, events.csv,
    and summary.json into the scenario's output directory, and each warning
    of the run to stderr as ``warning: <text>``."""
    if compare_periodic is not None:
        _positive_finite(compare_periodic, "--compare-periodic")
    cfg = to_sim_config(sc)
    problem, graph = cfg.problem, cfg.graph
    x_star = solve_kkt_quadratic(problem)
    try:
        result = run(cfg, x_star=x_star)
    except DivergenceError as exc:
        _warn(exc.warnings)
        raise
    _warn(result.metrics.warnings)
    kappa, lipschitz, bound = _rate_bound(problem)
    residual = equilibrium_residual(problem, graph, result.x[-1], result.eta[-1], result.w[-1])
    summary = {
        "config": dump_config(sc),
        "lambda": result.metrics.lambda_bound,
        "warnings": list(result.metrics.warnings),
        "final_decisions": result.metrics.final_x,
        "oracle_solution": x_star,
        "relative_error": result.metrics.relative_error,
        "equilibrium_residual_last_sample": residual,
        "rate_constants": {"kappa": kappa, "lipschitz": lipschitz, "rate_bound": bound},
        "fitted_decay_rate": result.metrics.fitted_decay_rate,
        "events": {
            "per_agent_counts": result.metrics.broadcast_counts,
            "min_intervals": result.metrics.min_interevent,
            "total": result.events.total,
        },
    }
    if sc.scenario == "der4":
        # The published operating point for this preset is not a stationary
        # point of its stated coefficients; errors are reported against the
        # computed optimum.
        summary["published_reference_solution"] = list(DER4_PUBLISHED_SOLUTION)
        summary["published_reference_residual_note"] = (
            "the published reference solution does not satisfy the first-order "
            "optimality condition of the stated coefficients; relative_error is "
            "measured against oracle_solution"
        )
    if compare_periodic is not None:
        periodic_cfg = replace(cfg, schemes=(Periodic(compare_periodic),) * problem.n_agents)
        periodic_result = run(periodic_cfg, x_star=x_star)
        event_total = result.events.total
        periodic_total = periodic_result.events.total
        summary["comparison"] = {
            "periodic_T": compare_periodic,
            "event_total": event_total,
            "periodic_total": periodic_total,
            "ratio": event_total / periodic_total,
        }

    out_dir = Path(sc.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(out_dir / "trajectory.csv", problem, result)
    write_events_csv(out_dir / "events.csv", result)
    write_summary(out_dir / "summary.json", summary)
    return summary


def _cmd_run(args: argparse.Namespace) -> int:
    period = args.compare_periodic
    if period is not None:
        period = _positive_finite(period, "--compare-periodic")
    sc = _load_scenario(args)
    summary = run_scenario(sc, compare_periodic=period)
    rel = _error_text(summary["relative_error"])
    print(f"wrote {sc.output_dir}/trajectory.csv, events.csv, summary.json")
    print(f"relative error vs oracle: {rel}; broadcasts: {summary['events']['total']}")
    if summary.get("comparison"):
        comp = summary["comparison"]
        print(
            f"event broadcasts {comp['event_total']} vs periodic({comp['periodic_T']:g}) "
            f"{comp['periodic_total']} (ratio {comp['ratio']:.4f})"
        )
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    sc = _load_scenario(args)
    problem = scenario_problem(sc)
    x_star = solve_kkt_quadratic(problem)
    kappa, lipschitz, bound = _rate_bound(problem)
    lam = lambda_bound(laplacian(scenario_graph(sc)))
    record = {
        "scenario": sc.scenario,
        "x_star": [float(v) for v in x_star],
        "kappa": kappa,
        "lipschitz": lipschitz,
        "rate_bound": bound,
        "lambda": lam,
    }
    print(json.dumps(record, indent=2))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    entries = _scenario_entries(args)
    sc = resolve_config(entries)
    deltas = [_positive_finite(v, "--deltas") for v in args.deltas.split(",")]
    for i, delta in enumerate(deltas):
        if delta in deltas[:i]:
            raise ValueError(f"--deltas: {delta!r} is given more than once")
    base_dir = Path(sc.output_dir)
    records = []
    for delta in deltas:
        sub = resolve_config({
            **entries,
            "delta": (repr(delta), "--deltas"),
            "output": (str(base_dir / f"delta_{delta!r}"), "--output"),
        })
        summary = run_scenario(sub)
        records.append(
            {
                "delta": delta,
                "output": sub.output_dir,
                "relative_error": summary["relative_error"],
                "total_broadcasts": summary["events"]["total"],
            }
        )
        print(f"delta={delta!r}: relative error {_error_text(summary['relative_error'])}")
    base_dir.mkdir(parents=True, exist_ok=True)
    write_summary(base_dir / "sweep_summary.json", {"runs": records})
    return 0


def _cmd_dump_config(args: argparse.Namespace) -> int:
    sc = _load_scenario(args)
    sys.stdout.write(dump_config(sc))
    return 0


def _add_scenario_flags(parser: argparse.ArgumentParser) -> None:
    for key, help_text in _SCENARIO_FLAGS.items():
        parser.add_argument(f"--{key}", help=help_text)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="aggopt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario and write output files")
    _add_scenario_flags(p_run)
    p_run.add_argument(
        "--compare-periodic",
        metavar="T",
        help="also run a periodic(T) variant and record the broadcast comparison",
    )
    p_run.set_defaults(fn=_cmd_run)

    p_oracle = sub.add_parser("oracle", help="print the closed-form optimum and rate constants")
    _add_scenario_flags(p_oracle)
    p_oracle.set_defaults(fn=_cmd_oracle)

    p_sweep = sub.add_parser("sweep", help="run a scenario for several delta values")
    _add_scenario_flags(p_sweep)
    p_sweep.add_argument("--deltas", required=True, help="comma list, e.g. 0.05,0.1,0.2")
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_dump = sub.add_parser("dump-config", help="print the fully resolved configuration")
    _add_scenario_flags(p_dump)
    p_dump.set_defaults(fn=_cmd_dump_config)

    return parser


# set by the first main call; gc.get_freeze_count walks the whole frozen
# generation, so later calls skip it
_heap_checked = False


def main(argv: list[str] | None = None) -> int:
    global _heap_checked
    if not (_heap_checked or gc.get_freeze_count()):
        # The start-up heap (numpy and these modules) lives until exit; frozen,
        # the collector stops re-scanning it, which is most of the exit cost.
        # A host that froze its own heap is left alone.
        gc.freeze()
    _heap_checked = True
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.fn(args)
        # a reader that closed stdout must fail here, not in the exit flush
        sys.stdout.flush()
        return code
    except (_UsageError, ConfigError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the exit flush writes what is still buffered to the null device
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
