"""One benchmark run in a fresh interpreter: ``python child.py SPEC.json``.

SPEC names the workload kind, the scenario file the parent generated (it
holds the output directory) and the report path. ``cli`` workloads call
``aggopt.cli.main`` exactly as the console script does. The ``generic``
workload goes through the public library: it resolves the der4 preset
through the config layer, swaps in the same four agents without
``der_params`` (the per-agent ``LocalObjective`` path), solves the oracle,
runs, and calls the public writers.

With ``trace`` set, public functions of every layer are wrapped first (see
``tracing.py``). Otherwise a ``tracing.Clock`` is installed before aggopt
is imported, and its readings, with the child's start and end, are
written as float64 to SPEC's ``marks`` file. The report holds the BLAS
thread count, the child's peak RSS and either the per-layer values
(traced) or the number of readings and the index of the first integration
step among them.
The child exits with the program's exit code.
"""

import time

T0 = time.perf_counter()

import dataclasses  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))


def blas_threads():
    """Thread count OpenBLAS reports, or None where it cannot be queried."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def peak_rss_kb() -> int:
    """This process's own peak resident memory (``VmHWM``), in KiB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def run_generic(config_path: Path) -> int:
    from aggopt import config, consensus, engine, oracles, output, problems

    sc = config.resolve_config(config.parse_raw(config_path.read_text()))
    preset = config.to_sim_config(sc)
    problem = problems.AggregativeProblem(agents=problems.make_der_instance().agents, m=1)
    cfg = dataclasses.replace(preset, problem=problem)
    x_star = oracles.solve_kkt_quadratic(problem)
    result = engine.run(cfg, x_star=x_star)
    residual = consensus.equilibrium_residual(
        problem, cfg.graph, result.x[-1], result.eta[-1], result.w[-1]
    )
    summary = {
        "config": config.dump_config(sc),
        "lambda": result.metrics.lambda_bound,
        "final_decisions": result.metrics.final_x,
        "oracle_solution": x_star,
        "relative_error": result.metrics.relative_error,
        "equilibrium_residual_last_sample": residual,
        "fitted_decay_rate": result.metrics.fitted_decay_rate,
        "events": {
            "per_agent_counts": result.metrics.broadcast_counts,
            "min_intervals": result.metrics.min_interevent,
            "total": result.events.total,
        },
    }
    out_dir = Path(sc.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    output.write_trajectory_csv(out_dir / "trajectory.csv", problem, result)
    output.write_events_csv(out_dir / "events.csv", result)
    output.write_summary(out_dir / "summary.json", summary)
    return 0


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    clock = None if spec["trace"] else tracing.Clock(T0)
    if clock is not None:
        clock.install()
    import aggopt

    origin = Path(aggopt.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise SystemExit(f"aggopt imported from {origin}, not from {ROOT / 'src'}")
    tracer = None
    if spec["trace"]:
        tracer = tracing.Tracer()
        tracer.install()
    if spec["kind"] == "cli":
        from aggopt import cli

        code = cli.main(spec["argv"])
    else:
        code = run_generic(Path(spec["config"]))
    end = time.perf_counter()
    report = {"blas_threads": blas_threads(), "peak_rss_kb": peak_rss_kb()}
    if tracer is not None:
        report["layers"] = tracer.metrics(end - T0)
    else:
        clock.marks.append(end)
        with open(spec["marks"], "wb") as fh:
            clock.marks.tofile(fh)
        report["readings"] = len(clock.marks)
        report["first_step"] = clock.first_step
    Path(spec["report"]).write_text(json.dumps(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
