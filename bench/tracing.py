"""Span timing of aggopt's public functions, installed from outside the program.

``Tracer.install`` replaces each function in ``WRAPPED`` by a timing wrapper
under every name an aggopt module holds it by. ``engine`` imports
``rk4_step``, ``theta_stack`` and friends with ``from ... import``, so the
wrapper has to sit in ``aggopt.engine``'s namespace too, where the caller
looks the name up.

Each call is a span. A span's self time is its duration minus the durations
of the spans it caused, so the self times of all spans plus ``trace.other_s``
(time in no span: imports, argument parsing, the cli's own code, this
benchmark's glue) add up to the run's wall time. Spans are aggregated per
(function, caller) as they close rather than kept one by one, since the long
workloads make millions of calls.

A metric whose functions all saw no call is reported as absent
(``"value": null, "absent": true``), never as 0 s, so that a refactor that
inlines a call does not read as a speed-up.

Untraced runs carry no spans, only a ``Clock``: a clock reading at
each import, at each integration step and at each entry into a set-up or
output function, from which run.py cuts the run into sections.
"""

from __future__ import annotations

import array
import functools
import importlib
import os
import sys
import time

WRAPPED = {
    "cli": ("main", "run_scenario"),
    "config": ("parse_raw", "resolve_config", "to_sim_config", "dump_config"),
    "graphs": ("laplacian", "lambda_bound", "ring", "random_connected_graph"),
    "problems": ("make_der_instance", "make_dispatch_instance", "global_gradient"),
    "consensus": ("theta_stack", "estimator_derivative", "initial_estimator_state",
                  "equilibrium_residual"),
    "triggers": ("validate_scheme",),
    "integrate": ("rk4_step", "ensure_finite"),
    "engine": ("run", "decision_rates", "consensus_error"),
    "oracles": ("solve_kkt_quadratic", "fit_decay_rate"),
    "output": ("write_trajectory_csv", "write_events_csv", "write_summary"),
}
# Layers whose self time is reported on its own; the cli's self time is
# part of trace.other_s because the library workload never enters the cli.
SELF_LAYERS = tuple(layer for layer in WRAPPED if layer != "cli")
# Called in every right-hand-side evaluation, several times per step.
INSIDE_STEP = ("consensus.theta_stack", "consensus.estimator_derivative",
               "engine.decision_rates", "integrate.ensure_finite")
# Direct children of engine.run that are not part of the step loop.
RUN_SETUP_AND_METRICS = (
    "graphs.laplacian", "graphs.lambda_bound", "triggers.validate_scheme",
    "consensus.initial_estimator_state", "oracles.solve_kkt_quadratic",
    "oracles.fit_decay_rate", "engine.consensus_error",
)

# name -> unit, in report order; see README.md for what each one moves.
PER_LAYER_UNITS = {
    "config.resolve_s": "s",
    "graphs.lambda_bound_s": "s",
    "graphs.laplacian_s": "s",
    "oracles.solve_kkt_s": "s",
    "oracles.fit_decay_s": "s",
    "engine.steps": "count",
    "engine.us_per_step": "us",
    "engine.self_s": "s",
    "integrate.rk4_calls": "count",
    "integrate.rk4_self_s": "s",
    "integrate.ensure_finite_s": "s",
    "engine.decision_rates_s": "s",
    "engine.decision_rates_calls": "count",
    "consensus.theta_stack_s": "s",
    "consensus.estimator_derivative_s": "s",
    "consensus.consensus_error_s": "s",
    "consensus.equilibrium_residual_s": "s",
    "triggers.broadcasts": "count",
    "triggers.fire_fraction": "ratio",
    "output.trajectory_s": "s",
    "output.trajectory_mb": "MB",
    "output.events_s": "s",
    "output.events_rows": "count",
    "output.summary_s": "s",
    "engine.recorded_mb": "MB",
    "oracles.rel_error": "ratio",
    **{f"self.{layer}_s": "s" for layer in SELF_LAYERS},
    "trace.wall_s": "s",
    "trace.other_s": "s",
    **{f"calls.{layer}.{name}": "count" for layer, names in WRAPPED.items() for name in names},
}


def replace_everywhere(wrap) -> set[str]:
    """Replace each function in ``WRAPPED`` that exists by ``wrap(key, fn)``.

    The replacement goes under every name any aggopt module holds the
    function by. Returns the keys (``layer.name``) that were replaced."""
    layers = {}
    for layer in WRAPPED:
        try:
            layers[layer] = importlib.import_module(f"aggopt.{layer}")
        except ModuleNotFoundError:
            continue  # its metrics report as absent
    modules = [m for name, m in sys.modules.items()
               if name == "aggopt" or name.startswith("aggopt.")]
    replaced = set()
    for layer, module in layers.items():
        for name in WRAPPED[layer]:
            original = getattr(module, name, None)
            if original is None:
                continue
            key = f"{layer}.{name}"
            wrapper = wrap(key, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
            replaced.add(key)
    return replaced


class Clock:
    """Clock readings that cut an untraced run into sections.

    ``install`` makes every import and every entry into a ``WRAPPED``
    function append a ``perf_counter`` reading to ``marks``, except the
    functions in ``INSIDE_STEP``, which the integration step around them
    already marks. ``first_step`` is the index in ``marks`` of the first
    integration step; the sections before it are the run's set-up. Per
    step, the hook costs a clock reading and an append, against a step of
    100 us or more."""

    def __init__(self, start: float) -> None:
        self.marks = array.array("d", [start])
        self.first_step: int | None = None

    def install(self) -> None:
        clock, append = time.perf_counter, self.marks.append

        class ImportClock:
            @staticmethod
            def find_spec(name, path=None, target=None):
                append(clock())
                return None  # leave the import to the real finders

        sys.meta_path.insert(0, ImportClock)

        def wrap(key, fn):
            if key in INSIDE_STEP:
                return fn
            if key == "integrate.rk4_step":
                @functools.wraps(fn)
                def step(*args, **kwargs):
                    if self.first_step is None:
                        self.first_step = len(self.marks)
                    append(clock())
                    return fn(*args, **kwargs)

                return step

            @functools.wraps(fn)
            def marked(*args, **kwargs):
                append(clock())
                return fn(*args, **kwargs)

            return marked

        replace_everywhere(wrap)


class Tracer:
    def __init__(self) -> None:
        # (function, caller) -> [calls, inclusive seconds, self seconds]
        self.spans: dict[tuple[str, str | None], list] = {}
        self.installed: set[str] = set()
        self._stack: list[list] = []  # [key, seconds spent in child spans]
        self._run_steps = 0
        self._event_broadcasts = 0
        self._event_agent_steps = 0
        self._recorded_bytes = 0
        self._rel_error = None
        self._trajectory_bytes = 0
        self._event_rows = 0

    def install(self) -> None:
        def wrap(key, fn):
            observer = getattr(self, f"_after_{key.split('.', 1)[1]}", None)
            return self._wrap(key, fn, observer)

        self.installed = replace_everywhere(wrap)

    def _wrap(self, key, fn, after):
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            caller = stack[-1][0] if stack else None
            frame = [key, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                stat = spans.get((key, caller))
                if stat is None:
                    stat = spans[(key, caller)] = [0, 0.0, 0.0]
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[1]
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # Observers: read counts off arguments and results (outside the span).

    def _after_run(self, args, kwargs, result) -> None:
        from aggopt.triggers import Event

        cfg = args[0]
        steps = max(1, int(round(cfg.t_end / cfg.h)))
        self._run_steps += steps
        if all(isinstance(s, Event) for s in cfg.schemes):
            self._event_broadcasts += result.events.total
            self._event_agent_steps += len(cfg.schemes) * steps
            if self._rel_error is None:
                self._rel_error = result.metrics.relative_error
        self._recorded_bytes += sum(
            arr.nbytes for arr in (result.times, result.x, result.eta, result.w,
                                   result.eta_hat, result.w_hat)
        )

    def _after_write_trajectory_csv(self, args, kwargs, result) -> None:
        self._trajectory_bytes += os.path.getsize(args[0])

    def _after_write_events_csv(self, args, kwargs, result) -> None:
        self._event_rows += args[1].events.total

    # Aggregation.

    def _calls(self, key: str) -> int | None:
        """Calls seen; None (absent) if the function no longer exists."""
        if key not in self.installed:
            return None
        return sum(s[0] for (k, _), s in self.spans.items() if k == key)

    def _inclusive(self, *keys: str, caller: str | None = "*") -> float | None:
        """Summed duration of the keys' spans; None (absent) if none ran."""
        hits = [s for (k, c), s in self.spans.items()
                if k in keys and (caller == "*" or c == caller)]
        if not any(s[0] for s in hits):
            return None
        return sum(s[1] for s in hits)

    def _self(self, *keys: str) -> float | None:
        hits = [s for (k, _), s in self.spans.items() if k in keys]
        if not any(s[0] for s in hits):
            return None
        return sum(s[2] for s in hits)

    def metrics(self, wall_s: float) -> dict:
        """Per-layer values by name; None marks an absent metric."""
        ran = bool(self._calls("engine.run"))
        steps = self._run_steps if ran else None
        run_total = self._inclusive("engine.run")
        us_per_step = None
        if run_total is not None:
            outside_loop = self._inclusive(*RUN_SETUP_AND_METRICS, caller="engine.run") or 0.0
            us_per_step = (run_total - outside_loop) / steps * 1e6
        values = {
            "config.resolve_s": self._inclusive(
                "config.parse_raw", "config.resolve_config", "config.to_sim_config"),
            "graphs.lambda_bound_s": self._inclusive("graphs.lambda_bound"),
            "graphs.laplacian_s": self._inclusive("graphs.laplacian"),
            "oracles.solve_kkt_s": self._inclusive("oracles.solve_kkt_quadratic"),
            "oracles.fit_decay_s": self._inclusive("oracles.fit_decay_rate"),
            "engine.steps": steps,
            "engine.us_per_step": us_per_step,
            "engine.self_s": self._self("engine.run"),
            "integrate.rk4_calls": self._calls("integrate.rk4_step"),
            "integrate.rk4_self_s": self._self("integrate.rk4_step"),
            "integrate.ensure_finite_s": self._inclusive("integrate.ensure_finite"),
            "engine.decision_rates_s": self._inclusive("engine.decision_rates"),
            "engine.decision_rates_calls": self._calls("engine.decision_rates"),
            "consensus.theta_stack_s": self._inclusive("consensus.theta_stack"),
            "consensus.estimator_derivative_s": self._inclusive("consensus.estimator_derivative"),
            "consensus.consensus_error_s": self._inclusive("engine.consensus_error"),
            "consensus.equilibrium_residual_s": self._inclusive("consensus.equilibrium_residual"),
            "triggers.broadcasts": self._event_broadcasts if self._event_agent_steps else None,
            "triggers.fire_fraction": (self._event_broadcasts / self._event_agent_steps
                                       if self._event_agent_steps else None),
            "output.trajectory_s": self._inclusive("output.write_trajectory_csv"),
            "output.trajectory_mb": (self._trajectory_bytes / 1e6
                                     if self._calls("output.write_trajectory_csv") else None),
            "output.events_s": self._inclusive("output.write_events_csv"),
            "output.events_rows": (self._event_rows
                                   if self._calls("output.write_events_csv") else None),
            "output.summary_s": self._inclusive("output.write_summary"),
            "engine.recorded_mb": self._recorded_bytes / 1e6 if ran else None,
            "oracles.rel_error": self._rel_error,
        }
        spans_self = 0.0
        for layer in WRAPPED:
            layer_self = self._self(*(f"{layer}.{name}" for name in WRAPPED[layer]))
            spans_self += layer_self or 0.0
            if layer in SELF_LAYERS:
                values[f"self.{layer}_s"] = layer_self
        cli_self = self._self("cli.main", "cli.run_scenario") or 0.0
        values["trace.wall_s"] = wall_s
        values["trace.other_s"] = wall_s - spans_self + cli_self
        for layer, names in WRAPPED.items():
            for name in names:
                values[f"calls.{layer}.{name}"] = self._calls(f"{layer}.{name}")
        return {"values": values, "cli_self_s": cli_self}
