"""One benchmark workload, run in a fresh interpreter by ``run.py``.

The process imports the program, builds its inputs from ``--seed``, stamps
the monotonic clock at its first timed call (``ready_at``, from which
``run.py`` measures set-up time) and then runs whole rounds of operations
for ``--seconds``: it stops before a round that, as long as the last one,
would end later (at least one round).  With ``--setup-only`` it stops at that
stamp.  Its last line of standard output is one JSON object for ``run.py``.

Workloads (see README.md for why each exists):

ensemble  ``cyberevo ensemble --count 10000 --workers 2 --out DIR`` on the
          default measure; one operation is one subcommand run and its checks.
fines     ``cyberevo fines --levels 0.1,0.5 --workers 1`` on 5,000 games
          under ``b_a_upper = PAPER_B_A_UPPER`` from a ``--config`` file.
basin     the basin oracle: one ``batch_final_states`` call on 50 hyperbolic
          games x 16 starts per round; one operation is one game.
trajectories
          scalar ``integrate`` from 16 starts on three games; one operation
          is one trajectory.
abm       ``abm.simulate`` at acceptance-criterion-11 settings on the same
          three games; one operation is one ABM game.

With ``--trace 1`` the process instead makes one traced operation (for the
last three, an untraced and a traced round) and reports per-layer metrics;
spans are recorded here, around calls into the program.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import json
import pickle
import resource
import shutil
import signal
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

import checks
from run import WORKLOADS

from cyberevo import cli
from cyberevo.abm import AbmConfig, simulate
from cyberevo.dynamics import PopulationState, batch_final_states, integrate
from cyberevo.ensemble import (
    PAPER_B_A_UPPER,
    GameRecord,
    SamplerConfig,
    correlation_matrix,
    records_digest,
    run_ensemble,
    sample_game,
    summarize,
    welfare_analytics,
)
from cyberevo.equilibria import (
    Classification,
    analyze_equilibria,
    interior_equilibrium,
    stable_set,
)
from cyberevo.game import STRATEGY_PAIRS, FineScenario, social_welfare
from cyberevo.output import OutputBundle

ENSEMBLE_GAMES = 10_000
ENSEMBLE_WORKERS = 2
FINES_GAMES = 5_000
FINE_LEVELS = (0.1, 0.5)

#: The oracle panel comes from the default ensemble (master seed 1) in index
#: order, as acceptance criterion 10 picks it, so its known failures do not
#: depend on ``--seed``.
PANEL_MASTER_SEED = 1
PANEL_GAMES = 50
START_AXIS = np.linspace(1e-3, 1.0 - 1e-3, 4)
#: A start counts as settled within this max-norm distance of a stable corner.
SETTLED = 1e-3
#: Trajectory samples kept by ``integrate`` (the ``phase`` subcommand's rule).
TRAJECTORY_STRIDE = 200
ABM_POPULATION = 1000
ABM_STEPS = 1_200_000
ABM_BURN_IN = 600_000
ABM_LIMIT = 0.05

#: Ways to corrupt an artifact before it is checked (for ``selftest.py``).
DOCTORINGS = ("count", "welfare", "fines-order", "corner")

#: Games whose records are measured under tracemalloc.
RETAINED_SAMPLE = 2000

#: Timed calls are scaled to a reference speed of the machine, read with a
#: calibration kernel that takes KERNEL_REFERENCE_S at that speed and is
#: sampled every SAMPLE_INTERVAL_S during a call (see README.md, "Speed
#: normalisation").  Set-up time is scaled by SETUP_KERNELS kernels run
#: right after it.
KERNEL_ITERATIONS = 500
KERNEL_REFERENCE_S = 0.0008
SAMPLE_INTERVAL_S = 0.05
SETUP_KERNELS = 10
_KERNEL_ROWS = np.random.default_rng(0).random((64, 5))


# --------------------------------------------------------------------------
# Speed normalisation


def _kernel() -> float:
    """Fixed interpreter-bound work like the program's inner loops: numpy
    scalars unpacked from a small array, compared and combined in Python."""
    total = 0.0
    for i in range(KERNEL_ITERATIONS):
        u0, u1, u2, u3, u4 = _KERNEL_ROWS[i % len(_KERNEL_ROWS)]
        if u0 < u1 * 0.5:
            total += u2 * u3
        else:
            total -= u4
    return total


def kernel_seconds() -> float:
    """Time of one kernel run where this process runs now."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


class SpeedClock:
    """Wall time of a call, scaled to the reference speed of the machine.

    The host's CPU speed drifts by up to a half within seconds, for the
    benchmark and the kernel alike.  So a SIGALRM timer runs the kernel
    every ``SAMPLE_INTERVAL_S`` during each timed call, and once just before
    and after it; the call's own time (wall time less the samples) is
    multiplied by ``KERNEL_REFERENCE_S`` over their mean.  The speed is so
    read in the seconds where the call runs.  For the ``ensemble`` pool the
    samples run in this process while the workers run beside it.
    """

    def __init__(self) -> None:
        #: The factor each call's time was multiplied by.
        self.scales: list[float] = []
        self._samples: list[float] = []
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, *_signal) -> None:
        self._samples.append(kernel_seconds())

    def time(self, fn, *args, **kwargs):
        """Returns ``fn``'s result and its scaled duration in seconds."""
        self._samples = []
        self._sample()
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            result = fn(*args, **kwargs)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        elapsed = time.perf_counter() - start - sum(self._samples[1:])
        self._sample()
        scale = KERNEL_REFERENCE_S / statistics.mean(self._samples)
        self.scales.append(scale)
        return result, elapsed * scale


# --------------------------------------------------------------------------
# Tracing


class Tracer:
    """Spans kept in memory: name, start, end and the enclosing span."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[index] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def total(self, name: str) -> float:
        return sum(e - s for n, s, e in zip(self.names, self.starts, self.ends) if n == name)

    def self_time(self, name: str) -> float:
        """Duration of ``name`` spans minus the part their child spans cover."""
        own = {i for i, n in enumerate(self.names) if n == name}
        children = sum(
            self.ends[i] - self.starts[i] for i, p in enumerate(self.parents) if p in own
        )
        return self.total(name) - children

    def dump(self, path: Path) -> None:
        names = sorted(set(self.names))
        ids = {n: i for i, n in enumerate(names)}
        origin = self.starts[0] if self.starts else 0.0
        spans = [
            [ids[n], round((s - origin) * 1e6, 1), round((e - s) * 1e6, 1), p]
            for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
        ]
        path.write_text(
            json.dumps({"names": names, "fields": ["name", "start_us", "dur_us", "parent"],
                        "spans": spans}),
            encoding="utf-8",
        )


@contextlib.contextmanager
def patched(tracer: Tracer, targets):
    """Route calls the CLI makes through spans; ``targets`` is (owner, attr, name)."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    for (owner, attr, name), (_, _, original) in zip(targets, saved):
        setattr(owner, attr, tracer.wrap(name, original))
    try:
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def run_cli(argv: list[str], tracer: Tracer | None = None) -> None:
    """Run one subcommand; stdout is discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = tracer.call("cli.main", cli.main, argv) if tracer else cli.main(argv)
    if code != 0:
        raise RuntimeError(f"cyberevo {' '.join(argv)} exited with {code}")


# --------------------------------------------------------------------------
# Doctored artifacts (self-tests only)


def _edit_table(path: Path, edit) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(edit(line) for line in lines), encoding="utf-8")


def doctor(kind: str, out: Path) -> None:
    if kind == "count":
        _edit_table(out / "fig6_counts.csv",
                    lambda l: f"1,{int(l.split(',')[1]) + 1}\n" if l.startswith("1,") else l)
    elif kind == "welfare":
        label = '"mean_welfare[Defence,NoAttack]",'
        _edit_table(out / "fig17_welfare.csv",
                    lambda l: f"{label}{float(l[len(label):]) + 0.01:.6f}\n"
                    if l.startswith(label) else l)
    elif kind == "fines-order":
        low, high = (out / f"{checks.level_table_name(x)}.csv" for x in FINE_LEVELS)
        low_text, high_text = low.read_text(), high.read_text()
        low.write_text(high_text)
        high.write_text(low_text)
        path = out / "fines_summary.json"
        doc = json.loads(path.read_text())
        a, b = (f"{x:g}" for x in FINE_LEVELS)
        doc["result"][a], doc["result"][b] = doc["result"][b], doc["result"][a]
        path.write_text(json.dumps(doc))


# --------------------------------------------------------------------------
# ensemble and fines


class SubcommandWorkload:
    """``ensemble`` or ``fines``: one operation is one CLI run plus checks."""

    def __init__(self, name: str, seed: int, base: Path, doctoring: str | None) -> None:
        self.name = name
        self.seed = seed
        self.base = base
        self.doctoring = doctoring
        self.config = base / "fines_config.json"
        if name == "fines":
            self.config.write_text(json.dumps(
                {"ensemble": {"count": FINES_GAMES, "b_a_upper": PAPER_B_A_UPPER}}))
        self.games = ENSEMBLE_GAMES if name == "ensemble" else FINES_GAMES * len(FINE_LEVELS)
        self.expected: checks.Expected | None = None
        self.clock: SpeedClock | None = None
        #: Peak RSS of the first operation's largest pool worker less the
        #: anonymous memory it inherited, in KiB (see README.md).
        self.worker_kb = 0

    def argv(self, out: Path) -> list[str]:
        if self.name == "ensemble":
            return ["ensemble", "--count", str(ENSEMBLE_GAMES), "--seed", str(self.seed),
                    "--workers", str(ENSEMBLE_WORKERS), "--out", str(out)]
        return ["fines", "--config", str(self.config), "--levels",
                ",".join(f"{x:g}" for x in FINE_LEVELS), "--workers", "1",
                "--seed", str(self.seed), "--out", str(out)]

    def check(self, out: Path) -> list[str]:
        if self.doctoring:
            doctor(self.doctoring, out)
        if self.expected is None:
            # Built at the first check, after the first timed call, so that
            # set-up time covers the program alone.
            try:
                if self.name == "ensemble":
                    self.expected = checks.Expected(self.seed, ENSEMBLE_GAMES, 1.0, (0.0,))
                else:
                    self.expected = checks.Expected(
                        self.seed, FINES_GAMES, PAPER_B_A_UPPER, FINE_LEVELS)
            except checks.SamplerContractError as exc:
                return [str(exc)]
        if self.name == "ensemble":
            return checks.check_ensemble(out, self.expected)
        return checks.check_fines(out, self.expected)

    def round(self, op: int) -> dict:
        out = self.base / f"op{op}"
        inherited = anon_rss_kb()
        _, elapsed = self.clock.time(run_cli, self.argv(out))
        if op == 0:
            # Every operation runs the same games; getrusage gives only the
            # largest child so far, so the first operation's workers are paired
            # with what they inherited.
            child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            self.worker_kb = max(0, child - inherited)
        failures = self.check(out)
        shutil.rmtree(out)
        return {"attempted": 1, "failed": 0, "failures": failures,
                "rate": self.games / elapsed}

    @staticmethod
    def _traced_pipeline(tracer: Tracer, config: SamplerConfig):
        records = [_traced_game(tracer, config, i) for i in range(config.count)]
        return records, tracer.call("ensemble.summarize", summarize, records, config)

    def cli_digests(self, out: Path) -> list[str]:
        if self.name == "ensemble":
            return [checks.read_result(out / "ensemble_summary.json")["records_digest"]]
        doc = checks.read_result(out / "fines_summary.json")
        return [doc[f"{level:g}"]["records_digest"] for level in FINE_LEVELS]

    def traced(self) -> dict:
        """One traced operation: the CLI with spans, then the pipeline by hand."""
        tracer = Tracer()
        out = self.base / "op0"
        entry = "run_ensemble" if self.name == "ensemble" else "fines_study"
        with patched(tracer, [
            (cli, "load_run_config", "config.load_run_config"),
            (cli, entry, f"ensemble.{entry}"),
            (OutputBundle, "write", "output.OutputBundle.write"),
        ]):
            run_cli(self.argv(out), tracer)
        bytes_written = sum(p.stat().st_size for p in out.iterdir())
        failures = self.check(out)
        cli_digests = self.cli_digests(out)
        shutil.rmtree(out)

        if self.name == "ensemble":
            configs = [SamplerConfig(count=ENSEMBLE_GAMES, master_seed=self.seed)]
        else:
            configs = [
                SamplerConfig(count=FINES_GAMES, master_seed=self.seed, b_a_upper=PAPER_B_A_UPPER,
                              scenario=FineScenario(level, level))
                for level in FINE_LEVELS
            ]
        untraced = traced = 0.0
        pickled = retained = nonhyperbolic = interior = near = 0
        for config, cli_digest in zip(configs, cli_digests):
            # Untraced runs on both sides of the traced one, so that neither
            # side alone pays for growing the heap; the faster one counts.
            _, before = self.clock.time(run_ensemble, config, workers=1)
            (records, summary), seconds = self.clock.time(self._traced_pipeline, tracer, config)
            traced += seconds
            _, after = self.clock.time(run_ensemble, config, workers=1)
            untraced += min(before, after)

            digest = tracer.call("ensemble.records_digest", records_digest, records)
            tracer.call("ensemble.correlation_matrix", correlation_matrix, records)
            tracer.call("ensemble.welfare_analytics", welfare_analytics, records)
            if not digest == summary.records_digest == cli_digest:
                failures.append(
                    f"traced pipeline digest {digest} != cyberevo {self.name} {cli_digest}")
            pickled += len(pickle.dumps(records))
            for record in records:
                reports = analyze_equilibria(record.params)
                nonhyperbolic += any(
                    r.classification is Classification.NON_HYPERBOLIC for r in reports)
                near += min(abs(x.real) for r in reports
                            for x in (r.eigen.lambda1, r.eigen.lambda2)) < 1e-6
                interior += record.interior_present
            del records
            tracemalloc.start()
            before = tracemalloc.get_traced_memory()[0]
            sample = [_traced_game(None, config, i) for i in range(RETAINED_SAMPLE)]
            retained += tracemalloc.get_traced_memory()[0] - before
            tracemalloc.stop()
            del sample
        games = sum(c.count for c in configs)
        tracer.dump(self.base.parent / f"trace-{self.name}.json")
        metrics = {
            "ensemble.sample_game.us_per_game": 1e6 * tracer.total("ensemble.sample_game") / games,
            "ensemble.summarize.s": tracer.total("ensemble.summarize"),
            "ensemble.records_digest.s": tracer.total("ensemble.records_digest"),
            "ensemble.correlation_matrix.s": tracer.total("ensemble.correlation_matrix"),
            "ensemble.welfare_analytics.s": tracer.total("ensemble.welfare_analytics"),
            "ensemble.pool_return_bytes_per_game": pickled / games,
            "ensemble.retained_bytes_per_game": retained / (RETAINED_SAMPLE * len(configs)),
            "equilibria.stable_set.us_per_game": 1e6 * tracer.total("equilibria.stable_set") / games,
            "equilibria.interior_equilibrium.us_per_game":
                1e6 * tracer.total("equilibria.interior_equilibrium") / games,
            "equilibria.nonhyperbolic_games": nonhyperbolic,
            "equilibria.interior_games": interior,
            "equilibria.near_boundary_games": near,
            "game.social_welfare.us_per_game": 1e6 * tracer.total("game.social_welfare") / games,
            "output.OutputBundle.write.s": tracer.total("output.OutputBundle.write"),
            "output.bytes_written": bytes_written,
            "config.load_run_config.s": tracer.total("config.load_run_config"),
            "cli.main.self_s": tracer.self_time("cli.main"),
            "trace.overhead_pct": 100.0 * (traced - untraced) / untraced,
        }
        return {"attempted": 1, "failed": 0, "failures": failures, "metrics": metrics}


def _untraced(_name: str, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def _traced_game(tracer: Tracer | None, config: SamplerConfig, index: int) -> GameRecord:
    """One game through the functions ``run_ensemble`` calls, in its order."""
    call = tracer.call if tracer else _untraced
    params = call("ensemble.sample_game", sample_game, config, index)
    kinds = call("equilibria.stable_set", stable_set, params)
    welfare = {
        pair: call("game.social_welfare", social_welfare, params, pair)
        for pair in STRATEGY_PAIRS
    }
    present = call("equilibria.interior_equilibrium", interior_equilibrium, params) is not None
    return GameRecord(index=index, params=params, stable_kinds=kinds, welfare=welfare,
                      interior_present=present)


# --------------------------------------------------------------------------
# oracles


class OracleWorkload:
    """Set-up shared by ``basin``, ``trajectories`` and ``abm``.

    The panel holds the first hyperbolic games of the default ensemble.
    Trajectories and ABM runs take the panel's first single-stable game of
    each corner kind (E2, E3, E4); only the ABM seeds follow ``--seed``.
    A subclass's ``round`` makes the round's timed calls and returns its
    operations, failures, rate and layer figures.
    """

    name = ""
    #: The program function whose calls this workload times.
    span = ""

    def __init__(self, seed: int, base: Path, doctoring: str | None) -> None:
        self.base = base
        self.doctoring = doctoring
        self.clock: SpeedClock | None = None
        config = SamplerConfig(count=100_000, master_seed=PANEL_MASTER_SEED)
        panel = []
        index = 0
        while len(panel) < PANEL_GAMES:
            params = sample_game(config, index)
            if all(r.classification is not Classification.NON_HYPERBOLIC
                   for r in analyze_equilibria(params)):
                panel.append((index, params))
            index += 1
        self.indices = [i for i, _ in panel]
        self.games = [p for _, p in panel]
        fields = {k: np.array([getattr(p, k) for p in self.games])
                  for k in ("w", "c_a", "c_d", "b_a", "b_d", "v")}
        closed = checks.stable_kinds(fields, 0.0)
        sources = checks.source_kinds(fields, 0.0)
        labels = [sorted(k for k in checks.KINDS if closed[k][g]) for g in range(len(panel))]
        self.corners = [[checks.CORNERS[k] for k in kinds] for kinds in labels]
        self.unstable = [[c for k, c in checks.CORNERS.items() if k not in kinds]
                         for kinds in labels]
        self.sources = [[c for k, c in checks.CORNERS.items() if sources[k][g]]
                        for g in range(len(panel))]
        self.setup_failures = []
        first = {}
        for (i, params), kinds in zip(panel, labels):
            program = sorted(k.value for k in stable_set(params))
            if program != kinds:
                self.setup_failures.append(
                    f"game {i}: stable_set {program} != closed form {kinds}")
            if len(kinds) == 1:
                first.setdefault(kinds[0], self.indices.index(i))
        self.picks = sorted(first.values())
        self.abm_seeds = [1000 * seed + self.indices[g] for g in self.picks]
        self.starts = [PopulationState(float(b), float(a)) for b in START_AXIS for a in START_AXIS]

    def _landing(self, states: np.ndarray, g: int, forbidden: str, limit: float,
                 what: str) -> tuple[int, list[str]]:
        """Starts or means of game ``g`` that miss every stable corner, and
        check failures for those that settle on a ``forbidden`` corner
        (``"source"`` or ``"non-stable"``)."""
        failures = []
        if not checks.in_unit_square(states):
            failures.append(f"{what} left the unit square or turned non-finite "
                            f"on game {self.indices[g]}")
        missed = int(np.sum(checks.corner_distance(states, self.corners[g]) > limit))
        corners = self.sources[g] if forbidden == "source" else self.unstable[g]
        wrong = int(np.sum(checks.corner_distance(states, corners) <= limit))
        if wrong:
            failures.append(f"{what} settled on a {forbidden} corner on game {self.indices[g]} "
                            f"({wrong} of {states.size // 2})")
        return missed, failures

    def traced(self) -> dict:
        """An untraced round, then a traced one; their difference is the overhead."""
        plain = self.round()
        tracer = Tracer()
        result = self.round(tracer=tracer)
        tracer.dump(self.base.parent / f"trace-{self.name}.json")
        layers = result["layers"]
        layers[f"{self.span}.s"] = tracer.total(self.span)
        layers.update(self.unit_costs(layers))
        layers["trace.overhead_pct"] = 100.0 * (result["wall"] - plain["wall"]) / plain["wall"]
        return {
            "attempted": plain["attempted"] + result["attempted"],
            "failed": plain["failed"] + result["failed"],
            "failures": plain["failures"] + result["failures"],
            "metrics": layers,
        }


class BasinWorkload(OracleWorkload):
    """One ``batch_final_states`` call on the panel x 16 starts per round.

    An operation is one game.  It fails when a start ends farther than
    ``SETTLED`` from every stable corner.  A start ending on a source corner
    is a check failure: no forward trajectory from the interior gets there.
    Ending on a saddle is only a failed operation, because the known fault
    (edge underflow on the clamped square) does exactly that.
    """

    name = "basin"
    span = "dynamics.batch_final_states"

    def __init__(self, seed: int, base: Path, doctoring: str | None) -> None:
        super().__init__(seed, base, doctoring)
        basin = inspect.signature(batch_final_states).parameters
        self.basin_steps = int(round(basin["horizon"].default / basin["step"].default))

    def round(self, _op: int = 0, tracer: Tracer | None = None) -> dict:
        call = tracer.call if tracer else _untraced
        failures = list(self.setup_failures)
        finals, wall = self.clock.time(call, self.span, batch_final_states, self.games,
                                       self.starts)
        if self.doctoring == "corner":
            finals = np.array(finals, dtype=float)
            finals[0, 0] = self.sources[0][0]
        failed = unresolved = 0
        for g in range(len(self.games)):
            missed, found = self._landing(np.asarray(finals[g]), g, "source", SETTLED,
                                          "batch_final_states")
            unresolved += missed
            failed += missed > 0
            failures += found
        return {
            "attempted": len(self.games), "failed": failed, "failures": failures,
            "rate": len(self.games) / wall, "wall": wall,
            "layers": {
                "dynamics.batch_final_states.pair_steps":
                    len(self.games) * len(self.starts) * self.basin_steps,
                "dynamics.batch_final_states.unresolved_pairs": unresolved,
            },
        }

    @staticmethod
    def unit_costs(layers: dict) -> dict:
        return {"dynamics.batch_final_states.ns_per_pair_step":
                1e9 * layers["dynamics.batch_final_states.s"]
                / layers["dynamics.batch_final_states.pair_steps"]}


class TrajectoryWorkload(OracleWorkload):
    """Scalar ``integrate`` from the 16 starts on each picked game.

    An operation is one trajectory.  It fails when it ends farther than
    ``SETTLED`` from the stable corner; ending on any other corner is a
    check failure.
    """

    name = "trajectories"
    span = "dynamics.integrate"

    def __init__(self, seed: int, base: Path, doctoring: str | None) -> None:
        super().__init__(seed, base, doctoring)
        self.integrate_step = inspect.signature(integrate).parameters["step"].default

    def _trajectories(self, call, g: int) -> list:
        return [call(self.span, integrate, self.games[g], start,
                     record_stride=TRAJECTORY_STRIDE) for start in self.starts]

    def round(self, _op: int = 0, tracer: Tracer | None = None) -> dict:
        call = tracer.call if tracer else _untraced
        failures = list(self.setup_failures)
        failed = steps = converged = 0
        wall = 0.0
        for g in self.picks:
            trajectories, seconds = self.clock.time(self._trajectories, call, g)
            wall += seconds
            finals = np.array([[t.final_state.beta, t.final_state.alpha] for t in trajectories])
            if self.doctoring == "corner":
                finals[0] = self.unstable[g][0]
            missed, found = self._landing(finals, g, "non-stable", SETTLED, "integrate")
            failed += missed
            failures += found
            steps += sum(int(round(t.samples[-1][0] / self.integrate_step))
                         for t in trajectories)
            converged += sum(t.converged for t in trajectories)
        attempted = len(self.picks) * len(self.starts)
        return {
            "attempted": attempted, "failed": failed, "failures": failures,
            "rate": attempted / wall, "wall": wall,
            "layers": {"dynamics.integrate.steps": steps,
                       "dynamics.integrate.converged": converged},
        }

    @staticmethod
    def unit_costs(layers: dict) -> dict:
        return {"dynamics.integrate.us_per_step":
                1e6 * layers["dynamics.integrate.s"] / layers["dynamics.integrate.steps"]}


class AbmWorkload(OracleWorkload):
    """``abm.simulate`` at acceptance-criterion-11 settings on each picked game.

    An operation is one ABM game.  It fails when its post-burn-in means lie
    farther than ``ABM_LIMIT`` from the stable corner; means within that of
    any other corner are a check failure.
    """

    name = "abm"
    span = "abm.simulate"

    def round(self, _op: int = 0, tracer: Tracer | None = None) -> dict:
        call = tracer.call if tracer else _untraced
        failures = list(self.setup_failures)
        failed = 0
        wall = 0.0
        for g, abm_seed in zip(self.picks, self.abm_seeds):
            config = AbmConfig(population_size=ABM_POPULATION, steps=ABM_STEPS,
                               burn_in=ABM_BURN_IN, seed=abm_seed)
            result, seconds = self.clock.time(call, self.span, simulate, self.games[g], config)
            wall += seconds
            means = np.array([result.mean_beta, result.mean_alpha])
            if self.doctoring == "corner":
                means = np.array(self.unstable[g][0], dtype=float)
            missed, found = self._landing(means, g, "non-stable", ABM_LIMIT, "abm means")
            failed += missed
            failures += found
        return {
            "attempted": len(self.picks), "failed": failed, "failures": failures,
            "rate": len(self.picks) / wall, "wall": wall,
            "layers": {"abm.steps": ABM_STEPS * len(self.picks)},
        }

    @staticmethod
    def unit_costs(layers: dict) -> dict:
        return {"abm.simulate.ns_per_step": 1e9 * layers["abm.simulate.s"] / layers["abm.steps"]}


ORACLES = {w.name: w for w in (BasinWorkload, TrajectoryWorkload, AbmWorkload)}


# --------------------------------------------------------------------------


def anon_rss_kb() -> int:
    """Anonymous resident memory of this process now, in KiB: what a forked
    child inherits (file-backed pages are mapped again on demand)."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("RssAnon:"):
                return int(line.split()[1])
    raise RuntimeError("no RssAnon in /proc/self/status")


def peak_rss_mb(workers: int, worker_kb: int) -> float:
    """This process's peak RSS plus ``workers`` times one pool worker's own part."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + workers * worker_kb) / 1024.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="scratch directory for artifacts")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--doctor", choices=DOCTORINGS)
    args = parser.parse_args(argv)

    base = Path(args.out)
    base.mkdir(parents=True, exist_ok=True)
    if args.workload in ORACLES:
        workload = ORACLES[args.workload](args.seed, base, args.doctor)
        workers = 0
    else:
        workload = SubcommandWorkload(args.workload, args.seed, base, args.doctor)
        workers = ENSEMBLE_WORKERS if args.workload == "ensemble" else 0
    ready_at = time.monotonic()
    setup_scale = KERNEL_REFERENCE_S / statistics.mean(
        kernel_seconds() for _ in range(SETUP_KERNELS))
    if args.setup_only:
        print(json.dumps({"ready_at": ready_at, "setup_scale": setup_scale}))
        return 0
    workload.clock = SpeedClock()

    if args.trace:
        result = workload.traced()
    else:
        rounds = []
        while True:
            started = time.monotonic()
            rounds.append(workload.round(len(rounds)))
            now = time.monotonic()
            # Stop before a round that, as long as the last one, would end
            # after --seconds.
            if (now - ready_at) + (now - started) > args.seconds:
                break
        result = {
            "attempted": sum(r["attempted"] for r in rounds),
            "failed": sum(r["failed"] for r in rounds),
            "failures": [f for r in rounds for f in r["failures"]],
            "metrics": {
                "games_per_s": float(np.median([r["rate"] for r in rounds])),
                "peak_rss_mb": peak_rss_mb(workers, workload.worker_kb if workers else 0),
            },
        }
    result["ready_at"] = ready_at
    result["setup_scale"] = setup_scale
    result["scale"] = statistics.median(workload.clock.scales)
    result["correct"] = not result["failures"]
    result["failures"] = result["failures"][:20]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
