"""Command-line interface.

Subcommands
-----------
analyze   Equilibria, stability, welfare, and payoffs for one game.
ensemble  Seeded random-game ensemble with aggregate tables.
phase     SVG phase portrait plus tabular field/marker/trajectory data.
abm       Finite-population simulation for one game.
fines     Ensembles re-run under attacker fine levels on identical draws.

Each subcommand is declared once, in ``_COMMANDS``: its help, its stdout
formats (default first), its flags, each of which sets one config value,
and the config values it reads.  Inputs come from flags and an optional
JSON config file (flags win).  :func:`main` resolves them, refuses a
stdout format the subcommand lacks or checks that ``--out`` is writable,
runs the subcommand's ``cmd_<name>`` handler and writes or prints the
artifacts it filled.  Their provenance records the tool version, the
subcommand and the config values that subcommand reads, nothing else.  With ``--out DIR`` every artifact is written there;
otherwise the artifacts selected by ``--format`` are printed to stdout.

Exit codes: 0 success; 2 usage, configuration, or I/O errors; 3 game
parameter constraint violations; 4 numerical integration failures.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Callable, NamedTuple, Optional, Sequence

from ._version import __version__
from .abm import simulate
from .config import RunConfig, load_run_config
from .dynamics import MAX_RESOLUTION
from .ensemble import (
    BIN_EDGES,
    CORRELATION_LABELS,
    EnsembleSummary,
    fines_study,
    run_ensemble,
)
from .equilibria import EquilibriumKind, analyze_equilibria, stable_kinds
from .errors import ConfigError, IntegrationError, ParameterError
from .game import STRATEGY_PAIRS, build_payoff_matrix, welfare_pairs
from .output import OutputBundle, Table, probe_writable
from .phaseplot import phase_portrait, render_phase_svg

__all__ = ["main", "build_parser"]


def _numbers(text: str) -> tuple[float, ...]:
    """The argparse type of --levels: comma-separated numbers."""
    try:
        return tuple(float(piece) for piece in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expects comma-separated numbers (got {text!r})") from None


def _start(text: str) -> tuple[float, ...]:
    """The argparse type of --start: BETA,ALPHA."""
    start = _numbers(text)
    if len(start) != 2:
        raise argparse.ArgumentTypeError(f"expects BETA,ALPHA (got {text!r})")
    return start


#: A flag's name and its ``add_argument`` options.
_Flag = tuple[str, dict[str, Any]]


def _flag(name: str, target: str, help: str, type: Callable[[str], Any] = float,
          **options: Any) -> _Flag:
    """A flag that sets one config value, ``target`` ("section.key").

    Its ``type`` parses the flag's text into that value, which argparse
    stores under ``target``.
    """
    return name, {"dest": target, "help": help, "type": type, **options}


class _Command(NamedTuple):
    """One subcommand, run by the module's ``cmd_<name>`` handler.

    ``formats`` are the stdout formats it has artifacts in, default first.
    ``reads`` names the config values the subcommand reads, each a
    "section" or a "section.key"; they, and only they, are its provenance.
    """

    help: str
    formats: tuple[str, ...]
    flags: tuple[_Flag, ...]
    reads: tuple[str, ...]


_GAME = tuple(_flag(f"--{key}", f"game.{key}", text) for key, text in (
    ("w", "attack damage w"),
    ("ca", "attack cost c_a"),
    ("cd", "defence cost c_d"),
    ("ba", "attacker benefit b_a"),
    ("bd", "defender benefit b_d"),
    ("v", "defence intensity v"),
    ("fu", "fine level for unsuccessful attacks"),
    ("fs", "fine level for successful attacks"),
))
_FINES = _GAME[6:]
_COUNT = _flag("--count", "ensemble.count", "number of sampled games", int)
_MASTER_SEED = _flag("--seed", "ensemble.master_seed", "ensemble master seed", int)
_WORKERS = _flag("--workers", "ensemble.workers",
                 "has no effect: every run is serial; an integer >= 1, never recorded",
                 int)

_OUT = _flag("--out", "output.directory", "output directory", str, metavar="DIR")

#: The ensemble values a result depends on.  The worker count has no effect
#: and the output location cannot change any result, so no subcommand
#: records them: identical analyses must produce byte-identical artifacts.
_SAMPLER = ("ensemble.count", "ensemble.master_seed", "ensemble.b_a_upper")

_COMMANDS = {
    "analyze": _Command("analyze one game", ("json", "csv"), _GAME, ("game",)),
    "ensemble": _Command(
        "run a random-game ensemble", ("csv", "json"),
        (_MASTER_SEED, _COUNT, *_FINES, _WORKERS),
        ("game.fu", "game.fs", *_SAMPLER),
    ),
    "phase": _Command("render a phase portrait", ("svg", "csv", "json"), (
        *_GAME,
        _flag("--resolution", "phase.resolution", "arrow lattice points per axis", int),
        _flag("--start", "phase.starts", "trajectory start (repeatable)", _start,
              action="append", metavar="BETA,ALPHA"),
        _flag("--horizon", "phase.trajectory_horizon", "trajectory time horizon"),
    ), ("game", "phase")),
    "abm": _Command("finite-population simulation", ("json", "csv"), (
        *_GAME,
        _flag("--seed", "abm.seed", "agent-based seed", int),
        _flag("--population", "abm.population_size", "population size per side", int),
        _flag("--steps", "abm.steps", "simulation steps", int),
        _flag("--burn-in", "abm.burn_in", "steps discarded before averaging", int),
    ), ("game", "abm")),
    # fines takes both fines from --levels, so it has no --fu/--fs.
    "fines": _Command("ensembles across fine levels", ("csv", "json"), (
        _MASTER_SEED,
        _COUNT,
        _flag("--levels", "fines.levels", "comma-separated fine levels", _numbers,
              metavar="L1,L2,..."),
        _WORKERS,
    ), (*_SAMPLER, "fines")),
}


def build_parser() -> argparse.ArgumentParser:
    """The parser; each subparser's flags store under their config target.

    Abbreviations are off, so a prefix of a flag the subcommand lacks (--w)
    is not taken for one it has (--workers).
    """
    parser = argparse.ArgumentParser(
        prog="cyberevo",
        description="Evolutionary attacker/defender game analysis toolkit.",
    )
    parser.add_argument("--version", action="version",
                        version=f"cyberevo {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        sub = subs.add_parser(name, help=command.help, allow_abbrev=False)
        sub.add_argument("--config", metavar="PATH", help="JSON config file")
        for flag, options in (*command.flags, _OUT):
            sub.add_argument(flag, **options)
        sub.add_argument("--format", dest="output.format",
                         metavar="{" + ",".join(command.formats) + "}",
                         help="stdout format when --out is not given")
    return parser


def _recorded(runcfg: RunConfig, reads: Sequence[str]) -> dict[str, dict[str, Any]]:
    """The config values named by ``reads``, by section."""
    recorded: dict[str, dict[str, Any]] = {}
    for read in reads:
        section, _, key = read.partition(".")
        values = runcfg.sections[section]
        recorded.setdefault(section, {}).update({key: values[key]} if key else values)
    return recorded


def _equilibria_table(name: str, reports) -> Table:
    """One row per equilibrium: kind, location, classification, eigenvalues."""
    return Table(
        name,
        ("kind", "beta", "alpha", "classification",
         "eig1_re", "eig1_im", "eig2_re", "eig2_im"),
        tuple(
            (r.kind.value, r.location.beta, r.location.alpha, r.classification.value,
             r.eigen.lambda1.real, r.eigen.lambda1.imag,
             r.eigen.lambda2.real, r.eigen.lambda2.imag)
            for r in reports
        ),
    )


def cmd_analyze(runcfg: RunConfig, bundle: OutputBundle) -> None:
    params = runcfg.game_params()
    payoffs = build_payoff_matrix(params)
    reports = analyze_equilibria(params)
    welfare = dict(zip(STRATEGY_PAIRS, welfare_pairs(*params.as_tuple())))

    bundle.add_document("analysis", {
        "params": params,
        "payoffs": {
            pair: {"defender": d, "attacker": a} for pair, (d, a) in payoffs.items()
        },
        "equilibria": reports,
        "stable_set": [kind.value for kind in stable_kinds(reports)],
        "interior": next(
            (r.location for r in reports if r.kind is EquilibriumKind.E5), None
        ),
        "welfare": welfare,
    })
    bundle.add_table(_equilibria_table("equilibria", reports))
    bundle.add_table(Table(
        "welfare",
        ("strategy_pair", "welfare"),
        tuple(welfare.items()),
    ))
    bundle.add_table(Table(
        "payoffs",
        ("strategy_pair", "defender_payoff", "attacker_payoff"),
        tuple((pair, d, a) for pair, (d, a) in payoffs.items()),
    ))


def _vcurve_table(name: str, summary: EnsembleSummary) -> Table:
    curves = summary.v_binned_kind_frequency
    return Table(
        name,
        ("bin_low", "bin_high", *(kind.value for kind in curves)),
        tuple(
            (lo, hi, *(counts[i] for counts in curves.values()))
            for i, (lo, hi) in enumerate(BIN_EDGES)
        ),
    )


def _ensemble_tables(summary: EnsembleSummary) -> list[Table]:
    tables = [
        Table(
            "fig6_counts",
            ("stable_count", "games"),
            tuple(summary.stable_count_distribution.items()),
        ),
        Table(
            "fig6_correlation",
            ("label",) + CORRELATION_LABELS,
            tuple((label, *summary.correlation[i])
                  for i, label in enumerate(summary.correlation_labels)),
        ),
        Table(
            "fig7_ratios",
            ("kind", "count", "ratio"),
            tuple((kind.value, count, summary.kind_ratios[kind])
                  for kind, count in summary.kind_counts.items()),
        ),
        _vcurve_table("fig8_vcurves", summary),
    ]
    for name, col_a, col_b in (
        ("fig9_costs", "c_d", "c_a"),
        ("fig12_v_w", "v", "w"),
        ("fig14_benefits", "b_d", "b_a"),
    ):
        stability = summary.param_binned_stability
        tables.append(Table(
            name,
            ("bin_low", "bin_high",
             f"{col_a.replace('_', '')}_e4_count", f"{col_b.replace('_', '')}_e4_count"),
            tuple((lo, hi, stability[col_a][i], stability[col_b][i])
                  for i, (lo, hi) in enumerate(BIN_EDGES)),
        ))
    stats = summary.welfare_stats
    welfare_rows: list[tuple] = [
        (f"mean_welfare[{pair}]", mean)
        for pair, mean in stats.mean_by_pair.items()
    ]
    n_bins = len(stats.histogram_counts)
    for i, count in enumerate(stats.histogram_counts):
        lo, hi = stats.histogram_edges[i], stats.histogram_edges[i + 1]
        closer = "]" if i == n_bins - 1 else ")"
        welfare_rows.append((f"count[{lo:.1f},{hi:.1f}{closer}", count))
    tables.append(Table("fig17_welfare", ("metric", "value"), tuple(welfare_rows)))
    tables.append(Table(
        "fig18_welfare_params",
        ("parameter", "bin_low", "bin_high", "mean_welfare"),
        tuple(
            (name, lo, hi, means[i])
            for name, means in stats.binned_mean.items()
            for i, (lo, hi) in enumerate(BIN_EDGES)
        ),
    ))
    return tables


def cmd_ensemble(runcfg: RunConfig, bundle: OutputBundle) -> None:
    config = runcfg.sampler_config()
    workers = runcfg.get("ensemble", "workers")
    _, summary = run_ensemble(config, workers=workers)
    bundle.add_document("ensemble_summary", summary)
    for table in _ensemble_tables(summary):
        bundle.add_table(table)


def cmd_phase(runcfg: RunConfig, bundle: OutputBundle) -> None:
    params = runcfg.game_params()
    resolution = runcfg.get("phase", "resolution")
    if not 2 <= resolution <= MAX_RESOLUTION:
        raise ConfigError(f"phase.resolution must be 2 to {MAX_RESOLUTION} (got {resolution})")
    portrait = phase_portrait(
        params,
        resolution=resolution,
        trajectory_starts=runcfg.phase_starts(),
        trajectory_horizon=runcfg.get("phase", "trajectory_horizon"),
    )
    svg_text = render_phase_svg(
        portrait, metadata={"tool": "cyberevo", "version": __version__}
    )
    bundle.add_graphic("phase", svg_text)
    bundle.add_table(Table(
        "phase_field",
        ("beta", "alpha", "d_beta", "d_alpha"),
        tuple((s.beta, s.alpha, f.d_beta, f.d_alpha) for s, f in portrait.grid),
    ))
    bundle.add_table(_equilibria_table("phase_markers", portrait.reports))
    bundle.add_table(Table(
        "phase_trajectories",
        ("start_index", "time", "beta", "alpha"),
        tuple(
            (i, t, state.beta, state.alpha)
            for i, trajectory in enumerate(portrait.trajectories)
            for t, state in trajectory.samples
        ),
    ))
    bundle.add_document("phase_report", {
        "params": params,
        "equilibria": portrait.reports,
        "stable_set": [kind.value for kind in stable_kinds(portrait.reports)],
        "trajectories_converged": [t.converged for t in portrait.trajectories],
    })


def cmd_abm(runcfg: RunConfig, bundle: OutputBundle) -> None:
    params = runcfg.game_params()
    config = runcfg.abm_config()
    result = simulate(params, config)
    bundle.add_document("abm_result", {
        "params": params,
        "mean_beta": result.mean_beta,
        "mean_alpha": result.mean_alpha,
        "events": result.events,
    })
    bundle.add_table(Table(
        "abm_means",
        ("metric", "value"),
        (("mean_beta", result.mean_beta), ("mean_alpha", result.mean_alpha)),
    ))
    bundle.add_table(Table(
        "abm_trajectory",
        ("step", "beta", "alpha"),
        tuple(result.trajectory_thinned),
    ))


def _level_table_name(level: float) -> str:
    if level == 0.1:
        return "fig15_fines_0p1"
    if level == 0.5:
        return "fig16_fines_0p5"
    return "fines_" + f"{level:g}".replace(".", "p").replace("-", "m")


def cmd_fines(runcfg: RunConfig, bundle: OutputBundle) -> None:
    for key in ("fu", "fs"):
        if runcfg.get("game", key) != 0.0:
            raise ConfigError(f"fines takes its fines from --levels; --{key} must be 0")
    ensemble_cfg = runcfg.sections["ensemble"]
    levels = runcfg.get("fines", "levels")
    # Each level's summary key and table name come from f"{level:g}".
    rendered: dict[str, float] = {}
    for level in levels:
        first = rendered.setdefault(f"{level:g}", level)
        if first != level:
            raise ConfigError(
                f"fine levels {first!r} and {level!r} both render as {level:g}; "
                "levels must differ within 6 significant digits"
            )
    summaries = fines_study(
        count=ensemble_cfg["count"],
        master_seed=ensemble_cfg["master_seed"],
        levels=levels,
        workers=ensemble_cfg["workers"],
        b_a_upper=ensemble_cfg["b_a_upper"],
    )
    bundle.add_document("fines_summary", {
        f"{level:g}": {
            "kind_counts": summary.kind_counts,
            "kind_ratios": summary.kind_ratios,
            "stable_count_distribution": summary.stable_count_distribution,
            "records_digest": summary.records_digest,
        }
        for level, summary in summaries.items()
    })
    for level, summary in summaries.items():
        bundle.add_table(_vcurve_table(_level_table_name(level), summary))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    command = _COMMANDS[args.command]
    try:
        # Flags store their values under the "section.key" they set; no
        # other destination has a dot.
        runcfg = load_run_config(args.config, [
            (*dest.split("."), value) for dest, value in vars(args).items() if "." in dest
        ])
        out_dir = runcfg.get("output", "directory")
        fmt = runcfg.get("output", "format") or command.formats[0]
        if out_dir is not None:
            probe_writable(Path(out_dir))
        elif fmt not in command.formats:
            raise ConfigError(f"{args.command} has no {fmt} output; its formats "
                              f"are {', '.join(command.formats)}")
        bundle = OutputBundle(provenance={
            "tool": "cyberevo",
            "version": __version__,
            "command": args.command,
            "config": _recorded(runcfg, command.reads),
        })
        # Looked up at call time, so a replaced handler is the one run.
        globals()[f"cmd_{args.command}"](runcfg, bundle)
        if out_dir is None:
            sys.stdout.write(bundle.render_stdout(fmt))
        else:
            for path in bundle.write(Path(out_dir)):
                print(path)
        return 0
    except (ConfigError, ParameterError, IntegrationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return (3 if isinstance(exc, ParameterError)
                else 4 if isinstance(exc, IntegrationError) else 2)


if __name__ == "__main__":
    sys.exit(main())
