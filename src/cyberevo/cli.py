"""Command-line interface.

Subcommands
-----------
analyze   Equilibria, stability, welfare, and payoffs for one game.
ensemble  Seeded random-game ensemble with aggregate tables.
phase     SVG phase portrait plus tabular field/marker/trajectory data.
abm       Finite-population simulation for one game.
fines     Ensembles re-run under attacker fine levels on identical draws.

Inputs come from flags and an optional JSON config file (flags win).
With ``--out DIR`` every artifact is written there; otherwise the artifacts
selected by ``--format`` are printed to stdout.

Exit codes: 0 success; 2 usage, configuration, or I/O errors; 3 game
parameter constraint violations; 4 numerical integration failures.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Optional, Sequence

from ._version import __version__
from .abm import simulate
from .config import RunConfig, load_run_config
from .ensemble import (
    CORRELATION_LABELS,
    EnsembleSummary,
    fines_study,
    run_ensemble,
)
from .equilibria import (
    Classification,
    EquilibriumKind,
    analyze_equilibria,
    interior_equilibrium,
    stable_set,
)
from .errors import ConfigError, IntegrationError, ParameterError
from .game import STRATEGY_PAIRS, build_payoff_matrix, social_welfare
from .output import OutputBundle, Table, probe_writable
from .phaseplot import phase_portrait, render_phase_svg

__all__ = ["main", "build_parser"]

_DEFAULT_FORMAT = {
    "analyze": "json",
    "ensemble": "csv",
    "phase": "svg",
    "abm": "json",
    "fines": "csv",
}

_BIN_EDGES = tuple((i / 10.0, (i + 1) / 10.0) for i in range(10))


_GAME_FLAGS = (
    ("--w", "attack damage w"),
    ("--ca", "attack cost c_a"),
    ("--cd", "defence cost c_d"),
    ("--ba", "attacker benefit b_a"),
    ("--bd", "defender benefit b_d"),
    ("--v", "defence intensity v"),
)


def _subcommand(subs, name: str, doc: str, handler, *, game: bool, seed: bool,
                count: bool) -> argparse.ArgumentParser:
    """A subparser with the shared flags; ``game``, ``seed`` and ``count``
    add the six game flags, --seed and --count, for handlers that read them.

    Abbreviations are off, so a prefix of a flag the subcommand lacks (--w)
    is not taken for one it has (--workers).
    """
    sub = subs.add_parser(name, help=doc, allow_abbrev=False)
    sub.set_defaults(handler=handler)
    sub.add_argument("--config", metavar="PATH", help="JSON config file")
    if seed:
        sub.add_argument("--seed", type=int, help="seed (ensemble master seed / abm seed)")
    if count:
        sub.add_argument("--count", type=int, help="number of sampled games")
    sub.add_argument("--out", metavar="DIR", help="output directory")
    sub.add_argument("--format", choices=("csv", "json", "svg"),
                     help="stdout format when --out is not given")
    for flag, text in (
        *(_GAME_FLAGS if game else ()),
        ("--fu", "fine level for unsuccessful attacks"),
        ("--fs", "fine level for successful attacks"),
    ):
        sub.add_argument(flag, type=float, help=text)
    return sub


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyberevo",
        description="Evolutionary attacker/defender game analysis toolkit.",
    )
    parser.add_argument("--version", action="version",
                        version=f"cyberevo {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    _subcommand(subs, "analyze", "analyze one game", cmd_analyze,
                game=True, seed=False, count=False)

    ensemble = _subcommand(subs, "ensemble", "run a random-game ensemble", cmd_ensemble,
                           game=False, seed=True, count=True)
    ensemble.add_argument("--workers", type=int, help="parallel worker processes")

    phase = _subcommand(subs, "phase", "render a phase portrait", cmd_phase,
                        game=True, seed=False, count=False)
    phase.add_argument("--resolution", type=int, help="arrow lattice points per axis")
    phase.add_argument("--start", action="append", metavar="BETA,ALPHA",
                       help="trajectory start (repeatable)")
    phase.add_argument("--horizon", type=float, help="trajectory time horizon")

    abm = _subcommand(subs, "abm", "finite-population simulation", cmd_abm,
                      game=True, seed=True, count=False)
    abm.add_argument("--population", type=int, help="population size per side")
    abm.add_argument("--steps", type=int, help="simulation steps")
    abm.add_argument("--burn-in", dest="burn_in", type=int,
                     help="steps discarded before averaging")

    # fines registers --fu/--fs only to reject them by name (see cmd_fines).
    fines = _subcommand(subs, "fines", "ensembles across fine levels", cmd_fines,
                        game=False, seed=True, count=True)
    fines.add_argument("--levels", metavar="L1,L2,...",
                       help="comma-separated fine levels")
    fines.add_argument("--workers", type=int, help="parallel worker processes")
    return parser


def _parse_starts(raw: Optional[Sequence[str]]) -> Optional[tuple[tuple[float, float], ...]]:
    if not raw:
        return None
    starts = []
    for item in raw:
        pieces = item.split(",")
        if len(pieces) != 2:
            raise ConfigError(f"--start expects BETA,ALPHA (got {item!r})")
        try:
            starts.append((float(pieces[0]), float(pieces[1])))
        except ValueError as exc:
            raise ConfigError(f"--start expects numbers (got {item!r})") from exc
    return tuple(starts)


def _parse_levels(raw: Optional[str]) -> Optional[tuple[float, ...]]:
    if raw is None:
        return None
    try:
        levels = tuple(float(piece) for piece in raw.split(","))
    except ValueError as exc:
        raise ConfigError(f"--levels expects comma-separated numbers (got {raw!r})") from exc
    if not levels:
        raise ConfigError("--levels expects at least one level")
    return levels


#: (flag dest, config section, config key) of each plain flag override; a
#: flag its subcommand does not register reads as None and is skipped.
_OVERRIDES = (
    *((key, "game", key) for key in ("w", "ca", "cd", "ba", "bd", "v", "fu", "fs")),
    ("count", "ensemble", "count"),
    ("out", "output", "directory"),
    ("format", "output", "format"),
    ("seed", "ensemble", "master_seed"),
    ("seed", "abm", "seed"),
    ("workers", "ensemble", "workers"),
    ("resolution", "phase", "resolution"),
    ("horizon", "phase", "trajectory_horizon"),
    ("population", "abm", "population_size"),
    ("steps", "abm", "steps"),
    ("burn_in", "abm", "burn_in"),
)


def _load(args: argparse.Namespace) -> RunConfig:
    overrides: list[tuple[str, str, Any]] = [
        (section, key, getattr(args, dest, None)) for dest, section, key in _OVERRIDES
    ]
    starts = _parse_starts(getattr(args, "start", None))
    if starts is not None:
        overrides.append(("phase", "starts", starts))
    levels = _parse_levels(getattr(args, "levels", None))
    if levels is not None:
        overrides.append(("fines", "levels", levels))
    return load_run_config(args.config, overrides)


def _provenance(command: str, runcfg: RunConfig) -> dict[str, Any]:
    # Worker count and output location cannot change any result, so they are
    # excluded: identical analyses must produce byte-identical artifacts.
    resolved = runcfg.resolved()
    resolved["ensemble"].pop("workers", None)
    resolved.pop("output", None)
    return {
        "tool": "cyberevo",
        "version": __version__,
        "command": command,
        "config": resolved,
    }


def _emit(bundle: OutputBundle, runcfg: RunConfig, command: str) -> int:
    out_dir = runcfg.get("output", "directory")
    fmt = runcfg.get("output", "format") or _DEFAULT_FORMAT[command]
    if out_dir is not None:
        written = bundle.write(Path(out_dir))
        for path in written:
            print(path)
        return 0
    kinds = {"json": bundle.documents, "csv": bundle.tables, "svg": bundle.graphics}
    if fmt not in kinds:
        raise ConfigError(f"unknown output format: {fmt}")
    if not kinds[fmt]:
        raise ConfigError(f"{command} has no {fmt} artifacts; choose another --format")
    sys.stdout.write(bundle.render_stdout(fmt))
    return 0


def _probe_out(runcfg: RunConfig) -> None:
    out_dir = runcfg.get("output", "directory")
    if out_dir is not None:
        probe_writable(Path(out_dir))


def _eigen_row(report) -> tuple:
    eig = report.eigen
    return (
        report.kind.value,
        report.location.beta,
        report.location.alpha,
        report.classification.value,
        eig.lambda1.real,
        eig.lambda1.imag,
        eig.lambda2.real,
        eig.lambda2.imag,
    )


def cmd_analyze(args: argparse.Namespace) -> int:
    runcfg = _load(args)
    _probe_out(runcfg)
    params = runcfg.game_params()
    matrix = build_payoff_matrix(params)
    reports = analyze_equilibria(params)
    interior = interior_equilibrium(params)
    stable = sorted(kind.value for kind in stable_set(params))
    welfare = {pair: social_welfare(params, pair) for pair in STRATEGY_PAIRS}

    bundle = OutputBundle(provenance=_provenance("analyze", runcfg))
    bundle.add_document("analysis", {
        "params": params,
        "payoffs": {
            pair.label(): {"defender": d, "attacker": a}
            for pair, (d, a) in ((p, matrix[p]) for p in STRATEGY_PAIRS)
        },
        "equilibria": reports,
        "stable_set": stable,
        "interior": interior,
        "welfare": welfare,
    })
    bundle.add_table(Table(
        "equilibria",
        ("kind", "beta", "alpha", "classification",
         "eig1_re", "eig1_im", "eig2_re", "eig2_im"),
        tuple(_eigen_row(report) for report in reports),
    ))
    bundle.add_table(Table(
        "welfare",
        ("strategy_pair", "welfare"),
        tuple((pair.label(), welfare[pair]) for pair in STRATEGY_PAIRS),
    ))
    bundle.add_table(Table(
        "payoffs",
        ("strategy_pair", "defender_payoff", "attacker_payoff"),
        tuple((pair.label(), *matrix[pair]) for pair in STRATEGY_PAIRS),
    ))
    return _emit(bundle, runcfg, "analyze")


def _vcurve_table(name: str, summary: EnsembleSummary) -> Table:
    kinds = (EquilibriumKind.E3, EquilibriumKind.E2, EquilibriumKind.E4)
    return Table(
        name,
        ("bin_low", "bin_high", *(k.value for k in kinds)),
        tuple(
            (lo, hi, *(summary.v_binned_kind_frequency[k][i] for k in kinds))
            for i, (lo, hi) in enumerate(_BIN_EDGES)
        ),
    )


def _ensemble_tables(summary: EnsembleSummary) -> list[Table]:
    tables = [
        Table(
            "fig6_counts",
            ("stable_count", "games"),
            tuple((label, summary.stable_count_distribution[label])
                  for label in ("0", "1", "2", "3+")),
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
            tuple((kind.value, summary.kind_counts[kind], summary.kind_ratios[kind])
                  for kind in EquilibriumKind),
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
                  for i, (lo, hi) in enumerate(_BIN_EDGES)),
        ))
    stats = summary.welfare_stats
    welfare_rows: list[tuple] = [
        (f"mean_welfare[{pair.label()}]", stats.mean_by_pair[pair])
        for pair in STRATEGY_PAIRS
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
            (name, lo, hi, stats.binned_mean[name][i])
            for name in ("v", "c_a", "c_d")
            for i, (lo, hi) in enumerate(_BIN_EDGES)
        ),
    ))
    return tables


def cmd_ensemble(args: argparse.Namespace) -> int:
    runcfg = _load(args)
    _probe_out(runcfg)
    config = runcfg.sampler_config()
    workers = runcfg.get("ensemble", "workers")
    _, summary = run_ensemble(config, workers=workers)
    bundle = OutputBundle(provenance=_provenance("ensemble", runcfg))
    bundle.add_document("ensemble_summary", summary)
    for table in _ensemble_tables(summary):
        bundle.add_table(table)
    return _emit(bundle, runcfg, "ensemble")


def cmd_phase(args: argparse.Namespace) -> int:
    runcfg = _load(args)
    _probe_out(runcfg)
    params = runcfg.game_params()
    resolution = runcfg.get("phase", "resolution")
    if resolution < 2:
        raise ConfigError(f"phase.resolution must be >= 2 (got {resolution})")
    portrait = phase_portrait(
        params,
        resolution=resolution,
        trajectory_starts=runcfg.phase_starts(),
        trajectory_horizon=runcfg.get("phase", "trajectory_horizon"),
    )
    svg_text = render_phase_svg(
        portrait, metadata={"tool": "cyberevo", "version": __version__}
    )
    bundle = OutputBundle(provenance=_provenance("phase", runcfg))
    bundle.add_graphic("phase", svg_text)
    bundle.add_table(Table(
        "phase_field",
        ("beta", "alpha", "d_beta", "d_alpha"),
        tuple((s.beta, s.alpha, f.d_beta, f.d_alpha) for s, f in portrait.grid),
    ))
    bundle.add_table(Table(
        "phase_markers",
        ("kind", "beta", "alpha", "classification",
         "eig1_re", "eig1_im", "eig2_re", "eig2_im"),
        tuple(_eigen_row(report) for report in portrait.reports),
    ))
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
        "stable_set": sorted(
            r.kind.value for r in portrait.reports
            if r.classification is Classification.STABLE
        ),
        "trajectories_converged": [t.converged for t in portrait.trajectories],
    })
    return _emit(bundle, runcfg, "phase")


def cmd_abm(args: argparse.Namespace) -> int:
    runcfg = _load(args)
    _probe_out(runcfg)
    params = runcfg.game_params()
    config = runcfg.abm_config()
    result = simulate(params, config)
    bundle = OutputBundle(provenance=_provenance("abm", runcfg))
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
    return _emit(bundle, runcfg, "abm")


def _level_table_name(level: float) -> str:
    if level == 0.1:
        return "fig15_fines_0p1"
    if level == 0.5:
        return "fig16_fines_0p5"
    return "fines_" + f"{level:g}".replace(".", "p").replace("-", "m")


def cmd_fines(args: argparse.Namespace) -> int:
    runcfg = _load(args)
    for key in ("fu", "fs"):
        if runcfg.get("game", key) != 0.0:
            raise ConfigError(f"fines takes its fines from --levels; --{key} must be 0")
    _probe_out(runcfg)
    ensemble_cfg = runcfg.sections["ensemble"]
    levels = runcfg.get("fines", "levels")
    summaries = fines_study(
        count=ensemble_cfg["count"],
        master_seed=ensemble_cfg["master_seed"],
        levels=levels,
        workers=ensemble_cfg["workers"],
        b_a_upper=ensemble_cfg["b_a_upper"],
    )
    bundle = OutputBundle(provenance=_provenance("fines", runcfg))
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
    return _emit(bundle, runcfg, "fines")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except IntegrationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
