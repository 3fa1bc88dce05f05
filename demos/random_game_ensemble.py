"""Survey stability across a seeded ensemble of random games.

Runs a 20,000-game ensemble (same generator as the CLI, smaller count so
the demo finishes in a few seconds) and prints the headline statistics:
how many stable outcomes a game has, which corners dominate, how corner
frequencies move with defence intensity, and where welfare comes from.
"""

from cyberevo import EquilibriumKind, SamplerConfig, run_ensemble


def main() -> None:
    config = SamplerConfig(count=20000, master_seed=1)
    records, summary = run_ensemble(config)
    print(f"analyzed {len(records)} games (master_seed={config.master_seed})")
    print()

    print("stable-outcome count per game:")
    for label, games in summary.stable_count_distribution.items():
        print(f"  {label:2s} stable: {games:6d} games")
    print()

    print("stable-kind shares (normalized over (game, kind) pairs):")
    for kind in EquilibriumKind:
        count = summary.kind_counts[kind]
        ratio = summary.kind_ratios[kind]
        print(f"  {kind.value}: {count:6d}  ({ratio:.1%})")
    print()

    print("indicator correlations (rows/cols: " +
          ", ".join(summary.correlation_labels) + "):")
    for label, row in zip(summary.correlation_labels, summary.correlation):
        cells = "  ".join(f"{value: .3f}" for value in row)
        print(f"  {label:5s} {cells}")
    print()

    print("E4-stable counts per defence-intensity bin (v in [lo, lo+0.1)):")
    curve = summary.v_binned_kind_frequency[EquilibriumKind.E4]
    for i, count in enumerate(curve):
        bar = "#" * (count * 50 // max(curve))
        print(f"  v={i / 10:.1f}  {count:5d} {bar}")
    print()

    stats = summary.welfare_stats
    print("mean social welfare per pure strategy pair:")
    for pair, mean in stats.mean_by_pair.items():
        print(f"  {pair:24s} {mean: .4f}")


if __name__ == "__main__":
    main()
