"""Render phase portraits for two qualitatively different games.

The first game has a single stable corner (full defence, full attack);
the second is bistable with an interior saddle, so trajectories split
between "defence wins" and "attack wins" depending on the start.
Writes two standalone SVG files into the working directory.
"""

from pathlib import Path

from cyberevo import (
    GameParams,
    PopulationState,
    phase_portrait,
    render_phase_svg,
    stable_set,
)

GAMES = {
    "phase_single_stable.svg": GameParams(
        w=0.98, c_a=0.51, c_d=0.20, b_a=0.90, b_d=0.79, v=0.26
    ),
    "phase_bistable_saddle.svg": GameParams(
        w=0.98, c_a=0.69, c_d=0.54, b_a=0.79, b_d=0.72, v=0.15
    ),
}

STARTS = (
    PopulationState(0.05, 0.95),
    PopulationState(0.95, 0.05),
    PopulationState(0.30, 0.30),
    PopulationState(0.70, 0.70),
)


def main() -> None:
    for name, params in GAMES.items():
        svg_text = render_phase_svg(
            phase_portrait(params, resolution=15, trajectory_starts=STARTS)
        )
        Path(name).write_text(svg_text, encoding="utf-8")
        stable = sorted(kind.value for kind in stable_set(params))
        print(f"wrote {name} (stable: {', '.join(stable)})")


if __name__ == "__main__":
    main()
