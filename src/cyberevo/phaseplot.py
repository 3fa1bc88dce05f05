"""Deterministic, dependency-free SVG phase portraits.

Renders the replicator field on the unit square: a lattice of scaled
direction arrows, the two non-trivial nullclines (the horizontal line
alpha = -k0/k1 where the defender bracket vanishes and the vertical line
beta = -g0/g1 where the attacker bracket vanishes, when they cross the
square), equilibrium markers (filled circle = Stable, hollow = otherwise),
and optional integrated trajectories.  :func:`phase_portrait` computes
what the portrait shows once, so that the SVG and the ``phase`` tables read
the same lattice, equilibria and trajectories.  The output text is a pure
function of the inputs: no timestamps, no float formatting drift.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Mapping, Optional, Sequence

from .dynamics import (
    DEFAULT_STEP,
    FieldValue,
    Trajectory,
    _check_span,
    field_grid,
    integrate,
)
from .equilibria import (
    Classification,
    EquilibriumReport,
    _verdicts,
    analyze_equilibria,
    stable_kinds,
)
from .game import GameParams, PopulationState

__all__ = ["PhasePortrait", "phase_portrait", "render_phase_svg"]

_CANVAS = 560
_PLOT_LO = 70.0
_PLOT_HI = 510.0
_SPAN = _PLOT_HI - _PLOT_LO


def _x(beta: float) -> float:
    return _PLOT_LO + _SPAN * beta


def _y(alpha: float) -> float:
    return _PLOT_HI - _SPAN * alpha


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _arrow(x0: float, y0: float, dx: float, dy: float) -> str:
    # Shaft plus a small open head rotated to the direction of motion.
    x1, y1 = x0 + dx, y0 + dy
    norm = math.hypot(dx, dy)
    ux, uy = dx / norm, dy / norm
    head = 4.0
    left = (x1 - head * (ux + 0.5 * uy), y1 - head * (uy - 0.5 * ux))
    right = (x1 - head * (ux - 0.5 * uy), y1 - head * (uy + 0.5 * ux))
    return (
        f'<path d="M {_fmt(x0)} {_fmt(y0)} L {_fmt(x1)} {_fmt(y1)} '
        f"M {_fmt(left[0])} {_fmt(left[1])} L {_fmt(x1)} {_fmt(y1)} "
        f'L {_fmt(right[0])} {_fmt(right[1])}" class="arrow"/>'
    )


def _marker(report: EquilibriumReport) -> str:
    cx = _x(report.location.beta)
    cy = _y(report.location.alpha)
    stable = report.classification is Classification.STABLE
    fill = "#000000" if stable else "#ffffff"
    eig = report.eigen
    title = (
        f"{report.kind.value} ({report.location.beta:.6f}, "
        f"{report.location.alpha:.6f}): {report.classification.value}, "
        f"eigenvalues {eig.lambda1.real:.6f}{eig.lambda1.imag:+.6f}i, "
        f"{eig.lambda2.real:.6f}{eig.lambda2.imag:+.6f}i"
    )
    return (
        f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="7" fill="{fill}" '
        f'stroke="#000000" stroke-width="1.5"><title>{title}</title></circle>'
    )


@dataclass(frozen=True)
class PhasePortrait:
    """One game's field lattice, equilibria and trajectories, computed once by
    :func:`phase_portrait` for both the SVG and the ``phase`` tables."""

    params: GameParams
    resolution: int
    starts: tuple[PopulationState, ...]
    grid: list[tuple[PopulationState, FieldValue]]
    reports: tuple[EquilibriumReport, ...]
    trajectories: tuple[Trajectory, ...]


def phase_portrait(
    params: GameParams,
    resolution: int = 15,
    trajectory_starts: Sequence[PopulationState] = (),
    trajectory_horizon: float = 200.0,
) -> PhasePortrait:
    """Evaluate the field on ``resolution`` (>= 2) lattice points per axis,
    analyze the equilibria, and integrate each start for
    ``trajectory_horizon`` at the default step, keeping about 500 samples.
    The horizon is checked as the integrators check it, starts or none."""
    _check_span(DEFAULT_STEP, trajectory_horizon)
    grid = field_grid(params, resolution)
    reports = analyze_equilibria(params)
    stride = max(1, int(round(trajectory_horizon / DEFAULT_STEP)) // 500)
    trajectories = tuple(
        integrate(params, start, horizon=trajectory_horizon, record_stride=stride)
        for start in trajectory_starts
    )
    return PhasePortrait(
        params, resolution, tuple(trajectory_starts), grid, reports, trajectories
    )


def render_phase_svg(
    portrait: PhasePortrait,
    metadata: Optional[Mapping[str, object]] = None,
) -> str:
    """Build the SVG document for one game's phase portrait.

    Parameters
    ----------
    portrait : PhasePortrait
        From :func:`phase_portrait`; each trajectory is drawn as a polyline.
    metadata : mapping, optional
        Extra provenance merged into the embedded metadata JSON.

    Returns
    -------
    str
        A standalone SVG document.
    """
    params = portrait.params
    _, (beta_null, alpha_null), (beta_in, alpha_in) = _verdicts(params.as_tuple())

    meta: dict[str, object] = {
        "params": asdict(params),
        "resolution": portrait.resolution,
        "trajectory_starts": [[s.beta, s.alpha] for s in portrait.starts],
    }
    if metadata:
        meta.update(metadata)

    parts: list[str] = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_CANVAS}" '
        f'height="{_CANVAS}" viewBox="0 0 {_CANVAS} {_CANVAS}">',
        f"<metadata>{json.dumps(meta, sort_keys=True)}</metadata>",
        "<style>"
        ".arrow{stroke:#57606f;stroke-width:1;fill:none}"
        ".nullcline{stroke-dasharray:6 4;stroke-width:1.5;fill:none}"
        ".trajectory{stroke:#1e7d32;stroke-width:1.5;fill:none}"
        "text{font-family:monospace;font-size:13px;fill:#000000}"
        "</style>",
        f'<rect x="0" y="0" width="{_CANVAS}" height="{_CANVAS}" fill="#ffffff"/>',
        f'<rect x="{_fmt(_PLOT_LO)}" y="{_fmt(_PLOT_LO)}" width="{_fmt(_SPAN)}" '
        f'height="{_fmt(_SPAN)}" fill="none" stroke="#000000" stroke-width="1"/>',
    ]

    # Axis ticks and labels.
    for tick in (0.0, 0.5, 1.0):
        parts.append(
            f'<text x="{_fmt(_x(tick) - 10)}" y="{_fmt(_PLOT_HI + 20)}">{tick:.1f}</text>'
        )
        parts.append(
            f'<text x="{_fmt(_PLOT_LO - 38)}" y="{_fmt(_y(tick) + 4)}">{tick:.1f}</text>'
        )
    parts.append(
        f'<text x="{_fmt(_PLOT_LO + _SPAN / 2 - 90)}" y="{_fmt(_PLOT_HI + 42)}">'
        "beta (Defence frequency)</text>"
    )
    parts.append(
        f'<text x="{_fmt(_PLOT_LO - 48)}" y="{_fmt(_PLOT_LO + _SPAN / 2 + 90)}" '
        f'transform="rotate(-90 {_fmt(_PLOT_LO - 48)} '
        f'{_fmt(_PLOT_LO + _SPAN / 2 + 90)})">alpha (Attack frequency)</text>'
    )

    # Direction arrows, length scaled by sqrt of relative magnitude.
    magnitudes = [
        math.hypot(value.d_beta, value.d_alpha) for _, value in portrait.grid
    ]
    peak = max(magnitudes) if magnitudes else 0.0
    cell = _SPAN / (portrait.resolution - 1)
    for (state, value), mag in zip(portrait.grid, magnitudes):
        if peak <= 0.0 or mag < 1e-12:
            continue
        scale = 0.85 * cell * math.sqrt(mag / peak)
        dx = scale * value.d_beta / mag
        dy = -scale * value.d_alpha / mag
        parts.append(_arrow(_x(state.beta), _y(state.alpha), dx, dy))

    # Nullclines: the defender bracket vanishes on a horizontal line, the
    # attacker bracket on a vertical one, where its root is inside (0, 1).
    if alpha_in:
        parts.append(
            f'<line x1="{_fmt(_PLOT_LO)}" y1="{_fmt(_y(alpha_null))}" '
            f'x2="{_fmt(_PLOT_HI)}" y2="{_fmt(_y(alpha_null))}" '
            f'class="nullcline" stroke="#1565c0"/>'
        )
    if beta_in:
        parts.append(
            f'<line x1="{_fmt(_x(beta_null))}" y1="{_fmt(_PLOT_LO)}" '
            f'x2="{_fmt(_x(beta_null))}" y2="{_fmt(_PLOT_HI)}" '
            f'class="nullcline" stroke="#c62828"/>'
        )

    # Trajectories.
    for start, trajectory in zip(portrait.starts, portrait.trajectories):
        points = " ".join(
            f"{_fmt(_x(state.beta))},{_fmt(_y(state.alpha))}"
            for _, state in trajectory.samples
        )
        parts.append(f'<polyline points="{points}" class="trajectory"/>')
        parts.append(
            f'<rect x="{_fmt(_x(start.beta) - 3)}" y="{_fmt(_y(start.alpha) - 3)}" '
            f'width="6" height="6" fill="#1e7d32"/>'
        )

    # Equilibrium markers over everything else.
    parts.extend(_marker(report) for report in portrait.reports)

    stable_names = ", ".join(kind.value for kind in stable_kinds(portrait.reports))
    parts.append(
        f'<text x="{_fmt(_PLOT_LO)}" y="{_fmt(_PLOT_LO - 14)}">'
        f"stable: {stable_names if stable_names else '(none)'} "
        "(filled = stable, hollow = not)</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts)
