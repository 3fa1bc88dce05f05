"""Deterministic SVG phase portraits."""

import json
import xml.etree.ElementTree as ET

import pytest

from cyberevo import (
    GameParams,
    ParameterError,
    PopulationState,
    phase_portrait,
    render_phase_svg,
    stable_set,
)

from test_equilibria import GAME_80, UNDERFLOWING_ROOT, _scaled
from test_game import REF

SINGLE_STABLE = GameParams(**REF)
BISTABLE = GameParams(w=0.98, c_a=0.69, c_d=0.54, b_a=0.79, b_d=0.72, v=0.15)

SVG_NS = "{http://www.w3.org/2000/svg}"


def _parse(svg_text):
    return ET.fromstring(svg_text)


def _circles(root):
    return root.findall(f".//{SVG_NS}circle")


def test_output_is_well_formed_xml():
    root = _parse(render_phase_svg(phase_portrait(SINGLE_STABLE)))
    assert root.tag == f"{SVG_NS}svg"


def test_render_is_deterministic():
    starts = (PopulationState(0.05, 0.95), PopulationState(0.9, 0.1))
    a = render_phase_svg(phase_portrait(BISTABLE, trajectory_starts=starts))
    b = render_phase_svg(phase_portrait(BISTABLE, trajectory_starts=starts))
    assert a == b


def test_marker_counts_and_fill_convention():
    # Filled circle = stable; hollow = anything else.
    for params, n_markers in ((SINGLE_STABLE, 4), (BISTABLE, 5)):
        root = _parse(render_phase_svg(phase_portrait(params)))
        circles = _circles(root)
        assert len(circles) == n_markers
        filled = [c for c in circles if c.get("fill") == "#000000"]
        assert len(filled) == len(stable_set(params))


def test_nullclines_drawn_only_when_inside_the_square():
    hits = render_phase_svg(phase_portrait(BISTABLE)).count('class="nullcline"')
    assert hits == 2
    misses = render_phase_svg(phase_portrait(SINGLE_STABLE)).count('class="nullcline"')
    assert misses == 0


@pytest.mark.parametrize("params", [
    BISTABLE, _scaled(GAME_80, 1e-300), UNDERFLOWING_ROOT,
], ids=["bistable", "game80-tiny", "underflowing-root"])
def test_nullclines_cross_at_the_interior_point(params):
    # The nullclines are drawn by the rule that places E5, so wherever E5
    # is reported both are drawn, through its marker.
    root = _parse(render_phase_svg(phase_portrait(params)))
    lines = [line for line in root.iter(f"{SVG_NS}line") if line.get("class") == "nullcline"]
    interior = _circles(root)[-1]
    assert interior.find(f"{SVG_NS}title").text.startswith("E5 ")
    horizontal, vertical = lines
    assert horizontal.get("y1") == horizontal.get("y2") == interior.get("cy")
    assert vertical.get("x1") == vertical.get("x2") == interior.get("cx")


def test_trajectories_rendered_when_starts_given():
    starts = (PopulationState(0.05, 0.95),)
    with_traj = render_phase_svg(phase_portrait(BISTABLE, trajectory_starts=starts))
    without = render_phase_svg(phase_portrait(BISTABLE))
    assert with_traj.count("<polyline") == 1
    assert without.count("<polyline") == 0
    root = _parse(with_traj)
    polyline = root.find(f".//{SVG_NS}polyline")
    points = polyline.get("points").split()
    assert len(points) > 10


def test_metadata_echoes_inputs():
    svg_text = render_phase_svg(
        phase_portrait(SINGLE_STABLE, resolution=9), metadata={"note": "check"}
    )
    root = _parse(svg_text)
    meta = json.loads(root.find(f"{SVG_NS}metadata").text)
    assert meta["params"]["w"] == 0.98
    assert meta["resolution"] == 9
    assert meta["note"] == "check"
    assert meta["trajectory_starts"] == []


def test_resolution_must_be_at_least_two():
    with pytest.raises(ParameterError, match="resolution >= 2"):
        phase_portrait(SINGLE_STABLE, resolution=1)


def test_arrow_lattice_scales_with_resolution():
    small = render_phase_svg(phase_portrait(SINGLE_STABLE, resolution=5))
    large = render_phase_svg(phase_portrait(SINGLE_STABLE, resolution=15))
    assert large.count('class="arrow"') > small.count('class="arrow"')
    # Corner lattice points carry zero field: no arrows there.
    assert small.count('class="arrow"') <= 5 * 5 - 4
