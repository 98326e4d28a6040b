import re
from pathlib import Path

import numpy as np
import pytest

import cases
from eigenfence import (
    BLACK,
    BLUE,
    GRAY,
    TURQUOISE,
    YELLOW,
    Scene,
    ViewportError,
    cassini_intersection_region,
    classic_discs,
    refined_region_odd,
    render_svg,
    second_type_discs_of_transpose,
)

GOLDEN = Path(__file__).parent / "golden"


def scene_disc_comparison() -> Scene:
    """Gray classic region under the blue second-type region, six markers."""
    gray = classic_discs(cases.PERRON6_A, "columns")
    blue = second_type_discs_of_transpose(cases.PERRON6_B)
    points = tuple((complex(z), BLACK) for z in
                   [24.0, 7.76, -3.05, 2.65 + 1.34j, 2.65 - 1.34j, 2.0])
    return Scene(layers=((gray, GRAY, 1.0), (blue, BLUE, 1.0)), points=points)


def scene_refined_overlay() -> Scene:
    """Classic, second-type and refined layers stacked."""
    gray = classic_discs(cases.PERRON6_A, "columns")
    blue = second_type_discs_of_transpose(cases.PERRON6_B)
    turq = second_type_discs_of_transpose(cases.PERRON6_F)
    points = tuple((complex(z), BLACK) for z in
                   [24.0, 7.76, -3.05, 2.65 + 1.34j, 2.65 - 1.34j, 2.0])
    return Scene(layers=((gray, GRAY, 1.0), (blue, BLUE, 1.0), (turq, TURQUOISE, 1.0)),
                 points=points)


def scene_cassini_intersection() -> Scene:
    """Four-way oval intersection with the two remaining eigenvalues."""
    region = cassini_intersection_region(cases.ROWSUM3_A, cases.ROWSUM3_PAIR)
    return Scene(layers=((region, TURQUOISE, 1.0),),
                 points=((-6 + 0j, YELLOW), (5 + 0j, YELLOW)))


SCENES = {
    "disc_comparison": scene_disc_comparison,
    "refined_overlay": scene_refined_overlay,
    "cassini_intersection": scene_cassini_intersection,
}


def test_repeat_render_identical():
    for build in SCENES.values():
        scene = build()
        assert render_svg(scene) == render_svg(scene)


@pytest.mark.parametrize("name", sorted(SCENES))
def test_golden_files(name):
    got = render_svg(SCENES[name]())
    want = (GOLDEN / f"{name}.svg").read_text(encoding="utf-8")
    assert got == want


def test_empty_layers_single_point():
    svg = render_svg(Scene(points=((0j, BLACK),)))
    assert svg.count("<circle") == 1
    assert svg.count("<line") == 2  # both axes pass through the origin


def test_circles_match_region_after_transform():
    scene = scene_disc_comparison()
    svg = render_svg(scene)
    all_circles = re.findall(
        r'<circle cx="([-0-9.]+)" cy="([-0-9.]+)" r="([-0-9.]+)"', svg)
    circles = re.findall(r'<circle cx="([-0-9.]+)" cy="([-0-9.]+)" r="([-0-9.]+)"/>', svg)
    # region circles come first (bare), markers carry a fill attribute
    discs = [d for region, _c, _o in scene.layers for d in region.discs.tolist()]
    assert len(all_circles) == len(discs) + len(scene.points)
    assert len(circles) == len(discs)

    # recompute the viewport transform the way the renderer does
    boxes = [region.bounding_box() for region, _c, _o in scene.layers]
    boxes += [(z.real, z.real, z.imag, z.imag) for z, _c in
              ((complex(p), c) for p, c in scene.points)]
    x0 = min(b[0] for b in boxes)
    x1 = max(b[1] for b in boxes)
    y0 = min(b[2] for b in boxes)
    y1 = max(b[3] for b in boxes)
    extent = max(x1 - x0, y1 - y0, 1.0)
    pad = 0.1 * extent
    x0, x1, y0, y1 = x0 - pad, x1 + pad, y0 - pad, y1 + pad
    side = max(x1 - x0, y1 - y0)
    cx, cy = (x0 + x1) / 2, (y0 + y1) / 2
    x0, x1 = cx - side / 2, cx + side / 2
    y0, y1 = cy - side / 2, cy + side / 2
    scale = 640 / (x1 - x0)

    for (sx, sy, sr), (center, radius) in zip(circles, discs):
        assert abs(float(sx) - (center - x0) * scale) <= 0.5
        assert abs(float(sy) - (y1 - 0.0) * scale) <= 0.5
        assert abs(float(sr) - radius * scale) <= 0.5


def test_rasterized_region_has_closed_path():
    svg = render_svg(scene_cassini_intersection())
    paths = re.findall(r'<path d="([^"]+)"/>', svg)
    assert paths
    for d in paths:
        assert d.startswith("M") and d.endswith("Z")


def test_raster_contour_tracks_membership():
    region = refined_region_odd(cases.PERRON7_B)
    scene = Scene(layers=((region, BLUE, 1.0),), raster_res=128)
    svg = render_svg(scene)
    path = re.search(r'<path d="([^"]+)"/>', svg).group(1)
    pts = re.findall(r'([-0-9.]+) ([-0-9.]+)', path)
    # every contour vertex, mapped back to the plane, sits near the boundary:
    # membership must flip within one raster cell around it
    x0, x1, y0, y1 = region.bounding_box()
    extent = max(x1 - x0, y1 - y0, 1.0)
    pad = 0.1 * extent
    x0, x1, y0, y1 = x0 - pad, x1 + pad, y0 - pad, y1 + pad
    side = max(x1 - x0, y1 - y0)
    cx, cy = (x0 + x1) / 2, (y0 + y1) / 2
    bx0, by1 = cx - side / 2, cy + side / 2
    scale = 640 / side
    cell = side / 128
    for sx, sy in pts[:50]:
        x = float(sx) / scale + bx0
        y = by1 - float(sy) / scale
        z = complex(x, y)
        probes = [z + dx + 1j * dy
                  for dx in (-cell, 0, cell) for dy in (-cell, 0, cell)]
        flags = region.contains_points(np.array(probes))
        assert flags.any() and not flags.all()


def test_raster_area_of_disc_shaped_oval():
    # equal foci make the oval an exact disc; the marching-squares fill
    # must recover its area closely at the default resolution
    from eigenfence import CassiniUnion

    oval = CassiniUnion([[1.0, 1.0, 9.0]])  # disc: center 1, radius 3
    scene = Scene(layers=((oval, BLUE, 1.0),), viewport=(-4, 6, -5, 5))
    svg = render_svg(scene)
    d = re.search(r'<path d="([^"]+)"', svg).group(1)
    loops = [seg for seg in d.split("Z") if seg]
    assert len(loops) == 1
    pts = np.array([[float(x), float(y)]
                    for x, y in re.findall(r"([-0-9.]+) ([-0-9.]+)", loops[0])])
    x, y = pts[:, 0], pts[:, 1]
    area = 0.5 * abs(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
    scale = 640 / 10.0
    true_area = np.pi * (3.0 * scale) ** 2
    assert abs(area - true_area) / true_area < 0.02


def test_degenerate_viewport_rejected():
    scene = Scene(points=((0j, BLACK),), viewport=(0.0, 0.0, -1.0, 1.0))
    with pytest.raises(ViewportError):
        render_svg(scene)
    with pytest.raises(ViewportError):
        render_svg(Scene())  # nothing to draw, nothing to fit


def test_layer_order_is_paint_order():
    svg = render_svg(scene_refined_overlay())
    assert svg.index(GRAY) < svg.index(BLUE) < svg.index(TURQUOISE)
