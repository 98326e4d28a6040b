import math
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cases
from eigenfence import (
    BLACK,
    BLUE,
    GRAY,
    TURQUOISE,
    YELLOW,
    DiscUnion,
    EigenfenceError,
    Eigenpair,
    Scene,
    cassini_intersection_region,
    classic_discs,
    refined_region,
    render_svg,
    second_type_discs_of_transpose,
)
from eigenfence import geometry
from eigenfence.render import _march

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


def scene_odd_refinement() -> Scene:
    """Second-type discs under the rasterized odd-size pair intersections
    (the demo figure without its solver-computed markers)."""
    blue = second_type_discs_of_transpose(cases.PERRON7_B)
    turq = refined_region(cases.PERRON7_B)
    return Scene(layers=((blue, BLUE, 1.0), (turq, TURQUOISE, 1.0)))


def seeded_perron(n: int, seed: int) -> tuple[np.ndarray, Eigenpair]:
    """A positive integer matrix with equal row sums s, and its Perron pair
    (s, ones).  The sums are exact, so B is the matrix itself, and the
    legacy generator's stream is fixed across numpy versions."""
    m = np.random.RandomState(seed).randint(1, 21, size=(n, n)).astype(float)
    sums = m.sum(axis=1)
    m[np.diag_indices(n)] += sums.max() - sums
    return m, Eigenpair(float(sums.max()), np.ones(n))


def scene_obr_intersection12() -> Scene:
    """Ostrowski-Brauer intersection of a seeded n = 12 matrix: two tables
    of 66 ovals, the slowest raster of the pictures bench."""
    a, pair = seeded_perron(12, 12)
    return Scene(layers=((cassini_intersection_region(a, pair), TURQUOISE, 1.0),))


def scene_refined_pairs15() -> Scene:
    """Classic, second-type and refined layers of a seeded n = 15 matrix;
    odd n makes the refined region 15 disc pairs."""
    a, _pair = seeded_perron(15, 15)
    return Scene(layers=((classic_discs(a, "columns"), GRAY, 1.0),
                         (second_type_discs_of_transpose(a), BLUE, 1.0),
                         (refined_region(a), TURQUOISE, 1.0)))


SCENES = {
    "disc_comparison": scene_disc_comparison,
    "refined_overlay": scene_refined_overlay,
    "cassini_intersection": scene_cassini_intersection,
    "odd_refinement": scene_odd_refinement,
    "obr_intersection12": scene_obr_intersection12,
    "refined_pairs15": scene_refined_pairs15,
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


@pytest.mark.parametrize("name", ["cassini_intersection", "obr_intersection12", "odd_refinement",
                                  "refined_pairs15"])
def test_raster_tests_under_one_percent_exactly(name):
    # every golden raster (disc pairs at n = 7 and 15, four oval sets at
    # n = 3, two at n = 12): the screen decides all but a thin band of the
    # 257^2 grid, and only that band reaches the exact predicate
    seen, exact = [], geometry._Union.contains_points

    def spy(self, z):
        seen.append(np.size(z))
        return exact(self, z)

    with mock.patch.object(geometry._Union, "contains_points", spy):
        svg = render_svg(SCENES[name]())
    assert svg == (GOLDEN / f"{name}.svg").read_text(encoding="utf-8")
    assert sum(seen) < 0.01 * 257 ** 2


@pytest.mark.parametrize("res", [0, -3, 2.5, True, "256", None])
def test_raster_res_must_be_a_positive_int(res):
    with pytest.raises(ValueError, match="^raster_res must be a positive int"):
        Scene(raster_res=res)


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
    region = refined_region(cases.PERRON7_B)
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
    with pytest.raises(EigenfenceError, match=r"^degenerate viewport \(0\.0, 0\.0, -1\.0, 1\.0\)$"):
        render_svg(scene)
    with pytest.raises(EigenfenceError, match="^nothing to draw and no viewport given$"):
        render_svg(Scene())  # nothing to draw, nothing to fit


def test_viewport_above_the_float_range_is_named():
    far = DiscUnion([[1e308, 0.0], [-1e308, 0.0]])
    with pytest.raises(EigenfenceError, match="^viewport width is above the float range"):
        render_svg(Scene(layers=((far, GRAY, 1.0),)))
    with pytest.raises(EigenfenceError, match="^viewport height is above the float range"):
        render_svg(Scene(viewport=(0.0, 1.0, -1e308, 1e308)))
    # near the top of the range: the center fits, the square grown from the height does not
    svg = render_svg(Scene(viewport=(1.6e308, 1.7e308, 0.0, 1.0), points=((1.65e308, BLACK),)))
    assert 'cx="320.00"' in svg and "nan" not in svg
    with pytest.raises(EigenfenceError, match="^viewport squared to side .* above the float range"):
        render_svg(Scene(viewport=(1.7e308, 1.75e308, 0.0, 2e307)))


def test_layer_order_is_paint_order():
    svg = render_svg(scene_refined_overlay())
    assert svg.index(GRAY) < svg.index(BLUE) < svg.index(TURQUOISE)


# ---------------------------------------------------------------------------
# contour pass: properties that hold for any correct marching squares
# ---------------------------------------------------------------------------

def _padded(rows) -> np.ndarray:
    inner = np.array(rows, dtype=bool)
    grid = np.zeros((inner.shape[0] + 2, inner.shape[1] + 2), dtype=bool)
    grid[1:-1, 1:-1] = inner
    return grid


@st.composite
def padded_grids(draw):
    ny, nx = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    cells = draw(st.lists(st.booleans(), min_size=ny * nx, max_size=ny * nx))
    return _padded(np.reshape(cells, (ny, nx)))


def _crossings(grid) -> list[tuple[float, float]]:
    """(x, y) midpoints of the grid edges whose two ends differ in membership."""
    hy, hx = np.nonzero(grid[:, :-1] != grid[:, 1:])
    vy, vx = np.nonzero(grid[:-1, :] != grid[1:, :])
    return sorted([(x + 0.5, float(y)) for x, y in zip(hx.tolist(), hy.tolist())]
                  + [(float(x), y + 0.5) for x, y in zip(vx.tolist(), vy.tolist())])


def _cells(point) -> set[tuple[int, int]]:
    """Lower-left corners of the unit grid cells whose boundary holds ``point``."""
    def spans(c):
        return {math.floor(c)} if c % 1 else {int(c) - 1, int(c)}
    x, y = point
    return {(cx, cy) for cx in spans(x) for cy in spans(y)}


@settings(max_examples=200, deadline=None)
@given(padded_grids())
@example(_padded([[1, 0], [0, 1]]))                   # saddle code 5
@example(_padded([[0, 1], [1, 0]]))                   # saddle code 10
@example(_padded([[1, 1, 1], [1, 0, 1], [1, 1, 1]]))  # hole
@example(_padded([[1, 0, 1], [0, 0, 0], [1, 1, 0]]))  # several components
@example(_padded([[0]]))                              # nothing inside
def test_march_loops_trace_each_crossing_once(grid):
    loops = _march(grid)
    vertices = sorted(tuple(p) for loop in loops for p in loop.tolist())
    assert vertices == _crossings(grid)
    for loop in loops:
        points = [tuple(p) for p in loop.tolist()]
        assert len(points) >= 4
        # closed: the last vertex steps back to the first within one cell
        for a, b in zip(points, points[1:] + points[:1]):
            assert _cells(a) & _cells(b)
