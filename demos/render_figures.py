"""Draw the regions to SVG files under demos/out/.

Layer order is paint order: classic region in gray at the bottom, the
second-type region in blue, refinements in turquoise, eigenvalues as dots.
Rendering is deterministic: the same scene always yields the same bytes.
"""

from pathlib import Path

import numpy as np

import eigenfence as ef

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)


def save(name, scene):
    path = OUT / name
    path.write_text(ef.render_svg(scene), encoding="utf-8", newline="")
    print("wrote", path)


# ---- 6x6 Perron problem: classic vs second-type vs refined ------------------

A = np.array([
    [10, 4, 8, 4, 6, 6],
    [2, 6, 6, 2, 4, 2],
    [1, 4, 8, 4, 2, 4],
    [0, 6, 8, 4, 0, 6],
    [4, 4, 6, 0, 2, 4],
    [1, 4, 6, 2, 4, 6]], dtype=float)
pair = ef.Eigenpair(24.0, np.array([2, 1, 1, 1, 1, 1], dtype=float))

B = ef.diag_similar(A, pair).B
points = tuple((complex(z), ef.BLACK) for z in ef.eigenvalues(A))

save("disc_comparison.svg", ef.Scene(
    layers=((ef.classic_discs(A, "columns"), ef.GRAY, 1.0),
            (ef.second_type_discs_of_transpose(B), ef.BLUE, 1.0)),
    points=points))

save("refined_overlay.svg", ef.Scene(
    layers=((ef.classic_discs(A, "columns"), ef.GRAY, 1.0),
            (ef.second_type_discs_of_transpose(B), ef.BLUE, 1.0),
            (ef.refined_region(B), ef.TURQUOISE, 1.0)),
    points=points))

# ---- odd-size refinement: pairwise intersections need rasterization ---------

A7 = np.array([
    [2, 3, 6, 9, 6, 6, 6],
    [2, 2, 4, 0, 4, 6, 6],
    [0, 1, 3, 2, 4, 2, 2],
    [2, 1, 2, 0, 2, 1, 2],
    [1, 2, 1, 3, 0, 3, 1],
    [2, 0, 1, 3, 1, 4, 0],
    [0, 3, 3, 2, 1, 2, 1]], dtype=float)
pair7 = ef.Eigenpair(15.0, np.array([3, 2, 1, 1, 1, 1, 1], dtype=float))
B7 = ef.diag_similar(A7, pair7).B

save("odd_refinement.svg", ef.Scene(
    layers=((ef.second_type_discs_of_transpose(B7), ef.BLUE, 1.0),
            (ef.refined_region(B7), ef.TURQUOISE, 1.0)),
    points=tuple((complex(z), ef.BLACK) for z in ef.eigenvalues(A7))))

# ---- four-way Cassini intersection -------------------------------------------

A2 = np.array([[12, 6, 6], [3, 3, 18], [8, 8, 8]], dtype=float)
region = ef.cassini_intersection_region(A2, ef.Eigenpair(24.0, np.ones(3)))
save("cassini_intersection.svg", ef.Scene(
    layers=((region, ef.TURQUOISE, 1.0),),
    points=((-6 + 0j, ef.YELLOW), (5 + 0j, ef.YELLOW))))
