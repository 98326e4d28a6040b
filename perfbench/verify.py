"""Independent checks of the library's outputs.

Everything here uses the benchmark's own arithmetic on the documented
JSON forms of regions and bound reports; nothing calls the library.  A
point counts as inside a shape when it lies within ``delta`` of it, where
``delta = REL_SLACK * (1 + spectral radius)`` of the problem at hand.
"""

from __future__ import annotations

import copy
import math
import xml.etree.ElementTree as ET

import numpy as np

#: Relative slack of every membership and bound check.
REL_SLACK = 1e-8

#: Relative threshold under which an eigenvector component counts as zero
#: (the library's documented definition of the shear path).
ZERO_FACTOR = 1e-12

_CHUNK = 128


class CheckFailed(Exception):
    """An output that is wrong: a missed eigenvalue, a bound too small, bad SVG."""


def slack(eigs: np.ndarray, lam: float) -> float:
    return REL_SLACK * (1.0 + max(abs(lam), float(np.abs(eigs).max())))


def remaining(eigs: np.ndarray, lam: float) -> np.ndarray:
    """The reference spectrum minus the eigenvalue nearest the known one."""
    return np.delete(eigs, int(np.argmin(np.abs(eigs - lam))))


def residual(a: np.ndarray, lam: float, v: np.ndarray) -> float:
    """Scale-aware eigenpair residual ``max|Av - lam v| / (1 + max|v|)``."""
    return float(np.abs(a @ v - lam * v).max() / (1.0 + np.abs(v).max()))


def det_slack(a: np.ndarray, abs_det: float) -> float:
    """How far a computed ``|det A|`` may lie from the true one.

    ``REL_SLACK`` of ``|det A|``, plus the rounding error of an LU
    determinant: a backward error of ``n eps sigma_1`` moves the determinant
    by at most ``n`` times that, times the product of the ``n - 1`` largest
    singular values.  The second term stays finite when A is singular.
    """
    s = np.linalg.svd(a, compute_uv=False)
    n = s.size
    return REL_SLACK * abs_det + 8.0 * n * n * np.finfo(float).eps * s[0] * float(np.prod(s[:-1]))


def similar(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Reference constant row-sum matrix of ``(A, v)``, as documented.

    Without zero components in v: ``b_ij = a_ij v_j / v_i``.  With k zero
    components: a stable permutation P moves them first, the shear
    ``S = I + u e_k^T`` (u: ones in the first k rows) gives
    ``C = S P A P^T S^-1`` with ``S^-1 = I - u e_k^T``, and ``w = S P v``;
    then B is the diagonal similarity of ``(C, w)``.  Built here from outer
    products, not the library's row and column updates.
    """
    zero = np.abs(v) <= ZERO_FACTOR * np.abs(v).max()
    k = int(zero.sum())
    if k:
        order = np.concatenate([np.nonzero(zero)[0], np.nonzero(~zero)[0]])
        m = a[np.ix_(order, order)]
        u = np.zeros(v.size)
        u[:k] = 1.0
        e = np.zeros(v.size)
        e[k] = 1.0
        mu = m @ u
        a = m + np.outer(u, m[k]) - np.outer(mu, e) - mu[k] * np.outer(u, e)
        v = v[order] + u * v[order][k]
    return a * (v[None, :] / v[:, None])


# ---------------------------------------------------------------------------
# region documents
# ---------------------------------------------------------------------------

def _discs(items) -> tuple[np.ndarray, np.ndarray]:
    return (np.array([d["center"] for d in items], dtype=float),
            np.array([d["radius"] for d in items], dtype=float))


def _chunked(z: np.ndarray, test) -> np.ndarray:
    return np.concatenate([test(z[i:i + _CHUNK, None]) for i in range(0, z.size, _CHUNK)]
                          or [np.zeros(0, dtype=bool)])


def cover_counts(doc: dict, z: np.ndarray, delta: float) -> np.ndarray:
    """Per point, how many primitives of a union cover it (-1 for intersections)."""
    kind = doc.get("kind")
    z = np.asarray(z, dtype=complex).ravel()
    if kind == "disc_union":
        c, r = _discs(doc["discs"])
        return _chunked(z, lambda w: (np.abs(w - c) <= r + delta).sum(axis=1))
    if kind == "pairwise_intersection_union":
        ca, ra = _discs([p[0] for p in doc["pairs"]])
        cb, rb = _discs([p[1] for p in doc["pairs"]])
        return _chunked(z, lambda w: ((np.abs(w - ca) <= ra + delta)
                                      & (np.abs(w - cb) <= rb + delta)).sum(axis=1))
    if kind == "cassini_union":
        c1 = np.array([o["c1"] for o in doc["ovals"]], dtype=float)
        c2 = np.array([o["c2"] for o in doc["ovals"]], dtype=float)
        b = np.array([o["bound"] for o in doc["ovals"]], dtype=float)

        def test(w):
            d1, d2 = np.abs(w - c1), np.abs(w - c2)
            return (d1 * d2 <= b + delta * (d1 + d2) + delta * delta).sum(axis=1)
        return _chunked(z, test)
    if kind == "intersection":
        inside = np.all([covers(p, z, delta) for p in doc["parts"]], axis=0)
        return np.where(inside, -1, 0)
    raise CheckFailed(f"unknown region kind {kind!r}")


def covers(doc: dict, z: np.ndarray, delta: float) -> np.ndarray:
    return cover_counts(doc, z, delta) != 0


def reach(doc: dict) -> float:
    """Largest modulus a region can hold, from its primitives."""
    kind = doc.get("kind")
    if kind == "disc_union":
        c, r = _discs(doc["discs"])
        return float((np.abs(c) + r).max())
    if kind == "pairwise_intersection_union":
        ca, ra = _discs([p[0] for p in doc["pairs"]])
        cb, rb = _discs([p[1] for p in doc["pairs"]])
        return float(np.minimum(np.abs(ca) + ra, np.abs(cb) + rb).max())
    if kind == "cassini_union":
        return max(max(abs(o["c1"]), abs(o["c2"])) + math.sqrt(o["bound"]) for o in doc["ovals"])
    if kind == "intersection":
        return min(reach(p) for p in doc["parts"])
    raise CheckFailed(f"unknown region kind {kind!r}")


def check_region(doc: dict, z: np.ndarray, delta: float, what: str) -> None:
    inside = covers(doc, z, delta)
    if not inside.all():
        miss = complex(np.asarray(z).ravel()[~inside][0])
        raise CheckFailed(f"{what} misses eigenvalue {miss:.6g}")


def second_type_discs(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reference second-type discs of B^T, sorted by center.

    The radius of column j is the top-half minus bottom-half sum of the
    column with its diagonal entry replaced by the mandated 0 (middle entry
    skipped for odd n).
    """
    m = np.array(b, dtype=float)
    n = m.shape[0]
    centers = np.diagonal(m).copy()
    np.fill_diagonal(m, 0.0)
    desc = -np.sort(-m, axis=0)
    half = n // 2
    radii = desc[:half].sum(axis=0) - desc[n - half:].sum(axis=0)
    order = np.lexsort((radii, centers))
    return centers[order], radii[order]


def check_discs(doc: dict, centers: np.ndarray, radii: np.ndarray, scale: float) -> None:
    """The disc union must equal the reference discs, in any order."""
    c, r = _discs(doc["discs"])
    order = np.lexsort((r, c))
    if c.size != centers.size or not (np.allclose(c[order], centers, rtol=1e-9, atol=1e-12 * scale)
                                      and np.allclose(r[order], radii, rtol=1e-9, atol=1e-12 * scale)):
        raise CheckFailed("second-type discs differ from the reference computation")


def check_max_abs(doc: dict, value: float, true_max: float, delta: float) -> None:
    """A reported largest modulus must reach the true one and may not exceed
    the region's own reach."""
    own = reach(doc)
    if value < true_max - delta or value > own * (1.0 + 1e-12) + delta:
        raise CheckFailed(f"max_abs {value:.6g} outside [{true_max:.6g}, {own:.6g}]")


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def check_bounds(reports: list[dict], true_max: float, delta: float,
                 abs_det: float | None = None, det_slack: float = 0.0,
                 known: float | None = None) -> float:
    """Every eigenvalue bound must reach the true largest remaining modulus and
    every determinant bound |det A| (less ``det_slack``).  Returns the
    smallest eigenvalue bound."""
    values = []
    for rep in reports:
        name, value = rep["name"], float(rep["value"])
        if name.startswith("det_"):
            if abs_det is None:
                raise CheckFailed(f"unexpected determinant bound {name}")
            if value < abs_det * (1.0 - 1e-9) - det_slack:
                raise CheckFailed(f"{name} = {value:.6g} below |det A| = {abs_det:.6g}")
        else:
            if value < true_max - delta:
                raise CheckFailed(f"{name} = {value:.6g} below true modulus {true_max:.6g}")
            values.append(value)
        if known is not None and "improves_on_known" in rep:
            if rep["improves_on_known"] != (value < abs(known)):
                raise CheckFailed(f"{name}: improves_on_known is wrong")
    if not values:
        raise CheckFailed("no eigenvalue bound reported")
    return min(values)


def boundary_samples(doc: dict, angles: int = 64) -> np.ndarray:
    """Points on the boundary circles of a disc or disc-pair union that belong
    to the union; a region inside another has all of them inside it."""
    theta = np.exp(2j * np.pi * np.arange(angles) / angles)
    if doc["kind"] == "disc_union":
        c, r = _discs(doc["discs"])
        return (c[:, None] + r[:, None] * theta).ravel()
    if doc["kind"] == "pairwise_intersection_union":
        points = []
        for a, b in doc["pairs"]:
            for near, far in ((a, b), (b, a)):
                ring = near["center"] + near["radius"] * theta
                points.append(ring[np.abs(ring - far["center"]) <= far["radius"]])
        return np.concatenate(points)
    raise CheckFailed(f"no boundary samples for {doc['kind']}")


# ---------------------------------------------------------------------------
# SVG
# ---------------------------------------------------------------------------

def check_svg(text: str, layers: int) -> None:
    try:
        root = ET.fromstring(text.encode("utf-8"))
    except ET.ParseError as exc:
        raise CheckFailed(f"SVG does not parse: {exc}") from exc
    if not root.tag.endswith("svg"):
        raise CheckFailed(f"SVG root is {root.tag}")
    groups = [el for el in root if el.tag.endswith("}g") or el.tag == "g"]
    if len(groups) != layers:
        raise CheckFailed(f"SVG has {len(groups)} layer groups, expected {layers}")


# ---------------------------------------------------------------------------
# planted faults: the verifier must catch a deliberately wrong output
# ---------------------------------------------------------------------------

def _unions(doc: dict):
    """(part index or None, union) for a union or each part of an intersection."""
    if doc.get("kind") == "intersection":
        return list(enumerate(doc["parts"]))
    return [(None, doc)]


def _shrink(union: dict, z: complex, delta: float) -> dict | None:
    """Copy of a union with the one primitive covering z shrunk so z falls out."""
    out = copy.deepcopy(union)
    kind = union["kind"]
    if kind == "cassini_union":
        for oval in out["ovals"]:
            d1, d2 = abs(z - oval["c1"]), abs(z - oval["c2"])
            if d1 * d2 <= oval["bound"] + delta * (d1 + d2) + delta * delta:
                target = d1 * d2 - delta * (d1 + d2) - delta * delta
                if target <= 0.0:
                    return None
                oval["bound"] = target / 2.0
                return out
        return None
    if kind == "disc_union":
        candidates = [[disc] for disc in out["discs"]]
    else:
        candidates = out["pairs"]
    for group in candidates:
        dists = [abs(z - disc["center"]) for disc in group]
        if all(d <= disc["radius"] + delta for d, disc in zip(dists, group)):
            for d, disc in zip(dists, group):
                if d > delta:
                    # now d > radius + delta: z leaves the only shape holding it
                    disc["radius"] = (d - delta) / 2.0
                    return out
            return None
    return None


def _shrink_reach(union: dict) -> dict | None:
    """Copy of a disc or disc-pair union with the radius that sets its reach halved."""
    out = copy.deepcopy(union)
    if union.get("kind") == "disc_union":
        discs = out["discs"]
        best = max(discs, key=lambda d: abs(d["center"]) + d["radius"])
    elif union.get("kind") == "pairwise_intersection_union":
        best = max((min(pair, key=lambda d: abs(d["center"]) + d["radius"]) for pair in out["pairs"]),
                   key=lambda d: abs(d["center"]) + d["radius"])
    else:
        return None
    if best["radius"] <= 0.0:
        return None
    best["radius"] /= 2.0
    return out


def _rejects(check) -> bool:
    try:
        check()
    except CheckFailed:
        return True
    return False


def planted_region_fault(doc: dict, z: np.ndarray, delta: float,
                         reported: float | None = None, true_max: float = 0.0) -> bool | None:
    """Shrink one radius (or oval bound) in a copy of ``doc`` and confirm the
    verifier rejects the copy.

    The radius is that of the only primitive covering some eigenvalue, so
    :func:`check_region` must fail.  When every eigenvalue is covered twice
    or more and the library reported ``max_abs`` for the region, the radius
    that sets the reach is halved instead, and :func:`check_max_abs` must
    fail.  None when neither fault can be planted.
    """
    z = np.asarray(z, dtype=complex).ravel()
    for index, union in _unions(doc):
        counts = cover_counts(union, z, delta)
        for point in sorted(z[counts == 1], key=abs, reverse=True):
            part = _shrink(union, complex(point), delta)
            if part is None:
                continue
            faulty = part if index is None else dict(doc, parts=[
                part if i == index else p for i, p in enumerate(doc["parts"])])
            return _rejects(lambda: check_region(faulty, z, delta, "planted fault"))
    if reported is not None:
        faulty = _shrink_reach(doc)
        if faulty is not None:
            return _rejects(lambda: check_max_abs(faulty, reported, true_max, delta))
    return None


def planted_bound_fault(reports: list[dict], true_max: float, delta: float) -> bool:
    """Shrink the smallest eigenvalue bound below the truth and confirm
    :func:`check_bounds` rejects the copy."""
    faulty = copy.deepcopy([r for r in reports if not r["name"].startswith("det_")])
    low = min(faulty, key=lambda r: r["value"])
    low["value"] = 0.5 * true_max - 2.0 * delta
    return _rejects(lambda: check_bounds(faulty, true_max, delta))


def planted_det_fault(reports: list[dict], true_max: float, delta: float,
                      abs_det: float, slack: float) -> bool | None:
    """Lower the smallest determinant bound to half of what |det A| allows
    and confirm :func:`check_bounds` rejects the copy.  None when |det A| is
    within its slack of 0, so that no bound can be too small."""
    floor = abs_det * (1.0 - 1e-9) - slack
    dets = [r for r in reports if r["name"].startswith("det_")]
    if floor <= 0.0 or not dets:
        return None
    faulty = copy.deepcopy(reports)
    low = min((r for r in faulty if r["name"].startswith("det_")), key=lambda r: r["value"])
    low["value"] = 0.5 * floor
    return _rejects(lambda: check_bounds(faulty, true_max, delta, abs_det=abs_det, det_slack=slack))
