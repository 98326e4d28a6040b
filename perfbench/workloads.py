"""Inputs and requests of the four workloads.

Each workload is a fixed cycle of request shapes (size, input class,
subcommand or scene); the seed only draws the numbers.  Runs execute whole
cycles, so every run sees the same mix of shapes and the latency quantiles
land on the same shapes from run to run.  Five equally weighted shapes put
p50 in the middle of the third-slowest shape and p90 in the middle of the
slowest one.

:func:`generate` runs in the parent process: it draws the matrices and
computes the reference spectra with numpy, and writes them to a work
directory.  :func:`load` runs in the measuring process and returns a
:class:`Workload` whose ``run`` is the timed request and whose ``check``
verifies the output with :mod:`verify`.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from collections import Counter

import numpy as np

import verify

REGIONS_SIZES = (256, 385, 512, 769, 1024)
#: Regions sizes whose base has an eigenvector with exact zeros (shear path).
#: They are the odd sizes, so the parity offset of the scaling fit takes up
#: the cost of the shear.
REGIONS_SHEAR = (385, 769)
BOUNDS_SIZES = (128, 144, 160, 192, 256)
BOUNDS_KS = (1, 2, 3)
PICTURE_SHAPES = ((16, "layers"), (5, "cassini"), (9, "layers"), (12, "cassini"), (15, "layers"))
PICTURE_POOL = 200
DESK_COMMANDS = (("validate",), ("locate", "--classic"), ("refine",),
                 ("bound", "--k", "3", "--det"), ("obr",))
DESK_CLASSES = ("perron", "rowsum", "shear")
#: The class of the gate probe (see :meth:`Desk.gate_probe`), which runs
#: outside the timed loop.
GATE_CLASS = "solver_accuracy"
DESK_PER_CLASS = 24
DESK_SIZES = range(3, 25)
#: A copy of the repository's demo problems, so that desk's inputs stay
#: fixed when the demos change.
PROBLEMS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "problems")

#: Requests a run makes at least (rounded up to whole cycles), so that ten
#: samples lie beyond p90; fence_ratio is taken over exactly these requests.
MIN_REQUESTS = 100

WORKLOADS = ("desk", "regions", "bounds", "pictures")
BASE_SEED = 20200622


class RequestFailed(Exception):
    """The CLI refused a request with a non-zero exit."""


# ---------------------------------------------------------------------------
# generation (parent process)
# ---------------------------------------------------------------------------

def _perron(a: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Perron root, Perron vector (max component 1) and spectrum, by a dense solve."""
    w, vecs = np.linalg.eig(a)
    i = int(np.argmax(w.real))
    v = vecs[:, i].real
    v = v / v[np.argmax(np.abs(v))]
    return float(w[i].real), v, w


def _positive(rng, n: int) -> np.ndarray:
    return rng.random((n, n)) + 0.05


def _block_triangular(rng, n: int, k: int) -> tuple[np.ndarray, float, np.ndarray]:
    """Block lower-triangular A whose eigenvector (0, w) has k exact zeros,
    where A22 w = lam w is A22's Perron pair: the shear path."""
    a = np.zeros((n, n))
    a[:k, :k] = _positive(rng, k)
    a[k:, :k] = rng.random((n - k, k))
    a[k:, k:] = _positive(rng, n - k)
    lam, w, _ = _perron(a[k:, k:])
    return a, lam, np.concatenate([np.zeros(k), w])


def _desk_problem(rng, cls: str, n: int) -> tuple[np.ndarray, float, np.ndarray]:
    if cls == "perron":
        a = _positive(rng, n)
        lam, v, _ = _perron(a)
        return a, lam, v
    if cls == "rowsum":
        a = rng.integers(-9, 10, (n, n)).astype(float)
        s = float(rng.integers(-20, 21))
        a[:, -1] = s - a[:, :-1].sum(axis=1)
        return a, s, np.ones(n)
    if cls == "shear":
        return _block_triangular(rng, n, int(rng.integers(1, max(1, n // 3) + 1)))
    if cls == "solver_accuracy":
        # a Perron pair as a solver returns it: absolute error ~1e-11 and a
        # scaling condition max|v|/min|v| of up to 1e2; every one passes validate
        while True:
            d = np.exp(rng.uniform(0.0, math.log(100.0), n))
            a = _positive(rng, n) * (d[:, None] / d[None, :])
            lam, v, _ = _perron(a)
            v = v + 1e-11 * rng.choice((-1.0, 1.0), n)
            if np.abs(v).max() / np.abs(v).min() <= 1e2 and verify.residual(a, lam, v) <= 1e-9:
                return a, lam, v
    raise ValueError(cls)


def _desk(base_rng, rng, workdir: str) -> list[dict]:
    """The problems come from ``base_rng``; the seed's ``rng`` permutes
    each timed one (a similarity that keeps the spectrum and the fences).
    The gate probe's problems are not permuted, so its count is the same
    for every seed."""
    problems = []
    for c, cls in enumerate((*DESK_CLASSES, GATE_CLASS)):
        for m in range(DESK_PER_CLASS):
            n = DESK_SIZES[(5 * m + 3 * c) % len(DESK_SIZES)]
            a, lam, v = _desk_problem(base_rng, cls, n)
            if cls != GATE_CLASS:
                p = rng.permutation(n)
                a, v = a[np.ix_(p, p)], v[p]
            path = os.path.join(workdir, f"{cls}_{m:02d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"matrix": a.tolist(), "eigenvalue": lam, "eigenvector": v.tolist()}, fh)
            problems.append({"cls": cls, "path": path})
    for name in sorted(os.listdir(PROBLEMS_DIR)):
        problems.append({"cls": "demo", "path": os.path.join(PROBLEMS_DIR, name)})
    for prob in problems:
        # reference data from the numbers exactly as the CLI will read them
        with open(prob["path"], encoding="utf-8") as fh:
            doc = json.load(fh)
        a = np.array(doc["matrix"], dtype=float)
        abs_det = abs(float(np.linalg.det(a)))
        prob.update(n=a.shape[0], lam=float(doc["eigenvalue"]),
                    v=np.array(doc["eigenvector"], dtype=float),
                    eigs=np.linalg.eigvals(a), abs_det=abs_det, det_slack=verify.det_slack(a, abs_det),
                    bytes=os.path.getsize(prob["path"]))
        prob["residual"] = verify.residual(a, prob["lam"], prob["v"])
    return problems


def _bases(rng, sizes, shear=()) -> list[dict]:
    problems = []
    for n in sizes:
        if n in shear:
            a, lam, v = _block_triangular(rng, n, n // 4)
            w = np.linalg.eigvals(a)
        else:
            a = rng.random((n, n))
            lam, v, w = _perron(a)
        problems.append({"cls": f"{'shear' if n in shear else 'n'}{n}", "n": n, "shear": n in shear,
                         "A": a, "lam": lam, "v": v, "eigs": w})
    return problems


def _pictures(rng) -> list[dict]:
    problems = []
    for j in range(PICTURE_POOL):
        n, scene = PICTURE_SHAPES[j % len(PICTURE_SHAPES)]
        a = _positive(rng, n)
        lam, v, w = _perron(a)
        problems.append({"cls": f"{scene}{n}", "n": n, "scene": scene,
                         "A": a, "lam": lam, "v": v, "eigs": w})
    return problems


def generate(name: str, seed: int, workdir: str) -> None:
    """Draw the workload's inputs and reference spectra into ``workdir``."""
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    # the problems do not depend on the seed, so fence_ratio and the work
    # per request stay put; the seed draws each desk problem's or each
    # request's similarity (see _desk and _Similar)
    base_rng = np.random.default_rng([BASE_SEED, WORKLOADS.index(name)])
    if name == "desk":
        problems = _desk(base_rng, rng, workdir)
    elif name == "regions":
        problems = _bases(base_rng, REGIONS_SIZES, REGIONS_SHEAR)
    elif name == "bounds":
        problems = _bases(base_rng, BOUNDS_SIZES)
    else:
        problems = _pictures(base_rng)
    arrays, manifest = {}, []
    for i, prob in enumerate(problems):
        entry = {}
        for key, value in prob.items():
            if isinstance(value, np.ndarray):
                arrays[f"{i}_{key}"] = value
            else:
                entry[key] = value
        manifest.append(entry)
    np.savez(os.path.join(workdir, "arrays.npz"), **arrays)
    with open(os.path.join(workdir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "seed": seed, "problems": manifest}, fh)


# ---------------------------------------------------------------------------
# requests (measuring process)
# ---------------------------------------------------------------------------

class Workload:
    """A cycle of request shapes over loaded problems.

    ``inputs(i)`` builds request i outside the timed path, ``run`` is the
    timed request, ``check`` verifies its output and returns the request's
    fence ratios, and ``plant`` runs the planted-fault self-check on it.
    ``reference`` names the reference kernel that does the same kind of work
    as the requests (see ``worker.REFERENCES``).
    """

    cycle = 5
    reference = "loop"

    def __init__(self, seed: int, problems: list[dict]):
        self.seed = seed
        self.problems = problems
        for prob in problems:
            prob["rest"] = verify.remaining(prob["eigs"], prob["lam"])
            prob["delta"] = verify.slack(prob["eigs"], prob["lam"])
            prob["true_max"] = float(np.abs(prob["rest"]).max()) if prob["rest"].size else 0.0

    @property
    def min_requests(self) -> int:
        return -(-MIN_REQUESTS // self.cycle) * self.cycle

    def inputs(self, i: int) -> dict:
        prob = self.problems[i % len(self.problems)]
        return {"prob": prob, "n": prob["n"], "cls": prob["cls"],
                "A": prob["A"], "lam": prob["lam"], "v": prob["v"]}

    def gate_probe(self, ef) -> tuple[dict, list[str]]:
        """Untimed requests that count a known defect; only ``desk`` has them."""
        return {"problems": 0, "requests": 0, "defects": 0, "by_command": {}}, []

    def _ratios(self, prob: dict, fences: list[float]) -> list[float]:
        return [f / prob["true_max"] for f in fences if prob["true_max"] > prob["delta"]]


class _Similar(Workload):
    """Each request is a fresh diagonal similarity (entries in [0.5, 2])
    plus a permutation of a base matrix, so inputs are distinct while the
    reference spectrum stays known."""

    def inputs(self, i: int) -> dict:
        prob = self.problems[i % len(self.problems)]
        rng = np.random.default_rng([self.seed, 1 + i])
        n = prob["n"]
        p = rng.permutation(n)
        d = rng.uniform(0.5, 2.0, n)
        a = prob["A"][np.ix_(p, p)] * (d[:, None] / d[None, :])
        return {"prob": prob, "n": n, "cls": prob["cls"], "A": a,
                "lam": prob["lam"], "v": prob["v"][p] * d}


class Regions(_Similar):
    def run(self, ef, inp):
        a, lam, v = inp["A"], inp["lam"], inp["v"]
        pair = ef.Eigenpair(lam, v)
        if inp["prob"]["shear"]:
            d = ef.desingularize(a, pair)
            sim = ef.diag_similar(d.C, ef.Eigenpair(lam, d.w))
        else:
            sim = ef.diag_similar(a, pair)
        b = sim.B
        second = ef.second_type_discs_of_transpose(b)
        if b.shape[0] % 2 == 0:
            ef.refine_even(b)
        else:
            ef.refine_odd(b)
        refined = ef.refined_region(b)
        rest = inp["prob"]["rest"]
        return {"second": second, "refined": refined,
                "max_abs": (ef.max_abs(second).value, ef.max_abs(refined).value),
                "inside": (second.contains_points(rest), refined.contains_points(rest))}

    def docs(self, out) -> list[dict]:
        return [out["second"].to_json(), out["refined"].to_json()]

    def check(self, inp, out) -> list[float]:
        prob = inp["prob"]
        rest, delta = prob["rest"], prob["delta"]
        docs = self.docs(out)
        # membership alone would miss radii that are too small: at these n
        # every eigenvalue lies deep inside the discs
        ref_c, ref_r = verify.second_type_discs(verify.similar(inp["A"], inp["v"]))
        verify.check_discs(docs[0], ref_c, ref_r, 1.0 + prob["lam"])
        fences = []
        for doc, lib_max, inside in zip(docs, out["max_abs"], out["inside"]):
            verify.check_region(doc, rest, delta, doc["kind"])
            if not np.all(inside):
                raise verify.CheckFailed(f"library membership rejects an eigenvalue of {doc['kind']}")
            verify.check_max_abs(doc, lib_max, prob["true_max"], delta)
            fences.append(verify.reach(doc))
        return self._ratios(prob, fences)

    def plant(self, inp, out) -> list[bool]:
        prob = inp["prob"]
        found = (verify.planted_region_fault(doc, prob["rest"], prob["delta"], lib_max, prob["true_max"])
                 for doc, lib_max in zip(self.docs(out), out["max_abs"]))
        return [f for f in found if f is not None]


class Bounds(_Similar):
    # the n^3 temporaries of tau1 make these requests memory-bound
    reference = "stream"

    def run(self, ef, inp):
        pair = ef.Eigenpair(inp["lam"], inp["v"])
        return ef.standard_reports(inp["A"], pair, ks=BOUNDS_KS)

    def check(self, inp, out) -> list[float]:
        prob = inp["prob"]
        best = verify.check_bounds([r.to_json() for r in out], prob["true_max"], prob["delta"])
        return self._ratios(prob, [best])

    def plant(self, inp, out) -> list[bool]:
        prob = inp["prob"]
        return [verify.planted_bound_fault([r.to_json() for r in out], prob["true_max"], prob["delta"])]


class Pictures(_Similar):
    def run(self, ef, inp):
        a = inp["A"]
        pair = ef.Eigenpair(inp["lam"], inp["v"])
        obr = ef.cassini_intersection_region(a, pair)
        b = ef.diag_similar(a, pair).B
        second = ef.second_type_discs_of_transpose(b)
        refined = ef.refined_region(b)
        subset = ef.sampled_subset(refined, second)
        obr_json = json.dumps(ef.region_to_json(obr))
        if inp["prob"]["scene"] == "layers":
            classic = ef.classic_discs(a, "columns")
            layers = ((classic, ef.GRAY, 1.0), (second, ef.BLUE, 1.0), (refined, ef.TURQUOISE, 1.0))
        else:
            classic = None
            layers = ((obr, ef.TURQUOISE, 1.0),)
        points = tuple((complex(z), ef.BLACK) for z in inp["prob"]["eigs"])
        svg = ef.render_svg(ef.Scene(layers=layers, points=points))
        return {"obr_json": obr_json, "second": second, "refined": refined,
                "classic": classic, "subset": subset.is_subset, "svg": svg, "layers": len(layers)}

    def docs(self, out) -> list[dict]:
        return [json.loads(out["obr_json"]), out["second"].to_json(), out["refined"].to_json()]

    def check(self, inp, out) -> list[float]:
        prob = inp["prob"]
        rest, delta = prob["rest"], prob["delta"]
        docs = self.docs(out)
        for doc in docs:
            verify.check_region(doc, rest, delta, doc["kind"])
        if out["classic"] is not None:
            verify.check_region(out["classic"].to_json(), prob["eigs"], delta, "classic discs")
        if not out["subset"]:
            raise verify.CheckFailed("refined region reported outside the second-type region")
        _obr, second, refined = docs
        verify.check_region(second, verify.boundary_samples(refined), delta,
                            "second-type region around the refined boundary")
        verify.check_svg(out["svg"], out["layers"])
        return self._ratios(prob, [verify.reach(doc) for doc in docs])

    def plant(self, inp, out) -> list[bool]:
        prob = inp["prob"]
        docs = self.docs(out)
        found = [verify.planted_region_fault(doc, prob["rest"], prob["delta"]) for doc in docs]
        # the refined region must stay inside the second-type one: shrink a
        # second-type disc that alone holds a refined boundary point
        found.append(verify.planted_region_fault(docs[1], verify.boundary_samples(docs[2]), prob["delta"]))
        return [f for f in found if f is not None]


class Desk(Workload):
    """In-process CLI calls; slot i runs command i mod 5 on problem i // 5."""

    def __init__(self, seed: int, problems: list[dict]):
        super().__init__(seed, problems)
        self.gate = [p for p in problems if p["cls"] == GATE_CLASS]
        self.problems = [p for p in problems if p["cls"] != GATE_CLASS]

    @property
    def cycle(self) -> int:
        return len(DESK_COMMANDS) * len(self.problems)

    def inputs(self, i: int) -> dict:
        cmd = DESK_COMMANDS[i % len(DESK_COMMANDS)]
        prob = self.problems[(i // len(DESK_COMMANDS)) % len(self.problems)]
        return self._input(prob, cmd)

    @staticmethod
    def _input(prob: dict, cmd: tuple) -> dict:
        return {"prob": prob, "n": prob["n"], "cls": prob["cls"], "cmd": cmd[0],
                "argv": [cmd[0], os.path.relpath(prob["path"]), *cmd[1:]],
                "bytes_in": prob["bytes"]}

    def gate_probe(self, ef) -> tuple[dict, list[str]]:
        """The gate defect of ROADMAP item 4, counted outside the timed loop.

        Runs every command once on each solver-accuracy problem (all of
        which ``validate`` must accept) and counts the later commands that
        exit non-zero or raise anyway.  Returns those counts per command and
        the wrong answers; a refused ``validate`` is a wrong answer.  The
        timed loop holds no such problem, so its requests do not fail.
        """
        defects, wrong = Counter(), []
        for prob in self.gate:
            for cmd in DESK_COMMANDS:
                inp = self._input(prob, cmd)
                try:
                    self.check(inp, self.run(ef, inp))
                except verify.CheckFailed as exc:
                    wrong.append(f"{GATE_CLASS} {cmd[0]}: {exc}")
                except Exception as exc:  # noqa: BLE001  (a refusal or a raised error)
                    if cmd[0] == "validate":
                        wrong.append(f"{GATE_CLASS} validate refused a valid pair: {exc}")
                    else:
                        defects[f"{cmd[0]} {str(exc).split(':')[0]}"] += 1
        return {"problems": len(self.gate), "requests": len(self.gate) * len(DESK_COMMANDS),
                "defects": sum(defects.values()), "by_command": dict(defects)}, wrong

    def run(self, ef, inp):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = ef.cli.main(inp["argv"])
        return code, out.getvalue(), err.getvalue()

    def _parse(self, inp, out) -> tuple[object, list[dict]]:
        """The command's JSON output and the regions in it."""
        code, stdout, stderr = out
        if code != 0:
            last = stderr.strip().splitlines()[-1:] or [""]
            raise RequestFailed(f"exit {code}: {last[0][:120]}")
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError as exc:
            raise verify.CheckFailed(f"{inp['cmd']} printed invalid JSON: {exc}") from exc
        regions = {"locate": lambda: [doc["second_type"]], "refine": lambda: [doc["region"]],
                   "obr": lambda: [doc]}.get(inp["cmd"], list)()
        return doc, regions

    def check(self, inp, out) -> list[float]:
        prob = inp["prob"]
        rest, delta = prob["rest"], prob["delta"]
        doc, regions = self._parse(inp, out)
        cmd = inp["cmd"]
        if cmd == "validate":
            if doc["valid"] is not True or not math.isclose(
                    doc["residual"], prob["residual"], rel_tol=1e-6, abs_tol=1e-18):
                raise verify.CheckFailed(f"validate residual {doc['residual']} != {prob['residual']}")
            return []
        if cmd == "bound":
            best = verify.check_bounds(doc, prob["true_max"], delta, abs_det=prob["abs_det"],
                                       det_slack=prob["det_slack"], known=prob["lam"])
            return self._ratios(prob, [best])
        if cmd == "locate":
            for key in ("classic_columns", "classic_rows"):
                verify.check_region(doc[key], prob["eigs"], delta, key)
        if cmd == "refine" and doc["row_sum"] != prob["lam"]:
            raise verify.CheckFailed(f"refine row_sum {doc['row_sum']} != {prob['lam']}")
        for region in regions:
            verify.check_region(region, rest, delta, f"{cmd} region")
        return self._ratios(prob, [verify.reach(r) for r in regions])

    def plant(self, inp, out) -> list[bool]:
        prob = inp["prob"]
        doc, regions = self._parse(inp, out)
        found = [verify.planted_region_fault(r, prob["rest"], prob["delta"]) for r in regions]
        if inp["cmd"] == "bound":
            found.append(verify.planted_bound_fault(doc, prob["true_max"], prob["delta"]))
            found.append(verify.planted_det_fault(doc, prob["true_max"], prob["delta"],
                                                  prob["abs_det"], prob["det_slack"]))
        return [f for f in found if f is not None]


def load(name: str, workdir: str) -> Workload:
    """Read what :func:`generate` wrote and return the workload."""
    with open(os.path.join(workdir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    with np.load(os.path.join(workdir, "arrays.npz")) as data:
        arrays = {key: data[key] for key in data.files}
    problems = []
    for i, entry in enumerate(manifest["problems"]):
        prob = dict(entry)
        prefix = f"{i}_"
        for key, value in arrays.items():
            if key.startswith(prefix):
                prob[key[len(prefix):]] = value
        problems.append(prob)
    kind = {"desk": Desk, "regions": Regions, "bounds": Bounds, "pictures": Pictures}[name]
    return kind(manifest["seed"], problems)
