"""The three benchmark workloads and their correctness checks.

Each workload is built once (its constructor) and then runs one
operation at a time (`op`), a closed loop from a single process.  An operation returns
the invariants it computed and a list of (check, ok, detail) triples; a
failed check marks the operation failed and the run goes on.

Workloads, and why each was chosen:

* ``hopf-l3``: ``quanthom invariant --map hopf --structure hopf:n=1
  --level 3`` through ``quanthom.cli.main``.  One operation builds a
  fresh S^3 level-3 mesh (76,544 edges: the Jacobi-CG side of
  ``hodge._MassSolver.DIRECT_LIMIT``) and evaluates the invariant, with a
  Whitney cochain factor in the wedge.  Solver and mesh work dominate; it
  has no random input, so the seed does not change it.
* ``scaling-sweeps``: the two acceptance scaling configs through
  ``harness.run_scaling``: 22 mesh builds of 4 distinct meshes and 6 Hodge
  operators on the sparse-LU side of the limit.  A mesh or operator cache
  shows here and not on ``hopf-l3``.
* ``no-solve``: degrees on one S^2 mesh, rotated Sobolev seminorms, a
  Hoelder estimate, the small-BMO probe and the Gauss-linking oracle.  It
  never calls d^{-1}, so a solver or assembly change must not move it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from quanthom import cli, geometry, harness, invariants, linking, seminorms
from quanthom.maps import compose_with_isometry, parse_map_spec

# Seeds of the acceptance configs: circle sweep, Hopf sweep, BMO probe,
# rotated Sobolev (also the Hoelder estimate), BMO reference.  Linking
# uses preimage-start seed 0 and the regular values +-e1 at workload
# seed 0, as the acceptance test does.
DEFAULT_SEEDS = {"circle": 7, "hopf": 11, "bmo": 5, "sobolev": 4,
                 "bmo_reference": 1, "rotations": 100, "linking": 0}
SEED_STRIDE = 100_003


def derived_seeds(seed: int) -> dict:
    """Every random input of a workload, derived from its seed."""
    return {k: v + SEED_STRIDE * seed for k, v in DEFAULT_SEEDS.items()}


def regular_value(seed: int) -> np.ndarray:
    """Regular value p of the linking maps; the pair is (p, -p).

    Seed 0 gives e1.  Otherwise p is drawn away from the poles, which are
    the critical values of the suspension maps.
    """
    if seed == 0:
        return np.array([1.0, 0.0, 0.0])
    rng = np.random.default_rng([seed, 2024])
    z = rng.uniform(-0.5, 0.5)
    phi = rng.uniform(0.0, 2.0 * np.pi)
    r = np.sqrt(1.0 - z * z)
    return np.array([r * np.cos(phi), r * np.sin(phi), z])


@dataclass(frozen=True)
class Size:
    """Problem sizes and the accuracy each size reaches."""
    hopf_level: int
    hopf_int_tol: float
    circle_sweep: str
    circle_levels: str
    circle_samples: int
    hopf_sweep: str
    hopf_levels: str
    hopf_samples: int
    s2_level: int
    degree_tol: float
    antipodal_tol: float
    sobolev_samples: int
    holder_samples: int
    bmo_level: int
    linking_points: int
    linking_tol: tuple


SIZES = {
    "full": Size(hopf_level=3, hopf_int_tol=0.01,
                 circle_sweep="1..8", circle_levels="6,7",
                 circle_samples=200_000,
                 hopf_sweep="1..3", hopf_levels="1,2", hopf_samples=150_000,
                 s2_level=5, degree_tol=1e-3, antipodal_tol=1e-4,
                 sobolev_samples=150_000, holder_samples=20_000,
                 bmo_level=3, linking_points=2000, linking_tol=(1e-3, 4e-3)),
    # self-test sizes: the same code paths in a few seconds
    "tiny": Size(hopf_level=1, hopf_int_tol=0.06,
                 circle_sweep="1..3", circle_levels="4",
                 circle_samples=20_000,
                 hopf_sweep="1..2", hopf_levels="1", hopf_samples=20_000,
                 s2_level=3, degree_tol=2e-2, antipodal_tol=1e-2,
                 sobolev_samples=20_000, holder_samples=4_000,
                 bmo_level=2, linking_points=400, linking_tol=(2e-2, 8e-2)),
}

CIRCLE_SWEEP = """
[experiment]
kind = scaling
structure = winding
map = circle-power:d={{d}}
sweep = d={sweep}
beta = 9/10
levels = {levels}
seminorm = sobolev
samples = {samples}
seed = {seed}
"""

HOPF_SWEEP = """
[experiment]
kind = scaling
structure = hopf:n=1
map = compose:suspension:d={{d}}|hopf
sweep = d={sweep}
beta = 4/5
levels = {levels}
seminorm = sobolev
samples = {samples}
seed = {seed}
"""

BMO_PROBE = """
[experiment]
kind = bmo
structure = degree:s2
map = perturb:eps={{eps}},m=3|const:n=2
sweep = eps=0.02,0.05,0.1
beta = 1
levels = {level}
seed = {seed}
"""

# slope limits of the acceptance test: exponent * SLOPE_MARGIN
CIRCLE_SLOPE_MAX = float(Fraction(10, 9)) * 1.15
HOPF_SLOPE_MAX = 5.0 * 1.15


def _check(name, ok, detail=""):
    return (name, bool(ok), detail)


class HopfL3:
    name = "hopf-l3"

    def __init__(self, seed: int, size: Size, out_dir: str):
        self.size = size
        self.argv = ["invariant", "--map", "hopf", "--structure", "hopf:n=1",
                     "--level", str(size.hopf_level)]

    def op(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(self.argv)
        out = json.loads(buf.getvalue())
        stats = list(out["residuals"].values())
        residual = max(s["residual"] for s in stats)
        closed = max(s["closedness"] for s in stats)
        checks = [
            _check("exit code 0", code == 0, code),
            _check("nearest integer 1", out["nearest_int"] == 1,
                   out["nearest_int"]),
            _check(f"int_distance < {self.size.hopf_int_tol}",
                   out["int_distance"] < self.size.hopf_int_tol,
                   out["int_distance"]),
            _check("solver residual <= 1e-9", residual <= 1e-9, residual),
            _check("closedness <= 1e-3", closed <= 1e-3, closed),
        ]
        return {"hopf": out["value"]}, {}, checks


def _strip_timestamp(text: str) -> str:
    return re.sub(r'"timestamp": "[^"]*"', '"timestamp": ""', text)


class ScalingSweeps:
    name = "scaling-sweeps"

    def __init__(self, seed: int, size: Size, out_dir: str):
        s = derived_seeds(seed)
        self.out_dir = out_dir
        self.configs = {
            "circle": harness.ExperimentConfig.from_string(CIRCLE_SWEEP.format(
                sweep=size.circle_sweep, levels=size.circle_levels,
                samples=size.circle_samples, seed=s["circle"])),
            "hopf": harness.ExperimentConfig.from_string(HOPF_SWEEP.format(
                sweep=size.hopf_sweep, levels=size.hopf_levels,
                samples=size.hopf_samples, seed=s["hopf"])),
        }
        self.slope_max = {"circle": CIRCLE_SLOPE_MAX, "hopf": HOPF_SLOPE_MAX}

    def _same_as_before(self, report) -> tuple:
        """Compare the JSON report with the one an earlier run (or
        operation) wrote for this config and this source tree."""
        key = hashlib.sha256(json.dumps(report.config, sort_keys=True)
                             .encode()).hexdigest()[:16]
        path = os.path.join(self.out_dir, f"{key}.json")
        fresh = path + ".new"
        harness.emit_report(report, "json", fresh)
        with open(fresh) as fh:
            text = _strip_timestamp(fh.read())
        if not os.path.exists(path):
            os.replace(fresh, path)
            return True, "recorded (first run of this config)"
        with open(path) as fh:
            before = _strip_timestamp(fh.read())
        os.remove(fresh)
        return text == before, "byte-identical" if text == before else "differs"

    def op(self):
        values, checks = {}, []
        for name, cfg in self.configs.items():
            rep = harness.run_scaling(cfg)
            block = rep.blocks[0]
            checks.append(_check(f"{name} sweep passed", rep.passed))
            checks.append(_check(
                f"{name} slope <= {self.slope_max[name]:.4f}",
                block.slope is not None and block.slope <= self.slope_max[name],
                block.slope))
            ok, detail = self._same_as_before(rep)
            checks.append(_check(f"{name} report reproducible", ok, detail))
            for row in block.rows:
                values[row.map_spec] = row.invariant
        return values, {}, checks


class NoSolve:
    name = "no-solve"

    def __init__(self, seed: int, size: Size, out_dir: str):
        s = derived_seeds(seed)
        self.size = size
        self.seeds = s
        self.degree_maps = [(d, parse_map_spec(f"suspension:d={d}"))
                            for d in range(1, 6)]
        self.antipodal = parse_map_spec("antipodal:n=2")
        base = parse_map_spec("suspension:d=2")
        self.rotated = [compose_with_isometry(
            base, seminorms.random_rotation(3, seed=s["rotations"] + k))
            for k in range(5)]
        self.holder_map = base
        self.bmo_config = harness.ExperimentConfig.from_string(
            BMO_PROBE.format(level=size.bmo_level, seed=s["bmo"]))
        self.bmo_reference_map = parse_map_spec("suspension:d=1")
        p = regular_value(seed)
        self.linking = [("hopf", parse_map_spec("hopf"), 1, p),
                        ("compose:suspension:d=2|hopf",
                         parse_map_spec("compose:suspension:d=2|hopf"), 4, p)]

    def op(self):
        size, s = self.size, self.seeds
        values, oracle, checks = {}, {}, []
        mesh = geometry.build_sphere_mesh(2, size.s2_level)
        for d, f in self.degree_maps:
            r = invariants.mapping_degree(f, mesh)
            values[f.name] = r.value
            checks.append(_check(f"degree {f.name} within {size.degree_tol}",
                                 abs(r.value - d) < size.degree_tol, r.value))
        r = invariants.mapping_degree(self.antipodal, mesh)
        values[self.antipodal.name] = r.value
        checks.append(_check(f"antipodal degree -1 within {size.antipodal_tol}",
                             abs(r.value + 1.0) < size.antipodal_tol, r.value))

        beta = 0.6
        ests = [seminorms.sobolev_seminorm(f, beta, 2 / beta,
                                           samples=size.sobolev_samples,
                                           seed=s["sobolev"])
                for f in self.rotated]
        worst = max(abs(a.value - b.value) / (2 * (a.error + b.error))
                    for a, b in itertools.combinations(ests, 2))
        checks.append(_check("rotated Sobolev values within 2 SE",
                             worst <= 1.0, worst))

        # Hoelder seminorm of suspension:d=2: the pair e1, e2 (chord
        # sqrt 2) maps to antipodes, so the sup is at least 2 / 2^(beta/2);
        # the sampled sup may fall short of it by a little.  Lipschitz
        # constant 2 in the geodesic metric bounds every ratio by
        # pi^beta 2^(1-beta).
        hb = 0.5
        h = seminorms.holder_seminorm(self.holder_map, hb,
                                      samples=size.holder_samples,
                                      seed=s["sobolev"])
        lo, hi = 2.0 / 2.0 ** (hb / 2), np.pi ** hb * 2.0 ** (1 - hb)
        checks.append(_check("Hoelder estimate within analytic bounds",
                             0.98 * lo <= h.value <= hi, h.value))

        rep = harness.run_bmo_probe(self.bmo_config)
        reference = seminorms.bmo_seminorm(self.bmo_reference_map,
                                           seed=s["bmo_reference"]).value
        for row in rep.blocks[0].rows:
            values[row.map_spec] = row.invariant
            checks.append(_check(f"BMO probe {row.map_spec} invariant < 1e-3",
                                 not row.error and abs(row.invariant) < 1e-3,
                                 row.error or row.invariant))
            checks.append(_check(f"BMO probe {row.map_spec} below reference",
                                 not row.error and row.bmo < reference,
                                 row.error or row.bmo))

        step = 2 * np.pi / size.linking_points
        for (name, f, expected, p), tol in zip(self.linking, size.linking_tol):
            link = linking.gauss_linking_oracle(f, p, -p, step=step,
                                                seed=s["linking"])
            oracle[f"linking {name}"] = link.value
            checks.append(_check(f"linking {name} within {tol} of {expected}",
                                 abs(link.value - expected) < tol, link.value))
        return values, oracle, checks


WORKLOADS = {w.name: w for w in (HopfL3, ScalingSweeps, NoSolve)}
