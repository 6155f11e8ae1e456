"""Acceptance criteria, one test per criterion, each printing a verdict.

Criterion 10's distance/BMO ratio clause is asserted literally and
marked strict-xfail: for perturbed-constant families the extension
distance is quadratic in the oscillation amplitude (the first-order
term cancels against a constant base), so the ratio cannot be stable
within a factor 3 across the prescribed amplitude range.  The decisions
log carries the derivation; the honest quadratic law is tested in
test_seminorms.
"""

import json
import re
import time
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quanthom.cli import main as cli_main
from quanthom.geometry import de_rham_project
from quanthom.geometry.forms import FormField
from quanthom.harness import (_EXPERIMENT_KEYS, ConfigError,
                              ExperimentConfig, run_bmo_probe, run_scaling)
from quanthom.hodge import codifferential, d_inverse, hodge_operator
from quanthom.invariants import (hardt_riviere, hopf_invariant,
                                 mapping_degree, s2xs2_beta_structure,
                                 winding_number, winding_number_oracle)
from quanthom.linking import gauss_linking_oracle
from quanthom.maps import (S2, compose_with_isometry, make_antipodal,
                           make_circle_power, make_constant, make_hopf,
                           make_map_composition, make_oscillation_perturbation,
                           make_product_map, make_sphere_suspension,
                           pullback_form, volume_form)
from quanthom.registry import beta0, sigma
from quanthom.seminorms import (bmo_seminorm, poisson_extension_distance,
                                random_rotation, sobolev_seminorm)

from conftest import cached_mesh
from test_seminorms import circle_power_sobolev_oracle


def verdict(n, text):
    print(f"\n[acceptance] criterion {n}: {text} ... PASS")


# -- 1: threshold table ---------------------------------------------------

def test_criterion_01_threshold_table(capsys):
    t0 = time.time()
    code = cli_main(["thresholds", "--all", "--json"])
    elapsed = time.time() - t0
    out = capsys.readouterr().out
    assert code == 0
    rows = {r["name"]: r for r in json.loads(out)}
    expected = {
        "cp2:alpha": ("2/3", "2/beta"), "cp2:beta": ("5/6", "6/beta"),
        "s2xs2:alpha1": ("2/3", "2/beta"), "s2xs2:alpha2": ("2/3", "2/beta"),
        "s2xs2:beta1": ("3/4", "4/beta"), "s2xs2:beta2": ("3/4", "4/beta"),
        "sum:gamma1": ("3/4", "6/beta"), "sum:gamma2": ("3/4", "6/beta"),
        "sum:gamma3": ("3/4", "6/beta"), "sum:delta1": ("3/4", "6/beta"),
        "sum:delta2": ("3/4", "6/beta"),
        "hopf:n=1": ("3/4", "4/beta"), "hopf:n=2": ("7/8", "8/beta"),
    }
    for name, (b0, expo) in expected.items():
        assert rows[name]["beta0"] == b0, name
        assert rows[name]["exponent"] == expo, name
    assert elapsed < 1.0
    with capsys.disabled():
        verdict(1, f"threshold table exact, {elapsed * 1000:.0f} ms")


# -- 2: closed form vs numeric minimization --------------------------------

def test_criterion_02_beta0_exhaustive():
    t0 = time.time()
    assert sigma(0, 2, [2]) == 1 and sigma(1, 2, [2]) == 1
    for M0 in range(2, 11):
        for Mm in range(2, 11):
            b, _ = beta0(M0, [Mm], validate=True)   # golden-section, 1e-9
            assert b == F(M0 + Mm - 1, M0 + Mm)
            assert sigma(0, M0, [Mm]) == 1 and sigma(1, M0, [Mm]) == 1
    elapsed = time.time() - t0
    assert elapsed < 5.0
    verdict(2, f"81 closed-form/numeric agreements, {elapsed:.2f} s")


# -- 3: winding -------------------------------------------------------------

def test_criterion_03_winding():
    t0 = time.time()
    mesh = cached_mesh(1, 7)
    for d in range(-10, 11):
        r = winding_number(make_circle_power(d), mesh)
        assert abs(r.value - d) < 1e-12, d
    for d, eps, m in ((2, 0.1, 7), (-3, 0.05, 4), (5, 0.15, 2)):
        f = make_oscillation_perturbation(make_circle_power(d), eps, m)
        r = winding_number(f, mesh)
        assert r.nearest_int == winding_number_oracle(f) == d
    elapsed = time.time() - t0
    assert elapsed < 5.0
    verdict(3, f"winding exact for d in -10..10 plus perturbed, {elapsed:.2f} s")


# -- 4: degree on S^2 --------------------------------------------------------

def test_criterion_04_degree_s2():
    t0 = time.time()
    mesh = cached_mesh(2, 5)
    for d in range(1, 6):
        r = mapping_degree(make_sphere_suspension(d), mesh)
        assert abs(r.value - d) < 1e-3, d
    r = mapping_degree(make_antipodal(2), mesh)
    assert abs(r.value + 1.0) < 1e-4
    elapsed = time.time() - t0
    assert elapsed < 30.0
    verdict(4, f"degrees 1..5 and antipodal at level 5, {elapsed:.1f} s")


# -- 5: Hodge contract --------------------------------------------------------

def test_criterion_05_hodge_contract():
    # S^2 level 5, ell = 1: projected exact 1-form
    m2 = cached_mesh(2, 5)
    one_form = FormField(1, lambda p, f: (p[:, 1] * f[:, 0, 0]
                                          + p[:, 0] * f[:, 0, 1]
                                          + 0.3 * f[:, 0, 2]))
    eta = de_rham_project(one_form, m2)
    op = hodge_operator(m2, 1)
    assert op.norm(eta.d()) / op.norm(eta) < 1e-6     # solver-tolerance regime
    xi, _ = d_inverse(eta)
    assert op.norm(xi.d() - eta) / op.norm(eta) < 1e-6
    # d* below degree 1 is zero by convention; nothing to measure on S^2

    # S^3 level 2, ell = 2: constant-coefficient closed 2-form
    m3 = cached_mesh(3, 2)
    two_form = FormField(2, lambda p, f: (f[:, 0, 0] * f[:, 1, 1]
                                          - f[:, 0, 1] * f[:, 1, 0]))
    eta3 = de_rham_project(two_form, m3)
    op3 = hodge_operator(m3, 2)
    assert op3.norm(eta3.d()) / op3.norm(eta3) < 1e-6
    xi3, _ = d_inverse(eta3)
    assert op3.norm(xi3.d() - eta3) / op3.norm(eta3) < 1e-6
    dstar = codifferential(xi3)
    op0 = hodge_operator(m3, 0)
    assert op0.norm(dstar) / op3.norm(eta3) < 1e-6

    # Hopf pullback residual decreases monotonically over levels 1 -> 3
    fw = pullback_form(make_hopf(), volume_form(S2))
    residuals = []
    for level in (1, 2, 3):
        m = cached_mesh(3, level)
        e = de_rham_project(fw, m)
        x, _ = d_inverse(e)
        o = hodge_operator(m, 2)
        residuals.append(o.norm(x.d() - e) / o.norm(e))
    assert residuals[0] > residuals[1] > residuals[2]
    verdict(5, f"antiderivative contract; hopf residuals {residuals}")


# -- 6: Hopf invariant --------------------------------------------------------

def test_criterion_06_hopf_invariant():
    t0 = time.time()
    hopf = make_hopf()
    r2 = hopf_invariant(hopf, cached_mesh(3, 2))
    assert 0.9 <= r2.value <= 1.1
    r3 = hopf_invariant(hopf, cached_mesh(3, 3))
    assert abs(r3.value - 1.0) < abs(r2.value - 1.0)

    link = gauss_linking_oracle(hopf, np.array([1.0, 0, 0]),
                                np.array([-1.0, 0, 0]))
    assert abs(link.value - 1.0) < 1e-3
    bar = max(abs(r3.value - 1.0) + abs(link.value - 1.0), 1e-3)
    assert abs(r3.value - link.value) <= 2 * bar + 1e-3

    comp = make_map_composition(make_sphere_suspension(2), hopf)
    rc = hopf_invariant(comp, cached_mesh(3, 3))
    assert abs(rc.value - 4.0) / 4.0 < 0.15
    elapsed = time.time() - t0
    assert elapsed < 600.0
    verdict(6, f"hopf {r2.value:.4f}/{r3.value:.4f}, linking "
               f"{link.value:.5f}, susp(2)∘hopf {rc.value:.3f}, {elapsed:.0f} s")


# -- 7: product structures -----------------------------------------------------

def test_criterion_07_product_structures():
    mesh = cached_mesh(3, 1)
    prod = make_product_map(make_hopf(), make_constant(3))
    b1 = hardt_riviere(prod, s2xs2_beta_structure(1), mesh)
    b2 = hardt_riviere(prod, s2xs2_beta_structure(2), mesh)
    h = hopf_invariant(make_hopf(), mesh)
    assert abs(b1.value - h.value) < 1e-9
    assert abs(b2.value) < 1e-9
    verdict(7, f"beta1 == hopf to {abs(b1.value - h.value):.1e}, "
               f"beta2 = {b2.value:.1e}")


# -- 8: seminorm oracle ----------------------------------------------------------

def test_criterion_08_seminorm_oracle():
    ident = make_circle_power(1)
    oracle = circle_power_sobolev_oracle(1, 0.5, 2.0)
    est = sobolev_seminorm(ident, 0.5, 2.0)
    assert abs(est.value - oracle) / oracle < 0.01

    zero = sobolev_seminorm(make_constant(2), 0.5, 2.0, samples=2000)
    assert zero.value == 0.0

    f = make_sphere_suspension(2)
    base = sobolev_seminorm(f, 0.6, 2 / 0.6, samples=150_000, seed=4)
    for k in range(5):
        Q = random_rotation(3, seed=100 + k)
        rot = sobolev_seminorm(compose_with_isometry(f, Q), 0.6, 2 / 0.6,
                               samples=150_000, seed=4)
        assert abs(base.value - rot.value) <= 2 * (base.error + rot.error)
    verdict(8, f"MC vs oracle {abs(est.value - oracle) / oracle:.2%}, "
               f"5 rotations within 2 SE")


# -- 9: scaling studies ------------------------------------------------------------

CIRCLE_SWEEP = """
[experiment]
kind = scaling
structure = winding
map = circle-power:d={d}
sweep = d=1..8
beta = 9/10
levels = 6,7
seminorm = sobolev
samples = 200000
seed = 7
"""

HOPF_SWEEP = """
[experiment]
kind = scaling
structure = hopf:n=1
map = compose:suspension:d={d}|hopf
sweep = d=1..3
beta = 4/5
levels = 1,2
seminorm = sobolev
samples = 150000
seed = 11
"""


def test_criterion_09_scaling_studies():
    t0 = time.time()
    rep1 = run_scaling(ExperimentConfig.from_string(CIRCLE_SWEEP))
    assert rep1.passed
    b1 = rep1.blocks[0]
    assert b1.slope is not None and b1.slope <= float(F(10, 9)) * 1.15

    rep2 = run_scaling(ExperimentConfig.from_string(HOPF_SWEEP))
    assert rep2.passed
    b2 = rep2.blocks[0]
    assert b2.slope is not None and b2.slope <= 5.0 * 1.15
    elapsed = time.time() - t0
    assert elapsed < 1200.0
    verdict(9, f"slopes {b1.slope:.3f} (<= {float(F(10, 9)) * 1.15:.3f}) and "
               f"{b2.slope:.3f} (<= 5.75), {elapsed:.0f} s")


# -- 10: small-BMO probe -------------------------------------------------------------

BMO_PROBE = """
[experiment]
kind = bmo
structure = degree:s2
map = perturb:eps={eps},m=3|const:n=2
sweep = eps=0.02,0.05,0.1
beta = 1
levels = 3
seed = 5
"""


def test_criterion_10_bmo_degrees_vanish():
    rep = run_bmo_probe(ExperimentConfig.from_string(BMO_PROBE))
    rows = rep.blocks[0].rows
    assert not any(r.error for r in rows)
    # BMO of every row sits below the smallest nonzero-degree map's BMO
    reference = bmo_seminorm(make_sphere_suspension(1), seed=1).value
    for r in rows:
        assert r.bmo < reference
        assert abs(r.invariant) < 1e-3
    verdict(10, "small-BMO perturbed constants have degree 0 +- 1e-3 "
                f"(BMO <= {max(r.bmo for r in rows):.3f} < {reference:.3f})")


@pytest.mark.xfail(
    strict=True,
    reason="spec defect: against a constant base the extension distance is "
           "quadratic in the oscillation amplitude (the first-order Poisson "
           "term cancels exactly), so dist/BMO scales like eps and spreads "
           "by a factor ~5 over eps in {0.02, 0.05, 0.1}; see the decisions "
           "log for the derivation and measurements")
def test_criterion_10_bmo_ratio_stability():
    rep = run_bmo_probe(ExperimentConfig.from_string(BMO_PROBE))
    ratios = [r.ratio for r in rep.blocks[0].rows]
    assert max(ratios) <= 3.0 * min(ratios)


# -- 9 and 10: their configs under one-key mutations ---------------------------------

ACCEPTANCE_CONFIGS = {"circle": CIRCLE_SWEEP, "hopf": HOPF_SWEEP,
                      "bmo": BMO_PROBE}

# one drawn value for an [experiment] key: numbers, fractions, empty and
# free text, and faulty structures, sweeps and map templates.  Free text
# has no line breaks, which would add INI lines, and no braces: templates
# come from the list, as a drawn format width could ask for gigabytes
CONFIG_VALUES = st.one_of(
    st.integers().map(str), st.fractions().map(str), st.floats().map(str),
    st.just(""),
    st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp"),
                          blacklist_characters="{}"), max_size=12),
    st.sampled_from(["nonexistent", "cp2:beta", "hopf:n=2", "degree:s3",
                     "s2xs2:beta1", "winding", "scaling", "bmo", "holder",
                     "true", "1/0", "-1", "0,1", "3,3", "1e400", "nan"]),
    st.sampled_from(["d", "d=", "=1..3", "d=1..", "d=..3", "d=1..2..3",
                     "d=3..1", "d=a..b", "d=1,,2", "d=0.1,x", "eps=nan,inf",
                     "eps=0.02,0.02", "d=1;2", "e=1..3"]),
    st.builds("{}={}..{}".format, st.sampled_from(["d", "eps", "n"]),
              st.integers(-3, 9), st.integers(-3, 9)),
    st.sampled_from(["{d", "d}", "{}", "{0}", "{d}{eps}", "{d!x}", "{d:q}",
                     "{d:{e}}", "{d:{}}", "{d.real}", "{d[0]}", "50%",
                     "%(kind)s", "bogus:d={d}", "hopf|{d}",
                     "compose:hopf|hopf:d={d}", "circle-power:d={d}%%",
                     "perturb:eps={eps},m=3|hopf", "suspension:d={d}",
                     "const:n={d}", "product:hopf|hopf:d={d}"]))


def with_key(text: str, key: str, value: str) -> str:
    """`text` with the [experiment] `key` set to `value`, replaced in
    place or appended."""
    line = re.compile(rf"^{key} = .*$", re.M)
    if line.search(text):
        return line.sub(lambda _: f"{key} = {value}", text)
    return f"{text}{key} = {value}\n"


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(ACCEPTANCE_CONFIGS)),
       key=st.sampled_from(_EXPERIMENT_KEYS), value=CONFIG_VALUES)
@example(name="hopf", key="structure", value="nonexistent")
@example(name="circle", key="map", value="{d!x}")
@example(name="circle", key="map", value="{d:{e}}")
@example(name="bmo", key="kind", value="50%")
@example(name="hopf", key="levels", value=str(10 ** 18))
def test_acceptance_configs_refuse_bad_keys_with_config_error(name, key,
                                                              value):
    # a mutated acceptance config validates or raises ConfigError, never
    # another exception; only the config is checked, no sweep runs
    text = with_key(ACCEPTANCE_CONFIGS[name], key, value)
    try:
        ExperimentConfig.from_string(text)
    except ConfigError:
        pass


# -- 11: reproducibility -------------------------------------------------------------

def _strip_timestamp(text: str) -> str:
    return re.sub(r'"timestamp": "[^"]*"', '"timestamp": ""', text)


def test_criterion_11_reproducibility(tmp_path):
    fast = CIRCLE_SWEEP.replace("d=1..8", "d=1..3").replace(
        "samples = 200000", "samples = 20000").replace("levels = 6,7",
                                                       "levels = 4")
    outs = []
    for i in (0, 1):
        cfg_path = tmp_path / f"cfg{i}.ini"
        cfg_path.write_text(fast + f"[output]\njson = {tmp_path}/r{i}.json\n")
        code = cli_main(["verify", "scaling", "--config", str(cfg_path)])
        assert code == 0
        outs.append(_strip_timestamp((tmp_path / f"r{i}.json").read_text()))
    assert outs[0] == outs[1]

    # mesh generation is byte-reproducible outright
    for i in (0, 1):
        cli_main(["mesh", "gen", "--dim", "2", "--level", "2",
                  "--out", str(tmp_path / f"m{i}.txt")])
    assert (tmp_path / "m0.txt").read_bytes() == (tmp_path / "m1.txt").read_bytes()
    verdict(11, "byte-identical reports (timestamp excluded) and mesh files")
