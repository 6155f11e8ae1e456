"""Winding, degree, Hopf invariant, general structures, linking oracle."""

from fractions import Fraction

import numpy as np
import pytest

from quanthom.invariants import (DegreeStructure, Term, degree_structure,
                                 hardt_riviere, hopf_invariant,
                                 hopf_structure, mapping_degree,
                                 s2xs2_beta_structure, winding_number,
                                 winding_number_oracle, winding_structure)
from quanthom.linking import NonRegularValueError, gauss_linking_oracle
from quanthom.maps import (S2, compose_with_isometry, make_antipodal,
                           make_circle_power, make_constant, make_hopf,
                           make_map_composition, make_oscillation_perturbation,
                           make_product_map, make_reflection,
                           make_sphere_suspension, volume_form)
from quanthom.seminorms import random_rotation

from conftest import cached_mesh

NORTH = np.array([1.0, 0.0, 0.0])
SOUTH = np.array([-1.0, 0.0, 0.0])


def generic_value(seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


class TestStructureValidation:
    def test_degree_sum_violation(self):
        with pytest.raises(ValueError, match="sum"):
            DegreeStructure("bad", 3, (Term(Fraction(1), (2, 3)),))

    def test_inner_degree_range(self):
        with pytest.raises(ValueError, match="M_i"):
            DegreeStructure("bad", 3, (Term(Fraction(1), (3, 1)),))

    def test_l0_forces_m0_equals_n(self):
        # with L = 0 the sum rule forces M_0 = N
        with pytest.raises(ValueError, match="sum"):
            DegreeStructure("bad", 3, (Term(Fraction(1), (2,)),))

    def test_winding_special_case_allowed(self):
        s = winding_structure()
        assert s.L == 0 and s.numerically_evaluable

    def test_symbolic_not_evaluable(self):
        s = DegreeStructure("sym", 3, (Term(Fraction(1), (2, 2)),))
        assert not s.numerically_evaluable
        f = make_hopf()
        with pytest.raises(ValueError, match="structure not numerically evaluable"):
            hardt_riviere(f, s, cached_mesh(3, 0))


class TestWinding:
    def test_circle_powers_exact(self):
        m = cached_mesh(1, 5)
        for d in (-4, -1, 0, 1, 2, 7):
            r = winding_number(make_circle_power(d), m)
            assert abs(r.value - d) < 1e-12
            assert r.nearest_int == d

    def test_perturbed_matches_oracle(self):
        m = cached_mesh(1, 5)
        f = make_oscillation_perturbation(make_circle_power(2), 0.1, 7)
        r = winding_number(f, m)
        assert r.nearest_int == winding_number_oracle(f) == 2
        assert r.int_distance < 1e-8

    def test_constant(self):
        m = cached_mesh(1, 5)
        r = winding_number(make_circle_power(0), m)
        assert r.value == 0.0

    def test_wrong_domain(self):
        with pytest.raises(ValueError):
            winding_number(make_hopf(), cached_mesh(1, 3))


class TestMappingDegree:
    def test_identity(self):
        r = mapping_degree(make_sphere_suspension(1), cached_mesh(2, 3))
        assert abs(r.value - 1.0) < 1e-6

    def test_suspensions(self):
        m = cached_mesh(2, 3)
        for d in (2, 3):
            r = mapping_degree(make_sphere_suspension(d), m)
            assert abs(r.value - d) < 1e-4

    def test_antipodal(self):
        r = mapping_degree(make_antipodal(2), cached_mesh(2, 3))
        assert abs(r.value + 1.0) < 1e-6

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            mapping_degree(make_hopf(), cached_mesh(3, 0))

    def test_same_code_path_as_structure(self):
        m = cached_mesh(2, 2)
        f = make_sphere_suspension(2)
        a = mapping_degree(f, m)
        b = hardt_riviere(f, degree_structure(2), m)
        assert a.value == b.value   # identical pipeline, identical floats


class TestHopf:
    def test_constant_is_zero(self):
        r = hopf_invariant(make_constant(3, S2), cached_mesh(3, 1))
        assert abs(r.value) < 1e-9

    def test_hopf_map_converges(self):
        vals = {}
        for level in (1, 2):
            r = hopf_invariant(make_hopf(), cached_mesh(3, level))
            vals[level] = r.value
        assert abs(vals[1] - 1.0) < 0.1
        assert abs(vals[2] - 1.0) < abs(vals[1] - 1.0)

    def test_wrong_target(self):
        with pytest.raises(ValueError):
            hopf_invariant(make_circle_power(1), cached_mesh(1, 3))

    def test_residuals_reported(self):
        r = hopf_invariant(make_hopf(), cached_mesh(3, 1))
        stats = r.residuals["term0.d_inverse1"]
        assert stats["iterations"] > 0
        assert stats["residual"] < 1e-8
        assert stats["gauge_iterations"] > 0
        assert stats["gauge_residual"] < 1e-12
        assert "closedness" in stats

    def test_quadrature_reported(self):
        # exact degree and nodes per simplex of each stage's rule; a
        # degree needs no projection
        r = hopf_invariant(make_hopf(), cached_mesh(3, 1))
        assert r.quadrature == {"wedge": {"degree": 5, "nodes": 14},
                                "projection": {"degree": 7, "nodes": 12}}
        d = mapping_degree(make_sphere_suspension(2), cached_mesh(2, 0))
        assert d.quadrature == {"wedge": {"degree": 5, "nodes": 7}}


class TestProductStructures:
    def test_beta1_reduces_to_hopf(self):
        m = cached_mesh(3, 1)
        prod = make_product_map(make_hopf(), make_constant(3, S2))
        b1 = hardt_riviere(prod, s2xs2_beta_structure(1), m)
        h = hopf_invariant(make_hopf(), m)
        assert abs(b1.value - h.value) < 1e-9

    def test_beta2_vanishes(self):
        m = cached_mesh(3, 1)
        prod = make_product_map(make_hopf(), make_constant(3, S2))
        b2 = hardt_riviere(prod, s2xs2_beta_structure(2), m)
        assert abs(b2.value) < 1e-9

    def test_distinct_factor_invariants(self):
        m = cached_mesh(3, 1)
        f2 = make_map_composition(make_sphere_suspension(2), make_hopf())
        prod = make_product_map(make_hopf(), f2)
        b1 = hardt_riviere(prod, s2xs2_beta_structure(1), m)
        b2 = hardt_riviere(prod, s2xs2_beta_structure(2), m)
        assert abs(b1.value - 1.0) < 0.15
        assert abs(b2.value - 4.0) < 0.6

    def test_target_mismatch(self):
        with pytest.raises(ValueError, match="target"):
            hardt_riviere(make_hopf(), s2xs2_beta_structure(1), cached_mesh(3, 0))


class TestStructureLinearity:
    def test_coefficient_scaling(self):
        m = cached_mesh(3, 1)
        om = volume_form(S2)
        base = hopf_structure()
        tripled = DegreeStructure("hopf-tripled", 3,
                                  (Term(Fraction(3), (2, 2), (om, om)),), S2)
        f = make_hopf()
        a = hardt_riviere(f, base, m)
        b = hardt_riviere(f, tripled, m)
        assert b.value == 3.0 * a.value


class TestOrientation:
    def test_winding_flips(self):
        m = cached_mesh(1, 5)
        f = make_circle_power(3)
        r = make_reflection(1)
        a = winding_number(f, m)
        b = winding_number(make_map_composition(f, r), m)
        assert abs(a.value + b.value) < 1e-12

    def test_degree_flips(self):
        m = cached_mesh(2, 3)
        f = make_sphere_suspension(2)
        fr = make_map_composition(f, make_reflection(2))
        assert abs(mapping_degree(f, m).value
                   + mapping_degree(fr, m).value) < 1e-4

    def test_hopf_flips(self):
        m = cached_mesh(3, 1)
        f = make_hopf()
        fr = make_map_composition(f, make_reflection(3))
        a = hopf_invariant(f, m)
        b = hopf_invariant(fr, m)
        assert abs(a.value + b.value) < 0.02


class TestIntegerProximity:
    def test_degree_monotone_levels(self):
        f = make_sphere_suspension(2)
        dists = [mapping_degree(f, cached_mesh(2, l)).int_distance
                 for l in (1, 2, 3)]
        assert dists[0] > dists[1] > dists[2]

    def test_hopf_monotone_levels(self):
        # the level-0 projection's closedness defect needs a looser gate
        f = make_hopf()
        dists = [hopf_invariant(f, cached_mesh(3, l), closed_tol=1e-2).int_distance
                 for l in (0, 1, 2)]
        assert dists[0] > dists[1] > dists[2]

    def test_perturbed_winding_monotone_levels(self):
        f = make_oscillation_perturbation(make_circle_power(2), 0.1, 5)
        dists = [winding_number(f, cached_mesh(1, l)).int_distance
                 for l in (2, 3, 4)]
        assert dists[0] > dists[1] > dists[2]


class TestHomotopyInvariance:
    def test_perturbation_within_error_bar(self):
        f = make_sphere_suspension(2)
        g = make_oscillation_perturbation(f, 0.05, 3)
        lvl_err = abs(mapping_degree(g, cached_mesh(2, 3)).value
                      - mapping_degree(g, cached_mesh(2, 2)).value)
        diff = abs(mapping_degree(g, cached_mesh(2, 3)).value
                   - mapping_degree(f, cached_mesh(2, 3)).value)
        assert diff < max(lvl_err, 1e-6)

    def test_perturbed_hopf_same_invariant(self):
        g = make_oscillation_perturbation(make_hopf(), 0.1, 2)
        r = hopf_invariant(g, cached_mesh(3, 1))
        assert r.nearest_int == 1
        assert r.int_distance < 0.1


class TestLinkingOracle:
    def test_hopf_north_south(self):
        res = gauss_linking_oracle(make_hopf(), NORTH, SOUTH)
        assert res.rounded == 1
        assert abs(res.value - 1.0) < 1e-3
        assert res.n_components == (1, 1)

    def test_generic_values(self):
        res = gauss_linking_oracle(make_hopf(), generic_value(1),
                                   generic_value(2))
        assert abs(res.value - 1.0) < 1e-3

    def test_composition_squares(self):
        f = make_map_composition(make_sphere_suspension(2), make_hopf())
        res = gauss_linking_oracle(f, generic_value(3), generic_value(4))
        assert res.n_components == (2, 2)
        assert abs(res.value - 4.0) < 0.08

    def test_composition_squares_d3_two_value_pairs(self):
        # oracle self-consistency across two regular-value pairs
        f = make_map_composition(make_sphere_suspension(3), make_hopf())
        vals = []
        for seeds in ((10, 11), (12, 13)):
            res = gauss_linking_oracle(f, generic_value(seeds[0]),
                                       generic_value(seeds[1]))
            assert res.n_components == (3, 3)
            assert abs(res.value - 9.0) / 9.0 < 0.02
            vals.append(res.value)
        assert abs(vals[0] - vals[1]) / 9.0 < 0.02

    def test_empty_preimage(self):
        # values away from the constant's image have empty preimages
        res = gauss_linking_oracle(make_constant(3, S2),
                                   np.array([0.0, 0.0, 1.0]),
                                   np.array([0.0, 1.0, 0.0]))
        assert res.value == 0.0
        assert res.n_components == (0, 0)

    def test_regularity_guard(self):
        with pytest.raises(NonRegularValueError, match="non-regular value"):
            gauss_linking_oracle(make_hopf(), NORTH, SOUTH, reg_tol=10.0)

    def test_oracle_agrees_with_integral(self):
        m = cached_mesh(3, 1)
        for f in (make_hopf(),
                  make_oscillation_perturbation(make_hopf(), 0.05, 2)):
            integral = hopf_invariant(f, m)
            link = gauss_linking_oracle(f, generic_value(5), generic_value(6))
            bar = max(integral.int_distance * 2, 1e-2)
            assert abs(integral.value - link.value) <= bar + 0.1

    def test_rotation_composition_preserves_linking(self):
        Q = random_rotation(4, seed=8)
        f = compose_with_isometry(make_hopf(), Q)
        res = gauss_linking_oracle(f, generic_value(7), generic_value(8))
        assert abs(res.value - 1.0) < 1e-2
