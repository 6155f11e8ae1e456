"""Exact rational thresholds: sigma, beta0, exponents, catalogue."""

import re
from fractions import Fraction as F

import pytest

from quanthom.registry import (beta0, catalogue, exponent, lookup, sigma,
                               theorem_beta0, threshold_report)


class TestSigma:
    def test_endpoints_are_one(self):
        assert sigma(0, 2, [2]) == 1
        assert sigma(1, 2, [2]) == 1

    def test_midpoint_value(self):
        # max{2/3 + 1/12, 2/3 + 1/12} = 3/4
        assert sigma(F(1, 2), 2, [2]) == F(3, 4)

    def test_l0_branch(self):
        # no M_i: only the first envelope term remains
        for a in (F(0), F(1, 4), F(2, 3), F(1)):
            expected = F(2, 3) + max(F(1, 3) - a / 2, F(0))
            assert sigma(a, 2, []) == expected

    def test_alpha_domain(self):
        with pytest.raises(ValueError, match="alpha"):
            sigma(F(3, 2), 2, [2])

    def test_exact_rationals(self):
        v = sigma(F(1, 3), 3, [2, 2])
        assert isinstance(v, F)

    def test_interior_dip(self):
        assert sigma(F(1, 2), 2, [2]) < 1


class TestBeta0:
    def test_hopf_n1(self):
        assert beta0(2, [2]) == (F(3, 4), F(1, 2))

    def test_cp2_beta(self):
        assert beta0(4, [2])[0] == F(5, 6)

    def test_degree_s2(self):
        b, a = beta0(2, [])
        assert b == F(2, 3) and a == F(2, 3)

    def test_hopf_n2(self):
        assert beta0(4, [4])[0] == F(7, 8)

    def test_closed_form_vs_numeric_exhaustive(self):
        # golden-section cross-validation runs inside beta0 (1e-9 gate)
        for M0 in range(2, 11):
            for Mm in range(2, 11):
                b, a = beta0(M0, [Mm])
                assert b == F(M0 + Mm - 1, M0 + Mm)
                assert a == F(M0, M0 + Mm)
                assert F(0) < b < F(1)

    def test_invalid_degrees(self):
        with pytest.raises(ValueError):
            beta0(1, [2])
        with pytest.raises(ValueError):
            beta0(2, [1])

    def test_minimum_matches_sigma(self):
        b, a = beta0(3, [2, 2])
        assert sigma(a, 3, [2, 2]) == b


class TestOrderingLemma:
    def test_larger_inner_degree_dominates(self):
        # the sigma term of M2 >= the term of M1 when M1 <= M2, so only
        # M_max matters; checked on the 1/1000 rational grid
        def term(M, a):
            return F(M, M + 1) + max(a / M - F(1, M * (M + 1)), F(0))

        for M1 in range(2, 11):
            for M2 in range(M1, 11):
                for k in range(0, 1001, 7):   # grid step 1/1000, strided
                    a = F(k, 1000)
                    assert term(M1, a) <= term(M2, a)


class TestExponent:
    def test_values(self):
        assert exponent(3, 1, F(3, 4)) == F(16, 3)
        assert exponent(2, 0, 1) == 2
        assert exponent(4, 2, F(3, 4)) == 8

    def test_beta_positive(self):
        with pytest.raises(ValueError, match="beta"):
            exponent(2, 0, 0)

    @pytest.mark.parametrize("beta", ["4/5", 0.8], ids=["string", "float"])
    def test_beta_as_string_or_float(self, beta):
        assert exponent(3, 1, beta) == 5

    def test_beta_of_no_rational_type(self):
        with pytest.raises(TypeError, match=re.escape(
                "cannot interpret [1] as a rational")):
            exponent(3, 1, [1])


class TestCatalogue:
    PAPER_VALUES = {
        "cp2:alpha": (F(2, 3), 2),
        "cp2:beta": (F(5, 6), 6),
        "s2xs2:alpha1": (F(2, 3), 2),
        "s2xs2:alpha2": (F(2, 3), 2),
        "s2xs2:beta1": (F(3, 4), 4),
        "s2xs2:beta2": (F(3, 4), 4),
        "sum:gamma1": (F(3, 4), 6),
        "sum:gamma2": (F(3, 4), 6),
        "sum:gamma3": (F(3, 4), 6),
        "sum:delta1": (F(3, 4), 6),
        "sum:delta2": (F(3, 4), 6),
        "hopf:n=1": (F(3, 4), 4),
        "hopf:n=2": (F(7, 8), 8),
    }

    def test_published_values(self):
        cat = catalogue()
        for name, (b0, num) in self.PAPER_VALUES.items():
            rep = cat[name].report
            assert rep.published_beta0 == b0, name
            assert rep.exponent_numerator == num, name

    def test_lookup_examples(self):
        h = lookup("hopf:n=1")
        assert h.report.published_beta0 == F(3, 4)
        assert h.report.exponent(F(3, 4)) == F(16, 3)
        s = lookup("s2xs2:beta")
        assert s.report.published_beta0 == F(3, 4)
        assert s.report.exponent(F(1, 2)) == F(8)      # 4/beta
        c = lookup("cp2:beta")
        assert c.report.published_beta0 == F(5, 6)
        assert c.report.exponent(F(1, 2)) == F(12)     # 6/beta

    def test_evaluability_flags(self):
        cat = catalogue()
        evaluable = {n for n, e in cat.items() if e.evaluable}
        assert evaluable == {"winding", "degree:s2", "degree:s3", "hopf:n=1",
                             "s2xs2:alpha1", "s2xs2:alpha2",
                             "s2xs2:beta1", "s2xs2:beta2"}

    def test_theorem_consistency(self):
        # max_k beta0^k <= 1 - 1/min{N+1, N+2-L} for uniform-L_k entries;
        # the connected-sum deltas are the documented exception (their
        # mixed [3,2] term computes to 4/5 > 3/4)
        for name, e in catalogue().items():
            rep = e.report
            if rep.beta0 is None:
                continue
            if name.startswith("sum:delta"):
                assert rep.beta0 == F(4, 5)
                assert rep.beta0 > rep.theorem_beta0
            else:
                assert rep.beta0 <= rep.theorem_beta0

    def test_winding_threshold_not_fabricated(self):
        w = lookup("winding")
        assert w.report.beta0 is None
        assert w.report.theorem_beta0 == F(1, 2)
        assert w.report.effective_beta0() == F(1, 2)

    def test_closed_forms_validated(self):
        # the catalogue takes closed-form thresholds unvalidated; every
        # term's closed form is checked here against golden-section search
        terms = [t for e in catalogue().values() for t in e.structure.terms
                 if t.degrees != (1,)]
        assert len(terms) >= 20
        for t in terms:
            assert beta0(t.degrees[0], t.degrees[1:], validate=True) == \
                beta0(t.degrees[0], t.degrees[1:], validate=False)

    def test_catalogue_built_once_read_only(self):
        cat = catalogue()
        assert catalogue() is cat
        assert lookup("hopf") is cat["hopf:n=1"]
        with pytest.raises(TypeError):
            cat["hopf:n=1"] = None

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            lookup("nonexistent:thing")

    def test_theorem_beta0_values(self):
        assert theorem_beta0(3, 1) == F(3, 4)
        assert theorem_beta0(5, 1) == F(5, 6)
        assert theorem_beta0(4, 2) == F(3, 4)
        assert theorem_beta0(2, 0) == F(2, 3)

    def test_per_term_report(self):
        rep = lookup("sum:delta1").report
        assert rep.per_term_beta0[0] == F(4, 5)     # the [3,2] term
        assert set(rep.per_term_beta0[1:]) == {F(3, 4)}
        assert rep.L == 2 and rep.N == 4
