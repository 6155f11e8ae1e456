"""Exact rational thresholds and exponents of the scaling inequality.

For one wedge-integral term with form degrees M_0 and M_1..M_L the
admissible-smoothness threshold is

    beta_0 = inf_{alpha in (0,1)} sigma(alpha),

    sigma(alpha) = max{ M0/(M0+1) + (1/(M0+1) - alpha/M0)_+,
                        max_i  Mi/(Mi+1) + (alpha/Mi - 1/(Mi(Mi+1)))_+ }

with closed form (M0 + Mmax - 1)/(M0 + Mmax) at
alpha* = M0/(M0 + Mmax) when L >= 1, and M0/(M0+1) when L = 0.
Everything is computed in exact rational arithmetic; the test suite
checks the closed form against a golden-section minimization of sigma
(tests/helpers.numeric_beta0).

The catalogue lists the named example structures (complex projective
plane, sphere products, their connected sum, and the Hopf families)
with their thresholds, exponents (N+L)/beta, and numerical evaluability.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from types import MappingProxyType

from .invariants import (DegreeStructure, Term, degree_structure,
                         hopf_structure, s2xs2_alpha_structure,
                         s2xs2_beta_structure, winding_structure)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x).limit_denominator(10 ** 12)
    raise TypeError(f"cannot interpret {x!r} as a rational")


def sigma(alpha, M0: int, Ms=()) -> Fraction:
    """Exact rational sigma(alpha) for degrees M0 and [M1..ML]."""
    a = _as_fraction(alpha)
    if not 0 <= a <= 1:
        raise ValueError("alpha must lie in [0, 1]")
    first = Fraction(M0, M0 + 1) + max(Fraction(1, M0 + 1) - a / M0, Fraction(0))
    best = first
    for M in Ms:
        val = Fraction(M, M + 1) + max(a / M - Fraction(1, M * (M + 1)), Fraction(0))
        best = max(best, val)
    return best


def beta0(M0: int, Ms=()):
    """Threshold (beta_0, alpha*) in exact rationals, in closed form."""
    if M0 < 2:
        raise ValueError("M0 must be at least 2")
    Ms = tuple(int(M) for M in Ms)
    if any(M < 2 for M in Ms):
        raise ValueError("all M_i must be at least 2")
    if Ms:
        Mmax = max(Ms)
        b0 = Fraction(M0 + Mmax - 1, M0 + Mmax)
        astar = Fraction(M0, M0 + Mmax)
    else:
        b0 = Fraction(M0, M0 + 1)
        astar = Fraction(M0, M0 + 1)
    return b0, astar


def exponent(N: int, L: int, beta) -> Fraction:
    """The scaling exponent (N + L)/beta, exactly."""
    b = _as_fraction(beta)
    if b <= 0:
        raise ValueError("beta must be positive")
    return Fraction(N + L) / b


def theorem_beta0(N: int, L: int) -> Fraction:
    """Global threshold 1 - 1/min{N+1, N+2-L} of the main estimate."""
    return 1 - Fraction(1, min(N + 1, N + 2 - L))


@dataclass(frozen=True)
class ThresholdReport:
    """Exact threshold data for one catalogue structure."""
    name: str
    N: int
    L: int
    per_term_beta0: tuple          # Fraction or None (winding special case)
    per_term_alpha: tuple
    beta0: Fraction | None         # max over terms
    published_beta0: Fraction | None
    theorem_beta0: Fraction
    exponent_numerator: int        # exponent(beta) = (N+L)/beta

    def exponent(self, beta) -> Fraction:
        return exponent(self.N, self.L, beta)

    def effective_beta0(self) -> Fraction:
        """Threshold used by hypothesis guards: computed when available,
        else the theorem value (the S^1 winding case)."""
        return self.beta0 if self.beta0 is not None else self.theorem_beta0


def threshold_report(structure: DegreeStructure,
                     published: Fraction | None = None) -> ThresholdReport:
    per_b, per_a = [], []
    for t in structure.terms:
        if t.degrees == (1,):
            per_b.append(None)
            per_a.append(None)
            continue
        b, a = beta0(t.degrees[0], t.degrees[1:])
        per_b.append(b)
        per_a.append(a)
    known = [b for b in per_b if b is not None]
    overall = max(known) if known else None
    N, L = structure.domain_dim, structure.L
    return ThresholdReport(
        name=structure.name, N=N, L=L,
        per_term_beta0=tuple(per_b), per_term_alpha=tuple(per_a),
        beta0=overall,
        published_beta0=published if published is not None else overall,
        theorem_beta0=theorem_beta0(N, L),
        exponent_numerator=N + L)


@dataclass(frozen=True)
class CatalogueEntry:
    name: str
    structure: DegreeStructure
    report: ThresholdReport
    evaluable: bool
    note: str = ""


def _sym(name: str, N: int, terms) -> DegreeStructure:
    return DegreeStructure(name, N, tuple(terms), target=None)


@cache
def catalogue() -> Mapping[str, CatalogueEntry]:
    """Named example structures with their threshold reports.

    Entries for the complex projective plane and the connected sum are
    symbolic only (their generator forms admit no desk-scale numerical
    model); sphere and sphere-product entries are numerically
    evaluable, as is the S^1 winding special case.  Built once, on the
    first call, as a read-only mapping.
    """
    out: dict[str, CatalogueEntry] = {}

    def add(structure, published=None, note=""):
        out[structure.name] = CatalogueEntry(
            structure.name, structure, threshold_report(structure, published),
            structure.numerically_evaluable, note)

    one = Fraction(1)
    # winding: outside the M0 >= 2 hypothesis; no threshold is provided
    add(winding_structure(),
        note="threshold not provided by the per-term computation (M0 = 1); "
             "hypothesis guards fall back to the theorem value")
    add(degree_structure(2))
    add(degree_structure(3))
    add(hopf_structure())
    # Hopf family n=2: S^7 -> S^4, no numerical model (N > 3)
    add(_sym("hopf:n=2", 7, [Term(one, (4, 4))]))
    # complex projective plane
    add(_sym("cp2:alpha", 2, [Term(one, (2,))]))
    add(_sym("cp2:beta", 5, [Term(one, (4, 2))]))
    # sphere product
    add(s2xs2_alpha_structure(1))
    add(s2xs2_alpha_structure(2))
    add(s2xs2_beta_structure(1))
    add(s2xs2_beta_structure(2))
    # connected sum with the projective plane: three gamma maps and two
    # delta maps from S^4; the deltas mix a [3,2] term with [2,2,2] terms
    for i in (1, 2, 3):
        add(_sym(f"sum:gamma{i}", 4, [Term(one, (2, 2, 2))]))
    delta_terms = [Term(one, (3, 2))] + [Term(one, (2, 2, 2)) for _ in range(3)]
    for k in (1, 2):
        add(_sym(f"sum:delta{k}", 4, delta_terms),
            published=Fraction(3, 4),
            note="published threshold 3/4; the mixed [3,2] term's computed "
                 "per-term threshold is 4/5 (the global-L theorem bound does "
                 "not dominate lower-L_k terms)")
    return MappingProxyType(out)


_ALIASES = {
    "s2xs2:beta": "s2xs2:beta1",
    "s2xs2:alpha": "s2xs2:alpha1",
    "hopf": "hopf:n=1",
    "sum:gamma": "sum:gamma1",
    "sum:delta": "sum:delta1",
    "degree": "degree:s2",
}


def lookup(name: str) -> CatalogueEntry:
    cat = catalogue()
    key = name.strip()
    if key in cat:
        return cat[key]
    if key in _ALIASES:
        return cat[_ALIASES[key]]
    raise KeyError(f"unknown structure {name!r}; known: {sorted(cat)}")
