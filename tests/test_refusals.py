"""Refusals on error paths the other tests do not reach: each input is
rejected with its exception type and message."""

import ast
import re
from fractions import Fraction

import numpy as np
import pytest

from quanthom import cli
from quanthom.geometry import SimplicialSphere
from quanthom.geometry.cochain import Cochain
from quanthom.geometry.forms import de_rham_project, integrate_wedge
from quanthom.geometry.mesh import check_level_fits
from quanthom.geometry.minors import det
from quanthom.harness import Report, check_writable, emit_report
from quanthom.hodge import HodgeOperator
from quanthom.invariants import (DegreeStructure, Term, check_evaluable,
                                 hopf_structure, mapping_degree)
from quanthom.linking import gauss_linking_oracle
from quanthom.maps import S2, parse_map_spec, volume_form
from quanthom.seminorms import poisson_extension_distance

from conftest import cached_mesh
from helpers import node_lines, package_hits

NORTH = np.array([1.0, 0.0, 0.0])

REFUSALS = {
    "degree-of-a-circle-map": (
        lambda: mapping_degree(parse_map_spec("circle-power:d=2"),
                               cached_mesh(1, 3)),
        ValueError, "mapping_degree takes S^2 and S^3, not S^1; the degree "
                    "of a circle map is its winding number (winding_number)"),
    "hopf-on-a-2-mesh": (
        lambda: check_evaluable(parse_map_spec("hopf"), hopf_structure(), 2),
        ValueError, "mesh dimension does not match the structure"),
    "structure-degrees-1-3": (
        lambda: DegreeStructure("bad", 3, (Term(Fraction(1), (1, 3)),)),
        ValueError, "M_0 must lie in {2..N}"),
    "hodge-degree-4-on-s3": (
        lambda: HodgeOperator(cached_mesh(3, 0), 4),
        ValueError, "degree out of range"),
    "mesh-dim-4": (
        lambda: SimplicialSphere(4, np.zeros((5, 5)),
                                 np.arange(5)[None], 0),
        ValueError, "dimension out of range"),
    "negative-level": (
        lambda: check_level_fits(2, -1), ValueError, "level must be >= 0"),
    "mesh-header-lvl": (
        lambda: SimplicialSphere.parse_ascii("DIM 2 LVL 0\n"),
        ValueError, "bad mesh file: line 1 is not DIM <n> LEVEL <l>"),
    "det-2x3": (
        lambda: det(np.zeros((2, 3))),
        ValueError, "determinant of a non-square matrix"),
    "cochain-degrees-differ": (
        lambda: (Cochain.zeros(cached_mesh(2, 0), 0)
                 + Cochain.zeros(cached_mesh(2, 0), 1)),
        ValueError, "cochain mismatch"),
    "wedge-cochain-of-another-mesh": (
        lambda: integrate_wedge([Cochain.zeros(cached_mesh(2, 1), 2)],
                                cached_mesh(2, 0)),
        ValueError, "cochain belongs to a different mesh"),
    "suspension-value-of-r4-points": (
        lambda: parse_map_spec("suspension:d=2").value(np.full((1, 4), 0.5)),
        ValueError, "points of 4 coordinates given to a map on S^2, which "
                    "takes 3"),
    "circle-power-jet-of-r3-points": (
        lambda: parse_map_spec("circle-power:d=2").jet(np.ones((2, 3))),
        ValueError, "points of 3 coordinates given to a map on S^1, which "
                    "takes 2"),
    "poisson-probe-on-another-sphere": (
        lambda: poisson_extension_distance(parse_map_spec("suspension:d=2"),
                                           np.full((1, 4), 0.25),
                                           cached_mesh(3, 0)),
        ValueError, "probes in R^4 and a mesh of S^3 for a map on S^2"),
    "poisson-probe-in-r4-on-s2": (
        lambda: poisson_extension_distance(parse_map_spec("suspension:d=2"),
                                           np.full((1, 4), 0.25),
                                           cached_mesh(2, 0)),
        ValueError, "probes in R^4 and a mesh of S^2 for a map on S^2"),
    "cochain-degree-5-on-s3": (
        lambda: Cochain(cached_mesh(3, 0), 5, np.zeros(1)),
        ValueError, "cochain degree 5 on S^3: degrees run 0..3"),
    **{f"zero-cochain-of-degree-{k}-on-s2": (
        lambda k=k: Cochain.zeros(cached_mesh(2, 0), k),
        ValueError, f"cochain degree {k} on S^2: degrees run 0..2")
        for k in (3, 5, -1)},
    "projection-rule-unknown": (
        lambda: de_rham_project(volume_form(S2), cached_mesh(2, 0), "exact"),
        ValueError, "unknown projection rule 'exact'"),
    "solid-angles-of-a-form-not-pulled-back": (
        lambda: de_rham_project(volume_form(S2), cached_mesh(2, 0),
                                "solid_angle"),
        ValueError, "no solid-angle rule for 'vol[S2]': it takes a "
                    "pulled-back area form of an S^2 factor"),
    "linking-oracle-on-s2": (
        lambda: gauss_linking_oracle(parse_map_spec("suspension:d=1"),
                                     NORTH, -NORTH),
        ValueError, "oracle requires a map S3 -> S2"),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_refused_with_its_message(name):
    call, exc, message = REFUSALS[name]
    with pytest.raises(exc, match=re.escape(message)):
        call()


def test_check_writable_refuses_a_directory(tmp_path):
    with pytest.raises(IsADirectoryError, match=re.escape(str(tmp_path))):
        check_writable(str(tmp_path))


def test_check_writable_refuses_an_empty_path():
    # open("") raises ENOENT, though the folder of abspath("") exists
    with pytest.raises(FileNotFoundError):
        check_writable("")


def test_emit_report_refuses_an_unknown_format(tmp_path):
    out = tmp_path / "r.xml"
    with pytest.raises(ValueError, match="unknown report format 'xml'"):
        emit_report(Report("scaling", {}, [], True), "xml", str(out))
    assert not out.exists()


CONFIG = """[experiment]
kind = scaling
structure = winding
map = circle-power:d={d}
sweep = d=1..3
beta = 9/10
levels = 3,4
[output]
json =
"""

# an empty output path is refused by the name of its flag or [output]
# key, before any work: argv ("{config}" is the config file's path) and
# the whole of stderr
EMPTY_OUTPUTS = {
    "mesh-gen-out": (
        ["mesh", "gen", "--dim", "3", "--level", "2", "--out", ""],
        "error: argument --out: empty path\n"),
    "invariant-json-out": (
        ["invariant", "--map", "hopf", "--structure", "hopf:n=1", "--level",
         "1", "--json-out", ""],
        "error: argument --json-out: empty path\n"),
    "seminorm-json-out": (
        ["seminorm", "--map", "hopf", "--kind", "sobolev", "--json-out", ""],
        "error: argument --json-out: empty path\n"),
    "verify-output-json": (
        ["verify", "scaling", "--config", "{config}"],
        "config error: [output] json: empty path\n"),
}


@pytest.mark.parametrize("name", sorted(EMPTY_OUTPUTS))
def test_empty_output_path_refused_before_any_work(name, tmp_path,
                                                   monkeypatch, capsys):
    def work(*args, **kwargs):
        raise AssertionError("work started before the output was checked")

    for attr in ("build_sphere_mesh", "run_scaling", "sobolev_seminorm"):
        monkeypatch.setattr(cli, attr, work)
    config = tmp_path / "cfg.ini"
    config.write_text(CONFIG)
    argv, message = EMPTY_OUTPUTS[name]
    assert cli.main([a.format(config=config) for a in argv]) == 2
    assert capsys.readouterr() == ("", message)


def asserts(node) -> bool:
    """Whether `node` is an assert statement or raises AssertionError,
    bare or called."""
    if isinstance(node, ast.Assert):
        return True
    if not isinstance(node, ast.Raise):
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assertion_in_the_package():
    # the package refuses with ValueError or ConfigError, which cli.main
    # maps to exit 2; an AssertionError would escape it as a traceback
    # with exit 1, the status of a failed check
    found = package_hits(asserts)
    assert not found, f"assert or AssertionError at {', '.join(found)}"


def test_assertion_check_finds_one(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("assert x\n"
                     "raise AssertionError('no')\n"
                     "raise AssertionError\n"
                     "raise ValueError('no')\n"
                     "ok = AssertionError\n")
    assert node_lines(probe, asserts) == [1, 2, 3]
