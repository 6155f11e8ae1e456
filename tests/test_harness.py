"""Experiment configs, scaling/BMO runs, report files, and the CLI."""

import json
import re
import subprocess
import sys
import time
from collections import Counter
from dataclasses import FrozenInstanceError, asdict, replace
from fractions import Fraction as F

import numpy as np
import pytest

from quanthom import harness
from quanthom.geometry import build_sphere_mesh
from quanthom.harness import (ConfigError, ExperimentConfig, Report,
                              emit_report, run_bmo_probe, run_scaling)
from quanthom.invariants import hardt_riviere
from quanthom.maps import parse_map_spec
from quanthom.registry import lookup

from helpers import load_report, package_env

FAST_SCALING = """
[experiment]
kind = scaling
structure = winding
map = circle-power:d={d}
sweep = d=1..3
beta = 9/10
levels = 3,4
seminorm = sobolev
samples = 20000
seed = 7
"""


def fast_config(**overrides):
    return replace(ExperimentConfig.from_string(FAST_SCALING), **overrides)


class TestConfig:
    def test_parse(self):
        cfg = ExperimentConfig.from_string(FAST_SCALING)
        assert cfg.kind == "scaling"
        assert cfg.sweep_name == "d" and cfg.sweep_values == [1, 2, 3]
        assert cfg.betas == [F(9, 10)]
        assert cfg.levels == [3, 4]

    @pytest.mark.parametrize("sweep", ["d=3,1,2", "d=1,2,2", "d=3..1",
                                       "d=0.1,0.05", "d=0.1,nan,0.05",
                                       "d=-inf,1"],
                             ids=["unsorted", "duplicate", "empty-range",
                                  "unsorted-float", "nan", "minus-inf"])
    def test_bad_sweep_rejected(self, sweep):
        with pytest.raises(ConfigError, match=re.escape(f"sweep {sweep!r}")):
            ExperimentConfig.from_string(FAST_SCALING.replace("d=1..3", sweep))

    @pytest.mark.parametrize("levels", ["4,3", "3,3", "4,3,3", ""],
                             ids=["unsorted", "duplicate", "unsorted-duplicate",
                                  "empty"])
    def test_bad_levels_rejected(self, levels):
        text = FAST_SCALING.replace("levels = 3,4", f"levels = {levels}")
        with pytest.raises(ConfigError, match=re.escape(f"levels {levels!r}")):
            ExperimentConfig.from_string(text)

    @pytest.mark.parametrize("levels,bad", [("-1", "-1"), ("-2,-1,3", "-2, -1")],
                             ids=["one", "several"])
    def test_negative_levels_rejected(self, levels, bad):
        text = FAST_SCALING.replace("levels = 3,4", f"levels = {levels}")
        with pytest.raises(ConfigError, match=re.escape(
                f"levels must be >= 0, got {bad}")):
            ExperimentConfig.from_string(text)
        # a config changed through dataclasses.replace is checked again
        with pytest.raises(ConfigError, match=re.escape(
                "levels must be >= 0, got -1")):
            run_scaling(fast_config(levels=[-1]))

    @pytest.mark.parametrize("overrides,message", [
        ({"levels": []}, "empty levels ''"),
        ({"levels": [4, 3]}, "levels '4,3' is not strictly ascending"),
        ({"levels": [3, 3]}, "levels '3,3' is not strictly ascending"),
        ({"sweep_values": []}, "empty sweep 'd='"),
        ({"sweep_values": [2, 1]}, "sweep 'd=2,1' is not strictly ascending"),
        ({"sweep_values": [1.0, float("nan")]},
         "sweep 'd=1.0,nan' has a value that is not a finite number"),
        ({"betas": []}, "beta: no value given")],
        ids=["levels-empty", "levels-unsorted", "levels-duplicate",
             "sweep-empty", "sweep-unsorted", "sweep-nan", "beta-empty"])
    def test_replaced_config_rechecked(self, overrides, message):
        # the readers' rules hold for a config made through replace
        with pytest.raises(ConfigError, match=re.escape(message)):
            fast_config(**overrides)

    def test_beta_below_threshold_rejected(self):
        with pytest.raises(ConfigError, match="threshold"):
            ExperimentConfig.from_string(
                FAST_SCALING.replace("beta = 9/10", "beta = 1/4"))

    def test_beta_below_threshold_override(self):
        text = FAST_SCALING.replace(
            "beta = 9/10", "beta = 1/4\nallow_beta_below_threshold = true")
        cfg = ExperimentConfig.from_string(text)
        assert cfg.allow_beta_below_threshold

    @pytest.mark.parametrize("seminorm,beta,message", [
        ("sobolev", "1", "beta values 1 lie outside (0, 1), the range of the "
                         "sobolev seminorm"),
        ("sobolev", "9/10, 1, 3/2", "beta values 1, 3/2 lie outside (0, 1)"),
        ("holder", "9/10, 6/5", "beta values 6/5 lie outside (0, 1], the "
                                "range of the holder seminorm")])
    def test_beta_outside_the_seminorm_range_rejected(self, seminorm, beta,
                                                      message):
        text = (FAST_SCALING.replace("beta = 9/10", f"beta = {beta}")
                .replace("seminorm = sobolev", f"seminorm = {seminorm}"))
        with pytest.raises(ConfigError, match=re.escape(message)):
            ExperimentConfig.from_string(text)

    def test_beta_one_accepted_for_holder_and_bmo(self):
        text = (FAST_SCALING.replace("beta = 9/10", "beta = 1")
                .replace("seminorm = sobolev", "seminorm = holder"))
        assert ExperimentConfig.from_string(text).betas == [F(1)]
        assert ExperimentConfig.from_string(BMO_PROBE).betas == [F(1)]

    def test_zero_samples_rejected(self):
        with pytest.raises(ConfigError, match=re.escape(
                "samples must be >= 1, got 0")):
            ExperimentConfig.from_string(
                FAST_SCALING.replace("samples = 20000", "samples = 0"))

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            ExperimentConfig.from_string(
                FAST_SCALING.replace("kind = scaling", "kind = frob"))

    def test_unknown_structure(self, tmp_path):
        text = FAST_SCALING.replace("structure = winding",
                                    "structure = nonexistent")
        path = tmp_path / "cfg.ini"
        path.write_text(text)
        for load in (lambda: ExperimentConfig.from_string(text),
                     lambda: ExperimentConfig.from_file(str(path))):
            with pytest.raises(ConfigError, match=re.escape(
                    "structure: unknown structure 'nonexistent'; known: [")):
                load()

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_file("/nonexistent/path.ini")

    @pytest.mark.parametrize("line, why", [
        ("junk line", "is neither a [section] nor key = value"),
        ("seed = 3", "repeats key 'seed' of [experiment]"),
        ("[experiment]", "repeats section [experiment]")],
        ids=["junk", "repeated-key", "repeated-section"])
    def test_ini_syntax_error_names_the_line(self, tmp_path, line, why):
        text = FAST_SCALING.replace("seed = 7", f"seed = 7\n{line}")
        n = text.split("\n").index("seed = 7") + 2
        with pytest.raises(ConfigError, match=re.escape(
                f"config line {n}: {line!r} {why}")):
            ExperimentConfig.from_string(text)
        path = tmp_path / "bad.ini"
        path.write_text(text)
        with pytest.raises(ConfigError, match=re.escape(
                f"config file {str(path)!r} line {n}: {line!r} {why}")):
            ExperimentConfig.from_file(str(path))

    def test_ini_line_before_any_section(self):
        with pytest.raises(ConfigError, match=re.escape(
                "config line 1: 'junk' comes before any [section]")):
            ExperimentConfig.from_string("junk\n" + FAST_SCALING)

    @pytest.mark.parametrize("old,new,message", [
        ("samples = 20000", "samples = x", "samples 'x' is not an integer"),
        ("seed = 7", "seed = 1.5", "seed '1.5' is not an integer"),
        ("seed = 7", "seed = 7\nallow_beta_below_threshold = maybe",
         "allow_beta_below_threshold 'maybe' is not a boolean"),
        ("levels = 3,4", "levels = 1,x",
         "levels '1,x' is not a comma-separated list of integers"),
        ("beta = 9/10", "beta = 4/x",
         "beta '4/x' is not a comma-separated list of fractions"),
        ("sweep = d=1..3", "sweep = d=1..x",
         "sweep 'd=1..x' is not name=lo..hi or name=v1,v2,..."),
        ("structure = winding\n", "",
         "[experiment] key 'structure' is required"),
        ("map = circle-power:d={d}", "map = circle-power:d={d",
         "map 'circle-power:d={d': expected '}' before end of string")],
        ids=["samples", "seed", "allow", "levels", "beta", "sweep",
             "missing-structure", "map-unclosed-field"])
    def test_parse_error_names_its_key(self, old, new, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            ExperimentConfig.from_string(FAST_SCALING.replace(old, new))

    @pytest.mark.parametrize("old,new,message", [
        ("map = circle-power:d={d}", "map = 50%", "map: '%' must be"),
        ("seed = 7", "seed = 7\n[output]\njson = r%.json",
         "[output]: '%' must be")], ids=["experiment", "output"])
    def test_bad_interpolation_is_config_error(self, old, new, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            ExperimentConfig.from_string(FAST_SCALING.replace(old, new))

    def test_huge_range_sweep_refused_before_expansion(self):
        # 10^9 values would hold a list of 10^9 ints and validate each
        sweep = "d=1..1000000000"
        start = time.perf_counter()
        with pytest.raises(ConfigError, match=re.escape(
                f"sweep {sweep!r} has 1000000000 values, more than the "
                f"limit of {harness.SWEEP_LIMIT}")):
            ExperimentConfig.from_string(FAST_SCALING.replace("d=1..3", sweep))
        assert time.perf_counter() - start < 1.0

    def test_range_sweep_at_the_limit_accepted(self, monkeypatch):
        monkeypatch.setattr(harness, "SWEEP_LIMIT", 3)
        cfg = ExperimentConfig.from_string(FAST_SCALING)
        assert cfg.sweep_values == [1, 2, 3]
        with pytest.raises(ConfigError, match="has 4 values"):
            ExperimentConfig.from_string(FAST_SCALING.replace("d=1..3",
                                                              "d=0..3"))

    def test_unknown_output_key_rejected(self):
        text = FAST_SCALING + "\n[output]\njson = r.json\ntxt = r.txt\n"
        with pytest.raises(ConfigError, match=re.escape(
                "unknown [output] key(s) txt; allowed: json, csv, text")):
            ExperimentConfig.from_string(text)


class TestRunScaling:
    def test_winding_sweep_passes(self):
        rep = run_scaling(fast_config())
        assert rep.passed
        block = rep.blocks[0]
        assert block.hypothesis_ok
        assert block.ratios_bounded and block.slope_ok
        assert [r.parameter for r in block.rows] == [1, 2, 3]
        assert all(abs(r.invariant - r.parameter) < 1e-10 for r in block.rows)
        assert all(r.ratio_err >= 0 for r in block.rows)

    def test_below_threshold_never_passes(self):
        cfg = fast_config(betas=[F(1, 4)], allow_beta_below_threshold=True)
        rep = run_scaling(cfg)
        block = rep.blocks[0]
        assert not block.hypothesis_ok
        assert not block.passed
        assert block.tag == "outside theorem hypothesis"
        assert not rep.passed     # no in-hypothesis block at all

    def test_symbolic_structure_rejected(self):
        with pytest.raises(ConfigError, match="not numerically evaluable"):
            fast_config(structure="cp2:beta")

    def test_row_failure_recorded_run_continues(self):
        cfg = fast_config(map_template="perturb:eps={d},m=3|hopf")
        # eps = 1..3 all leave the tubular neighborhood: rows carry errors
        rep = run_scaling(cfg)
        assert all(r.error for r in rep.blocks[0].rows)
        assert not rep.passed

    def test_solver_statistics_reported(self, tmp_path):
        # rows carry the worst d^{-1} statistics over levels and terms;
        # the winding structure has no d^{-1} and reports zeros
        cfg = fast_config(structure="hopf:n=1",
                          map_template="compose:suspension:d={d}|hopf",
                          sweep_values=[1], betas=[F(4, 5)], levels=[1],
                          samples=2000)
        row = run_scaling(cfg).blocks[0].rows[0]
        assert not row.error
        assert row.solver_iterations > 0
        assert 0 < row.solver_residual <= 1e-9
        assert 0 < row.closedness <= 1e-3
        rep = run_scaling(fast_config(sweep_values=[1]))
        winding = rep.blocks[0].rows[0]
        assert (winding.solver_iterations, winding.solver_residual,
                winding.closedness) == (0, 0.0, 0.0)
        for fmt in ("json", "csv", "text"):
            emit_report(rep, fmt, str(tmp_path / f"r.{fmt}"))
        assert load_report(str(tmp_path / "r.json"))["blocks"][0]["rows"][0][
            "solver_iterations"] == 0
        head = (tmp_path / "r.csv").read_text().splitlines()[0].split(",")
        assert {"solver_iterations", "solver_residual", "closedness"} <= set(head)
        assert "solver_residual=0.0" in (tmp_path / "r.text").read_text()

    def test_invariant_computed_once_per_run(self, monkeypatch, tmp_path):
        # the invariant does not depend on beta: a two-beta sweep evaluates
        # each (map, level) once and reports what one-beta runs report
        calls, hardt_riviere = [], harness.hardt_riviere

        def counted(f, structure, mesh):
            calls.append((f.name, mesh.level))
            return hardt_riviere(f, structure, mesh)

        monkeypatch.setattr(harness, "hardt_riviere", counted)
        cfg = ExperimentConfig.from_string(HOLDER_TWO_BETA)
        rep = run_scaling(cfg)
        assert len(calls) == len(set(calls)) == 6
        singles = [run_scaling(replace(cfg, betas=[b])) for b in cfg.betas]
        assert len(calls) == 18
        assert rep.passed == all(s.passed for s in singles)
        joined = replace(rep, blocks=[s.blocks[0] for s in singles])
        for fmt in ("json", "csv", "text"):
            emit_report(rep, fmt, str(tmp_path / f"run.{fmt}"))
            emit_report(joined, fmt, str(tmp_path / f"joined.{fmt}"))
            assert ((tmp_path / f"run.{fmt}").read_bytes()
                    == (tmp_path / f"joined.{fmt}").read_bytes())

    def test_one_mesh_per_level(self, hopf_two_beta):
        # 2 maps x 2 levels x 2 betas share one mesh per level
        _, builds = hopf_two_beta
        assert builds == [(3, 1), (3, 2)]

    def test_one_level_sweep_builds_once(self, monkeypatch):
        builds = count_builds(monkeypatch)
        run_scaling(ExperimentConfig.from_string(
            HOPF_TWO_BETA.replace("levels = 1,2", "levels = 1")))
        assert builds == [(3, 1)]

    def test_shared_mesh_rows_match_fresh_meshes(self, hopf_two_beta):
        rep, _ = hopf_two_beta
        cfg = ExperimentConfig.from_string(HOPF_TWO_BETA)
        fresh = {}
        for block in rep.blocks:
            for row in block.rows:
                if row.map_spec not in fresh:
                    fresh[row.map_spec] = invariant_fields(
                        row.map_spec, cfg.structure, cfg.levels)
                assert row_invariant_fields(row) == fresh[row.map_spec]

    def test_failed_row_leaves_later_rows_alone(self):
        # eps = -0.15 fails the closedness gate at level 1 after the level-1
        # operator is built; the rows after it read as in a run without it,
        # whose seed moves up one row so the later rows keep their seeds
        cfg = ExperimentConfig.from_string(PERTURBED_SWEEP)
        rows = run_scaling(cfg).blocks[0].rows
        assert rows[0].error.startswith("ValueError: input not closed")
        assert not any(r.error for r in rows[1:])
        without = replace(cfg, sweep_values=cfg.sweep_values[1:],
                          seed=cfg.seed + 1000)
        alone = run_scaling(without).blocks[0].rows
        assert [asdict(r) for r in rows[1:]] == [asdict(r) for r in alone]
        for row in rows[1:]:
            assert row_invariant_fields(row) == invariant_fields(
                row.map_spec, cfg.structure, cfg.levels)

    def test_constant_row_zero_ratio(self):
        cfg = fast_config(sweep_values=[0], levels=[3])
        rep = run_scaling(cfg)
        row = rep.blocks[0].rows[0]
        assert row.invariant == 0.0 and row.ratio == 0.0


HOPF_TWO_BETA = """
[experiment]
kind = scaling
structure = hopf:n=1
map = compose:suspension:d={d}|hopf
sweep = d=1..2
beta = 4/5, 9/10
levels = 1,2
seminorm = sobolev
samples = 2000
seed = 11
"""

PERTURBED_SWEEP = """
[experiment]
kind = scaling
structure = hopf:n=1
map = compose:perturb:eps={eps},m=3|suspension:d=2|hopf
sweep = eps=-0.15,0.0,0.002
beta = 4/5
levels = 1
seminorm = sobolev
samples = 2000
seed = 11
"""


def count_builds(mp):
    """A list that records the (dim, level) of every mesh the harness
    builds while `mp` patches it."""
    builds, build = [], harness.build_sphere_mesh

    def counted(dim, level):
        builds.append((dim, level))
        return build(dim, level)

    mp.setattr(harness, "build_sphere_mesh", counted)
    return builds


@pytest.fixture(scope="module")
def hopf_two_beta():
    """The HOPF_TWO_BETA report and the (dim, level) of every mesh build."""
    with pytest.MonkeyPatch.context() as mp:
        builds = count_builds(mp)
        rep = run_scaling(ExperimentConfig.from_string(HOPF_TWO_BETA))
    return rep, builds


def invariant_fields(spec, structure, levels):
    """A row's invariant and d^{-1} fields as float.hex, from hardt_riviere
    on a freshly built mesh per level."""
    entry = lookup(structure)
    vals, stats = [], []
    for lvl in levels[-2:]:
        res = hardt_riviere(parse_map_spec(spec), entry.structure,
                            build_sphere_mesh(entry.structure.domain_dim, lvl))
        vals.append(res.value)
        stats += res.residuals.values()
    return (vals[-1].hex(), abs(vals[-1] - vals[0]).hex(),
            max(s["iterations"] for s in stats),
            max(s["residual"] for s in stats).hex(),
            max(s["closedness"] for s in stats).hex())


def row_invariant_fields(row):
    return (row.invariant.hex(), row.invariant_err.hex(),
            row.solver_iterations, row.solver_residual.hex(),
            row.closedness.hex())


HOLDER_TWO_BETA = """
[experiment]
kind = scaling
structure = degree:s2
map = suspension:d={d}
sweep = d=1..3
beta = 1, 9/10
levels = 2,3
seminorm = holder
samples = 2000
seed = 3
"""


BMO_PROBE = """
[experiment]
kind = bmo
structure = degree:s2
map = perturb:eps={eps},m=3|const:n=2
sweep = eps=0.05,0.1
beta = 1
levels = 3
seed = 5
"""


class TestConfigChecked:
    """A config is checked once, when it is made; the runs trust it."""

    def test_loaded_config_is_frozen(self):
        cfg = ExperimentConfig.from_string(FAST_SCALING)
        with pytest.raises(FrozenInstanceError):
            cfg.seed = 1

    def test_replace_checks_again(self):
        with pytest.raises(ConfigError, match=re.escape(
                "seed must be >= 0, got -1")):
            replace(ExperimentConfig.from_string(FAST_SCALING), seed=-1)

    def test_each_spec_parsed_once_per_block(self, monkeypatch):
        cfg = fast_config(betas=[F(4, 5), F(9, 10)], levels=[3])
        specs, parse = Counter(), harness.parse_map_spec

        def counted(spec):
            specs[spec] += 1
            return parse(spec)

        monkeypatch.setattr("quanthom.harness.parse_map_spec", counted)
        run_scaling(cfg)
        assert specs == {f"circle-power:d={d}": 2 for d in (1, 2, 3)}

    @pytest.mark.parametrize("run,text", [(run_scaling, FAST_SCALING),
                                          (run_bmo_probe, BMO_PROBE)],
                             ids=["scaling", "bmo"])
    def test_one_lookup_per_run(self, monkeypatch, run, text):
        # perfbench's registry.lookup span wraps this attribute
        cfg = ExperimentConfig.from_string(text)
        calls, lookup = [], harness.lookup

        def counted(name):
            calls.append(name)
            return lookup(name)

        monkeypatch.setattr("quanthom.harness.lookup", counted)
        run(cfg)
        assert calls == [cfg.structure]


class TestRowErrors:
    """Sweep rows record expected failures by type; other errors propagate."""

    RUNS = {"scaling": lambda: run_scaling(fast_config(sweep_values=[1])),
            "bmo": lambda: run_bmo_probe(
                ExperimentConfig.from_string(BMO_PROBE))}

    @staticmethod
    def failing_spec(exc):
        def parse(spec):
            raise exc
        return parse

    def test_value_error_row_records_type(self):
        rep = run_scaling(fast_config(map_template="perturb:eps={d},m=3|hopf",
                                      sweep_values=[1]))
        assert rep.blocks[0].rows[0].error == (
            "ValueError: perturbation eps=1.0 leaves tubular neighborhood; "
            "need a finite |eps| < 0.2")

    @pytest.mark.parametrize("run", ["scaling", "bmo"])
    def test_row_records_type_and_message(self, monkeypatch, run):
        monkeypatch.setattr("quanthom.harness.parse_map_spec",
                            self.failing_spec(ArithmeticError("overflow")))
        rep = self.RUNS[run]()
        assert all(r.error == "ArithmeticError: overflow"
                   for r in rep.blocks[0].rows)

    @pytest.mark.parametrize("run", ["scaling", "bmo"])
    def test_type_error_propagates(self, monkeypatch, run):
        monkeypatch.setattr("quanthom.harness.parse_map_spec",
                            self.failing_spec(TypeError("not a map")))
        with pytest.raises(TypeError, match="not a map"):
            self.RUNS[run]()


class TestBmoProbe:
    def test_perturbed_constant_probe(self):
        cfg = ExperimentConfig.from_string(BMO_PROBE)
        rep = run_bmo_probe(cfg)
        block = rep.blocks[0]
        assert block.invariants_integral
        for r in block.rows:
            assert abs(r.invariant) < 1e-3
            assert r.bmo > 0 and r.max_extension_distance > 0


class TestReports:
    def test_bmo_report_formats(self, tmp_path):
        # one good row and one that leaves the tubular neighborhood
        rep = run_bmo_probe(ExperimentConfig.from_string(
            BMO_PROBE.replace("levels = 3", "levels = 2")
            .replace("eps=0.05,0.1", "eps=0.05,0.3")))
        for fmt in ("json", "csv", "text"):
            emit_report(rep, fmt, str(tmp_path / f"r.{fmt}"))
        row_keys = ["bmo", "bmo_err", "error", "invariant", "map_spec",
                    "max_extension_distance", "parameter", "ratio"]
        block = load_report(str(tmp_path / "r.json"))["blocks"][0]
        assert sorted(block) == ["invariants_integral", "passed",
                                 "ratio_stable", "rows"]
        assert [sorted(r) for r in block["rows"]] == [row_keys, row_keys]
        assert (tmp_path / "r.csv").read_text().splitlines()[0] == (
            "parameter,map_spec,bmo,bmo_err,max_extension_distance,"
            "invariant,ratio,error")
        text = (tmp_path / "r.text").read_text().splitlines()
        assert text[0] == "bmo experiment: FAIL"
        assert re.fullmatch(
            r"  parameter=0\.05  map_spec=perturb:eps=0\.05,m=3\|const:n=2"
            r"  bmo=\S+  bmo_err=\S+  max_extension_distance=\S+"
            r"  invariant=\S+  ratio=\S+", text[1])
        assert text[2] == (
            "  parameter=0.3  map_spec=perturb:eps=0.3,m=3|const:n=2  bmo=nan"
            "  bmo_err=nan  max_extension_distance=nan  invariant=nan"
            "  ratio=nan  error=ValueError: perturbation eps=0.3 leaves "
            "tubular neighborhood; need a finite |eps| < 0.2")

    def test_json_roundtrip(self, tmp_path):
        rep = run_scaling(fast_config())
        path = tmp_path / "report.json"
        emit_report(rep, "json", str(path))
        loaded = load_report(str(path))
        assert loaded == rep.as_dict()

    def test_reproducibility_byte_identical(self, tmp_path):
        paths = []
        for i in (0, 1):
            rep = run_scaling(fast_config())
            p = tmp_path / f"rep{i}.json"
            emit_report(rep, "json", str(p))
            paths.append(p)
        docs = []
        for p in paths:
            d = json.loads(p.read_text())
            d.pop("timestamp")
            docs.append(json.dumps(d, sort_keys=True))
        assert docs[0] == docs[1]

    def test_csv_rows(self, tmp_path):
        rep = run_scaling(fast_config())
        path = tmp_path / "report.csv"
        emit_report(rep, "csv", str(path))
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + 3      # header + one row per sweep value
        assert lines[0].startswith("beta,parameter")

    def test_text_format(self, tmp_path):
        rep = run_scaling(fast_config())
        path = tmp_path / "report.txt"
        emit_report(rep, "text", str(path))
        text = path.read_text()
        assert "PASS" in text and "beta = 9/10" in text


class TestCli:
    def run_cli(self, *args):
        from quanthom.cli import main
        import io
        from contextlib import redirect_stdout, redirect_stderr
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(list(args))
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def test_mesh_gen(self, tmp_path):
        out = tmp_path / "mesh.txt"
        code, stdout, _ = self.run_cli("mesh", "gen", "--dim", "2",
                                       "--level", "1", "--out", str(out))
        assert code == 0
        from quanthom.geometry import SimplicialSphere
        m = SimplicialSphere.load(str(out))
        assert m.n_simplices(2) == 80

    def test_thresholds_all_json(self):
        code, stdout, _ = self.run_cli("thresholds", "--all", "--json")
        assert code == 0
        rows = json.loads(stdout)
        by_name = {r["name"]: r for r in rows}
        assert by_name["hopf:n=1"]["beta0"] == "3/4"
        assert by_name["cp2:beta"]["beta0"] == "5/6"
        assert by_name["sum:delta1"]["beta0"] == "3/4"
        assert by_name["hopf:n=2"]["beta0"] == "7/8"

    def test_thresholds_text_table(self):
        code, stdout, _ = self.run_cli("thresholds")
        assert code == 0
        lines = stdout.splitlines()
        assert lines[0].split() == ["structure", "N", "L", "beta0", "thm",
                                    "exponent", "evaluable"]
        assert set(lines[1]) == {"-"} and len(lines[1]) == len(lines[0])
        assert lines[2:] and all(len(ln) == len(lines[0]) for ln in lines[2:])
        assert any(ln.split()[:4] == ["hopf:n=1", "3", "1", "3/4"]
                   for ln in lines[2:])

    def test_thresholds_custom_degrees_text(self):
        code, stdout, _ = self.run_cli("thresholds", "--M0", "2", "--Mi", "2")
        assert code == 0
        assert stdout == "beta0 = 3/4  (alpha* = 1/2), exponent 4/beta\n"

    def test_thresholds_custom_degrees(self):
        code, stdout, _ = self.run_cli("thresholds", "--M0", "2",
                                       "--Mi", "2", "--json")
        assert code == 0
        out = json.loads(stdout)
        assert out["beta0"] == "3/4" and out["alpha_star"] == "1/2"

    @pytest.mark.parametrize("flags", [
        ("--all", "--structure", "hopf"), ("--M0", "2", "--structure", "hopf"),
        ("--all", "--M0", "2")], ids=["all-structure", "M0-structure",
                                      "all-M0"])
    def test_thresholds_conflicting_flags_exit2(self, flags):
        code, stdout, err = self.run_cli("thresholds", *flags)
        assert code == 2 and not stdout
        assert "not allowed with argument" in err

    @pytest.mark.parametrize("flags,flag", [
        (("--Mi", "2"), "--Mi"),
        (("--M0", "2", "--Mi", "2", "--beta", "1/2"), "--beta")],
        ids=["Mi-without-M0", "beta-with-M0"])
    def test_thresholds_unread_flag_exit2(self, flags, flag):
        code, stdout, err = self.run_cli("thresholds", *flags)
        assert code == 2 and not stdout
        assert f"argument {flag}:" in err

    def test_thresholds_bad_Mi_item_exit2(self):
        code, stdout, err = self.run_cli("thresholds", "--M0", "2",
                                         "--Mi", "2,x")
        assert code == 2 and not stdout
        assert "error: argument --Mi: invalid int value: 'x'" in err

    @pytest.mark.parametrize("beta,why", [
        ("1/0", "'1/0' has a zero denominator"),
        ("abc", "invalid Fraction value: 'abc'"),
        ("", "invalid Fraction value: ''"),
        ("0", "'0' is not positive"),
        ("-1", "'-1' is not positive")],
        ids=["zero-denominator", "not-a-fraction", "empty", "zero",
             "negative"])
    def test_thresholds_bad_beta_exit2(self, beta, why):
        code, stdout, err = self.run_cli("thresholds", "--all", "--beta", beta)
        assert code == 2 and not stdout
        assert err == f"error: argument --beta: {why}\n"

    def test_thresholds_beta_with_catalogue(self):
        code, stdout, _ = self.run_cli("thresholds", "--all", "--beta", "1/2",
                                       "--json")
        assert code == 0
        rows = {r["name"]: r for r in json.loads(stdout)}
        assert rows["hopf:n=1"]["exponent_at_beta"] == "8"

    def test_thresholds_text_prints_exponent_at_beta(self):
        # the README's example: the exponent 4/beta at beta = 4/5 is 5
        code, stdout, _ = self.run_cli("thresholds", "--structure",
                                       "hopf:n=1", "--beta", "4/5")
        assert code == 0
        head, rule, row = stdout.splitlines()
        assert head.split()[-2:] == ["at", "beta=4/5"]
        assert row.split() == ["hopf:n=1", "3", "1", "3/4", "3/4", "4/beta",
                               "True", "5"]
        assert len(head) == len(rule) == len(row)

    def test_invariant_command(self, tmp_path):
        out = tmp_path / "inv.json"
        code, stdout, _ = self.run_cli(
            "invariant", "--map", "circle-power:d=2", "--structure",
            "winding", "--level", "4", "--oracle", "--json-out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert abs(doc["value"] - 2.0) < 1e-10
        assert doc["nearest_int"] == 2
        assert doc["oracle"]["winding"] == 2

    def test_invariant_oracle_reports_fibers(self, tmp_path):
        out = tmp_path / "inv.json"
        code, _, _ = self.run_cli(
            "invariant", "--map", "hopf", "--structure", "hopf:n=1",
            "--level", "1", "--oracle", "--json-out", str(out))
        assert code == 0
        oracle = json.loads(out.read_text())["oracle"]
        assert oracle["rounded"] == 1
        assert oracle["min_transverse_sv"] > 1e-3
        assert [len(side) for side in oracle["points"]] == [1, 1]

    def test_invariant_reports_quadrature(self, tmp_path):
        out = tmp_path / "inv.json"
        code, _, _ = self.run_cli(
            "invariant", "--map", "hopf", "--structure", "hopf:n=1",
            "--level", "1", "--json-out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["quadrature"] == {
            "term0.projection": {"rule": "solid_angle"},
            "cs_wedge": {"degree": 2, "nodes": 4}}
        assert doc["corrections"] == {
            "term0": {"rule": "solid_angle", "chern_simons": doc["value"]}}
        # the d = 2 map's solid angles are charged at level 1: quadrature
        code, _, _ = self.run_cli(
            "invariant", "--map", "compose:suspension:d=2|hopf",
            "--structure", "hopf:n=1", "--level", "1", "--json-out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["quadrature"]["term0.projection"] == {
            "rule": "quadrature", "degree": 7, "nodes": 12}
        c = doc["corrections"]["term0"]
        assert c["rule"] == "quadrature"
        assert doc["value"] == 2.0 * c["uncorrected"] - c["chern_simons"]

    def test_invariant_symbolic_structure_exit2(self):
        # refused by name, not by the S^5 mesh build it would need
        code, stdout, err = self.run_cli(
            "invariant", "--map", "hopf", "--structure", "cp2:beta",
            "--level", "1")
        assert code == 2 and not stdout
        assert "error: structure not numerically evaluable" in err

    def test_invariant_checks_map_before_mesh_build(self, monkeypatch):
        from quanthom import cli

        def no_build(*args):
            raise AssertionError("mesh built before the map was checked")

        monkeypatch.setattr(cli, "build_sphere_mesh", no_build)
        code, stdout, err = self.run_cli(
            "invariant", "--map", "suspension:d=2", "--structure", "hopf",
            "--level", "4")
        assert code == 2 and not stdout
        assert "error: map domain does not match the structure" in err

    @pytest.mark.parametrize("spec,structure", [
        ("suspension:d=2", "degree:s2"), ("product:hopf|hopf", "s2xs2:beta1")])
    def test_invariant_oracle_without_oracle_exit2(self, monkeypatch, spec,
                                                   structure):
        from quanthom import cli

        def no_build(*args):
            raise AssertionError("mesh built before the oracle was checked")

        monkeypatch.setattr(cli, "build_sphere_mesh", no_build)
        code, stdout, err = self.run_cli(
            "invariant", "--map", spec, "--structure", structure,
            "--level", "1", "--oracle")
        assert code == 2 and not stdout
        assert err == (f"error: argument --oracle: map {spec!r} is neither "
                       f"S^3 -> S^2 (linking) nor on S^1 (winding)\n")

    def test_mesh_gen_unwritable_output_exit2(self, tmp_path, monkeypatch):
        from quanthom import cli
        builds = []
        monkeypatch.setattr(cli, "build_sphere_mesh",
                            lambda *key: builds.append(key))
        out = tmp_path / "missing" / "m.txt"
        code, stdout, err = self.run_cli("mesh", "gen", "--dim", "3",
                                         "--level", "1", "--out", str(out))
        assert code == 2 and not stdout
        assert err.startswith("error: ") and str(out) in err
        assert builds == []

    def test_invariant_unwritable_output_exit2(self, tmp_path, monkeypatch):
        from quanthom import cli

        def no_build(*args):
            raise AssertionError("mesh built before the output was checked")

        monkeypatch.setattr(cli, "build_sphere_mesh", no_build)
        out = tmp_path / "missing" / "inv.json"
        code, stdout, err = self.run_cli(
            "invariant", "--map", "circle-power:d=2", "--structure",
            "winding", "--level", "1", "--json-out", str(out))
        assert code == 2 and not stdout
        assert err.startswith("error: ") and str(out) in err

    def test_invariant_level_beyond_memory_exit2(self, monkeypatch):
        from quanthom.geometry import mesh

        def no_build(*args):
            raise AssertionError("mesh built before the level was checked")

        monkeypatch.setattr(mesh, "_cross_polytope", no_build)
        code, stdout, err = self.run_cli(
            "invariant", "--map", "hopf", "--structure", "hopf:n=1",
            "--level", "9")
        assert code == 2 and not stdout
        assert "S^3 level 9 needs an estimated" in err

    def test_seminorm_command(self):
        code, stdout, _ = self.run_cli(
            "seminorm", "--map", "circle-power:d=1", "--kind", "sobolev",
            "--beta", "0.5", "--p", "2", "--samples", "1000", "--seed", "1")
        assert code == 0
        doc = json.loads(stdout)
        assert doc["method"] == "tensor-quadrature"
        assert abs(doc["value"] - 2 * np.pi) < 1e-2

    def test_seminorm_reports_angle_count(self):
        # the S^1 rule's angle count: 256 resolve |f'| of circle-power
        code, stdout, _ = self.run_cli(
            "seminorm", "--kind", "sobolev", "--map", "circle-power:d=3")
        assert code == 0
        doc = json.loads(stdout)
        assert doc["method"] == "tensor-quadrature"
        assert doc["angles"] == 256
        code, stdout, _ = self.run_cli(
            "seminorm", "--kind", "holder", "--map", "circle-power:d=3",
            "--samples", "200")
        assert code == 0 and json.loads(stdout)["angles"] is None

    def test_removed_method_option_is_usage_error(self):
        code, stdout, err = self.run_cli(
            "seminorm", "--map", "suspension:d=1", "--kind", "sobolev",
            "--method", "stratified")
        assert code == 2 and not stdout
        assert "unrecognized arguments: --method stratified" in err

    @pytest.mark.parametrize("kind,flag", [
        ("bmo", "--samples"), ("bmo", "--beta"), ("bmo", "--p"),
        ("holder", "--p")])
    def test_seminorm_unread_flag_exit2(self, kind, flag):
        code, stdout, err = self.run_cli(
            "seminorm", "--map", "suspension:d=1", "--kind", kind, flag, "2")
        assert code == 2 and not stdout
        assert f"argument {flag}: not allowed with --kind {kind}" in err

    def test_seminorm_zero_p_exit2(self):
        # p = 0 is an error, not a request for the default N / beta
        code, stdout, err = self.run_cli(
            "seminorm", "--map", "suspension:d=1", "--kind", "sobolev",
            "--p", "0")
        assert code == 2 and not stdout
        assert "error: p must be >= 1" in err

    @pytest.mark.parametrize("p", ["inf", "nan"])
    def test_seminorm_non_finite_p_exit2(self, p):
        code, stdout, err = self.run_cli(
            "seminorm", "--map", "suspension:d=2", "--kind", "sobolev",
            "--p", p)
        assert code == 2 and not stdout
        assert f"error: p must be finite, not {p}" in err

    @pytest.mark.parametrize("kind", ["sobolev", "holder"])
    def test_seminorm_zero_samples_exit2(self, kind):
        code, stdout, err = self.run_cli(
            "seminorm", "--map", "suspension:d=1", "--kind", kind,
            "--samples", "0")
        assert code == 2 and not stdout
        assert "error: samples must be >= 1" in err

    @pytest.mark.parametrize("kind", ["sobolev", "holder", "bmo"])
    def test_seminorm_negative_seed_exit2(self, kind):
        # on S^2, where every kind draws from the seeded streams
        code, stdout, err = self.run_cli(
            "seminorm", "--map", "suspension:d=2", "--kind", kind,
            "--seed", "-1")
        assert code == 2 and not stdout
        assert "error: seed must be >= 0, not -1" in err

    def test_seminorm_negative_seed_on_circle_exit2(self):
        # the S^1 tensor rule draws no numbers, yet refuses the seed too
        code, stdout, err = self.run_cli(
            "seminorm", "--map", "circle-power:d=1", "--kind", "sobolev",
            "--seed", "-1")
        assert code == 2 and not stdout
        assert "error: seed must be >= 0, not -1" in err
        code, stdout, _ = self.run_cli(
            "seminorm", "--map", "circle-power:d=1", "--kind", "sobolev",
            "--seed", "3")
        assert code == 0 and json.loads(stdout)["seed"] is None

    @pytest.mark.parametrize("kind,name", [("sobolev", "Sobolev"),
                                           ("bmo", "BMO")])
    def test_seminorm_beyond_s3_exit2(self, kind, name):
        # the cap-angle samplers cover S^1..S^3; S^4 is refused by name,
        # not sampled by the S^3 law or failed with a bare KeyError
        code, stdout, err = self.run_cli(
            "seminorm", "--map", "antipodal:n=4", "--kind", kind)
        assert code == 2 and not stdout
        assert (f"error: no {name} seminorm on S^4: its cap angles are "
                f"sampled on S^1, S^2 and S^3 only") in err

    def test_verify_scaling_default_beta_exit2(self, tmp_path):
        # the default beta = 1 lies outside the Sobolev range (0, 1)
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(FAST_SCALING.replace("beta = 9/10\n", ""))
        code, stdout, err = self.run_cli("verify", "scaling", "--config",
                                         str(cfg))
        assert code == 2 and not stdout
        assert ("config error: beta values 1 lie outside (0, 1), the range "
                "of the sobolev seminorm") in err

    @pytest.mark.parametrize("template", [
        "suspension:d={d}", "compose:suspension:d={d}", "hopf|hopf:d={d}",
        "bogus:d={d}", "compose:hopf|suspension:d={d}",
        "product:hopf|suspension:d={d}"])
    def test_verify_scaling_map_unfit_for_structure_exit2(self, tmp_path,
                                                         monkeypatch,
                                                         template):
        # each sweep member's spec is parsed and checked against the
        # structure at load, before any mesh is built or any row runs
        def no_rows(*args):
            raise AssertionError("a row ran before the map was checked")

        monkeypatch.setattr(harness, "_sweep", no_rows)
        monkeypatch.setattr(harness, "build_sphere_mesh", no_rows)
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(FAST_SCALING.replace("structure = winding",
                                            "structure = hopf:n=1")
                       .replace("circle-power:d={d}", template)
                       .replace("beta = 9/10", "beta = 4/5"))
        code, stdout, err = self.run_cli("verify", "scaling", "--config",
                                         str(cfg))
        assert code == 2 and not stdout
        assert f"config error: map {template.format(d=1)!r}: " in err

    def test_verify_scaling_negative_level_exit2(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(FAST_SCALING.replace("levels = 3,4", "levels = -1"))
        code, stdout, err = self.run_cli("verify", "scaling", "--config",
                                         str(cfg))
        assert code == 2 and not stdout
        assert "config error: levels must be >= 0, got -1" in err

    def test_verify_scaling_unknown_experiment_key_exit2(self, tmp_path):
        # a misspelled key would otherwise leave its default in force
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(FAST_SCALING.replace("samples = 20000",
                                            "sample = 20000"))
        code, stdout, err = self.run_cli("verify", "scaling", "--config",
                                         str(cfg))
        assert code == 2 and not stdout
        assert "config error: unknown [experiment] key(s) sample;" in err

    def test_verify_scaling_ini_syntax_error_exit2(self, tmp_path):
        # exit 1 is a failed check; a config that does not parse exits 2
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(FAST_SCALING + "junk line\n")
        code, stdout, err = self.run_cli("verify", "scaling", "--config",
                                         str(cfg))
        assert code == 2 and not stdout
        n = (FAST_SCALING + "junk line").count("\n") + 1
        assert err.startswith(f"config error: config file {str(cfg)!r} "
                              f"line {n}: 'junk line' is neither")

    def test_verify_scaling_unknown_structure_exit2(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(FAST_SCALING.replace("structure = winding",
                                            "structure = nonexistent"))
        code, stdout, err = self.run_cli("verify", "scaling", "--config",
                                         str(cfg))
        assert code == 2 and not stdout
        assert err.startswith("config error: structure: unknown structure "
                              "'nonexistent'; known: [")

    def test_invariant_unknown_structure_exit2(self):
        # the lookup's KeyError is printed by its message, not its repr
        code, stdout, err = self.run_cli(
            "invariant", "--map", "hopf", "--structure", "nonexistent",
            "--level", "1")
        assert code == 2 and not stdout
        assert err.startswith("error: unknown structure 'nonexistent'; "
                              "known: [")

    def test_verify_scaling_pass_exit0(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(FAST_SCALING + f"\n[output]\njson = {tmp_path}/r.json\n")
        code, stdout, _ = self.run_cli("verify", "scaling", "--config",
                                       str(cfg))
        assert code == 0
        assert (tmp_path / "r.json").exists()

    def test_verify_scaling_unwritable_output_exit2(self, tmp_path,
                                                    monkeypatch):
        from quanthom import cli

        def no_sweep(*args):
            raise AssertionError("sweep run before the output was checked")

        monkeypatch.setattr(cli, "run_scaling", no_sweep)
        out = tmp_path / "missing" / "r.json"
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(FAST_SCALING + f"\n[output]\njson = {out}\n")
        code, stdout, err = self.run_cli("verify", "scaling", "--config",
                                         str(cfg))
        assert code == 2 and not stdout
        assert err.startswith("error: ") and str(out) in err

    def test_verify_fail_exit1(self, tmp_path):
        # the perturbed-constant distance/BMO ratio is not stable (the
        # extension distance is quadratic in eps), so this probe fails
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("""
[experiment]
kind = bmo
structure = degree:s2
map = perturb:eps={eps},m=3|const:n=2
sweep = eps=0.02,0.05,0.1
beta = 1
levels = 3
seed = 5
""")
        code, stdout, _ = self.run_cli("verify", "bmo", "--config", str(cfg))
        assert code == 1

    def test_unknown_output_key_exit2(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(FAST_SCALING + f"\n[output]\ntxt = {tmp_path}/r.txt\n")
        code, stdout, err = self.run_cli("verify", "scaling", "--config",
                                         str(cfg))
        assert code == 2 and not stdout
        assert "unknown [output] key(s) txt" in err
        assert not (tmp_path / "r.txt").exists()

    @pytest.mark.parametrize("old,new,message", [
        ("beta = 9/10", "beta = 4/0", "beta '4/0' has a zero denominator"),
        ("beta = 9/10", "beta = 9/10, 9/10",
         "beta 9/10, 9/10 repeats a value"),
        ("seed = 7", "seed = -1", "seed must be >= 0, got -1"),
        ("sweep = d=1..3", "sweep = e=1..3",
         "map 'circle-power:d={d}' does not use the sweep key 'e' as its "
         "one field"),
        ("map = circle-power:d={d}", "map = circle-power:d=2",
         "map 'circle-power:d=2' does not use the sweep key 'd' as its "
         "one field"),
        ("levels = 3,4", "levels = 3,99",
         "levels: S^1 level 99 needs an estimated")],
        ids=["zero-denominator", "duplicate-beta", "negative-seed",
             "unused-sweep-key", "template-without-field", "level-beyond-memory"])
    def test_verify_scaling_bad_key_exit2(self, tmp_path, old, new, message):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(FAST_SCALING.replace(old, new))
        code, stdout, err = self.run_cli("verify", "scaling", "--config",
                                         str(cfg))
        assert code == 2 and not stdout
        assert message in err

    def test_config_error_exit2(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(FAST_SCALING.replace("beta = 9/10", "beta = 1/10"))
        code, _, err = self.run_cli("verify", "scaling", "--config", str(cfg))
        assert code == 2
        assert "threshold" in err

    @pytest.mark.parametrize("command,kind", [("bmo", "scaling"),
                                              ("scaling", "bmo")])
    def test_verify_kind_mismatch_exit2(self, tmp_path, command, kind):
        text = FAST_SCALING if kind == "scaling" else BMO_PROBE
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(text)
        code, stdout, err = self.run_cli("verify", command, "--config",
                                         str(cfg))
        assert code == 2 and not stdout
        assert (f"config kind {kind!r} does not match 'verify {command}'"
                in err)

    def test_usage_error_exit2(self):
        code, _, _ = self.run_cli("mesh", "gen", "--dim", "2")
        assert code == 2

    def test_removed_order_option_is_usage_error(self, tmp_path, capsys):
        from quanthom.cli import main
        with pytest.raises(SystemExit) as exc:
            main(["mesh", "gen", "--dim", "2", "--level", "1",
                  "--quad-order", "6", "--out", str(tmp_path / "m.txt")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --quad-order 6" in capsys.readouterr().err
        assert not (tmp_path / "m.txt").exists()

    def test_entry_point_installed(self):
        proc = subprocess.run([sys.executable, "-m", "quanthom.cli",
                               "thresholds", "--structure", "hopf:n=1"],
                              env=package_env(), capture_output=True,
                              text=True)
        assert proc.returncode == 0
        assert "3/4" in proc.stdout
