"""Experiment driver: scaling studies and the small-BMO probe.

A scaling run sweeps a map-family parameter, computes the invariant and
a fractional seminorm per sweep value, and checks the bound

    |invariant| <= C * seminorm^{(N+L)/beta}

empirically: the observed ratios must stay within a factor of 3 of
their median and the fitted log-log slope must not exceed the
theoretical exponent by more than 15%.  Rows with beta at or below the
structure's threshold are never granted a PASS; they are tagged
informational (an explicit override is required to run them at all).

Configs are flat INI text (sections in brackets, key = value, lists
comma-separated); reports serialize losslessly to JSON and CSV and are
byte-reproducible for a fixed seed (timestamp field aside).
"""

from __future__ import annotations

import configparser
import csv
import datetime
import errno
import io
import json
import os
import string
from dataclasses import asdict, dataclass, field
from fractions import Fraction

import numpy as np

from .geometry import build_sphere_mesh
from .geometry.mesh import check_level_fits
from .invariants import check_evaluable, hardt_riviere
from .maps import MapSpecError, parse_map_spec
from .registry import lookup
from .seminorms import (bmo_seminorm, holder_seminorm,
                        poisson_extension_distance, sobolev_seminorm, _rng,
                        _uniform_sphere)

RATIO_SPREAD_LIMIT = 3.0
SLOPE_MARGIN = 1.15
# a BMO-probe invariant counts as integral within this distance
INTEGRALITY_TOL = 1e-3
# the most values of a range sweep lo..hi, checked before it is expanded
SWEEP_LIMIT = 10_000
# the report formats of emit_report, which are the keys of a config's
# [output] section
REPORT_FORMATS = ("json", "csv", "text")
# failures a sweep row records and runs past: bad specs and non-regular
# values (ValueError), floating-point faults, and unconverged solves
_ROW_ERRORS = (ValueError, ArithmeticError, np.linalg.LinAlgError,
               RuntimeError)


class ConfigError(ValueError):
    pass


def _read_ini(text: str, source: str) -> configparser.ConfigParser:
    """The INI text parsed; a syntax error is a ConfigError naming the
    first line at fault in `source`."""
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text, source)
        return cp
    except configparser.MissingSectionHeaderError as exc:
        n, why = exc.lineno, "comes before any [section]"
    except configparser.ParsingError as exc:
        n, why = exc.errors[0][0], "is neither a [section] nor key = value"
    except configparser.DuplicateSectionError as exc:
        n, why = exc.lineno, f"repeats section [{exc.section}]"
    except configparser.DuplicateOptionError as exc:
        n, why = exc.lineno, f"repeats key {exc.option!r} of [{exc.section}]"
    # configparser counts lines split at "\n" alone, as io.StringIO does
    line = text.split("\n")[n - 1].strip()
    raise ConfigError(f"{source} line {n}: {line!r} {why}")


def _parse_sweep(text: str):
    """`d=1..8` or `eps=0.02,0.05,0.1` -> (name, values).

    Values must be strictly ascending and non-empty; a range of more
    than SWEEP_LIMIT values is refused before it is expanded.
    """
    name, _, body = text.partition("=")
    if not body:
        raise ConfigError(f"bad sweep {text!r}")
    name = name.strip()
    body = body.strip()
    if ".." in body:
        lo, hi = (int(end) for end in body.split(".."))
        if hi - lo >= SWEEP_LIMIT:
            raise ConfigError(f"sweep {text!r} has {hi - lo + 1} values, "
                              f"more than the limit of {SWEEP_LIMIT}")
        values = list(range(lo, hi + 1))
    else:
        vals = [v.strip() for v in body.split(",")]
        try:
            values = [int(v) for v in vals]
        except ValueError:
            values = [float(v) for v in vals]
    return name, _ascending(values, "sweep", text)


def _ascending(values: list, what: str, text: str) -> list:
    """`values` parsed from `text`, if non-empty and strictly ascending."""
    if not values:
        raise ConfigError(f"empty {what} {text!r}")
    if any(a >= b for a, b in zip(values, values[1:])):
        raise ConfigError(f"{what} {text!r} is not strictly ascending")
    return values


# the keys of a config's [experiment] section: key -> (parser of its text,
# default text or None if required, what the text must be, for messages)
_EXPERIMENT_READERS = {
    "kind": (str.strip, "scaling", None),
    "structure": (str.strip, None, None),
    "map": (str.strip, None, None),
    "sweep": (_parse_sweep, None, "name=lo..hi or name=v1,v2,..."),
    "beta": (lambda text: [Fraction(b) for b in text.split(",")], "1",
             "a comma-separated list of fractions"),
    "levels": (lambda text: _ascending(
        [int(x) for x in text.split(",")] if text.strip() else [], "levels",
        text), "3", "a comma-separated list of integers"),
    "seminorm": (str.strip, "sobolev", None),
    "samples": (int, "200000", "an integer"),
    "seed": (int, "0", "an integer"),
    "allow_beta_below_threshold": (
        lambda text: configparser.ConfigParser.BOOLEAN_STATES[text.lower()],
        "false", "a boolean"),
}
_EXPERIMENT_KEYS = tuple(_EXPERIMENT_READERS)


def _read_key(sec, key: str):
    """The value of [experiment] `key`, read from its default when it is
    absent.  A missing required key, a bad % interpolation and a text the
    key's parser rejects are ConfigErrors naming the key."""
    parse, default, what = _EXPERIMENT_READERS[key]
    try:
        text = sec.get(key, default)
    except configparser.Error as exc:
        raise ConfigError(f"{key}: {exc}") from None
    if text is None:
        raise ConfigError(f"[experiment] key {key!r} is required")
    try:
        return parse(text)
    except ConfigError:
        raise
    except ZeroDivisionError:           # only a beta fraction divides
        raise ConfigError(f"{key} {text!r} has a zero denominator") from None
    except (ValueError, LookupError):
        raise ConfigError(f"{key} {text!r} is not {what}") from None


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str                      # "scaling" | "bmo"
    structure: str
    map_template: str              # e.g. "circle-power:d={d}"
    sweep_name: str
    sweep_values: list
    betas: list                    # Fractions
    levels: list                   # mesh levels, ascending
    seminorm: str = "sobolev"
    samples: int = 200_000
    seed: int = 0
    allow_beta_below_threshold: bool = False
    outputs: dict = field(default_factory=dict)

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError):
            raise ConfigError(f"cannot read config file {path!r}") from None
        return cls.from_parser(_read_ini(text, f"config file {path!r}"))

    @classmethod
    def from_string(cls, text: str) -> "ExperimentConfig":
        return cls.from_parser(_read_ini(text, "config"))

    @classmethod
    def from_parser(cls, cp: configparser.ConfigParser) -> "ExperimentConfig":
        for name, allowed in (("experiment", _EXPERIMENT_KEYS),
                              ("output", REPORT_FORMATS)):
            unknown = sorted(set(cp[name]) - set(allowed)
                             if cp.has_section(name) else ())
            if unknown:
                raise ConfigError(f"unknown [{name}] key(s) "
                                  f"{', '.join(unknown)}; allowed: "
                                  f"{', '.join(allowed)}")
        sec = cp["experiment"] if cp.has_section("experiment") else {}
        (kind, structure, template, (sweep_name, sweep_values), betas, levels,
         seminorm, samples, seed, allow) = (_read_key(sec, key)
                                            for key in _EXPERIMENT_KEYS)
        try:
            outputs = dict(cp["output"]) if cp.has_section("output") else {}
        except configparser.Error as exc:   # a bad % interpolation
            raise ConfigError(f"[output]: {exc}") from None
        return cls(kind, structure, template, sweep_name, sweep_values, betas,
                   levels, seminorm, samples, seed, allow, outputs)

    def __post_init__(self):
        """Check the config against the catalogue, so that a config that
        exists is valid: made from text or through dataclasses.replace.

        Every sweep value's map spec must parse and fit the structure
        (invariants.check_evaluable); a parameter value that the map's
        family rejects, such as a perturbation too large, is left to that
        sweep row to record."""
        if self.kind not in ("scaling", "bmo"):
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        if self.seminorm not in ("sobolev", "holder"):
            raise ConfigError(f"unknown seminorm kind {self.seminorm!r}")
        negative = [str(lvl) for lvl in self.levels if lvl < 0]
        if negative:
            raise ConfigError(f"levels must be >= 0, got {', '.join(negative)}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if len(set(self.betas)) < len(self.betas):
            raise ConfigError(f"beta {', '.join(map(str, self.betas))} "
                              f"repeats a value")
        try:
            fields = {name for _, name, _, _
                      in string.Formatter().parse(self.map_template)
                      if name is not None}
        except ValueError as exc:
            raise ConfigError(f"map {self.map_template!r}: {exc}") from None
        if fields != {self.sweep_name}:
            raise ConfigError(
                f"map {self.map_template!r} does not use the sweep key "
                f"{self.sweep_name!r} as its one field")
        if self.kind == "scaling":
            if self.samples < 1:
                raise ConfigError(f"samples must be >= 1, got {self.samples}")
            # W^{beta, N/beta} needs beta < 1; the Hoelder seminorm takes 1
            holder = self.seminorm == "holder"
            bad = [str(b) for b in self.betas
                   if not (0 < b < 1 or holder and b == 1)]
            if bad:
                raise ConfigError(
                    f"beta values {', '.join(bad)} lie outside (0, 1"
                    f"{']' if holder else ')'}, the range of the "
                    f"{self.seminorm} seminorm")
        try:
            entry = lookup(self.structure)
        except KeyError as exc:
            raise ConfigError(f"structure: {exc.args[0]}") from None
        if not entry.evaluable:
            raise ConfigError(f"structure {self.structure!r} is not "
                              f"numerically evaluable")
        structure = entry.structure
        for val in self.sweep_values:
            try:                  # a bad conversion or format spec
                spec = self.map_template.format(**{self.sweep_name: val})
            except (ValueError, LookupError) as exc:
                raise ConfigError(f"map {self.map_template!r}: {exc}") from None
            try:
                f = parse_map_spec(spec)
            except MapSpecError as exc:
                raise ConfigError(f"map {spec!r}: {exc}") from None
            except _ROW_ERRORS:
                continue          # a value its family rejects: the row's fault
            try:
                check_evaluable(f, structure, structure.domain_dim)
            except ValueError as exc:
                raise ConfigError(f"map {spec!r}: {exc}") from None
        for lvl in self.levels:
            try:
                check_level_fits(entry.structure.domain_dim, lvl)
            except ValueError as exc:
                raise ConfigError(f"levels: {exc}") from None
        b0 = entry.report.effective_beta0()
        low = [b for b in self.betas if b <= b0]
        if low and not self.allow_beta_below_threshold:
            raise ConfigError(
                f"beta values {low} do not exceed the threshold {b0} of "
                f"{self.structure!r}; set allow_beta_below_threshold to run "
                f"them as informational rows")

    def echo(self) -> dict:
        return {
            "kind": self.kind, "structure": self.structure,
            "map": self.map_template, "sweep_name": self.sweep_name,
            "sweep_values": list(self.sweep_values),
            "beta": [str(b) for b in self.betas],
            "levels": list(self.levels), "seminorm": self.seminorm,
            "samples": self.samples, "seed": self.seed,
            "allow_beta_below_threshold": self.allow_beta_below_threshold,
        }


# ----------------------------------------------------------------------
# scaling study
# ----------------------------------------------------------------------

def _sweep(config: ExperimentConfig, row_type, evaluate) -> list:
    """One row per sweep value: `evaluate(i, spec, f)` gives the numeric
    fields for the i-th map; a failure in `_ROW_ERRORS` is recorded in the row
    as `TypeName: message` and the sweep runs on."""
    rows = []
    for i, val in enumerate(config.sweep_values):
        spec = config.map_template.format(**{config.sweep_name: val})
        try:
            rows.append(row_type(val, spec,
                                 *evaluate(i, spec, parse_map_spec(spec))))
        except _ROW_ERRORS as exc:
            rows.append(row_type(val, spec,
                                 error=f"{type(exc).__name__}: {exc}"))
    return rows


def _weighted_slope(xs, ys, sx, sy, prior_slope):
    """Least squares slope of y on x with both-variable errors folded in."""
    xs, ys = np.asarray(xs), np.asarray(ys)
    var = np.asarray(sy) ** 2 + (prior_slope * np.asarray(sx)) ** 2
    w = 1.0 / np.maximum(var, 1e-12)
    xm = (w * xs).sum() / w.sum()
    ym = (w * ys).sum() / w.sum()
    sxx = (w * (xs - xm) ** 2).sum()
    if sxx <= 0:
        return None, None
    slope = float((w * (xs - xm) * (ys - ym)).sum() / sxx)
    stderr = float(np.sqrt(1.0 / sxx))
    return slope, stderr


@dataclass
class ScalingRow:
    parameter: object
    map_spec: str
    invariant: float = np.nan
    invariant_err: float = np.nan
    seminorm: float = np.nan
    seminorm_err: float = np.nan
    ratio: float = np.nan
    ratio_err: float = np.nan
    solver_iterations: int = 0
    solver_residual: float = 0.0
    closedness: float = 0.0
    error: str = ""


@dataclass
class ScalingBlock:
    beta: Fraction
    exponent: Fraction
    hypothesis_ok: bool
    rows: list
    slope: float | None = None
    slope_stderr: float | None = None
    ratios_bounded: bool = False
    slope_ok: bool = False
    passed: bool = False
    tag: str = ""


@dataclass
class Report:
    kind: str
    config: dict
    blocks: list
    passed: bool
    versions: dict = field(default_factory=dict)
    timestamp: str = ""

    def as_dict(self):
        """`asdict(self)` with every Fraction as its string, e.g. "9/10"."""
        return asdict(self, dict_factory=lambda items: {
            k: str(v) if isinstance(v, Fraction) else v for k, v in items})


def _versions() -> dict:
    import scipy

    from . import __version__
    return {"quanthom": __version__, "numpy": np.__version__,
            "scipy": scipy.__version__}


def run_scaling(config: ExperimentConfig) -> Report:
    """Sweep the family parameter and test the scaling inequality.

    The invariant does not depend on beta, so each (map, level) invariant
    is computed once per run.  Each level's mesh is built once per run
    and shared by every map and beta, so the Hodge operators it caches
    (hodge.hodge_operator) are assembled once per level, not per map.
    """
    entry = lookup(config.structure)
    structure = entry.structure
    b0 = entry.report.effective_beta0()
    # level -> mesh, and (spec, level) -> (invariant, d^{-1} statistics)
    meshes, invariants = {}, {}

    def invariant(spec, f, lvl):
        if (spec, lvl) not in invariants:
            if lvl not in meshes:
                meshes[lvl] = build_sphere_mesh(structure.domain_dim, lvl)
            res = hardt_riviere(f, structure, meshes[lvl])
            invariants[spec, lvl] = res.value, list(res.residuals.values())
        return invariants[spec, lvl]

    blocks = []
    for beta in config.betas:
        E = entry.report.exponent(beta)
        Ef = float(E)
        hypothesis_ok = beta > b0

        def evaluate(i, spec, f):
            # invariant at the finest level with a level-difference error
            # bar, and the worst d^{-1} statistics (0 without d^{-1})
            vals, stats = [], []
            for lvl in config.levels[-2:]:
                value, residuals = invariant(spec, f, lvl)
                vals.append(value)
                stats += residuals
            inv = vals[-1]
            inv_err = abs(vals[-1] - vals[0]) if len(vals) > 1 else 0.0
            solver = [max((s[key] for s in stats), default=zero)
                      for key, zero in (("iterations", 0), ("residual", 0.0),
                                        ("closedness", 0.0))]
            seed = config.seed + 1000 * i
            if config.seminorm == "sobolev":
                est = sobolev_seminorm(f, float(beta),
                                       structure.domain_dim / float(beta),
                                       samples=config.samples, seed=seed)
            else:
                est = holder_seminorm(f, float(beta), samples=config.samples,
                                      seed=seed)
            s, ds = est.value, est.error
            ratio = abs(inv) / s ** Ef if s > 0 else 0.0
            rel = 0.0
            if s > 0:
                rel = np.hypot(inv_err / max(abs(inv), 1e-300), Ef * ds / s)
            return inv, inv_err, s, ds, ratio, ratio * rel, *solver

        rows = _sweep(config, ScalingRow, evaluate)
        block = ScalingBlock(beta, E, hypothesis_ok, rows)
        good = [r for r in rows if not r.error and abs(r.invariant) > 1e-9
                and r.seminorm > 0]
        if good:
            ratios = np.array([r.ratio for r in good])
            med = float(np.median(ratios))
            block.ratios_bounded = bool(
                med > 0 and ratios.max() <= RATIO_SPREAD_LIMIT * med
                and ratios.min() >= med / RATIO_SPREAD_LIMIT)
            if len(good) >= 2:
                xs = [np.log(r.seminorm) for r in good]
                ys = [np.log(abs(r.invariant)) for r in good]
                sx = [r.seminorm_err / r.seminorm for r in good]
                sy = [r.invariant_err / abs(r.invariant) for r in good]
                block.slope, block.slope_stderr = _weighted_slope(
                    xs, ys, sx, sy, Ef)
                block.slope_ok = (block.slope is not None
                                  and block.slope <= Ef * SLOPE_MARGIN)
            else:
                block.slope_ok = True
        any_error = any(r.error for r in rows)
        block.passed = (hypothesis_ok and block.ratios_bounded
                        and block.slope_ok and not any_error)
        if not hypothesis_ok:
            block.tag = "outside theorem hypothesis"
        blocks.append(block)
    passed = all(b.passed for b in blocks if b.hypothesis_ok) and \
        any(b.hypothesis_ok for b in blocks)
    return Report("scaling", config.echo(), blocks, passed, _versions(),
                  _now())


# ----------------------------------------------------------------------
# BMO / Poisson probe
# ----------------------------------------------------------------------

@dataclass
class BmoRow:
    parameter: object
    map_spec: str
    bmo: float = np.nan
    bmo_err: float = np.nan
    max_extension_distance: float = np.nan
    invariant: float = np.nan
    ratio: float = np.nan           # distance / bmo
    error: str = ""


@dataclass
class BmoBlock:
    rows: list
    ratio_stable: bool = False
    invariants_integral: bool = False
    passed: bool = False


def _probe_points(N: int, seed: int) -> np.ndarray:
    dirs = _uniform_sphere(_rng(seed, 4242), 4, N + 1)
    return np.concatenate([r * dirs for r in (0.3, 0.6, 0.85)], axis=0)


def run_bmo_probe(config: ExperimentConfig) -> Report:
    """Small-BMO probe: oscillation, extension distance, and invariant
    along a perturbation sweep."""
    structure = lookup(config.structure).structure
    N = structure.domain_dim
    mesh = build_sphere_mesh(N, config.levels[-1])
    probes = _probe_points(N, config.seed)

    def evaluate(i, spec, f):
        est = bmo_seminorm(f, seed=config.seed + 1000 * i,
                           centers=48, cap_samples=96)
        dmax = max(d for _, d in poisson_extension_distance(f, probes, mesh))
        inv = hardt_riviere(f, structure, mesh).value
        ratio = dmax / est.value if est.value > 0 else 0.0
        return est.value, est.error, dmax, inv, ratio

    rows = _sweep(config, BmoRow, evaluate)
    block = BmoBlock(rows)
    good = [r for r in rows if not r.error]
    ratios = [r.ratio for r in good if r.ratio > 0]
    block.ratio_stable = (not ratios or
                          max(ratios) <= RATIO_SPREAD_LIMIT * min(ratios))
    block.invariants_integral = all(
        abs(r.invariant - round(r.invariant)) < INTEGRALITY_TOL for r in good)
    block.passed = (block.ratio_stable and block.invariants_integral
                    and len(good) == len(rows))
    return Report("bmo", config.echo(), [block], block.passed, _versions(),
                  _now())


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------

def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def check_writable(path: str) -> None:
    """Raise the OSError that opening `path` for writing would raise when
    its directory is missing or unwritable or it is a directory, and
    create nothing: output paths are checked before the computation."""
    folder = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(folder):
        code = errno.ENOENT
    elif not os.access(path if os.path.exists(path) else folder, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), path)


def emit_report(report: Report, fmt: str, path: str) -> str:
    """Serialize a report; JSON is lossless, CSV one row per sweep value."""
    if fmt == "json":
        with open(path, "w") as fh:
            json.dump(report.as_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    elif fmt == "csv":
        blocks = report.as_dict()["blocks"]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            for n, block in enumerate(blocks):
                # scaling rows lead with their block's beta
                lead = {"beta": block["beta"]} if "beta" in block else {}
                rows = [{**lead, **r} for r in block["rows"]]
                if n == 0:
                    writer.writerow(list(rows[0] if rows else lead))
                writer.writerows(r.values() for r in rows)
            if not blocks:
                writer.writerow(["parameter"])
    elif fmt == "text":
        with open(path, "w") as fh:
            fh.write(format_report_text(report))
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    return path


def format_report_text(report: Report) -> str:
    buf = io.StringIO()
    buf.write(f"{report.kind} experiment: "
              f"{'PASS' if report.passed else 'FAIL'}\n")
    for block in report.blocks:
        if isinstance(block, ScalingBlock):
            buf.write(f"beta = {block.beta}  exponent = {block.exponent}  "
                      f"{'PASS' if block.passed else 'FAIL'}"
                      f"{'  [' + block.tag + ']' if block.tag else ''}\n")
            if block.slope is not None:
                buf.write(f"  fitted slope {block.slope:.4f} "
                          f"(stderr {block.slope_stderr:.4f})\n")
        for r in block.rows:
            buf.write("  " + "  ".join(f"{k}={v}" for k, v in asdict(r).items()
                                       if v not in ("", None)) + "\n")
    return buf.getvalue()
