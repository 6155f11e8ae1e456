"""The call sites that perfbench/tracing.py wraps, and every public name,
exist in the package, and the traced stages of `hopf-l3` are called.

The tracer replaces module attributes such as quanthom.invariants.d_inverse;
a refactor that renames or drops one would leave its span empty, so the
names are checked here and not only by the benchmark's own self-test.
The benchmark's `--trace 1` run also fails a `hopf-l3` operation that
records no call of a span in perfbench/run.py's EXPECTED_SPANS; a level-1
run of the same command checks that here.
"""

import ast
import contextlib
import importlib
import importlib.util
import io
from pathlib import Path

import quanthom  # noqa: F401

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def expected_spans(workload: str) -> tuple:
    """EXPECTED_SPANS[workload] read from run.py's syntax tree: importing
    run.py would pin the BLAS thread variables of this process."""
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    table, = [node.value for node in tree.body
              if isinstance(node, ast.Assign)
              and [t.id for t in node.targets
                   if isinstance(t, ast.Name)] == ["EXPECTED_SPANS"]]
    return ast.literal_eval(table)[workload]


def test_every_traced_call_site_resolves():
    sites = tracing().CALL_SITES
    missing = [f"{mod}.{attr} ({span})" for mod, attr, span in sites
               if not callable(getattr(importlib.import_module(mod), attr,
                                       None))]
    assert sites and not missing, missing


def test_hopf_run_calls_every_expected_span():
    # the benchmark's hopf-l3 command at level 1, under the benchmark's
    # tracer: a stage it no longer calls would fail `--trace 1` there
    from quanthom import cli

    tracer = tracing().Tracer()
    tracer.start_op(0)
    with tracer.installed(), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["invariant", "--map", "hopf", "--structure",
                         "hopf:n=1", "--level", "1"])
    assert code == 0
    called = {span["name"] for span in tracer.spans}
    expected = expected_spans("hopf-l3")
    assert expected and not set(expected) - called, set(expected) - called


def test_every_public_name_resolves():
    # a stale export fails here, not in a user's `import *`
    import quanthom.geometry
    missing = [f"{module.__name__}.{name}"
               for module in (quanthom, quanthom.geometry)
               for name in module.__all__ if not hasattr(module, name)]
    assert not missing, missing
