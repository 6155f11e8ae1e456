"""The call sites that perfbench/tracing.py wraps, and every public name,
exist in the package.

The tracer replaces module attributes such as quanthom.invariants.d_inverse;
a refactor that renames or drops one would leave its span empty, so the
names are checked here and not only by the benchmark's own self-test.
"""

import importlib
import importlib.util
from pathlib import Path

import quanthom  # noqa: F401

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def call_sites() -> tuple:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CALL_SITES


def test_every_traced_call_site_resolves():
    sites = call_sites()
    missing = [f"{mod}.{attr} ({span})" for mod, attr, span in sites
               if not callable(getattr(importlib.import_module(mod), attr,
                                       None))]
    assert sites and not missing, missing


def test_every_public_name_resolves():
    # a stale export fails here, not in a user's `import *`
    import quanthom.geometry
    missing = [f"{module.__name__}.{name}"
               for module in (quanthom, quanthom.geometry)
               for name in module.__all__ if not hasattr(module, name)]
    assert not missing, missing
