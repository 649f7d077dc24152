"""Every name the benchmark tracer patches exists in ``ffode``.

``bench/tracing.py`` wraps the functions and methods listed in ``SPANS`` and
``COUNTED`` by name.  A rename or deletion in the program would otherwise
surface only when a traced benchmark run installs the tracer.
"""

import importlib
import importlib.util
import os

import pytest

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "bench",
                       "tracing.py")


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_MODULE = _tracing()
NAMES = sorted({(module, attr) for module, attr, *_ in
                _MODULE.SPANS + _MODULE.COUNTED})


@pytest.mark.parametrize("module,attr", NAMES,
                         ids=[f"{m}.{a}" for m, a in NAMES])
def test_tracer_patched_name_resolves(module, attr):
    mod = importlib.import_module(f"ffode.{module}")
    if "." in attr:
        cls_name, method = attr.split(".")
        # the tracer patches the class's own attribute, not an inherited one
        assert callable(getattr(mod, cls_name).__dict__[method])
    else:
        assert callable(getattr(mod, attr))
