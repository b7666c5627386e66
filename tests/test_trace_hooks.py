"""bench/tracer.py wraps hwkit functions by name, so a rename inside the
package must fail tier-1 here instead of breaking a traced benchmark run."""

import importlib
import importlib.util
import inspect
import pathlib

TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_traced():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


def test_traced_hooks_resolve_to_functions():
    traced = load_traced()
    assert traced
    for mod_name, attr in traced:
        # resolved as Tracer._targets and Tracer.install resolve them
        owner = importlib.import_module("hwkit." + mod_name)
        owner_name, _, name = attr.rpartition(".")
        if owner_name:
            owner = getattr(owner, owner_name)
        assert inspect.isfunction(owner.__dict__.get(name)), (mod_name, attr)
