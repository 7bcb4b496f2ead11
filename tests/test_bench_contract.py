"""The names the benchmark's tracer needs from tdlek.

perfbench/tracer.py wraps tdlek functions by attribute replacement and
reads states and trace events through fixed names: the first parameter of
infer_fixpoint is ``st``, a returned state has ``trace`` and a sized
``wm``, and firings are ``agent.Fired`` events.  These tests load the
tracer file as it is and check each of those names, so a rename fails
here in milliseconds instead of in the benchmark's smoke run.  The last
test checks what perfbench/run.py's set-up relies on when it imports the
package afresh: that the superseded copy is freed.
"""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tdlek_module(short: str):
    return importlib.import_module(f"tdlek.{short}")


def test_every_traced_name_resolves():
    tracer = load_tracer()
    for _, short, attr in tracer.SPANNED + tracer.COUNTED:
        assert callable(getattr(tdlek_module(short), attr)), (short, attr)
    for _, short, cls, method in tracer.CONSTRUCTED:
        assert method in vars(getattr(tdlek_module(short), cls)), (short, cls, method)


def test_infer_fixpoint_takes_st_first():
    params = inspect.signature(tdlek_module("agent").infer_fixpoint).parameters
    assert next(iter(params)) == "st"


def test_traced_infer_counts_firings_and_memory():
    tracer = load_tracer()
    for _, short, *_ in tracer.SPANNED + tracer.COUNTED + tracer.CONSTRUCTED:
        tdlek_module(short)
    agent, parse = tdlek_module("agent"), tdlek_module("formulas").parse
    t = tracer.Tracer()
    t.install()
    try:
        st = agent.init(
            [
                "K(rain(T1,T2) -> take(T1,T2,umbrella))",
                "K(rain(T1,T2) & take(T1,T2,umbrella) -> go(T1+1,inf,shops))",
            ]
        )
        st = agent.infer_fixpoint(agent.perceive(st, parse("rain(2,2)"), 2))
    finally:
        t.uninstall()
    assert t.counts["agent.firings"] == 2
    assert [wm for _, wm, _ in t.infer_points] == [len(st.wm)] == [3]


# Imports the package twice, dropping it from sys.modules in between, and
# prints the qualified names of the first copy's classes still alive after
# a collection.  Nothing here may evaluate annotations of tdlek objects
# (typing.get_type_hints): that would fill typing's caches itself.
_REIMPORT = """
import gc, importlib, json, pkgutil, sys, weakref

def load():
    for info in pkgutil.iter_modules(importlib.import_module("tdlek").__path__):
        importlib.import_module("tdlek." + info.name)

load()
refs = [(f"{mod.__name__}.{obj.__qualname__}", weakref.ref(obj))
        for mod in list(sys.modules.values()) if mod.__name__.startswith("tdlek")
        for obj in vars(mod).values()
        if isinstance(obj, type) and obj.__module__ == mod.__name__]
for name in [m for m in sys.modules if m == "tdlek" or m.startswith("tdlek.")]:
    del sys.modules[name]
load()
gc.collect()
print(json.dumps([len(refs), sorted(name for name, ref in refs if ref() is not None)]))
"""


def test_a_superseded_import_frees_every_class():
    """perfbench's set-up imports the package afresh several times and
    expects each superseded copy to be freed.  A module-level typing
    subscription such as Union[...] or Sequence[...] over tdlek classes
    lands in typing's caches, which outlive the package and keep the
    whole old copy reachable.  Runs in a child interpreter, so this
    session's modules stay as they are."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", _REIMPORT], env=env,
                          capture_output=True, text=True, check=True, timeout=60)
    classes, survivors = json.loads(done.stdout)
    assert classes > 40
    assert not survivors, f"{len(survivors)} of {classes} classes survive: {survivors}"
