"""The names the benchmark's tracer needs from tdlek.

perfbench/tracer.py wraps tdlek functions by attribute replacement and
reads states and trace events through fixed names: the first parameter of
infer_fixpoint is ``st``, a returned state has ``trace`` and a sized
``wm``, and firings are ``agent.Fired`` events.  These tests load the
tracer file as it is and check each of those names, so a rename fails
here in milliseconds instead of in the benchmark's smoke run.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
