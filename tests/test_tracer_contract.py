"""The perfbench tracer wraps hallcrys functions by name.

It replaces a traced function at every ``hallcrys`` module attribute bound to
it.  Two traced names bound to one function object would be wrapped twice,
and a traced run would count each call to it twice; a traced function bound
under a second name would count that name's calls as its own.  The tracer
module is only loaded here, never installed.
"""

import importlib.util
import os
import sys

import hallcrys.cli  # noqa: F401  (imports every module the tracer names)

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_are_distinct_functions():
    tracer = _load_tracer()
    namespaces = [(name, vars(mod)) for name, mod in list(sys.modules.items())
                  if name == "hallcrys" or name.startswith("hallcrys.")]
    seen = {}
    for metric, module, path in tracer.TRACED:
        owner, attr = tracer._resolve(module, path)
        fn = getattr(owner, attr)
        assert callable(fn), metric
        assert id(fn) not in seen, f"{metric} and {seen.get(id(fn))} are one function"
        seen[id(fn)] = metric
        for name, namespace in namespaces + [(path, vars(owner))]:
            aliases = [key for key, value in namespace.items()
                       if value is fn and key != attr]
            assert not aliases, f"{metric} is also bound as {name}.{aliases[0]}"
