"""numpy, imported on its first attribute access: the closed forms never touch it.

The first access must come from one thread at a time (`LazyLoader` is not
thread-safe before Python 3.12); `rmt._collect` makes it before it starts helpers.
"""

import importlib.util
import sys


def _lazy_numpy():
    if (module := sys.modules.get("numpy")) is not None:
        return module
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules["numpy"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


np = _lazy_numpy()
