"""The benchmark's per-layer tracer patches qci functions by name."""

import importlib
import importlib.util
from pathlib import Path

LAYERS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def test_every_traced_name_resolves():
    # a renamed or deleted function makes `perfbench/run.py --trace 1`
    # fail with AttributeError when the tracer installs its wrappers
    spec = importlib.util.spec_from_file_location("perfbench_layers",
                                                  LAYERS_PY)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    for modname, names in layers.LAYERS.items():
        module = importlib.import_module(modname)
        for name in names:
            obj = module
            for part in name.split("."):
                assert hasattr(obj, part), f"{modname}.{name}"
                obj = getattr(obj, part)
            assert callable(obj), f"{modname}.{name}"
