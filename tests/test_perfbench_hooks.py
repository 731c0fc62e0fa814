"""The benchmark's tracer wraps program functions by the names their modules
bind; a refactor that deletes or renames one must fail here, not only under
`perfbench/run.py --trace 1`."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = _tracing()
    hooks = [(m, a) for m, a in tracing.SPANNED] + [(m, a) for m, a, _ in tracing.COUNTED]
    assert hooks
    missing = []
    for module, attr in hooks:
        try:
            _, _, original = tracing._resolve(module, attr)
        except AttributeError:
            missing.append(f"{module}.{attr}")
            continue
        assert callable(original), f"{module}.{attr}"
    assert missing == []
