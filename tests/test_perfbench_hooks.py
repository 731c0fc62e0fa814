"""The benchmark's tracer wraps program functions by the names their modules
bind; a refactor that deletes or renames one must fail here, not only under
`perfbench/run.py --trace 1`."""

import importlib.util
from fractions import Fraction as F
from pathlib import Path

from schmidtgame.matseq import MatrixSequence

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


def test_norm_miss_is_one_operator_norm_span():
    # a miss of MatrixSequence.t solves through the traced operator_norm
    # once; the second t(3) reads the record
    tracer = _tracing().Tracer()
    seq = MatrixSequence.powers(((F(2), F(1), F(0)), (F(1), F(1), F(1)), (F(0), F(1), F(3))))
    with tracer.installed():
        seq.t(3)
        seq.t(3)
    spans = [(tracer.names[nid], parent) for nid, _, _, parent in tracer.spans]
    t_spans = [i for i, (name, _) in enumerate(spans) if name == "matseq.MatrixSequence.t"]
    assert [p for name, p in spans if name == "matseq.operator_norm"] == [t_spans[0]]
    assert tracer.metrics()["matseq.t.hit_ratio"] == 0.5
