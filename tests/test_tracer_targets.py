"""The benchmark's span tracer (perfbench/spans.py) rebinds qcool functions
by their "<module>.<attribute>" names, so a rename in qcool breaks a traced
run unless every listed name still resolves."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_tracer_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for label in spans.TARGETS:
        module_name, attr = label.split(".")
        if not hasattr(importlib.import_module(f"qcool.{module_name}"), attr):
            missing.append(label)
    assert spans.TARGETS and missing == []
