"""The benchmark's tracer wraps rigidtori methods by name; a rename in the
library must fail here, not only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_installs_on_every_named_method():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    methods = []
    for layer, classes in tracing.METHODS.items():
        module = importlib.import_module(f"rigidtori.{layer}")
        for cls_name, names in classes.items():
            cls = getattr(module, cls_name)
            methods += [(f"{layer}.{cls_name}.{name}", cls, name)
                        for name in names]
    assert [label for label, cls, name in methods if name not in vars(cls)] \
        == []
    before = [vars(cls)[name] for _, cls, name in methods]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # every span a post hook or a metric reads was installed
        assert set(tracer._post_hooks()) <= set(tracer.names)
        tracer.layer_metrics()
    finally:
        tracer.uninstall()
    assert [vars(cls)[name] for _, cls, name in methods] == before
