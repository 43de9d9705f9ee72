"""The benchmark's tracer wraps rigidtori methods by name; a rename in the
library must fail here, not only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_installs_on_every_named_method():
    tracing = load_tracing()
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


def test_tracer_reads_a_deformation_search():
    # the tracer sums newton_solve's info["iterations"] and counts returns
    # of find_projective_neighbor, so their shapes must stay readable
    import numpy as np

    from rigidtori import deform
    from rigidtori.fixtures import trivial_action

    tracing = load_tracing()
    rng = np.random.default_rng(4)
    a = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    full = np.hstack([a, np.conj(a)])
    j = (full @ np.diag([1j, 1j, -1j, -1j]) @ np.linalg.inv(full)).real
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_request(0)
        deform.find_projective_neighbor(trivial_action(4), j,
                                        max_denominator=64, epsilon=10.0)
        tracer.end_request()
        metrics = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    assert metrics["deform.newton_iterations"][0] > 0
    assert metrics["deform.found_ratio"][0] == 1
