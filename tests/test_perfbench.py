"""The benchmark's traced path runs on the pipeline as it is.

``perfbench/run.py --trace 1`` reads some of the program outside the op
loop's ``try``: after the traced ops, :func:`run.layer_metrics` reads the
verdict and the boundedness residuals of every solve's diagnostics and forms
the system matrix of every period matrix, and the tracer's wrappers read the
arguments and results of the functions they wrap.  A rename there fails the
whole run, not one op.
"""

import math
import tracemalloc

from conftest import perfbench_run

import inclusion_forge


def test_the_traced_ops_and_their_layer_metrics_run_without_error(tmp_path):
    run = perfbench_run()
    workloads = run.workloads
    bundled = workloads.load_bundled(inclusion_forge)
    runners = []
    # every corpus input; one n = 16 layout (the interpolated bank pass and
    # the gap-basis moments), one P = 800 case and one interior input
    picks = {
        "corpus": slice(None), "many_slits": slice(1), "fine_contours": slice(1), "interior_field": slice(-1, None),
    }
    for workload, pick in picks.items():
        inputs = workloads.generate(workload, 0, bundled)
        runner = workloads.Runner(inclusion_forge, inputs, tmp_path / workload)
        (tmp_path / workload).mkdir()
        runner.prepare()  # set-up runs untraced, as in run.set_up
        runners.append((runner, inputs.keys[pick]))
    tracer = run.Tracer()
    tracer.install()
    try:
        ops = 0
        for runner, keys in runners:
            for key in keys:
                tracer.op_id = ops
                runner.op(key)
                ops += 1
        metrics = run.layer_metrics(tracer, ops, inclusion_forge)
        # then the last corpus input once more, in the allocation pass
        tracer.reset()
        tracer.alloc_pass = True
        tracemalloc.start()
        try:
            corpus, keys = runners[0]
            corpus.op(keys[-1])
        finally:
            tracemalloc.stop()
    finally:
        tracer.uninstall()
    assert ops == 19
    assert not tracer.errors
    assert metrics["pipeline.verdict.VALID"] > 0 and metrics["mapper.omega_interior.self_s"] > 0
    assert all(math.isfinite(v) for v in metrics.values())
    assert all(math.isfinite(v) for v in tracer.peak_alloc.values())
