"""The benchmark's per-layer hooks still find the package functions they wrap.

``perfbench/spans.py`` reports a hook whose target is gone as absent
instead of raising, so a rename would otherwise show only as a per-layer
metric that reads 0.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_benchmark_hook_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    tracer.install()
    try:
        # the batched tape averages a batch's losses inside Tape.mse, and
        # kmer_codes builds every protein's k-mers without a per-protein call
        assert tracer.absent == ["meltshift.tape:Tape.mean_scalars",
                                 "meltshift.splitter:kmer_set"]
    finally:
        tracer.uninstall()
