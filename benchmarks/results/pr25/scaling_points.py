"""Every ScalingPoint the fig09 / fig10 / fig11 replications compute, exactly.

Runs the three sweeps with the replications' arguments and prints each
point's fields, floats as ``repr``, as JSON.  Run it on two checkouts and
compare the outputs byte for byte::

    PYTHONPATH=CHECKOUT/src python benchmarks/results/pr25/scaling_points.py CHECKOUT > out.json
"""

import json
import sys

sys.path.insert(0, sys.argv[1] + "/benchmarks")
from conftest import paper_regime_hardware  # noqa: E402

from repro.core.options import BFSOptions  # noqa: E402
from repro.perfmodel.scaling import strong_scaling_sweep, weak_scaling_sweep  # noqa: E402

hardware = paper_regime_hardware()
points = []
for do in (True, False):
    options = BFSOptions(direction_optimized=do)
    points += weak_scaling_sweep(11, [1, 2, 4, 8, 16], 2, options, hardware, 4, 17)  # fig09
    points += weak_scaling_sweep(11, [1, 2, 4, 8, 16], 2, options, hardware, 3, 23)  # fig10
    points += strong_scaling_sweep(15, [2, 4, 8, 16, 32], 2, options, hardware, 4, 29)  # fig11
rows = [
    {
        "scale": point.scale,
        "layout": point.layout_notation,
        "num_gpus": point.num_gpus,
        "threshold": point.threshold,
        "DO": point.direction_optimized,
        "gteps": repr(point.gteps_geo_mean),
        "elapsed_ms": repr(point.elapsed_ms_geo_mean),
        "per_source_gteps": [repr(x) for x in point.per_source_gteps],
        "breakdown": {k: repr(v) for k, v in point.breakdown.as_dict().items()},
        "num_sources": point.num_sources,
    }
    for point in points
]
print(json.dumps(rows, indent=1))
