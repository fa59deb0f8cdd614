"""Reports must not depend on the number of BLAS threads.

OpenBLAS splits a dot product of more than about 10 000 terms across
threads, and each split rounds differently. The script below runs the
sums that used to be dot products (directional moments of a 30 000-point
sample target, the mixed-moment table of a 30 000-atom measure) and the
row reductions of a 30 000-point sample's mixed-moment table and standard
errors once with one BLAS thread and once with two, and the outputs must
agree byte for byte.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cwkit

SCRIPT = """
import numpy as np

from cwkit import Empirical, FullSphere, Gaussian, MixedMoments, VerdictConfig, run_verdict
from cwkit import sample as draw

law = Gaussian.standard(2)
sequence = [draw(law, 1_000, 1), draw(law, 30_000, 2)]
target = draw(law, 30_000, 3)
report = run_verdict(sequence, target, VerdictConfig(region=FullSphere(2), n_directions=5))
print(report.to_json())
for r in report.h1_results:
    print(r.trace.distances.tobytes().hex())

rng = np.random.default_rng(4)
w = rng.uniform(0.5, 1.5, 30_000)
measure = Empirical(rng.standard_normal((30_000, 2)), w / w.sum())
table = MixedMoments.from_sample(measure, 4)
print([float(v).hex() for v in table.values])

sample = MixedMoments.from_sample(Empirical(rng.standard_normal((30_000, 2))), 4)
print([float(v).hex() for v in sample.values])
print([float(v).hex() for v in sample.se])
"""

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _run(threads):
    src = str(Path(cwkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    env.update({var: str(threads) for var in THREAD_VARS})
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          timeout=300, check=True)
    return done.stdout


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs at least 2 CPUs")
def test_report_bytes_do_not_depend_on_blas_threads():
    one, two = _run(1), _run(2)
    assert one, "the script printed nothing"
    assert one == two
