"""The whole diagnostic, end to end, on three scenarios.

Given a sequence of samples and a target law, run_verdict checks the
theorem's two hypotheses: per-direction convergence of projected laws over
a sampled direction region (h1) and the Carleman condition along an
extracted frame (h2), which the target law answers with a reason. Only
these decide the verdict; a tightness box and a mixed-moment comparison
ride along in the report as diagnostics.
"""

import json

import numpy as np

from cwkit import Empirical, FullSphere, Gaussian, VerdictConfig, run_verdict, sample

g = Gaussian.standard(2)
sequence = [sample(g, n, seed=100 + i) for i, n in enumerate((100, 1_000, 10_000))]
config = VerdictConfig(region=FullSphere(2), n_directions=50, seed=7)

# --- scenario 1: the sequence really does converge to the target ------------
report = run_verdict(sequence, g, config)
print("GAUSSIAN -> GAUSSIAN")
print(f"  overall: {report.overall}")
print(f"  h1: {sum(r.passed for r in report.h1_results)}/{len(report.h1_results)} "
      f"directions below tolerance {report.h1_tolerance:.3f}")
for r in report.carleman_reports:
    print(f"  h2 along a frame row: {r.verdict} ({r.reason})")
print(f"  tightness half-widths: {np.round(report.tightness.half_widths, 3).tolist()}")
print(f"  moment orders passed (diagnostic): {[r.passed for r in report.moment_table]}")

# --- scenario 2: the target is wrong by a mean shift -------------------------
shifted = Gaussian(np.array([1.0, 0.0]), np.eye(2))
report2 = run_verdict(sequence, shifted, config)
fails = [r for r in report2.h1_results if not r.passed]
print("\nGAUSSIAN -> SHIFTED TARGET")
print(f"  overall: {report2.overall}")
print(f"  {len(fails)} directions fail; a typical failing final distance: "
      f"{fails[0].final_distance:.3f} (KS between the shifted projections)")
print("  directions nearly orthogonal to the shift still pass:",
      f"{sum(r.passed for r in report2.h1_results)} of {len(report2.h1_results)}")

# --- scenario 3: convergence in law without convergence of moments ----------
# 100 points of each element sit at first coordinate sqrt(n): their mass
# 100/n vanishes, so the laws converge to the target, yet the second moment
# stays 100 too high. The moment gap is flagged and does not vote.
rng = np.random.default_rng(3)
outlying = []
for n in (1_000, 10_000):
    pts = rng.standard_normal((n, 2))
    pts[:100, 0] = np.sqrt(n)
    outlying.append(Empirical(pts))
report3 = run_verdict(outlying, g, config)
print("\nGAUSSIAN WITH VANISHING OUTLIERS -> GAUSSIAN")
print(f"  overall: {report3.overall}, flags {list(report3.flags)}")
print(f"  h1: {sum(r.passed for r in report3.h1_results)}/{len(report3.h1_results)} "
      f"directions pass; moment orders passed: {[r.passed for r in report3.moment_table]}")

# --- the report is a stable JSON document ------------------------------------
payload = json.loads(report.to_json())
print("\nreport keys:", sorted(payload.keys()))
print("provenance seed:", payload["provenance"]["config"]["seed"],
      "| sequence digests:", [d[:8] for d in payload["provenance"]["sequence_digests"]])

# reruns with the same inputs and seed are byte-identical
assert run_verdict(sequence, g, config).to_json() == report.to_json()
print("\nrerun with same seed reproduces the report byte for byte: True")
