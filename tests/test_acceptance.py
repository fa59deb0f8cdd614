"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; every tolerance is pinned here, not configured elsewhere.
"""

import time

import mpmath
import numpy as np

from cwkit.cli import main
from cwkit.directions import (Cap, Direction, FiniteSet, FullSphere, extract_frame,
                              frame_constant, sample_in_region, sample_uniform)
from cwkit.errors import RankDeficient
from cwkit.gallery import Gaussian, ProductLognormal, sample, switching_pair
from cwkit.moments import (MixedMoments, carleman_partial_sums, homogeneous_dim,
                           mixed_to_directional, multi_indices, multi_indices_upto,
                           reconstruct_mixed)
from cwkit.projections import Empirical, ks_distance, project
from cwkit.verdict import VerdictConfig, run_verdict, tightness_box


def report(num, name, ok, detail=""):
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {name} {detail}".rstrip())
    assert ok, f"criterion {num} failed: {name} {detail}"


def e1(d):
    v = np.zeros(d)
    v[0] = 1.0
    return Direction(v)


def test_criterion_1_moment_round_trip():
    t0 = time.perf_counter()
    worst = 0.0
    for d in (2, 3, 4):
        cap = Cap(e1(d), np.pi / 3)
        for m in range(1, 7):
            rng = np.random.default_rng(1000 * d + m)
            dim = homogeneous_dim(d, m)
            target = dict(zip(multi_indices(d, m), rng.uniform(-1.0, 1.0, dim)))
            table = {a: 0.0 for a in multi_indices_upto(d, m)}
            table[(0,) * d] = 1.0
            table.update(target)
            mm = MixedMoments(dim=d, max_order=m, values=list(table.values()))
            dirs = sample_in_region(cap, dim + 5, seed=77 * d + m)
            obs = [(u, mixed_to_directional(mm, u, m)) for u in dirs]
            rec = reconstruct_mixed(obs, d, m)
            truth = np.array([target[a] for a in rec.exponents])
            rel = np.max(np.abs(rec.coefficients - truth)) / np.max(np.abs(truth))
            worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    report(1, "moment round trip (d<=4, m<=6, dim+5 cap directions)",
           worst <= 1e-8 and elapsed < 5.0,
           f"worst rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_carleman_ground_truths():
    # lognormal: m_{2m} = e^{2m^2}, terms e^{-m}; arbitrary-precision oracle
    with mpmath.workdps(60):
        lognormal_limit = float(1 / (mpmath.e - 1))
        gaussian_oracle = float(sum(mpmath.fac2(2 * m - 1) ** (mpmath.mpf(-1) / (2 * m))
                                    for m in range(1, 101)))
    ln_seq = ProductLognormal.standard(2).projected_even_moments(e1(2), 60)
    ln_rep = carleman_partial_sums(ln_seq, 30)
    ok_ln = (ln_rep.verdict == "converging"
             and abs(ln_rep.partial_sums[-1] - lognormal_limit) <= 1e-5)

    g_seq = Gaussian.standard(2).projected_even_moments(e1(2), 200)
    g_rep = carleman_partial_sums(g_seq, 100)
    ok_g = (g_rep.verdict == "diverging"
            and 20.0 <= g_rep.partial_sums[-1] <= 24.0
            and abs(g_rep.partial_sums[-1] - gaussian_oracle) <= 1e-9)
    report(2, "Carleman ground truths (lognormal 1/(e-1) at M=30, Gaussian in [20,24] at M=100)",
           ok_ln and ok_g,
           f"lognormal sum {ln_rep.partial_sums[-1]:.6f}, gaussian sum {g_rep.partial_sums[-1]:.4f}")


def test_criterion_3_proof_inequalities_pointwise():
    violations = 0
    checked = 0
    for k in range(100):
        d = 2 + k % 4
        frame = extract_frame(sample_uniform(d, 25 * d, seed=5000 + k))
        C = frame_constant(frame)
        rng = np.random.default_rng(9000 + k)
        x = rng.standard_normal((10**4, d)) * rng.uniform(0.2, 5.0, size=(10**4, 1))
        absproj = np.abs(x @ frame.matrix.T)
        norms = np.linalg.norm(x, axis=1)
        violations += int(np.sum(norms > C * absproj.sum(axis=1) * (1 + 1e-12)))
        for m in range(1, 9):
            lhs = norms**m
            rhs = C**m * d ** (m - 1) * np.sum(absproj**m, axis=1)
            violations += int(np.sum(lhs > rhs * (1 + 1e-12)))
            checked += lhs.size
    report(3, "frame inequalities pointwise (1e4 points x 100 frames, m<=8)",
           violations == 0, f"{violations} violations in {checked} checks")


def test_criterion_4_tightness_holdout():
    worst = 1.0
    for seed in range(100):
        build = [sample(Gaussian.standard(2), 10**4, seed=2 * seed)]
        frame = extract_frame(sample_uniform(2, 10, seed=3000 + seed))
        box = tightness_box(build, frame, 0.1)
        holdout = sample(Gaussian.standard(2), 10**4, seed=2 * seed + 1)
        worst = min(worst, box.coverage(holdout))
    report(4, "tightness hold-out coverage >= 0.8 over 100 seeds (eps=0.1, n=1e4)",
           worst >= 0.8, f"worst coverage {worst:.4f}")


def test_criterion_5_switching_pair_exactness():
    p, q, certified = switching_pair([[1, 0], [0, 1]])
    exact = True
    for u in certified:
        pp, pq = project(p, u), project(q, u)
        exact = exact and pp.values.tolist() == pq.values.tolist()
        exact = exact and pp.weights.tolist() == pq.weights.tolist()
    separated = 0
    for seed in range(100):
        (u,) = sample_uniform(2, 1, seed=seed)
        if ks_distance(project(p, u), project(q, u)) > 0.2:
            separated += 1
    report(5, "switching pair: certified projections exactly equal; random KS > 0.2",
           exact and separated >= 95, f"separated {separated}/100 seeds")


def test_criterion_6_end_to_end_verdicts():
    t0 = time.perf_counter()
    g = Gaussian.standard(2)
    seq = [sample(g, n, seed=100 + i) for i, n in enumerate((100, 1000, 10000))]
    conf = VerdictConfig(region=FullSphere(2), seed=7)
    rep1 = run_verdict(seq, g, conf)

    shifted = Gaussian(np.array([1.0, 0.0]), np.eye(2))
    rep2 = run_verdict(seq, shifted, conf)

    p, q, certified = switching_pair([[1, 0], [0, 1]])
    q_exact = Empirical(q.points, label="q-atoms")
    conf3 = VerdictConfig(region=FiniteSet(tuple(certified)), seed=1,
                          moment_order=2, carleman_order=6)
    rep3 = run_verdict([q_exact, q_exact, q_exact], p, conf3)
    elapsed = time.perf_counter() - t0

    ok = (rep1.overall == "consistent_with_convergence"
          and rep2.overall == "inconsistent"
          and rep3.overall == "inconclusive"
          and "zero_measure_region" in rep3.flags
          and elapsed < 60.0)
    report(6, "end-to-end verdicts (gaussian / shifted / switching+finite)",
           ok, f"{rep1.overall} / {rep2.overall} / {rep3.overall} ({rep3.flags}), {elapsed:.1f}s")


def test_criterion_7_rank_dimension_law():
    tried = 0
    raised = 0
    d = 2
    for m in range(1, 7):
        dim = homogeneous_dim(d, m)  # m + 1 in d = 2
        for k in range(1, dim):
            angles = 0.2 + np.pi * np.arange(k) / (k + 1)  # k distinct directions
            dirs = [Direction(np.array([np.cos(t), np.sin(t)])) for t in angles]
            for obs_count in (k, dim + 3):
                obs = [(dirs[i % k], 1.0) for i in range(obs_count)]
                tried += 1
                try:
                    reconstruct_mixed(obs, d, m)
                except RankDeficient:
                    raised += 1
    report(7, "rank law: < homogeneous_dim distinct directions always RankDeficient (d=2, m<=6)",
           raised == tried, f"{raised}/{tried} raised")


def test_criterion_8_cli_determinism(tmp_path):
    rng = np.random.default_rng(77)
    files = []
    for n in (200, 2000):
        f = tmp_path / f"s{n}.csv"
        f.write_text("".join(f"{float(a)!r},{float(b)!r}\n"
                             for a, b in rng.standard_normal((n, 2))))
        files.append(str(f))
    out = tmp_path / "first"
    artifacts = ("verdict.json", "traces.csv", "config_echo.cfg")
    code = main(["verdict", "--inputs", ",".join(files), "--target", "gaussian",
                 "--directions", "15", "--seed", "5", "--out", str(out)])
    snapshot = {name: (out / name).read_bytes() for name in artifacts}
    # replaying the echo verbatim regenerates every artifact in place
    code2 = main(["run", "--config", str(out / "config_echo.cfg")])
    identical = all((out / name).read_bytes() == snapshot[name] for name in artifacts)
    # a redirected replay still reproduces the reports themselves
    replay = tmp_path / "replay"
    code3 = main(["run", "--config", str(out / "config_echo.cfg"), "--out", str(replay)])
    identical = identical and all((replay / name).read_bytes() == snapshot[name]
                                  for name in ("verdict.json", "traces.csv"))
    report(8, "CLI rerun from echoed config is byte-identical",
           code == 0 and code2 == 0 and code3 == 0 and identical,
           f"exit codes {code}/{code2}/{code3}")
