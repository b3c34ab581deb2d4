"""End-to-end acceptance gates.

Each test exercises one published gate of the artifact and prints a
single PASS/FAIL line with the measured numbers.  The determinism gate
re-runs the CSV-producing protocols at reduced scale and compares bytes.
"""

import numpy as np
import pytest

from raypose import (RobustConfig, apply_similarity, build_elimination,
                     build_quartic_cost, generate_city, generate_scene,
                     hierarchical_merge, pose_errors, rows_to_csv,
                     run_noise_sweep, run_scalability, run_stability,
                     solve_stationary)
from raypose.bench import SceneConfig, add_noise, random_similarity, trial_rng
from raypose.geometry import Correspondences

from dense_oracle import gradient, solve_one, stack_A


def _report(num, ok, detail):
    print(f"CRITERION {num} [{'PASS' if ok else 'FAIL'}] {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_numerical_stability():
    summary = run_stability(10_000, seed=0)
    worst = min(summary.fraction_below_1e9, 1.0)
    _report(1, summary.fraction_below_1e9 >= 0.98,
            f"minimal noise-free trials: {100 * worst:.2f}% of errors < 1e-9 "
            f"(gate 98%); {100 * summary.fraction_below_1e12:.2f}% < 1e-12")


def _oracle_descent(cost, n_starts, rng, iters=600):
    """Independent 512-start projected gradient descent with adaptive steps."""
    q = rng.normal(size=(n_starts, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    step = np.full(n_starts, 0.1)
    f = cost.evaluate(q)
    for _ in range(iters):
        g = gradient(cost, q)
        g = g - np.sum(g * q, axis=1, keepdims=True) * q
        cand = q - step[:, None] * g
        cand /= np.linalg.norm(cand, axis=1, keepdims=True)
        fc = cost.evaluate(cand)
        better = fc < f
        q[better] = cand[better]
        f[better] = fc[better]
        step = np.clip(np.where(better, step * 1.3, step * 0.5), 1e-16, 1.0)
    return float(f.min())


def test_criterion_2_oracle_equivalence():
    worst = 0.0
    for seed in range(100):
        rng = trial_rng(1000 + seed, 0)
        corrs, _ = generate_scene(SceneConfig(n_correspondences=6), rng)
        noisy = add_noise(corrs, 0.5, rng)
        elim = build_elimination(noisy)
        cost = build_quartic_cost(elim)
        best = min(float(cost.evaluate(q)) for q in solve_stationary(cost)[0].q)
        oracle = _oracle_descent(cost, 512, np.random.default_rng(seed))
        worst = max(worst, abs(best - oracle))
    _report(2, worst <= 1e-8,
            f"best candidate cost vs 512-start descent oracle on 100 noisy "
            f"instances: max |difference| = {worst:.3e} (gate 1e-8)")


def test_criterion_3_gradient_and_normal_equations():
    grad_worst = 0.0
    eps = 1e-6
    for case in range(1000):
        rng = trial_rng(2000 + case // 10, 0)
        corrs, _ = generate_scene(SceneConfig(n_correspondences=5), rng)
        noisy = add_noise(corrs, 0.5, rng)
        cost = build_quartic_cost(build_elimination(noisy))
        q = np.random.default_rng(case).normal(size=4)
        g = gradient(cost, q)
        fd = np.empty(4)
        for k in range(4):
            dq = np.zeros(4)
            dq[k] = eps
            fd[k] = (cost.evaluate(q + dq) - cost.evaluate(q - dq)) / (2 * eps)
        rel = np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12)
        grad_worst = max(grad_worst, rel)

    ne_worst = 0.0
    for case in range(1000):
        rng = trial_rng(3000 + case, 0)
        corrs, truth = generate_scene(SceneConfig(n_correspondences=6), rng)
        noisy = add_noise(corrs, 0.5, rng)
        elim = build_elimination(noisy)
        R = truth.rotation_matrix()
        alpha, s, t = solve_one(elim, R)
        A = stack_A(elim.origins[0], elim.directions[0], False)
        x = np.concatenate([alpha, [s], t])
        rhs = (elim.points[0] @ R.T).reshape(-1)
        ne_worst = max(ne_worst, float(np.linalg.norm(A.T @ (A @ x - rhs))))

    ok = grad_worst <= 1e-5 and ne_worst <= 1e-8
    _report(3, ok,
            f"analytic vs FD gradient on 1000 cases: max rel err "
            f"{grad_worst:.3e} (gate 1e-5); normal-equation residual on 1000 "
            f"cases: max {ne_worst:.3e} (gate 1e-8)")


def test_criterion_4_noise_sweep():
    rows, _ = run_noise_sweep(levels=tuple(range(11)), trials_per_level=200,
                              seed=0)
    gdls = {r["noise_px"]: r for r in rows if r["method"] == "gdls"}
    ume = {r["noise_px"]: r for r in rows if r["method"] == "umeyama"}
    metrics = ("rot_err_deg_mean", "trans_err_mean", "scale_err_rel_mean")
    dominated = all(gdls[lv][m] <= ume[lv][m]
                    for lv in gdls if lv >= 1.0 for m in metrics)
    rot_series = [gdls[float(lv)]["rot_err_deg_mean"] for lv in range(11)]
    monotone = all(rot_series[i] <= rot_series[i + 1] for i in range(10))
    _report(4, dominated and monotone,
            f"0-10 px sweep, 200 trials/level: gdls <= baseline at all levels "
            f">= 1 px: {dominated}; rotation error monotone nondecreasing: "
            f"{monotone}")


def test_criterion_5_scalability():
    n_values = (4, 10, 50, 100, 500, 1000, 10_000)
    rows, runtimes = run_scalability(n_values=n_values, trials=100, seed=0)
    err = {r["n"]: r["rot_err_deg_mean"] for r in rows}
    improves = err[1000] < err[4]
    x = np.array(n_values, dtype=float)
    y = np.array([runtimes[n] for n in n_values])
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot
    _report(5, improves and r2 >= 0.9,
            f"error(n=1000)={err[1000]:.3e} < error(n=4)={err[4]:.3e}: "
            f"{improves}; runtime linear fit R^2={r2:.3f} (gate 0.9)")


def _city_position_errors(cams, truths, report):
    base = [mid for mid, T in report.transform_log.items()
            if abs(T.scale - 1.0) < 1e-12 and np.allclose(T.translation, 0.0)][0]
    errs = []
    for mid, T in report.transform_log.items():
        for center in cams[mid].centers:
            world = apply_similarity(truths[base], apply_similarity(T, center))
            errs.append(np.linalg.norm(world - apply_similarity(truths[mid], center)))
    return np.array(errs)


def test_criterion_6_merge_pipeline():
    cams, truths = generate_city(10, 50, 0.3, 0.5, seed=0)
    report = hierarchical_merge(cams, RobustConfig(), seed=0)
    all_localized = report.failed_members == {} and len(report.transform_log) == 10
    median_err = float(np.median(_city_position_errors(cams, truths, report))) \
        if all_localized else float("inf")

    cams0, truths0 = generate_city(10, 50, 0.3, 0.0, seed=1)
    report0 = hierarchical_merge(cams0, RobustConfig(), seed=0)
    exact = (report0.failed_members == {} and
             _city_position_errors(cams0, truths0, report0).max() < 1e-6)

    ok = all_localized and median_err <= 1e-2 and exact
    _report(6, ok,
            f"10x50 city at 0.5 px: all subsets localized={all_localized}, "
            f"median camera position error={median_err:.3e} (gate 1e-2); "
            f"noise-free variant exact to 1e-6: {exact}")


def test_criterion_7_equivariance():
    # stands in (with criterion 6) for the unavailable real-data benchmark
    worst = 0.0
    for seed in range(20):
        rng = trial_rng(4000 + seed, 0)
        corrs, truth = generate_scene(SceneConfig(n_correspondences=6), rng)
        G = random_similarity(np.random.default_rng(seed), SceneConfig())
        moved = Correspondences(corrs.origins, corrs.directions, apply_similarity(G, corrs.points))
        from raypose import gdls_solve
        est = gdls_solve(moved).best.transform
        R_expect = truth.rotation_matrix() @ G.rotation_matrix().T
        t_expect = G.scale * truth.translation - R_expect @ G.translation
        s_expect = G.scale * truth.scale
        worst = max(worst,
                    float(np.linalg.norm(est.rotation_matrix() - R_expect)),
                    float(np.linalg.norm(est.translation - t_expect)) / max(1.0, np.linalg.norm(t_expect)),
                    abs(est.scale - s_expect) / s_expect)
    _report(7, worst <= 1e-6,
            f"world pre-transformed by known G composes into the recovered "
            f"pose on noise-free data: max deviation {worst:.3e} (gate 1e-6)")


def test_criterion_8_determinism():
    # reduced-scale re-runs of the CSV-producing protocols, byte-compared
    def stability_csv():
        from raypose.bench import stability_rows
        return rows_to_csv(stability_rows(run_stability(30, seed=0), 0))

    def noise_csv():
        rows, _ = run_noise_sweep(levels=(0, 1, 2), trials_per_level=3, seed=0)
        return rows_to_csv(rows)

    def scalability_csv():
        rows, _ = run_scalability(n_values=(4, 10, 50), trials=2, seed=0)
        return rows_to_csv(rows)

    def merge_csv():
        cams, truths = generate_city(3, 3, 0.3, 0.5, seed=0)
        report = hierarchical_merge(cams, RobustConfig(min_inliers=8), seed=0)
        med = float(np.median(_city_position_errors(cams, truths, report)))
        return rows_to_csv([{"experiment": "merge", "method": "gdls", "n": 3,
                             "noise_px": 0.5, "rot_err_deg_mean": 0.0,
                             "trans_err_mean": med, "scale_err_rel_mean": 0.0,
                             "runtime_s_mean": 0.0, "seed": 0}])

    results = {}
    for name, fn in (("stability", stability_csv), ("noise", noise_csv),
                     ("scalability", scalability_csv), ("merge", merge_csv)):
        results[name] = fn() == fn()
    ok = all(results.values())
    _report(8, ok, f"byte-identical CSVs on re-run: {results}")
