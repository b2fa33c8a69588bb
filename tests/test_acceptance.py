"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

The x = 3 periodic example operator (A = [[1, 3], [0, 1]], B = 0) does not
have an eigenvalue-free gap (-1, 1): the half-line operator has a zero-energy
bound state, blocks u_{2j+1} = mu^j v and u_even = 0, with
mu = (7 - sqrt(45))/2 ~ 0.146 and v the mu-eigenvector of -A^{-1} A^*.
Criteria 1, 2 and 6 test the operator as it is:

* criterion 1 compares the section spectrum with sigma(J) = sigma_ess u {0};
  its in-gap part must be exactly the zero-energy pair (the bound state and
  its far-boundary twin);
* criterion 2 expects zeta = 0 to be rejected as singular (the resolvent
  does not exist there), backs that with the residual of the closed-form
  bound state, measures the log((3 + sqrt 5)/2) rate at zeta = 0 on the
  bound-state eigenvector (the residue of the resolvent at 0), and checks
  the Green rate at zeta = 0.5 against the closed-form minimal decay;
* criterion 6 perturbs B_1 = 0.5 I, where the boundary state sits inside
  the gap (at 0.488); at B_1 = 1.5 I it has left the gap (0.959 at B_1 = I,
  absorbed by the band before 1.5 I), which the test asserts as a skip.
"""

import hashlib
import math
import time
import warnings

import numpy as np
import pytest

from blockjacobi import (ExperimentConfig, GapInterval, assemble_truncation,
                         band_edges, custom_sequence, detect_gap,
                         edge_scaling_study, example2_sequence, example3_rho,
                         classify_splitting, gamma_simplified, green_block,
                         inv_psi, inv_psi_d, inv_psi_tilde, inv_psi_tilde_d,
                         example1_sequence, example2_min_decay,
                         example3_sequence,
                         monodromy_splitting, psi, psi_d, psi_tilde,
                         psi_tilde_d, run, symbol_spectrum, truncated_spectrum,
                         verify_commuting_bound, verify_eigenvector_bound,
                         verify_green_bound, with_prefix)

A2 = np.array([[1.0, 3.0], [0.0, 1.0]], dtype=complex)
NORM_A2 = float(np.linalg.norm(A2, 2))
GAP2 = GapInterval(-1.0, 1.0)


def _line(num, label, ok, detail):
    print(f"\n[criterion {num}] {label}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_1_essential_spectrum_reproduction():
    t0 = time.monotonic()
    seq = example2_sequence(3.0)
    est = symbol_spectrum(seq.a(1), seq.b(1), 4096)
    edges = band_edges(est, 0.2)
    edges_ok = (len(edges) == 4
                and np.max(np.abs(edges - np.array([-5.0, -1.0, 1.0, 5.0]))) <= 1e-6)
    gaps = detect_gap(est, 0.2)
    gap_ok = (len(gaps) == 1 and abs(gaps[0].r + 1.0) <= 1e-6
              and abs(gaps[0].s - 1.0) <= 1e-6)
    trunc = truncated_spectrum(assemble_truncation(seq, 200))
    # sigma(J) = sigma_ess u {0}: the gap holds only the zero-energy bound
    # state, which the section reproduces together with its far-boundary twin
    in_gap = (trunc.samples > GAP2.r) & (trunc.samples < GAP2.s)
    gap_part = trunc.samples[in_gap]
    bound_state_ok = len(gap_part) == 2 and np.max(np.abs(gap_part)) <= 1e-8
    sigma_j = np.append(est.samples, 0.0)
    d_trunc_to_sigma = float(np.max(
        [np.min(np.abs(sigma_j - e)) for e in trunc.samples]))
    d_sigma_to_trunc = float(np.max(
        [np.min(np.abs(trunc.samples - s))
         for s in np.append(est.samples[::8], 0.0)]))
    hausdorff_ok = d_trunc_to_sigma <= 0.1 and d_sigma_to_trunc <= 0.1
    elapsed = time.monotonic() - t0
    ok = edges_ok and gap_ok and bound_state_ok and hausdorff_ok and elapsed < 10.0
    _line(1, "spectrum reproduction (sigma_ess u {0})", ok,
          f"edges_ok={edges_ok} gap_ok={gap_ok} in_gap={gap_part} "
          f"trunc->sigma={d_trunc_to_sigma:.3f} sigma->trunc={d_sigma_to_trunc:.3f} "
          f"{elapsed:.1f}s")
    assert edges_ok, f"refined band edges {edges} != {{-5, -1, 1, 5}} within 1e-6"
    assert gap_ok, f"detected gap {gaps} != (-1, 1) within 1e-6"
    assert bound_state_ok, (
        f"in-gap section eigenvalues {gap_part} are not exactly the zero-energy "
        f"pair (two eigenvalues within 1e-8 of 0)")
    assert hausdorff_ok, (
        f"Hausdorff distance between the section spectrum and "
        f"sigma_ess u {{0}}: trunc->sigma = {d_trunc_to_sigma:.3f}, "
        f"sigma->trunc = {d_sigma_to_trunc:.3f}, bound 0.1")
    assert elapsed < 10.0


def test_criterion_2_green_bound_validity():
    t0 = time.monotonic()
    seq = example2_sequence(3.0)
    cfg = ExperimentConfig(operator=seq,
                           gap={"source": "symbol"},
                           zetas=(0.0, 0.5, 0.3 + 0.2j),
                           delta="auto", eps_prime=0.01,
                           variants=("continuous", "simplified"),
                           n_blocks=300, cols=(1, 1))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = verify_green_bound(cfg)
    leaked = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    no_warning_ok = not leaked
    # zeta = 0 is an eigenvalue (the zero-energy bound state), so the
    # resolvent does not exist there and the Green solve must reject it
    at_zero = [r for r in report.experiments if r.zeta == 0]
    regular = [r for r in report.experiments if r.zeta != 0]
    singular_ok = (len(at_zero) == 2 and all(
        r.passed is False
        and r.details.get("error", "").startswith("SingularityError")
        for r in at_zero))
    # closed-form bound state on 61 blocks: u_{2j+1} = mu^j v, u_even = 0,
    # mu the contracting eigenvalue of -A^{-1} A^* (mu^2 - 7 mu + 1 = 0)
    mu = (7.0 - math.sqrt(45.0)) / 2.0
    u = np.zeros((61, 2))
    u[0::2] = mu ** np.arange(31)[:, None] * np.array([1.0, -3.0 / (1.0 + mu)])
    u = u.reshape(-1)
    op = assemble_truncation(seq, 61)
    residual = float(np.linalg.norm(op.to_dense() @ u) / np.linalg.norm(u))
    bound_state_ok = residual <= 1e-12
    regular_pass = len(regular) == 4 and all(r.passed is True for r in regular)
    # Green rate at zeta = 0.5 against the closed-form minimal decay
    rate_half = next(r.slope_measured for r in regular
                     if r.zeta == 0.5 and r.variant == "continuous")
    target_half = example2_min_decay(3.0, 0.5)
    theo_half = gamma_simplified(GAP2, 0.5, 0.01).gamma / NORM_A2
    rate_half_ok = (math.isfinite(rate_half)
                    and abs(rate_half - target_half) <= 0.02 * target_half
                    and rate_half > theo_half)
    # the residue of the resolvent at 0 is the bound-state eigenvector: the
    # zeta = 0 rate is measured on it
    eig = verify_eigenvector_bound(ExperimentConfig(
        operator=seq, gap={"source": "symbol"}, zetas=(0.0,), n_blocks=200))
    eig_res = eig.experiments[0]
    rate_zeta0 = eig_res.slope_measured
    target = math.log((3.0 + math.sqrt(5.0)) / 2.0)
    theo = gamma_simplified(GAP2, 0.0, 0.01).gamma / NORM_A2
    rate_ok = (len(eig.experiments) == 1 and abs(eig_res.zeta) <= 1e-8
               and math.isfinite(rate_zeta0)
               and abs(rate_zeta0 - target) <= 0.02 * target
               and rate_zeta0 > theo)
    elapsed = time.monotonic() - t0
    ok = (no_warning_ok and singular_ok and bound_state_ok and regular_pass
          and rate_half_ok and rate_ok and elapsed < 60.0)
    failures = {f"{r.name}": r.details.get("error", "rate/stability")
                for r in regular if r.passed is not True}
    _line(2, "Green-bound validity", ok,
          f"singular(zeta=0)={singular_ok} bound_state_residual={residual:.1e} "
          f"regular_pass={regular_pass} rate(zeta=0.5)={rate_half:.6f} "
          f"target={target_half:.6f} rate(eigvec at 0)={rate_zeta0:.7f} "
          f"target={target:.7f} theoretical={theo:.6f} {elapsed:.1f}s")
    assert no_warning_ok, f"RuntimeWarning escaped verify_green_bound: {leaked}"
    assert singular_ok, (
        f"zeta = 0 must be rejected with SingularityError: "
        f"{[(r.name, r.passed, r.details) for r in at_zero]}")
    assert bound_state_ok, f"closed-form bound state residual {residual:.3e} > 1e-12"
    assert regular_pass, f"experiments failed: {failures}"
    assert rate_half_ok, (
        f"measured Green rate at zeta = 0.5 is {rate_half}, expected "
        f"{target_half:.6f} within 2% and above {theo_half:.6f}")
    assert rate_ok, (
        f"measured bound-state rate at zeta = {eig_res.zeta} is {rate_zeta0}, "
        f"expected {target:.6f} within 2% and above {theo:.6f}")
    assert elapsed < 60.0


def test_criterion_3_band_edge_scaling():
    t0 = time.monotonic()
    res = edge_scaling_study(3.0, [1e-4, 1e-3, 1e-2], n_blocks=1200)
    elapsed = time.monotonic() - t0
    meas_ok = abs(res.slope_measured - 0.5) <= 0.05
    gamma_ok = abs(res.slope_gamma - 0.5) <= 0.05
    ok = meas_ok and gamma_ok and elapsed < 120.0
    _line(3, "band-edge sqrt scaling", ok,
          f"slope_measured={res.slope_measured:.4f} slope_gamma={res.slope_gamma:.4f} "
          f"{elapsed:.1f}s")
    assert meas_ok, f"measured-rate log-log slope {res.slope_measured} not 0.5 +- 0.05"
    assert gamma_ok, f"gamma log-log slope {res.slope_gamma} not 0.5 +- 0.05"
    assert elapsed < 120.0


def test_criterion_4_inverse_function_suite():
    t0 = time.monotonic()
    grid = np.logspace(-10.0, 4.0, 200)
    worst = 0.0
    for t in grid:
        t = float(t)
        for fwd, inv in ((psi, inv_psi), (psi_tilde, inv_psi_tilde),
                         (psi_d, inv_psi_d), (psi_tilde_d, inv_psi_tilde_d)):
            worst = max(worst, abs(fwd(inv(t)) - t) / t)
    round_trips_ok = worst <= 1e-10
    dominance_ok = all(inv_psi_tilde_d(float(t)) > inv_psi_tilde(float(t))
                       for t in grid[grid <= 1.0])
    elapsed = time.monotonic() - t0
    ok = round_trips_ok and dominance_ok and elapsed < 1.0
    _line(4, "inverse-function suite", ok,
          f"worst_round_trip={worst:.2e} dominance={dominance_ok} {elapsed:.2f}s")
    assert round_trips_ok, f"worst relative round trip {worst:.3e} > 1e-10"
    assert dominance_ok
    assert elapsed < 1.0


def test_criterion_5_example3_splitting():
    t0 = time.monotonic()
    alpha, c1, c2, x = 0.75, 0.0, 1.0, 0.0

    def dev(n, zeta):
        data = monodromy_splitting(c1, c2, x, alpha, zeta, n)
        exact = example3_rho(c1, c2, x, zeta)[0]
        return max(min(abs(r - exact), abs(r + exact)) for r in data.rho_samples)

    match_ok = True
    for zeta in (0.0, 0.5):
        data = monodromy_splitting(c1, c2, x, alpha, zeta, 10 ** 4)
        exact = math.sqrt(1.0 - zeta * zeta)
        match_ok &= abs(data.rho_plus - exact) <= 0.05 * exact
        match_ok &= abs(data.rho_minus + exact) <= 0.05 * exact
    class_ok = True
    for zeta in (0.0, 0.5, -0.5, 1.01, -1.01, 2.0, -2.0):
        data = monodromy_splitting(c1, c2, x, alpha, zeta, 10 ** 4)
        expected = "secondary-hyperbolic" if abs(zeta) < 1.0 else "secondary-elliptic"
        class_ok &= classify_splitting(data) == expected
    lo, hi = 3.5 ** (alpha - 0.1), 4.5 ** (alpha + 0.1)
    ratios = [dev(10 ** 3, z) / dev(4 * 10 ** 3, z) for z in (0.0, 0.5)]
    conv_ok = all(lo <= r <= hi for r in ratios)
    elapsed = time.monotonic() - t0
    ok = match_ok and class_ok and conv_ok and elapsed < 30.0
    _line(5, "example-3 monodromy splitting", ok,
          f"match={match_ok} classification={class_ok} "
          f"conv_ratios={[f'{r:.2f}' for r in ratios]} in [{lo:.2f}, {hi:.2f}] "
          f"{elapsed:.1f}s")
    assert match_ok
    assert class_ok
    assert conv_ok, f"deviation ratios {ratios} outside [{lo:.3f}, {hi:.3f}]"
    assert elapsed < 30.0


def test_criterion_6_eigenvector_decay():
    t0 = time.monotonic()

    def perturbed(t):
        seq = with_prefix(example2_sequence(3.0), [(A2, t * np.eye(2))])
        return ExperimentConfig(operator=seq, gap={"source": "symbol"},
                                zetas=(0.5,), delta="auto", n_blocks=200)

    # B_1 = 0.5 I keeps the boundary bound state inside the gap (at 0.488)
    report = verify_eigenvector_bound(perturbed(0.5))
    res = report.experiments[0]
    exists = len(report.experiments) == 1 and res.passed is not None
    c_b_ok = exists and math.isfinite(res.c_emp) and res.passed is True
    rate_ok = exists and res.slope_measured >= res.gamma / NORM_A2
    target = example2_min_decay(3.0, res.zeta.real) if exists else math.nan
    decay_ok = exists and abs(res.slope_measured - target) <= 0.02 * target
    # at B_1 = 1.5 I the state has left the gap: the only in-gap section
    # eigenvalue is the far-boundary artifact, so the experiment is skipped
    gone = verify_eigenvector_bound(perturbed(1.5)).experiments
    skip_ok = (len(gone) == 1 and gone[0].passed is None
               and "no N-stable gap eigenpair" in gone[0].details.get("skipped", ""))
    elapsed = time.monotonic() - t0
    ok = exists and c_b_ok and rate_ok and decay_ok and skip_ok and elapsed < 30.0
    _line(6, "eigenvector decay (B1 = 0.5 I; 1.5 I skipped)", ok,
          f"eigenpair_exists={exists} zeta0={res.zeta} C_b={res.c_emp} "
          f"slope={res.slope_measured} target={target} skip(1.5 I)={skip_ok} "
          f"detail={res.details} {elapsed:.1f}s")
    assert exists, f"no N-stable gap eigenpair for B_1 = 0.5 I: {res.details}"
    assert c_b_ok
    assert rate_ok
    assert decay_ok, (
        f"eigenvector decay slope {res.slope_measured} not within 2% of the "
        f"closed-form minimal decay {target} at zeta0 = {res.zeta}")
    assert skip_ok, (
        f"B_1 = 1.5 I must be skipped with no N-stable gap eigenpair: "
        f"{[(r.name, r.passed, r.details) for r in gone]}")
    assert elapsed < 30.0


def test_criterion_7_commuting_refinement():
    t0 = time.monotonic()
    seq = custom_sequence(
        lambda n: (np.diag([n + 3.0, 2.0 * (n + 3.0)]).astype(complex),
                   np.zeros((2, 2))), 2)
    cfg = ExperimentConfig(operator=seq,
                           gap={"source": "explicit", "r": -1.0, "s": 1.0},
                           zetas=(0.5j,), delta=1.0, n_blocks=80,
                           rows=(1, 51), cols=(1, 1), variants=("commuting",))
    report = verify_commuting_bound(cfg)
    res = report.experiments[0]
    ratio = res.details.get("direction_exponent_ratio", math.nan)
    finite_ok = res.passed is True and math.isfinite(res.c_emp)
    ratio_ok = ratio >= 1.5
    elapsed = time.monotonic() - t0
    ok = finite_ok and ratio_ok and elapsed < 30.0
    _line(7, "commuting-entry refinement", ok,
          f"C_emp={res.c_emp:.4e} exponent_ratio={ratio:.3f} {elapsed:.1f}s")
    assert finite_ok
    assert ratio_ok, f"operator/scalar envelope exponent ratio {ratio} < 1.5"
    assert elapsed < 30.0


def test_criterion_8_structural_properties(tmp_path):
    t0 = time.monotonic()
    # Green symmetry on 100 random triples across three families
    rng = np.random.default_rng(20260810)
    families = [example2_sequence(3.0),
                example3_sequence(x=0.5, alpha=0.75, c1=0.0, c2=1.0),
                example1_sequence(lambda_rule={"kind": "power"},
                                  eps_rule={"kind": "power", "scale": 0.5,
                                            "exponent": -1.0})]
    counts = (34, 33, 33)
    worst_sym = 0.0
    for seq, count in zip(families, counts):
        op = assemble_truncation(seq, 40)
        for _ in range(count):
            m, j = (int(v) for v in rng.integers(1, 41, size=2))
            zeta = complex(rng.uniform(-0.8, 0.8), rng.uniform(0.2, 1.5))
            t1 = green_block(op, zeta, [m], [j])
            t2 = green_block(op, zeta.conjugate(), [j], [m])
            worst_sym = max(worst_sym, abs(t1.norm(m, j) - t2.norm(j, m)))
    symmetry_ok = worst_sym <= 1e-8
    # example1 with eps == 0 is a band matrix in the block sense
    band_seq = example1_sequence(lambda_rule={"kind": "power"},
                                 eps_rule={"kind": "zero"})
    op = assemble_truncation(band_seq, 40)
    table = green_block(op, 0.5 + 0.5j, range(1, 41), [7])
    worst_band = max(table.norm(m, 7) for m in range(1, 41) if abs(m - 7) >= 2)
    band_ok = worst_band <= 1e-12
    # determinism: identical configs give byte-identical outputs
    cfg = {"operator": {"dim": 2, "family": "example2", "params": {"x": 3.0}},
           "gap": {"source": "symbol"}, "zetas": [[0.5, 0.0]],
           "variants": ["continuous"], "n_blocks": 60, "experiments": ["green"]}
    digests = []
    for sub in ("a", "b"):
        run(cfg, out_dir=str(tmp_path / sub))
        chunk = b"".join(sorted((p.name.encode() + p.read_bytes())
                                for p in (tmp_path / sub).glob("*")))
        digests.append(hashlib.sha256(chunk).hexdigest())
    determinism_ok = digests[0] == digests[1]
    elapsed = time.monotonic() - t0
    ok = symmetry_ok and band_ok and determinism_ok
    _line(8, "structural properties", ok,
          f"green_symmetry={worst_sym:.2e} band_property={worst_band:.2e} "
          f"determinism={determinism_ok} {elapsed:.1f}s")
    assert symmetry_ok, f"worst symmetry defect {worst_sym:.3e} > 1e-8"
    assert band_ok, f"band-matrix property violated: {worst_band:.3e} > 1e-12"
    assert determinism_ok
