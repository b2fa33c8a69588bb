"""Harness experiments: bound verification, edge study, runner and reports."""

import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from blockjacobi import harness, spectral
from blockjacobi.cli import main as cli_main
from blockjacobi import (DomainError, ExperimentConfig, GapInterval, ParameterError,
                         PreconditionError, custom_sequence, discrete_envelope,
                         edge_scaling_study, example2_min_decay, example2_sequence,
                         example3_sequence, explicit_sequence, resolve_gap, run,
                         verify_commuting_bound, verify_eigenvector_bound,
                         verify_green_bound, with_prefix)

A2 = np.array([[1.0, 3.0], [0.0, 1.0]], dtype=complex)
NORM_A2 = float(np.linalg.norm(A2, 2))


def example2_cfg(**kw):
    base = dict(operator=example2_sequence(3.0), gap={"source": "symbol"},
                zetas=(0.5,), n_blocks=120, cols=(1, 1))
    base.update(kw)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# configuration and gap resolution

def test_config_validation():
    with pytest.raises(ParameterError):
        example2_cfg(n_blocks=3)
    with pytest.raises(ParameterError):
        example2_cfg(rows=(0, 10))
    with pytest.raises(ParameterError):
        example2_cfg(rows=(1, 200), n_blocks=100)
    with pytest.raises(ParameterError):
        example2_cfg(variants=("bogus",))
    with pytest.raises(ParameterError):
        example2_cfg(delta="automatic")


def test_config_from_json():
    cfg = ExperimentConfig.from_json({
        "operator": {"dim": 2, "family": "example2", "params": {"x": 3.0}},
        "zetas": [[0.5, 0.0], 0.25],
        "n_blocks": 50,
        "variants": ["continuous"],
    })
    assert cfg.zetas == (0.5 + 0j, 0.25 + 0j)
    assert cfg.rows == (1, 50)


@pytest.mark.parametrize("level, key", [
    (None, "gap_tol"), (None, "delta"), (None, "bogus"), ("params", "n_blocks"),
    ("params", "bogus"), ("edge", "delta"), ("edge", "epsilon"), ("edge", "eta")])
def test_config_from_json_rejects_unknown_keys(level, key):
    data = base_config_dict()
    data["edge"] = {"x": 3.0, "eps_list": [1e-3, 1e-2]}
    ExperimentConfig.from_json(data)
    (data if level is None else data[level])[key] = 0.5
    with pytest.raises(ParameterError, match=repr(key)):
        ExperimentConfig.from_json(data)


@pytest.mark.parametrize("section, message", [
    # a misspelt key must not fall back to the symbol source and default tol
    ({"gap": {"sorce": "truncation", "tl": 0.5}},
     r"^unknown gap key\(s\) 'sorce', 'tl'; expected source, tol$"),
    ({"gap": {"source": "spectral"}},
     r"^unknown gap source 'spectral'; expected symbol, truncation, explicit$"),
    ({"gap": {"source": "explicit", "r": -1.0, "s": 1.0, "tol": 0.5}},
     r"^unknown gap key\(s\) 'tol'; expected source, r, s$"),
    # a missing key must not surface as a KeyError or TypeError mid-run
    ({"gap": {"source": "explicit", "r": -1.0}}, r"^gap section needs key\(s\) 's'$"),
    ({"experiments": ["edge"], "edge": {"x": 3.0}},
     r"^edge section needs key\(s\) 'eps_list'$")])
def test_config_rejects_a_bad_gap_or_edge_section(section, message, tmp_path, capsys):
    data = dict(base_config_dict(), **section)
    with pytest.raises(ParameterError, match=message):
        ExperimentConfig.from_json(data)
    with pytest.raises(ParameterError, match=message):
        run(data)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert cli_main(["verify", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: ParameterError: ")


def test_resolve_gap_symbol():
    cfg = example2_cfg()
    gap = resolve_gap(cfg, example2_sequence(3.0))
    assert gap.r == pytest.approx(-1.0, abs=1e-9)
    assert gap.s == pytest.approx(1.0, abs=1e-9)


def test_resolve_gap_symbol_ignores_prefix():
    seq = with_prefix(example2_sequence(3.0), [(A2, 1.5 * np.eye(2))])
    cfg = example2_cfg(operator=seq)
    gap = resolve_gap(cfg, seq)
    assert gap.r == pytest.approx(-1.0, abs=1e-9)


def test_resolve_gap_period2():
    def altfn(n):
        a = 1.0 if n % 2 == 1 else 3.0
        return np.array([[a]], dtype=complex), np.zeros((1, 1))
    seq = custom_sequence(altfn, 1)
    cfg = ExperimentConfig(operator=seq, gap={"source": "symbol"},
                           zetas=(0.0,), n_blocks=20)
    gap = resolve_gap(cfg, seq)
    # dimerized chain bands are +-[|a-b|, a+b] = [2, 4] with gap (-2, 2)
    assert gap.r == pytest.approx(-2.0, abs=1e-9)
    assert gap.s == pytest.approx(2.0, abs=1e-9)


def test_resolve_gap_explicit_and_truncation():
    seq = example2_sequence(3.0)
    cfg = example2_cfg(gap={"source": "explicit", "r": -0.7, "s": 0.9})
    assert resolve_gap(cfg, seq).width == pytest.approx(1.6)
    cfg_t = example2_cfg(gap={"source": "truncation", "tol": 0.5}, n_blocks=60)
    gap = resolve_gap(cfg_t, seq)
    assert gap.contains(0.5)


def test_resolve_gap_rejects_growing_family():
    seq = example3_sequence(x=0.0, alpha=0.75, c1=0.0, c2=1.0)
    cfg = ExperimentConfig(operator=seq, gap={"source": "symbol"},
                           zetas=(0.0,), n_blocks=20)
    with pytest.raises(ParameterError):
        resolve_gap(cfg, seq)


# ---------------------------------------------------------------------------
# green bound

def test_green_bound_example2_passes_and_measures_rate():
    cfg = example2_cfg(zetas=(0.5,), variants=("continuous", "simplified", "discrete"))
    report = verify_green_bound(cfg)
    assert len(report.experiments) == 3
    for res in report.experiments:
        assert res.passed is True
        assert res.branch == "small-imaginary"
        # per-step decay of the resolvent column is the transfer-matrix rate
        assert res.slope_measured == pytest.approx(
            example2_min_decay(3.0, 0.5), rel=0.02)
        assert res.slope_measured >= res.slope_theoretical
        assert math.isfinite(res.c_emp)
        assert res.details["all_ratios_finite"]
        assert res.details["c_emp_stable"]
    cont = report.experiments[0]
    assert cont.delta is not None
    disc = report.experiments[2]
    assert disc.details["n0"] == 1


def test_green_bound_large_imaginary_branch():
    cfg = example2_cfg(zetas=(0.3 + 0.2j,))
    report = verify_green_bound(cfg)
    res = report.experiments[0]
    assert res.passed is True
    assert res.branch == "large-imaginary"
    # threshold w(0.3) eps/2 ~ 0.1192 < 0.2
    assert math.sqrt(0.91) * 0.25 / 2.0 < 0.2


def test_green_bound_singularity_is_reported_not_raised():
    # zeta = 0 sits on the zero-energy bound state of this operator
    cfg = example2_cfg(zetas=(0.0,))
    report = verify_green_bound(cfg)
    res = report.experiments[0]
    assert res.passed is False
    assert "SingularityError" in res.details["error"]
    assert report.exit_code == 1


def test_green_bound_decoupled_limit():
    # weakly coupled diagonal operator: C_emp is dominated by the m = j term
    def fn(n):
        return 1e-6 * np.eye(2, dtype=complex), float(n) * np.eye(2, dtype=complex)
    seq = custom_sequence(fn, 2)
    zeta = 0.5
    cfg = ExperimentConfig(operator=seq,
                           gap={"source": "explicit", "r": 0.0, "s": 1.0},
                           zetas=(zeta,), delta=1.0, n_blocks=12,
                           rows=(1, 12), cols=(1, 1))
    report = verify_green_bound(cfg)
    res = report.experiments[0]
    oracle = max(1.0 / abs(n - zeta) for n in range(1, 13))
    assert res.c_emp == pytest.approx(oracle, rel=1e-3)


ALL_VARIANTS = ("continuous", "simplified", "discrete")


def test_green_bound_one_solve_per_zeta_and_section(monkeypatch):
    calls, healths = [], []
    solve = harness.green_blocks

    def spy(op, zetas, rows, cols, health=True):
        calls.append((tuple(zetas), op.n_blocks))
        healths.append(health)
        return solve(op, zetas, rows, cols, health)

    monkeypatch.setattr(harness, "green_blocks", spy)
    zetas = (0.5 + 0j, 0.3 + 0.2j)
    report = verify_green_bound(example2_cfg(zetas=zetas, variants=ALL_VARIANTS))
    assert [r.passed for r in report.experiments] == [True] * 6
    # one stacked solve per section, each carrying every zeta once
    assert calls == [(zetas, n) for n in (120, 240)]
    # only the N section's sigma_min and condition are reported
    assert healths == [True, False]
    assert report.meta["counters"] == {"sections_assembled": 2, "green_solves": 4,
                                       "eigen_searches": 0, "factorizations": 2}


def sigma_min_calls(monkeypatch):
    """(segments, N d) of every sigma_min estimate made from now on."""
    calls = []
    estimate = spectral._sigma_min

    def spy(lu, ipiv, kl, segments, size):
        calls.append((segments, size))
        return estimate(lu, ipiv, kl, segments, size)

    monkeypatch.setattr(spectral, "_sigma_min", spy)
    return calls


def test_sigma_min_estimated_where_a_verdict_or_a_report_reads_it(monkeypatch):
    calls = sigma_min_calls(monkeypatch)
    # real, off-axis, within 1e-8 of the real axis, and just beyond it
    zetas = (0.5, 0.3 + 0.2j, -0.4 + 1e-9j, 0.25 + 2e-8j)
    report = verify_green_bound(example2_cfg(zetas=zetas))
    assert [r.passed for r in report.experiments] == [True] * 4
    assert all(math.isfinite(r.details["sigma_min"]) for r in report.experiments)
    # every zeta in the N section; in the 2N one only those within 1e-8
    assert calls == [(4, 240), (2, 480)]


def test_green_bound_variants_match_single_variant_runs():
    zetas = (0.5, 0.3 + 0.2j)
    shared = verify_green_bound(example2_cfg(zetas=zetas, variants=ALL_VARIANTS))
    for i, zeta in enumerate(zetas):
        for k, variant in enumerate(ALL_VARIANTS):
            alone = verify_green_bound(example2_cfg(zetas=(zeta,), variants=(variant,)))
            res, ref = shared.experiments[3 * i + k], alone.experiments[0]
            assert res.to_json() == ref.to_json()
            assert res.table == ref.table


def test_green_bound_singular_zeta_same_error_for_every_variant():
    report = verify_green_bound(example2_cfg(zetas=(0.0,), variants=ALL_VARIANTS))
    errors = [r.details["error"] for r in report.experiments]
    assert len(errors) == 3 and len(set(errors)) == 1
    assert errors[0].startswith("SingularityError: ")
    # the N section's solve failed, so the 2N section was never solved
    assert report.meta["counters"]["green_solves"] == 1


def test_green_bound_discrete_precondition_reported_before_singularity():
    # dimerized chain with couplings 0.2, 3 and an odd number of sites: zeta
    # = 0 is an exact eigenvalue, and with delta = 1 the discrete rate at 0
    # exceeds ||A_1|| = 0.2, which that variant reports first
    seq = custom_sequence(lambda n: (np.array([[0.2 if n % 2 else 3.0]], dtype=complex),
                                     np.zeros((1, 1))), 1)
    cfg = ExperimentConfig(operator=seq, gap={"source": "symbol"}, zetas=(0.0,),
                           delta=1.0, n_blocks=41, variants=ALL_VARIANTS)
    errors = [r.details["error"] for r in verify_green_bound(cfg).experiments]
    assert errors[0].startswith("SingularityError: ")
    assert errors[1] == errors[0]
    assert errors[2].startswith("PreconditionError: ")
    # alone, the discrete variant fails before any section is solved
    alone = verify_green_bound(replace(cfg, variants=("discrete",)))
    assert alone.experiments[0].details["error"] == errors[2]
    assert alone.meta["counters"]["green_solves"] == 0


@given(st.lists(st.floats(0.05, 0.6), min_size=4, max_size=30), st.data())
def test_discrete_n0_detail_is_the_widest_window_n0(norms, data):
    # with delta = 1 the discrete rate at zeta = 0 is 0.219, so some windows
    # have a valid n0 and some have none; n0 depends only on a window's far end
    n = len(norms)
    r0 = data.draw(st.integers(1, n))
    r1 = data.draw(st.integers(r0, n))
    c0 = data.draw(st.integers(1, n))
    c1 = data.draw(st.integers(c0, n))
    seq = explicit_sequence([(np.array([[a]]), np.zeros((1, 1))) for a in norms])
    gap = GapInterval(-1.0, 1.0)
    cfg = ExperimentConfig(operator=seq, gap={"source": "explicit", "r": -1.0, "s": 1.0},
                           zetas=(0.0,), delta=1.0, n_blocks=n, rows=(r0, r1),
                           cols=(c0, c1), variants=("discrete",))
    upto = max(r1, c1)
    norm_arr = seq.norms(upto)
    rate, _ = harness._resolve_rate(cfg, "discrete", gap, 0j, norm_arr)
    try:
        bound = harness._variant_bound(cfg, seq, gap, 0j, "discrete")
    except PreconditionError:
        return    # some window of the grid has no valid n0: no detail
    widest = discrete_envelope(rate, seq, min(r0, c0), upto)
    assert bound.n0 == int(widest.n0)


# ---------------------------------------------------------------------------
# eigenvector bound

def test_eigenvector_bound_perturbed_example2():
    seq = with_prefix(example2_sequence(3.0), [(A2, 0.5 * np.eye(2))])
    cfg = ExperimentConfig(operator=seq, gap={"source": "symbol"},
                           zetas=(0.5,), n_blocks=200)
    report = verify_eigenvector_bound(cfg)
    assert len(report.experiments) == 1
    res = report.experiments[0]
    assert res.passed is True
    assert res.zeta.real == pytest.approx(0.488, abs=5e-3)
    # the decay rate is at least gamma(zeta0)/||A|| and in fact equals the
    # transfer-matrix rate at the eigenvalue
    assert res.slope_measured == pytest.approx(
        example2_min_decay(3.0, res.zeta.real), rel=0.02)
    assert res.slope_measured >= res.gamma / NORM_A2
    assert res.details["residual"] <= 1e-8
    assert res.details["drift"] < 1e-6


def test_noise_floor_m_is_the_last_fitted_block():
    # the slope fits keep m in [j0 + 5, N - 10] above 1e-13 of the peak; at
    # x = 3 both decays reach that floor well before the tail margin
    green = verify_green_bound(example2_cfg()).experiments[0]
    seq = with_prefix(example2_sequence(3.0), [(A2, 0.5 * np.eye(2))])
    eig = verify_eigenvector_bound(ExperimentConfig(
        operator=seq, gap={"source": "symbol"}, zetas=(0.5,),
        n_blocks=120)).experiments[0]
    for res in (green, eig):
        ms = np.array([row[0] for row in res.table])
        norms = np.array([row[-1] for row in res.table])
        kept = ms[(ms >= 6) & (ms <= 110) & (norms > 1e-13 * norms.max())]
        assert res.details["noise_floor_m"] == kept.max() < 110
        assert res.details["fit_points"] == kept.size


def test_eigenvector_bound_skips_when_no_pair():
    seq = with_prefix(example2_sequence(3.0), [(A2, 1.5 * np.eye(2))])
    cfg = ExperimentConfig(operator=seq, gap={"source": "symbol"},
                           zetas=(0.5,), n_blocks=120)
    report = verify_eigenvector_bound(cfg)
    res = report.experiments[0]
    assert res.passed is None
    assert "no N-stable gap eigenpair" in res.details["skipped"]
    assert report.exit_code == 0  # skipped, not failed


# ---------------------------------------------------------------------------
# commuting bound

def diag_growing_seq():
    return custom_sequence(
        lambda n: (np.diag([n + 3.0, 2.0 * (n + 3.0)]).astype(complex),
                   np.zeros((2, 2))), 2)


def test_commuting_bound_diagonal_family():
    cfg = ExperimentConfig(operator=diag_growing_seq(),
                           gap={"source": "explicit", "r": -1.0, "s": 1.0},
                           zetas=(0.5j,), delta=1.0, n_blocks=80,
                           rows=(1, 51), cols=(1, 1), variants=("commuting",))
    report = verify_commuting_bound(cfg)
    res = report.experiments[0]
    assert res.passed is True
    # along the slower-growing entry the envelope grows twice as fast as the
    # scalar one built from ||A_k|| = 2(k+3)
    assert res.details["direction_exponent_ratio"] == pytest.approx(2.0, rel=1e-9)


def test_sigma_min_not_estimated_in_the_commuting_2n_section(monkeypatch):
    calls = sigma_min_calls(monkeypatch)
    report = verify_commuting_bound(ExperimentConfig(
        operator=diag_growing_seq(), gap={"source": "explicit", "r": -1.0, "s": 1.0},
        zetas=(0.5j,), delta=1.0, n_blocks=40, rows=(1, 30), cols=(1, 1),
        variants=("commuting",)))
    assert report.experiments[0].passed is True
    assert calls == [(1, 80)]


def test_commuting_bound_scalar_reduction_matches_green():
    seq = custom_sequence(lambda n: (np.array([[n + 3.0]], dtype=complex),
                                     np.zeros((1, 1))), 1)
    kw = dict(operator=seq, gap={"source": "explicit", "r": -1.0, "s": 1.0},
              zetas=(0.5j,), delta=2.0, n_blocks=40, rows=(1, 40), cols=(1, 1))
    rep_c = verify_commuting_bound(ExperimentConfig(variants=("commuting",), **kw))
    rep_g = verify_green_bound(ExperimentConfig(variants=("continuous",), **kw))
    c_comm = rep_c.experiments[0].c_emp
    c_green = rep_g.experiments[0].c_emp
    assert abs(c_comm - c_green) <= 1e-10 * c_green


def test_commuting_bound_hypothesis_violated():
    cfg = example2_cfg(variants=("commuting",), n_blocks=40, rows=(1, 30))
    report = verify_commuting_bound(cfg)
    res = report.experiments[0]
    assert res.passed is None
    assert res.details["hypothesis-violated"] == pytest.approx(9.0, rel=1e-12)
    assert report.meta["max_commutator"] == pytest.approx(9.0, rel=1e-12)


# ---------------------------------------------------------------------------
# edge study

def test_edge_study_slopes():
    res = edge_scaling_study(3.0, [1e-3, 3e-3, 1e-2], n_blocks=400)
    assert abs(res.slope_measured - 0.5) <= 0.05
    assert abs(res.slope_gamma - 0.5) <= 0.05
    for row in res.rows:
        assert row["rate_measured"] == pytest.approx(
            example2_min_decay(3.0, row["zeta"]), rel=0.05)


def test_edge_study_validation():
    with pytest.raises(DomainError):
        edge_scaling_study(1.0, [1e-3, 1e-2])
    with pytest.raises(DomainError):
        edge_scaling_study(3.0, [1e-3, 0.1])
    with pytest.raises(ParameterError):
        edge_scaling_study(3.0, [1e-3])


# ---------------------------------------------------------------------------
# runner, files, determinism

def base_config_dict():
    return {
        "operator": {"dim": 2, "family": "example2", "params": {"x": 3.0}},
        "gap": {"source": "symbol"},
        "zetas": [[0.5, 0.0]],
        "params": {"delta": "auto", "epsilon": 0.25, "eta": 0.5, "eps_prime": 0.01},
        "variants": ["continuous", "simplified"],
        "n_blocks": 80,
        "experiments": ["green"],
    }


def test_run_writes_report_and_csv(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(base_config_dict()))
    report, code = run(str(cfg_file), out_dir=str(tmp_path / "out"))
    assert code == 0
    data = json.loads((tmp_path / "out" / "report.json").read_text())
    assert {"experiments", "meta"} <= set(data.keys())
    entry = data["experiments"][0]
    assert {"name", "variant", "branch", "gamma", "delta", "C_emp",
            "slope_measured", "slope_theoretical", "pass", "N",
            "zeta"} <= set(entry.keys())
    csvs = sorted(p.name for p in (tmp_path / "out").glob("*.csv"))
    assert csvs == ["green_00.csv", "green_01.csv"]
    lines = (tmp_path / "out" / "green_00.csv").read_text().splitlines()
    assert lines[0].startswith("# blockjacobi v")
    assert lines[1] == "m,j,re_zeta,im_zeta,norm_G"
    assert len(lines) == 2 + 80


def old_csv_cell(v) -> str:
    """The per-cell formatting the row formats replace."""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


def test_csv_rows_match_per_cell_formatting(tmp_path):
    # index columns get int, numpy int and bool; value columns get float,
    # numpy float64/float32, int, numpy int, signed zero, nan and inf
    rng = np.random.default_rng(5)
    indices = [0, 7, 10**18 + 1, np.int64(42), np.int32(-3), True]
    values = [0.1, -2.5e-300, 1e16, 123456789012345678.0, 3, -0.0, math.nan,
              -math.inf, np.float64(1.0 / 3.0), np.float32(0.1), np.int64(9),
              *rng.standard_normal(20) * 10.0 ** rng.integers(-300, 300, 20)]
    for kind, header in harness._CSV_HEADERS.items():
        columns = header.split(",")
        rows = []
        for k in range(40):
            rows.append(tuple(
                indices[(k + c) % len(indices)]
                if name in ("m", "j", "index") else values[(k + c) % len(values)]
                for c, name in enumerate(columns)))
        path = tmp_path / f"{kind}.csv"
        harness._write_csv(path, kind, rows)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[1] == header
        assert lines[2:] == [",".join(old_csv_cell(v) for v in row) for row in rows]


def test_run_deterministic_reruns(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(base_config_dict()))
    digests = []
    for sub in ("a", "b"):
        run(str(cfg_file), out_dir=str(tmp_path / sub))
        chunk = b"".join(sorted((p.name.encode() + p.read_bytes())
                                for p in (tmp_path / sub).glob("*")))
        digests.append(hashlib.sha256(chunk).hexdigest())
    assert digests[0] == digests[1]


def test_run_sums_counters_over_experiment_kinds():
    cfg = base_config_dict()
    cfg["experiments"] = ["green", "eigenvector", "edge"]
    cfg["n_blocks"] = 60
    cfg["edge"] = {"x": 3.0, "eps_list": [1e-3, 1e-2], "n_blocks": 200}
    report, _ = run(cfg)
    # green: N and 2N sections, one zeta solved on each; eigenvector: the N
    # and 2N eigen-searches, one eigenvalue cluster each; edge: one section
    # solved at both eps by one stacked LU
    assert report.meta["counters"] == {"sections_assembled": 5, "green_solves": 4,
                                       "eigen_searches": 2, "factorizations": 5}


def test_run_singular_zeta_exits_nonzero(tmp_path):
    cfg = base_config_dict()
    cfg["zetas"] = [[0.0, 0.0]]
    cfg["variants"] = ["continuous"]
    report, code = run(cfg)
    assert code == 1
    assert "SingularityError" in report.experiments[0].details["error"]


def test_run_eigenvector_and_edge_kinds(tmp_path):
    cfg = base_config_dict()
    cfg["experiments"] = ["eigenvector", "edge"]
    cfg["n_blocks"] = 60
    cfg["edge"] = {"x": 3.0, "eps_list": [1e-3, 1e-2], "n_blocks": 200}
    report, code = run(cfg, out_dir=str(tmp_path / "out"))
    names = [r.name for r in report.experiments]
    assert names[0].startswith("eigenvector")
    assert names[-1] == "edge-study"
    assert (tmp_path / "out" / "edge.csv").exists()


def test_truncation_gap_resolved_once_per_config(monkeypatch):
    calls = []
    resolve = harness.resolve_gap

    def spy(cfg, seq):
        calls.append(cfg.gap["source"])
        return resolve(cfg, seq)

    monkeypatch.setattr(harness, "resolve_gap", spy)
    cfg = example2_cfg(n_blocks=60, gap={"source": "truncation", "tol": 0.5},
                       experiments=("green", "eigenvector"))
    report, _ = run(cfg)
    assert calls == ["truncation"]
    # the zero-energy bound state splits the gap; (0, 1) holds no eigenpair
    assert [r.name for r in report.experiments] == [
        "green:continuous:zeta=0.5+0j", "eigenvector:none"]
    # the gap source: one section and one eigen-search; green: the N and 2N
    # sections, one solve each; eigenvector: the N section's search, which
    # has no candidate to factor for
    assert report.meta["counters"] == {"sections_assembled": 4, "green_solves": 2,
                                       "eigen_searches": 2, "factorizations": 2}


def test_verdict_decides_every_result(monkeypatch):
    seq = with_prefix(example2_sequence(3.0), [(A2, 0.5 * np.eye(2))])
    cfgs = [ExperimentConfig(operator=seq, zetas=(0.5,), n_blocks=120,
                             variants=("continuous", "simplified", "discrete"),
                             experiments=("green", "eigenvector")),
            ExperimentConfig(operator=diag_growing_seq(),
                             gap={"source": "explicit", "r": -1.0, "s": 1.0},
                             zetas=(0.5j,), delta=1.0, n_blocks=80, rows=(1, 51),
                             variants=("commuting",), experiments=("commuting",))]
    passing = [r for cfg in cfgs for r in run(cfg)[0].experiments]
    assert [r.passed for r in passing] == [True] * 5
    verdict = harness._verdict
    monkeypatch.setattr(harness, "_verdict",
                        lambda *args: (*verdict(*args)[:4], False))
    failing = [r for cfg in cfgs for r in run(cfg)[0].experiments]
    assert [r.name for r in failing] == [r.name for r in passing]
    assert [r.passed for r in failing] == [False] * 5


def test_run_rejects_unknown_experiment():
    cfg = base_config_dict()
    cfg["experiments"] = ["frobnicate"]
    with pytest.raises(ParameterError):
        run(cfg)
