import concurrent.futures
import dataclasses
import json
import math
import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from curvedepth import core
from curvedepth.core import (
    FunctionalSample,
    InputError,
    ParameterError,
    _jsonable,
    uniform_grid,
)
from curvedepth.depths import DEPTH_IDS, DepthParams
from curvedepth.distributions import (
    GPSpec,
    Kernel,
    counterexample_P3,
    sample_gp,
    subseed,
)
from curvedepth.properties import (
    GOLDEN,
    INAPPLICABLE,
    MARKS,
    PROPERTY_IDS,
    SATISFIED,
    VIOLATED,
    AuditConfig,
    AuditReport,
    RiceSpec,
    Verdict,
    audit_P1,
    audit_P2G,
    audit_P3,
    audit_P4,
    audit_P5,
    audit_P6,
    count_upcrossings,
    p1_transform,
    rice_expected_upcrossings,
    rice_mc_diagnostic,
    run_full_audit,
)
from curvedepth.properties import (
    _centre_outward_order,
    _combine_members,
    _p6_measurements,
)

GRID = uniform_grid()
SE = Kernel("se", 1.0, 0.2)
SE_GP = GPSpec(SE, GRID)


@pytest.fixture(scope="module")
def gp400():
    return sample_gp(SE_GP, 400, seed=11)


# ---------------------------------------------------------------------------
# Upcrossing rate: closed form and Monte Carlo
# ---------------------------------------------------------------------------


def test_rice_unit_case():
    # level 0, unit variance, unit curvature, unit domain: 1 / (2 pi)
    v = rice_expected_upcrossings(RiceSpec(0.0, 1.0, 1.0, 1.0))
    assert v == pytest.approx(0.15915494309189535, abs=1e-15)


def test_rice_se_kernel_case():
    # -R''(0) = variance / ls^2 = 100 for ls = 0.1: 10 / (2 pi)
    v = rice_expected_upcrossings(RiceSpec(0.0, 1.0, 100.0, 1.0))
    assert v == pytest.approx(1.5915494309189535, abs=1e-14)


def test_rice_domain_linearity_exact():
    base = rice_expected_upcrossings(RiceSpec(0.5, 2.0, 3.0, 1.0))
    assert rice_expected_upcrossings(RiceSpec(0.5, 2.0, 3.0, 4.0)) == 4.0 * base


def test_rice_spec_validation():
    with pytest.raises(ParameterError):
        RiceSpec(0.0, 0.0, 1.0)
    with pytest.raises(ParameterError):
        RiceSpec(0.0, 1.0, -1.0)
    with pytest.raises(ParameterError):
        RiceSpec(0.0, 1.0, 1.0, 0.0)
    with pytest.raises(ParameterError):
        RiceSpec(math.nan, 1.0, 1.0)


def test_count_upcrossings_hand_cases():
    assert count_upcrossings(np.array([0.0, 1.0, -1.0, 2.0]), 0.5).tolist() == [2]
    # closed lower comparison: a path starting exactly at the level counts
    assert count_upcrossings(np.array([0.0, 0.0, 1.0]), 0.0).tolist() == [1]
    two = np.array([[0.0, 1.0, 0.0, 1.0], [1.0, 1.0, 1.0, 1.0]])
    assert count_upcrossings(two, 0.5).tolist() == [2, 0]
    with pytest.raises(ParameterError):
        count_upcrossings(np.array([1.0]), 0.0)


def test_rice_mc_small():
    diag = rice_mc_diagnostic(
        dataclasses.replace(AuditConfig(), rice_paths=400, rice_m=501), 5
    )
    assert diag["observed"] > 0
    assert diag["relative_error"] < 0.15


# ---------------------------------------------------------------------------
# Verdict plumbing
# ---------------------------------------------------------------------------


def test_verdict_validation_and_marks():
    v = Verdict(SATISFIED, {})
    assert v.mark == MARKS[SATISFIED] == "✓"
    with pytest.raises(ParameterError):
        Verdict("maybe", {})


def test_verdict_json_cleans_numpy():
    v = Verdict(VIOLATED, {"x": np.float64(1.5), "a": np.arange(3)}, 1e-9)
    obj = _jsonable(v)
    assert obj["evidence"] == {"x": 1.5, "a": [0, 1, 2]}
    assert json.dumps(obj)  # serializable


def test_combine_members_precedence():
    sat = Verdict(SATISFIED, {})
    vio = Verdict(VIOLATED, {})
    inap = Verdict(INAPPLICABLE, {})
    assert _combine_members([("a", sat), ("b", sat)]).status == SATISFIED
    assert _combine_members([("a", sat), ("b", inap)]).status == INAPPLICABLE
    # violated wins even when another member is inapplicable
    comb = _combine_members([("a", inap), ("b", vio)])
    assert comb.status == VIOLATED
    assert comb.evidence["witness_member"] == "b"


def test_centre_outward_order_ties_stable():
    assert _centre_outward_order(np.array([0.5, 0.9, 0.5, 0.1])) == [1, 0, 2, 3]


# ---------------------------------------------------------------------------
# P-1
# ---------------------------------------------------------------------------


def test_p1_transform_classes():
    vals = np.array([[1.0, -2.0]])
    assert np.allclose(p1_transform("h", vals, 4.0), 2.0 * vals)
    out = p1_transform("hr", vals, -1.0, np.array([1.0, 1.0]))
    assert np.allclose(out, -vals + 1.0)
    with pytest.raises(ParameterError):
        p1_transform("h", vals, 4.0, np.array([1.0, 1.0]))
    with pytest.raises(ParameterError):
        p1_transform("h", vals, -1.0)
    with pytest.raises(ParameterError):
        p1_transform("bd", vals, 0.0)


def test_p1_identity_satisfied_all_depths(gp400):
    small = FunctionalSample(gp400.values[:100], GRID)
    for d in DEPTH_IDS:
        v = audit_P1(d, small, a=1.0, params=DepthParams(seed=(7,)))
        assert v.status == SATISFIED, d
        assert v.evidence["max_abs_diff"] == 0.0


def test_p1_h_two_atom_violation():
    # two constant atoms at 0 and 1, query the zero curve, scale a = 4:
    # kernel depth (1 + e^{-1/2}) / (2 sqrt(2 pi)) drops to
    # (1 + e^{-2}) / (2 sqrt(2 pi)) -- the h-depth is not L2-invariant
    two = FunctionalSample(np.stack([np.zeros(GRID.m), np.ones(GRID.m)]), GRID)
    v = audit_P1("h", two, a=4.0, params=DepthParams(seed=(7,)))
    assert v.status == VIOLATED
    before = v.evidence["values_before"][1]  # probe X0 = zero curve
    after = v.evidence["values_after"][1]
    s2pi = math.sqrt(2 * math.pi)
    assert before == pytest.approx((1 + math.exp(-0.5)) / (2 * s2pi), abs=1e-12)
    assert before == pytest.approx(0.3204565, abs=1e-6)
    assert after == pytest.approx((1 + math.exp(-2.0)) / (2 * s2pi), abs=1e-12)
    # the order-form of the invariant still holds on the dominated rays
    assert v.evidence["ray_argmax_before"] == v.evidence["ray_argmax_after"]


def test_p1_five_depths_satisfied_on_gp(gp400):
    b = 0.5 + GRID.points
    for d in ("rt", "bd", "mbd", "hr", "mhr"):
        s = FunctionalSample(gp400.values[:150], GRID) if d in ("bd", "mbd") else gp400
        v = audit_P1(d, s, a=2.0, b=b, params=DepthParams(seed=(4,)))
        assert v.status == SATISFIED, d
        assert v.evidence["order_preserved"], d


# ---------------------------------------------------------------------------
# P-2G
# ---------------------------------------------------------------------------


def test_p2g_mhr_satisfied():
    cfg = dataclasses.replace(AuditConfig(), n=400)
    v = audit_P2G("mhr", cfg, SE, (21,), params=DepthParams(seed=(22,)))
    assert v.status == SATISFIED
    assert v.evidence["zero_value"] == v.evidence["max_value"]


def test_p2g_hr_cosine_degenerate_violation():
    cfg = dataclasses.replace(AuditConfig(), n=400)
    cosine = Kernel("cosine", 1.0, 1.0)
    v = audit_P2G("hr", cfg, cosine, (23,), params=DepthParams(seed=(24,)))
    assert v.status == VIOLATED
    assert v.evidence["degenerate"]
    # same-frequency sinusoids all cross, so every half-region count is 0
    assert v.evidence["values"] == [0.0] * len(v.evidence["values"])


def test_p2g_under_powered_inapplicable():
    cfg = dataclasses.replace(AuditConfig(), n=50)
    v = audit_P2G("mhr", cfg, SE, 0, params=DepthParams())
    assert v.status == INAPPLICABLE
    assert "under-powered" in v.evidence["reason"]


# ---------------------------------------------------------------------------
# P-3
# ---------------------------------------------------------------------------


def test_p3_band_depths_exact_tie():
    for d in ("bd", "mbd"):
        v = audit_P3(d, AuditConfig(), 0, params=DepthParams(seed=(31,)))
        assert v.status == VIOLATED, d
        vals = v.evidence["values"]
        assert vals["deepest"] == pytest.approx(0.75, abs=1e-15)
        assert vals["nearer"] == pytest.approx(0.5, abs=1e-15)
        assert vals["farther"] == pytest.approx(0.5, abs=1e-15)


def test_p3_region_depths_tie():
    for d in ("hr", "mhr"):
        v = audit_P3(d, AuditConfig(), 0, params=DepthParams(seed=(32,)))
        assert v.status == VIOLATED, d
        assert v.evidence["values"]["nearer"] == v.evidence["values"]["farther"]


def test_p3_rt_tie():
    v = audit_P3("rt", AuditConfig(), 0, params=DepthParams(seed=(33,)))
    assert v.status == VIOLATED
    w = v.evidence["witness"]
    assert w["nearer_value"] == w["farther_value"] == 0.5


def test_p3_h_strict_decrease_on_rays():
    v = audit_P3("h", AuditConfig(), 3, params=DepthParams(seed=(34,)))  # p3_n = 500
    assert v.status == SATISFIED
    assert v.evidence["min_margin"] > 0


# ---------------------------------------------------------------------------
# P-4
# ---------------------------------------------------------------------------


P4_CONFIG = dataclasses.replace(AuditConfig(), p4_perturbations=60)


def test_p4_satisfied_on_gp(gp400):
    small = FunctionalSample(gp400.values[:150], GRID)
    for d in DEPTH_IDS:
        v = audit_P4(d, P4_CONFIG, small, 2, (44,), params=DepthParams(seed=(45,)))
        assert v.status == SATISFIED, d
        for rec in v.evidence["records"]:
            assert rec["delta_found"] is not None


def test_p4_single_curve():
    one = FunctionalSample(np.sin(2 * math.pi * GRID.points)[None, :], GRID)
    for d in ("h", "rt", "hr", "mhr"):
        v = audit_P4(d, P4_CONFIG, one, 1, (46,), params=DepthParams(seed=(45,)))
        assert v.status == SATISFIED, d


def test_p4_atoms_sample():
    s = counterexample_P3(GRID).as_sample()
    for d in DEPTH_IDS:
        v = audit_P4(d, P4_CONFIG, s, 3, (47,), params=DepthParams(seed=(45,)))
        assert v.status == SATISFIED, d


# ---------------------------------------------------------------------------
# P-5
# ---------------------------------------------------------------------------


def test_p5_h_strictly_increases():
    v = audit_P5("h", AuditConfig(), params=DepthParams(seed=(51,)))
    assert v.status == SATISFIED
    assert v.evidence["margin"] > 1e-9


def test_p5_five_depths_exact_equality():
    for d in ("rt", "bd", "mbd", "hr", "mhr"):
        v = audit_P5(d, AuditConfig(), params=DepthParams(seed=(52,)))
        assert v.status == VIOLATED, d
        assert v.evidence["value_before"] == v.evidence["value_after"], d
    v = audit_P5("bd", AuditConfig(), params=DepthParams(seed=(52,)))
    assert v.evidence["value_before"] == pytest.approx(5.0 / 9.0, abs=1e-15)


def test_p5_rt_margin_exactly_zero():
    v = audit_P5("rt", AuditConfig(), params=DepthParams(seed=(53,)))
    assert v.evidence["margin"] == 0.0


def test_p5_invalid_delta_inapplicable():
    # envelope widths live in [2, 3]; delta = 5 leaves no valid region
    v = audit_P5("mhr", AuditConfig(), params=DepthParams(), delta=5.0)
    assert v.status == INAPPLICABLE


# ---------------------------------------------------------------------------
# P-6
# ---------------------------------------------------------------------------

def _fake_measurements(conv_scale, contam_scale):
    """Handcrafted measurement dict driving the P-6 decision rule."""
    rng = np.random.default_rng(0)
    conv = {}
    for i, nn in enumerate((100, 400, 1600)):
        base = conv_scale / (2.0**i) if conv_scale else 0.0
        conv[nn] = list(np.abs(base * (1.0 + 0.1 * rng.standard_normal(12))))
    contam = {
        e: list(contam_scale * e * (1.0 + 0.05 * rng.standard_normal(12)))
        for e in (0.2, 0.1, 0.05, 0.01)
    }
    return {"mhr": {"ref_value": 0.5, "conv": conv, "contam": contam}}


def _p6_with(meas):
    cfg = dataclasses.replace(AuditConfig(), replicates=12)
    return audit_P6("mhr", cfg, meas, (61,), params=DepthParams())


def test_p6_decision_satisfied():
    v = _p6_with(_fake_measurements(conv_scale=0.02, contam_scale=0.5))
    assert v.status == SATISFIED
    assert v.evidence["endpoint_ratio"] < 0.75


def test_p6_decision_violated_no_convergence():
    meas = _fake_measurements(conv_scale=0.02, contam_scale=0.5)
    flat = meas["mhr"]["conv"][100]
    meas["mhr"]["conv"][400] = flat
    meas["mhr"]["conv"][1600] = flat
    v = _p6_with(meas)
    assert v.status == VIOLATED
    assert "convergence" in v.evidence["witness"]


def test_p6_decision_violated_contamination():
    v = _p6_with(_fake_measurements(conv_scale=0.02, contam_scale=10.0))
    assert v.status == VIOLATED
    assert v.evidence["witness"]["contamination"]["c"] > 2.0


def test_p6_decision_already_converged():
    v = _p6_with(_fake_measurements(conv_scale=0.0, contam_scale=0.5))
    assert v.status == SATISFIED


def test_p6_under_powered_inapplicable():
    cfg = dataclasses.replace(AuditConfig(), n=50)
    params = {"mhr": DepthParams()}
    meas = _p6_measurements(cfg, 0, params)
    assert meas is None
    v = audit_P6("mhr", cfg, meas, 0, params=params["mhr"])
    assert v.status == INAPPLICABLE


def test_p6_real_small_run_structure():
    cfg = dataclasses.replace(
        AuditConfig(),
        eps_ladder=(0.2, 0.1),
        n=150,
        conv_ns=(100, 200),
        conv_ref_n=800,
        replicates=6,
    )
    params = {"mhr": DepthParams(seed=(63,))}
    meas = _p6_measurements(cfg, (62,), params)
    v = audit_P6("mhr", cfg, meas, (62,), params=params["mhr"])
    assert v.status in (SATISFIED, VIOLATED)
    for key in ("medians", "endpoint_ratio", "c_fit", "replay"):
        assert key in v.evidence


# ---------------------------------------------------------------------------
# Full audit on a reduced configuration
# ---------------------------------------------------------------------------


def _reduced_config():
    return AuditConfig(
        n=150,
        band_n=60,
        replicates=4,
        conv_ns=(100, 200),
        conv_ref_n=400,
        min_n=50,
        p3_n=80,
        p4_probes=2,
        p4_eps=(0.05,),
        p4_deltas=(0.5, 0.1, 0.01),
        p4_perturbations=30,
        p2g_draw_probes=4,
        eps_ladder=(0.2, 0.1),
        rice_paths=100,
        rice_m=201,
        seed=123,
    )


@pytest.fixture(scope="module")
def reduced_report():
    return run_full_audit(_reduced_config())


def test_full_audit_reduced_structure(reduced_report):
    rep = reduced_report
    assert isinstance(rep, AuditReport)
    pattern = {
        d: tuple(rep.matrix[d][p].status for p in PROPERTY_IDS) for d in DEPTH_IDS
    }
    for statuses in pattern.values():
        assert set(statuses) <= {SATISFIED, VIOLATED, INAPPLICABLE}
    obj = rep.to_json()
    assert obj["schema"] == 1
    assert obj["timestamp"].startswith("sha256:")
    json.dumps(obj)
    assert rep.mismatches(pattern) == []


def test_full_audit_reduced_markdown(reduced_report):
    md = reduced_report.to_markdown()
    assert "| depth |" in md
    for p in PROPERTY_IDS:
        assert p in md
    assert "Legend" in md
    assert any(mark in md for mark in MARKS.values())


#: Fingerprints of ``run_full_audit(_reduced_config())``.  P-3's 80-path h
#: sample, drawn as ``z @ L.T``, rounds differently on one BLAS thread than
#: on two, and an in-process run inherits the thread count numpy started with.
REDUCED_FINGERPRINTS = {
    "sha256:d8584ff99e5b78732e45412f5cbdc5cf0515c519ad853ee11cf042cb02fca09b",  # two
    "sha256:503861a109b3fa42b8940cac2b0a4c9bb22c518b04ffe462c7fa9413944a7048",  # one
}


def test_full_audit_reduced_deterministic(reduced_report):
    # a pinned digest covers run-to-run equality and catches any byte move
    assert reduced_report.timestamp in REDUCED_FINGERPRINTS


def test_full_audit_reaps_its_workers(reduced_report):
    assert multiprocessing.active_children() == []


class _PoolSized(Exception):
    pass


@pytest.mark.parametrize(
    "cpus, blas, cap, workers",
    [
        ({0, 1}, "1", 1, 1),  # --threads 1
        ({0, 1}, "2", None, 1),  # each worker's two BLAS threads fill both CPUs
        ({0, 1}, "1", None, 2),
        ({0}, None, None, 1),  # one CPU in the affinity mask of a machine of 64
    ],
    ids=["threads-1", "blas-2", "blas-1", "affinity-1-of-64"],
)
def test_full_audit_pool_takes_only_the_usable_cpus(monkeypatch, cpus, blas, cap, workers):
    def record(**kwargs):
        raise _PoolSized(kwargs["max_workers"])

    for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
        if blas is None:
            monkeypatch.delenv(var, raising=False)
        else:
            monkeypatch.setenv(var, blas)
    monkeypatch.setattr(core, "_kernel_threads", cap)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", record)
    with pytest.raises(_PoolSized) as sized:
        run_full_audit(_reduced_config())
    assert sized.value.args == (workers,)


def test_audit_config_validation():
    with pytest.raises(ParameterError):
        AuditConfig(eps_ladder=(0.1, 0.2))  # must decrease
    with pytest.raises(ParameterError):
        AuditConfig(conv_ref_n=1000)  # must exceed conv sizes
    with pytest.raises(ParameterError):
        AuditConfig(h=0.0)
    with pytest.raises(ParameterError):
        AuditConfig(p4_deltas=(0.1, 0.5))


def test_audit_config_json_round_trip():
    cfg = _reduced_config()
    assert AuditConfig.from_json(cfg.to_json()) == cfg
    # every field away from its default, through a real JSON text
    custom = AuditConfig(
        m=51,
        a=-1.0,
        b=2.0,
        kernel=Kernel("cosine", 2.0, 0.5),
        p2g_kernels=(Kernel("se", 0.5, 0.3), Kernel("cosine", 1.5, 2.0)),
        n=1500,
        band_n=250,
        J=2,  # the only band order P-4's two-curve member admits
        p2g_J=2,
        h=0.5,
        k=7,
        seed=5,
        replicates=3,
        p2g_draw_probes=4,
        p3_n=400,
        p4_probes=2,
        p4_eps=(0.1,),
        p4_deltas=(0.3, 0.1),
        p4_perturbations=50,
        conv_ns=(200, 800),
        conv_ref_n=5000,
        eps_ladder=(0.3, 0.02),
        outlier_level=25.0,
        c_max=3.0,
        min_n=50,
        rice_paths=100,
        rice_m=101,
    )
    default = AuditConfig()
    for f in dataclasses.fields(AuditConfig):
        if f.name != "J":
            assert getattr(custom, f.name) != getattr(default, f.name), f.name
    obj = json.loads(json.dumps(custom.to_json()))
    assert obj["grid"] == {"a": -1.0, "b": 2.0, "m": 51}
    assert obj["kernel"] == {"type": "cosine", "variance": 2.0, "length_scale": 0.5}
    assert obj["p2g_kernels"][1] == {
        "type": "cosine",
        "variance": 1.5,
        "length_scale": 2.0,
    }
    assert obj["p4_deltas"] == [0.3, 0.1]
    assert obj["J"] == 2
    assert len(obj) == len(dataclasses.fields(AuditConfig)) - 2  # a, b, m nested
    assert AuditConfig.from_json(obj) == custom


def test_audit_config_from_json_checks_types():
    # floats take ints and hold them as floats, so the config echo in
    # audit.json does not depend on how a number was written; kernels keep
    # the default for absent keys
    cfg = AuditConfig.from_json(
        {"h": 2, "c_max": 1.5, "grid": {"b": 3}, "kernel": {"length_scale": 0.1}}
    )
    assert cfg.h == 2 and isinstance(cfg.h, float)
    assert cfg.b == 3 and isinstance(cfg.b, float) and cfg.c_max == 1.5
    assert cfg.kernel == Kernel("se", 1.0, 0.1)
    for bad in (
        {"J": False},
        {"eps_ladder": 0.2},
        {"eps_ladder": [0.2, "0.1"]},
        {"kernel": [1.0]},
        {"kernel": {"type": 1}},
        {"kernel": {"variance": 10**400}},
        {"grid": {"n": 5}},
        {"unknown": 1},
    ):
        with pytest.raises(InputError):
            AuditConfig.from_json(bad)
    with pytest.raises(ParameterError):
        AuditConfig.from_json({"n": 0})  # well-typed but out of range


def test_golden_pattern_shape():
    assert set(GOLDEN) == set(DEPTH_IDS)
    for statuses in GOLDEN.values():
        assert len(statuses) == len(PROPERTY_IDS)


# ---------------------------------------------------------------------------
# Fuzzed module invariants (1000 cases each)
# ---------------------------------------------------------------------------

N_FUZZ = 1000


@st.composite
def lattice_sample(draw, max_n=6, max_m=9, bound=8):
    n = draw(st.integers(min_value=3, max_value=max_n))
    m = draw(st.integers(min_value=5, max_value=max_m))
    vals = draw(
        st.lists(
            st.floats(min_value=-bound, max_value=bound, allow_nan=False),
            min_size=n * m,
            max_size=n * m,
        )
    )
    arr = np.round(np.array(vals, dtype=float).reshape(n, m) * 1000.0) / 1000.0
    return FunctionalSample(arr, uniform_grid(0, 1, m))


def _two_bump_sample():
    """Zero curves but 0.05 (curve 1) and 0.2 (curve 3) at one point: the
    sample mean there equals curve 1's value only up to rounding."""
    X = np.zeros((5, 8))
    X[1, 5], X[3, 5] = 0.05, 0.2
    return FunctionalSample(X, uniform_grid(0, 1, 8))


@settings(max_examples=N_FUZZ, deadline=None)
@given(
    lattice_sample(),
    st.sampled_from(["rt", "bd", "mbd", "hr", "mhr"]),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=1, max_value=6),
    st.sampled_from([0.25, 4.0]),
    st.sampled_from([-4.0, -0.25, 0.25, 4.0]),
    st.integers(min_value=-2000, max_value=2000),
    st.integers(min_value=-2000, max_value=2000),
)
@example(_two_bump_sample(), "bd", 0, 1, 0.25, -4.0, 0, 21)
def test_fuzz_p1_centre_outward_order_identical(sample, d, seed, k, a_l2, a_sup, c0, c1):
    # power-of-two scales are exact in floating point; offsets keep the
    # per-point gaps far above rounding, and a derived probe within rounding
    # of a sample value is snapped onto it, so the counting depths reproduce
    # their values and the centre-outward order verbatim
    J = min(3, sample.n)
    params = DepthParams(J=J, k=k, seed=seed)
    if d == "rt":
        v = audit_P1(d, sample, a=a_l2, params=params)
    else:
        b = (c0 / 1000.0) + (c1 / 1000.0) * sample.grid.points
        v = audit_P1(d, sample, a=a_sup, b=b, params=params)
    assert v.status == SATISFIED, (d, v.evidence["max_abs_diff"])
    assert v.evidence["order_before"] == v.evidence["order_after"]


@settings(max_examples=N_FUZZ, deadline=None)
@given(
    lattice_sample(bound=4),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.sampled_from([0.25, 1.0, 4.0]),
)
def test_fuzz_p1_h_ray_argmax_preserved(sample, seed, a):
    # along rays dominating the upper envelope every distance grows
    # strictly, so the kernel depth order -- hence the argmax -- survives
    # any L2 rescaling even though the values do not
    v = audit_P1("h", sample, a=a, params=DepthParams(seed=seed))
    rb = v.evidence["ray_values_before"]
    ra = v.evidence["ray_values_after"]
    assert v.evidence["ray_argmax_before"] == v.evidence["ray_argmax_after"] == 0
    assert all(x > y for x, y in zip(rb, rb[1:]))
    assert all(x > y for x, y in zip(ra, ra[1:]))
    assert _centre_outward_order(np.array(rb)) == _centre_outward_order(np.array(ra))


@settings(max_examples=N_FUZZ, deadline=None)
@given(
    st.sampled_from(["rt", "bd", "mbd", "hr", "mhr"]),
    st.integers(min_value=2, max_value=3),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.sampled_from([2.2, 2.5, 2.8]),
)
def test_fuzz_violated_witnesses_recompute_bit_exactly(d, J, k, seed, delta):
    # a second call with the same arguments reproduces the whole verdict
    params = DepthParams(J=J, k=k, seed=seed)
    cfg = AuditConfig()
    v3 = audit_P3(d, cfg, 0, params=params)
    assert v3.status == VIOLATED, d
    assert _jsonable(audit_P3(d, cfg, 0, params=params)) == _jsonable(v3)
    v5 = audit_P5(d, cfg, params=params, delta=delta)
    assert v5.status == VIOLATED, d
    assert _jsonable(audit_P5(d, cfg, params=params, delta=delta)) == _jsonable(v5)


@settings(max_examples=N_FUZZ, deadline=None)
@given(
    st.integers(min_value=-3000, max_value=3000),
    st.integers(min_value=-3000, max_value=3000),
    st.integers(min_value=1, max_value=1000),
    st.integers(min_value=1, max_value=1000),
    st.integers(min_value=-8, max_value=8),
)
def test_fuzz_rice_monotone_in_level_and_linear_in_length(u1, u2, r0, nr2, p):
    R0 = r0 / 100.0
    negR2 = nr2 / 100.0
    a, b = u1 / 1000.0, u2 / 1000.0
    va = rice_expected_upcrossings(RiceSpec(a, R0, negR2, 1.0))
    vb = rice_expected_upcrossings(RiceSpec(b, R0, negR2, 1.0))
    if abs(a) < abs(b):
        assert va > vb
    elif abs(a) == abs(b):
        assert va == vb
    else:
        assert va < vb
    # power-of-two domain factors are exact in floating point
    lam = 2.0**p
    assert rice_expected_upcrossings(RiceSpec(a, R0, negR2, lam)) == lam * va
