"""Acceptance suite: one labelled pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

import json
import math
import time

import pytest

from tensortract import (
    ConstantOne,
    DoubleExpPower,
    EigenSeq,
    ExpPower,
    IterLog,
    LogPower,
    Notion,
    PowerLaw,
    Query,
    Tabulated,
    TripleExp,
    VerdictStatus,
    WeightSeq,
    b_spt_estimate,
    check_count_sandwich,
    check_summability_equivalence,
    classify,
    d_of_eps,
    eta_exponent,
    info_complexity,
    j_of_eps,
    nth_minimal_error,
    oracle_equivalence_suite,
    power_sum_suite,
    top_eigenvalues,
)
from tensortract.cli import main
from tensortract.goldens import GOLDEN_PAIRS, iterated_log_pair

LN2 = math.log(2.0)
E_GRID = (1e3, 1e6, 1e12, 1e100, 1e300)


def report(criterion: str, passed: bool) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}")
    assert passed, criterion


def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    rep = oracle_equivalence_suite(instances=200, seed=20240)
    elapsed = time.perf_counter() - t0
    ok = rep.passed and elapsed < 60.0
    report(f"1. oracle equivalence on 200 randomized instances "
           f"({elapsed:.2f}s, zero mismatches={rep.passed})", ok)


def test_criterion_2_count_sandwich():
    failures = []
    for pair in GOLDEN_PAIRS:
        for E in pair.audit_E:
            for d in pair.audit_d:
                rep = check_count_sandwich(pair.lam, pair.gam, E, d)
                if not rep.passed:
                    failures.append((pair.name, E, d))
    report(f"2. exact count sandwich over {len(GOLDEN_PAIRS)} golden families "
           f"({sum(len(p.audit_E) * len(p.audit_d) for p in GOLDEN_PAIRS)} cells, "
           f"failures={failures})", not failures)


def test_criterion_3_double_exp_closed_forms():
    es = (1e2, 1e3, 1e4, 1e5, 1e6)
    mismatches = []
    def table_len(expo: float) -> int:
        return 300 if expo == 0.5 else (20 if expo == 2.0 else 40)

    for a in (0.5, 1.0, 2.0):
        n = table_len(a)
        lam = EigenSeq(Tabulated(tuple(math.exp(j**a) for j in range(1, n + 1))))
        for E in es:
            formula = math.ceil(math.log(2.0 * E) ** (1.0 / a)) - 1
            if j_of_eps(lam, E) != formula:
                mismatches.append(("j", a, E))
    for b in (0.5, 1.0, 2.0):
        n = table_len(b)
        gam = WeightSeq(Tabulated(tuple(math.exp(k**b) for k in range(1, n + 1))))
        for E in es:
            formula = math.ceil(math.log(2.0 * E) ** (1.0 / b)) - 1
            if d_of_eps(gam, E) != formula:
                mismatches.append(("d", b, E))
    report(f"3. double-exponential threshold closed forms, exact integer equality "
           f"(30 combinations, mismatches={mismatches})", not mismatches)


def test_criterion_4_classifier_golden_verdicts():
    checks = []

    lam = EigenSeq(DoubleExpPower(1.0, 1.0))
    v = classify(lam, WeightSeq(DoubleExpPower(1.0, 2.0)), Notion.spt())
    checks.append(("strong polynomial holds with exponent 0",
                   v.status is VerdictStatus.HOLDS and v.exponent == 0.0))

    gam_sharp = WeightSeq(DoubleExpPower(1.0, 1.0))
    v_qpt = classify(lam, gam_sharp, Notion.qpt())
    v_spt = classify(lam, gam_sharp, Notion.spt())
    checks.append(("quasi-polynomial holds with exponent 1 while strong fails",
                   v_qpt.status is VerdictStatus.HOLDS and v_qpt.exponent == 1.0
                   and v_spt.status is VerdictStatus.FAILS))

    pair = iterated_log_pair()
    v = classify(pair.lam, pair.gam, Notion.wt())
    checks.append(("iterated-log family is weakly tractable",
                   v.status is VerdictStatus.HOLDS))

    v = classify(EigenSeq(IterLog((0.0, 0.0))), WeightSeq(ConstantOne()),
                 Notion.st_weak(2.0, 1.0))
    checks.append(("unit second eigenvalue with unit weights fails at (2, 1)",
                   v.status is VerdictStatus.FAILS))

    v = classify(EigenSeq(LogPower(2.0)), WeightSeq(ConstantOne()),
                 Notion.st_weak(0.5, 2.0))
    (eta,) = [d.value for d in v.evidence if d.name == "eta"]
    checks.append(("effective exponent for (1/2, 2) equals 1/3 within 1e-12",
                   abs(eta - 1.0 / 3.0) <= 1e-12))
    checks.append(("effective exponent formula gives 2/9 at (1/2, 1.4)",
                   abs(eta_exponent(0.5, 1.4) - 2.0 / 9.0) <= 1e-12))

    failed = [name for name, ok in checks if not ok]
    report(f"4. classifier golden verdicts ({len(checks)} checks, failures={failed})",
           not failed)


def test_criterion_5_limit_estimator_trends():
    t0 = time.perf_counter()
    shrink = b_spt_estimate(EigenSeq(DoubleExpPower(1.0, 1.0)),
                            WeightSeq(TripleExp(1.0)), E_GRID)
    ratios = [r for _, r in shrink.probes]
    non_increasing = all(b <= a + 1e-12 for a, b in zip(ratios, ratios[1:]))
    final_small = ratios[-1] < 0.12

    grow = b_spt_estimate(EigenSeq(ExpPower(1.0, 1.0)),
                          WeightSeq(DoubleExpPower(1.0, 1.0)), E_GRID)
    gr = dict(grow.probes)
    gr_list = [r for _, r in grow.probes]
    strictly_increasing = all(b > a for a, b in zip(gr_list, gr_list[1:]))
    big_at_1e6 = gr[1e6] > 10.0
    elapsed = time.perf_counter() - t0

    ok = (non_increasing and final_small and strictly_increasing and big_at_1e6
          and elapsed < 10.0)
    report(f"5. limit-estimator trends (shrinking ratios={ratios[-1]:.4f}<0.12, "
           f"growing ratio at 1e6={gr[1e6]:.2f}>10, {elapsed:.2f}s)", ok)


def test_criterion_6_count_spectrum_consistency():
    tested = 0
    failures = []
    for pair in GOLDEN_PAIRS:
        for E in pair.audit_E:
            for d in pair.audit_d:
                q = Query(E, d)
                count = info_complexity(pair.lam, pair.gam, q).count
                if count > 10**4:
                    continue
                tested += 1
                costs = top_eigenvalues(pair.lam, pair.gam, d, count + 1)
                below = sum(1 for c in costs if float(c) < 2.0 * E)
                if below != count:
                    failures.append((pair.name, E, d, "count/topk"))
                    continue
                if not (float(nth_minimal_error(pair.lam, pair.gam, d, count)) >= E):
                    failures.append((pair.name, E, d, "error above threshold"))
                if not (float(nth_minimal_error(pair.lam, pair.gam, d, count - 1)) < E):
                    failures.append((pair.name, E, d, "error below threshold"))
    report(f"6. count vs ordered-spectrum consistency ({tested} instances, "
           f"failures={failures})", tested > 0 and not failures)


def test_criterion_7_summability_and_power_sum_suites():
    fams = (PowerLaw(1.0), PowerLaw(2.0), LogPower(2.0), ExpPower(1.0, 1.0))
    bad = []
    for fam in fams:
        rep = check_summability_equivalence(EigenSeq(fam), (2.0, 1.0, 0.5, 0.1))
        if not rep.passed:
            bad.append(fam)
    psum = power_sum_suite(draws=1000, seed=4711)
    ok = not bad and psum.passed
    report(f"7. summability equivalence on 4 reference families and 1000 "
           f"power-sum draws (failures={bad}, draws pass={psum.passed})", ok)


def test_criterion_8_cli_determinism(tmp_path):
    sweep_cfg = tmp_path / "sweep.json"
    sweep_cfg.write_text(json.dumps({
        "schema": 1,
        "lambda": {"family": "double_exp_power", "alpha": 1.0, "beta": 1.0},
        "gamma": {"family": "double_exp_power", "alpha": 1.0, "beta": 2.0},
        "queries": {"E": [10.0, 100.0, 1000.0], "d": [2, 6]},
    }))
    classify_cfg = tmp_path / "classify.json"
    classify_cfg.write_text(json.dumps({
        "schema": 1,
        "lambda": {"family": "double_exp_power", "alpha": 1.0, "beta": 1.0},
        "gamma": {"family": "double_exp_power", "alpha": 1.0, "beta": 1.0},
        "notion": {"kind": "exp_qpt"},
        "output": {"format": "json"},
    }))
    outputs = []
    for i in range(3):
        out = tmp_path / f"sweep{i}.csv"
        assert main(["sweep", "--config", str(sweep_cfg), "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    sweep_ok = outputs[0] == outputs[1] == outputs[2]
    verdicts = []
    for i in range(2):
        out = tmp_path / f"v{i}.json"
        assert main(["classify", "--config", str(classify_cfg), "--out", str(out)]) == 0
        verdicts.append(out.read_bytes())
    classify_ok = verdicts[0] == verdicts[1]
    report(f"8. byte-identical sweep/classify outputs across runs "
           f"(sweep={sweep_ok}, classify={classify_ok})",
           sweep_ok and classify_ok)
