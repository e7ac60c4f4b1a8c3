"""Tests of the benchmark's own pieces: job generation and the output checks.

Run with: python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import copy
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import exact  # noqa: E402
import workloads  # noqa: E402

F = Fraction


def _docs(workload, seed, count):
    return [job.doc for job in workloads.build(workload, seed, count)]


@pytest.mark.parametrize("workload,count", [("geometry", 40), ("classify", 30), ("oracle", 20)])
def test_same_seed_same_jobs_other_seed_other_jobs(workload, count):
    assert _docs(workload, 7, count) == _docs(workload, 7, count)
    assert _docs(workload, 7, count) != _docs(workload, 8, count)


@pytest.mark.parametrize("workload,count", [("geometry", 40), ("classify", 30), ("oracle", 20)])
def test_job_mix_does_not_depend_on_the_seed(workload, count):
    def mix(seed):
        return sorted(
            (
                job.doc["command"], str(job.doc.get("k")), str(job.doc.get("p")), str(job.doc.get("space")),
                job.expect["kind"], str(job.expect.get("classifications")),
            )
            for job in workloads.build(workload, seed, count)
        )

    assert mix(1) == mix(2)


def test_generated_valid_maps_pass_the_positivity_margin():
    for job in workloads.build("geometry", 3, 48):
        if job.expect["kind"] == "accepted":
            assert workloads.positivity_margin_ok(job.expect["map"].y)


@pytest.mark.parametrize("target", workloads.K2_ORDER)
@pytest.mark.parametrize("space", [(3, 3), (4, 4), (6, 6), (3, 5), (5, 3)])
def test_reduced_field_stops_at_its_case(target, space):
    import random

    smap = workloads.standard_map(random.Random(11), random.Random(12), workloads.CLASSIFY_MAP_EXPONENTS)
    forms = workloads.k2_forms(smap)
    w = workloads.reduced_field(random.Random(5), smap, target, space, max_total=12, density=0.5)
    assert all(j <= space[0] and k <= space[1] for j, k in w)
    index = workloads.K2_ORDER.index(target)
    for case in workloads.K2_ORDER[1 : index + 1]:
        assert all(workloads.form_value(form, w) == 0 for form in forms[case])
    if target != "f":
        assert any(workloads.form_value(form, w) != 0 for form in forms[workloads.K2_ORDER[index + 1]])


# -- checkers: a right result passes, a corrupted one is rejected -----------------

REF = exact.map_rows(workloads.REFERENCE)


def _classify_job_and_output():
    job = workloads.Job(
        {"command": "classify", "geometry": REF, "field": [[2, 0, 1]], "k": 2},
        {"kind": "classify", "classifications": [(2, "b", F(3, 2))]},
    )
    out = {"command": "classify", "classifications": [
        {"k": 2, "case": "b", "p_sup": "3/2", "p_interval": "[1, 3/2)", "failed_conditions": [], "conjectured_bounded": False}
    ]}
    return job, out


def test_classify_check_rejects_changed_p_sup():
    job, out = _classify_job_and_output()
    assert checks.check(job, 0, json.dumps(out), "") is None
    out["classifications"][0]["p_sup"] = "2"
    assert "p_sup" in checks.check(job, 0, json.dumps(out), "")


def _rejected_job_and_output(witness):
    x = exact.affine_image(((F(2), F(1)), (F(0), F(1))), (F(1), F(0)), workloads.FLIPPED_REFERENCE)
    job = workloads.Job({"command": "validate", "geometry": exact.map_rows(x)}, {"kind": "rejected", "x": x})
    out = {"command": "validate", "report": {
        "accepted": False, "degeneracy_ok": True, "rank_20_21_ok": True, "rank_02_12_ok": True,
        "rank_20_02_ok": True, "jacobian_positive": "failed", "failure_witness": witness,
    }}
    return job, json.dumps(out)


def test_rejection_check_rejects_witness_with_positive_jacobian():
    # det Dy = 4uv - 2u^3 + 2v^3 - ...: negative at (1/2, 1/64), positive at (1/2, 1/2).
    job, out = _rejected_job_and_output(["1/2", "1/64"])
    assert checks.check(job, 2, out, "") is None
    job, out = _rejected_job_and_output(["1/2", "1/2"])
    assert "> 0 at the witness" in checks.check(job, 2, out, "")
    assert "not 2" in checks.check(job, 0, out, "")


def _constrain_job_and_output():
    # k = 2, p = 11/10 on the reference map in the 3x3 space: case a, rows w10 = w01 = 0.
    field = {(1, 1): F(1)}
    job = workloads.Job(
        {"command": "constrain", "geometry": REF, "k": 2, "p": "11/10", "space": [3, 3]},
        {"kind": "constrain", "space": (3, 3), "p": F(11, 10), "field": field, "member": True},
    )
    free = [(j, k) for j in range(4) for k in range(4) if (j, k) not in ((1, 0), (0, 1))]
    out = {"command": "constrain", "k": 2, "p": "11/10", "system": {
        "space": {"max_deg_u": 3, "max_deg_v": 3},
        "rows": [{"label": "k2:a:w10", "coefficients": {"1,0": "1"}},
                 {"label": "k2:a:w01", "coefficients": {"0,1": "1"}}],
        "rank": 2, "admissible_dimension": 14,
        "basis": [[[j, k, "1"]] for j, k in free],
    }}
    return job, out


def test_constrain_check_rejects_basis_vector_violating_a_row():
    job, out = _constrain_job_and_output()
    assert checks.check(job, 0, json.dumps(out), "") is None
    out["system"]["basis"][0] = [[0, 0, "1"], [1, 0, "1"]]
    assert "violates a constraint row" in checks.check(job, 0, json.dumps(out), "")


def test_constrain_check_rejects_rows_that_disagree_with_the_field():
    job, out = _constrain_job_and_output()
    wrong = copy.deepcopy(out)
    wrong["system"]["rows"].append({"label": "k2:b:w11", "coefficients": {"1,1": "1"}})
    wrong["system"]["rank"], wrong["system"]["admissible_dimension"] = 3, 13
    wrong["system"]["basis"] = [v for v in wrong["system"]["basis"] if v[0][:2] != [1, 1]]
    assert "test field fails the rows" in checks.check(job, 0, json.dumps(wrong), "")


def test_quadrature_failure_is_counted_not_checked():
    assert checks.is_quadrature_failure(3, "dmapreg: error: quadrature failure: needed more than 800 panels")
    assert not checks.is_quadrature_failure(3, "dmapreg: error: case 'a': coefficient cascade says")
