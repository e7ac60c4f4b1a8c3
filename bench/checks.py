"""Checks of each dmapreg result against what its job was built to give.

``check`` returns None for a right result and a one-line reason otherwise.
The checks recompute what they need (standard forms, Jacobian determinants,
constraint rows evaluated on fields) with this directory's exact arithmetic;
none of them compares against a stored dmapreg output.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Dict, Optional

import exact
from workloads import Job

EXIT_OK = 0
EXIT_REJECTED = 2
EXIT_INCONSISTENT = 3


def is_quadrature_failure(code: int, err: str) -> bool:
    """The oracle ran out of its panel budget: counted as failed, not as wrong."""
    return code == EXIT_INCONSISTENT and "quadrature failure" in err


def _p_sup(value: Optional[str]) -> Optional[Fraction]:
    return None if value is None else exact.from_json(value)


def _check_accepted(job: Job, command: str, payload: Dict[str, Any]) -> Optional[str]:
    if command == "validate":
        report = payload["report"]
        flags = ("degeneracy_ok", "rank_20_21_ok", "rank_02_12_ok", "rank_20_02_ok")
        if report["accepted"] is not True or not all(report[f] is True for f in flags):
            return "valid map not accepted"
        if report["jacobian_positive"] not in ("certified", "sampled_only") or report["failure_witness"] is not None:
            return f"valid map reported {report['jacobian_positive']!r} with witness {report['failure_witness']}"
        return None
    record = payload["record"]
    smap = job.expect["map"]
    if tuple(exact.from_json(c) for c in record["x00"]) != job.expect["x00"]:
        return f"x00 {record['x00']} is not the shift of the generating map"
    if tuple(tuple(exact.from_json(c) for c in row) for row in record["T"]) != job.expect["T"]:
        return f"T {record['T']} is not the inverse of the generating affine map"
    params = tuple(exact.from_json(record["params"][name]) for name in ("alpha", "beta", "gamma", "delta"))
    if params != (smap.alpha, smap.beta, smap.gamma, smap.delta):
        return f"params {record['params']} differ from the generating standard form"
    if exact.rows_to_map(record["y"]) != smap.y:
        return "standard form y differs from the generating map"
    mu = exact.rows_to_field(record["mu"])
    if mu != exact.jacobian_det(smap.y):
        return "mu is not det Dy"
    for u, v in job.expect["points"]:
        if exact.evaluate(mu, u, v) <= 0:
            return f"mu not positive at ({u}, {v})"
    if not isinstance(record["positivity_certified"], bool):
        return "positivity_certified is not a boolean"
    return None


def _check_rejected(job: Job, command: str, code: int, out: str, err: str) -> Optional[str]:
    if code != EXIT_REJECTED:
        return f"map with det Dy < 0 near the corner exited {code}, not 2"
    if command == "standardize":
        return None if out == "" and "geometry rejected" in err else "rejected standardize did not report the rejection"
    report = json.loads(out)["report"]
    if report["accepted"] is not False or report["jacobian_positive"] != "failed":
        return "rejected map not reported as a failed Jacobian"
    witness = report["failure_witness"]
    if witness is None:
        return "rejected map without a witness"
    u, v = (exact.from_json(c) for c in witness)
    if not (0 <= u <= 1 and 0 <= v <= 1) or (u, v) == (0, 0):
        return f"witness {witness} outside the square minus the corner"
    value = exact.evaluate(exact.jacobian_det(job.expect["x"]), u, v)
    if value > 0:
        return f"det Dx = {value} > 0 at the witness {witness}"
    return None


def _check_classifications(job: Job, entries: Any) -> Optional[str]:
    expected = job.expect["classifications"]
    if len(entries) != len(expected):
        return f"{len(entries)} classifications, expected {len(expected)}"
    for entry, (k, case, p_sup) in zip(entries, expected):
        got = (entry["k"], entry["case"], _p_sup(entry["p_sup"]))
        if got != (k, case, p_sup):
            return f"k={k}: got case {entry['case']} p_sup {entry['p_sup']}, built for case {case} p_sup {p_sup}"
    return None


def _check_constrain(job: Job, payload: Dict[str, Any]) -> Optional[str]:
    system = payload["system"]
    m, n = job.expect["space"]
    dimension = (m + 1) * (n + 1)
    if system["rank"] + system["admissible_dimension"] != dimension:
        return f"rank {system['rank']} + admissible dimension {system['admissible_dimension']} != {dimension}"
    if len(system["basis"]) != system["admissible_dimension"]:
        return f"{len(system['basis'])} basis vectors for admissible dimension {system['admissible_dimension']}"
    rows = [
        {tuple(int(i) for i in key.split(",")): exact.from_json(c) for key, c in row["coefficients"].items()}
        for row in system["rows"]
    ]

    def satisfies(field: exact.Poly) -> bool:
        return all(sum((c * field.get(e, 0) for e, c in row.items()), Fraction(0)) == 0 for row in rows)

    for index, vector in enumerate(system["basis"]):
        if not satisfies(exact.rows_to_field(vector)):
            return f"basis vector {index} violates a constraint row"
    if satisfies(job.expect["field"]) != job.expect["member"]:
        return f"test field {'fails' if job.expect['member'] else 'meets'} the rows at p = {job.expect['p']}"
    return None


def _check_verify(job: Job, payload: Dict[str, Any]) -> Optional[str]:
    entries = payload["classifications"]
    problem = _check_classifications(job, entries)
    if problem:
        return problem
    p = job.expect["p"]
    for entry, (k, _, p_sup) in zip(entries, job.expect["classifications"]):
        if entry["verify"]["consistent"] is not True:
            return f"k={k}: oracle inconsistent with the classification"
        if p is not None and entry["probe"]["classified_member"] != (p_sup is None or p < p_sup):
            return f"k={k}: probe p = {p} classified_member {entry['probe']['classified_member']}"
    return None


def check(job: Job, code: int, out: str, err: str) -> Optional[str]:
    """None when the result matches the job's construction, else the reason."""
    command = job.doc["command"]
    kind = job.expect["kind"]
    try:
        if kind == "rejected":
            return _check_rejected(job, command, code, out, err)
        if code != EXIT_OK:
            return f"exit {code}: {err.strip()}"
        payload = json.loads(out)
        if kind == "accepted":
            return _check_accepted(job, command, payload)
        if kind == "classify":
            return _check_classifications(job, payload["classifications"])
        if kind == "constrain":
            return _check_constrain(job, payload)
        return _check_verify(job, payload)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"malformed {command} output: {type(exc).__name__}: {exc}"
