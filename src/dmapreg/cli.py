"""Command line front end: JSON job documents in, JSON reports out.

A job document is an object with a ``command`` plus command-specific fields;
the top level may also be an array of such jobs (processed in order, results
collected into an array).  Polynomials are written as arrays of term rows
``[j, k, coeff...]`` with non-negative integer exponents and rational
coefficients given as integers or strings like ``"-3/4"``; floating point
coefficient literals are rejected so every job is exact.

Exit codes: 0 success, 2 geometry validation rejected, 3 internal
inconsistency or verification failure, 4 input/output or parse errors.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from fractions import Fraction
from typing import Any, Dict, List, Optional, Sequence, Tuple

from . import __version__
from .constraints import (
    CoefficientSpace,
    ConstraintSystem,
    admissible_basis,
    constraints_for,
)
from .dmap import (
    DMapRecord,
    ValidationError,
    ValidationReport,
    canonical_dmap,
    standardize,
    validate,
)
from .poly2 import Poly2
from .sobolev import (
    InternalInconsistencyError,
    QuotientData,
    RegularityReport,
    classify,
    quotient,
)
from .verify import (
    CONVERGENT,
    DIVERGENT_LOG,
    DIVERGENT_POWER,
    INCONCLUSIVE,
    DivergenceDiagnostic,
    GradientLimitReport,
    QuadratureError,
    agreement_probes,
    gradient_limit_check,
    log_squared_integral,
    truncated_norm,
)

EXIT_OK = 0
EXIT_REJECTED = 2
EXIT_INCONSISTENT = 3
EXIT_BAD_INPUT = 4

_RATIONAL_RE = re.compile(r"^-?\d+(/\d+)?$")

_COMMANDS = ("validate", "standardize", "classify", "constrain", "verify", "demo")

_COMMON_KEYS = {"command"}
_ALLOWED_KEYS = {
    "validate": _COMMON_KEYS | {"geometry", "trust_jacobian"},
    "standardize": _COMMON_KEYS | {"geometry", "trust_jacobian"},
    "classify": _COMMON_KEYS | {"geometry", "field", "k", "trust_jacobian", "verify", "j_max"},
    "constrain": _COMMON_KEYS | {"geometry", "k", "p", "space", "trust_jacobian"},
    "verify": _COMMON_KEYS | {"geometry", "field", "k", "p", "j_max", "trust_jacobian"},
    "demo": _COMMON_KEYS,
}


class JobError(Exception):
    """A job that cannot be executed; carries the process exit code."""

    def __init__(self, message: str, code: int = EXIT_BAD_INPUT):
        super().__init__(message)
        self.code = code


# -- input parsing -----------------------------------------------------------


def _parse_rational(value: Any, where: str) -> Fraction:
    if isinstance(value, bool):
        raise JobError(f"{where}: expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise JobError(
            f"{where}: floating point literals are not accepted; "
            "write rationals as strings like \"3/4\""
        )
    if isinstance(value, str):
        if not _RATIONAL_RE.match(value.strip()):
            raise JobError(f"{where}: {value!r} is not a rational like \"-3/4\"")
        try:
            return Fraction(value.strip())
        except ZeroDivisionError:
            raise JobError(f"{where}: zero denominator in {value!r}") from None
    raise JobError(f"{where}: expected a rational, got {type(value).__name__}")


def _parse_poly(data: Any, where: str, dim: int) -> Poly2:
    if not isinstance(data, list) or not data:
        raise JobError(f"{where}: expected a non-empty array of term rows")
    terms: Dict[Tuple[int, int], Tuple[Fraction, ...]] = {}
    for index, row in enumerate(data):
        label = f"{where}[{index}]"
        if not isinstance(row, list) or len(row) != 2 + dim:
            raise JobError(f"{label}: expected [j, k, {dim} coefficient(s)]")
        j, k = row[0], row[1]
        if isinstance(j, bool) or isinstance(k, bool):
            raise JobError(f"{label}: exponents must be integers")
        if not isinstance(j, int) or not isinstance(k, int):
            raise JobError(f"{label}: exponents must be integers")
        if j < 0 or k < 0:
            raise JobError(f"{label}: exponents must be non-negative")
        if (j, k) in terms:
            raise JobError(f"{label}: duplicate term for exponent ({j}, {k})")
        coeffs = tuple(
            _parse_rational(row[2 + i], f"{label} coefficient {i}") for i in range(dim)
        )
        terms[(j, k)] = coeffs
    return Poly2(dim=dim, terms=terms)


def _parse_space(data: Any, where: str) -> CoefficientSpace:
    if (
        not isinstance(data, list)
        or len(data) != 2
        or not all(isinstance(v, int) and not isinstance(v, bool) for v in data)
    ):
        raise JobError(f"{where}: expected [max_deg_u, max_deg_v] integers")
    if data[0] < 0 or data[1] < 0:
        raise JobError(f"{where}: degrees must be non-negative")
    return CoefficientSpace(data[0], data[1])


def _parse_k(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value not in (1, 2):
        raise JobError(f"{where}: k must be 1 or 2")
    return value


def _parse_j_max(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or not 4 <= value <= 24:
        raise JobError(f"{where}: j_max must be an integer between 4 and 24")
    return value


# -- output formatting -------------------------------------------------------


def _fmt_fraction(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _fmt_float(x: float) -> float:
    return float(f"{x:.12g}")


def _poly_rows(poly: Poly2) -> List[List[Any]]:
    rows: List[List[Any]] = []
    for (j, k), coeffs in poly.sorted_terms():
        rows.append([j, k] + [_fmt_fraction(c) for c in coeffs])
    return rows


def _report_dict(report: ValidationReport) -> Dict[str, Any]:
    witness = report.failure_witness
    return {
        "accepted": report.accepted,
        "degeneracy_ok": report.degeneracy_ok,
        "rank_20_21_ok": report.rank_20_21_ok,
        "rank_02_12_ok": report.rank_02_12_ok,
        "rank_20_02_ok": report.rank_20_02_ok,
        "jacobian_positive": report.jacobian_positive,
        "failure_witness": None
        if witness is None
        else [_fmt_fraction(witness[0]), _fmt_fraction(witness[1])],
    }


def _record_dict(record: DMapRecord) -> Dict[str, Any]:
    alpha, beta, gamma, delta = record.params
    return {
        "x00": [_fmt_fraction(c) for c in record.x00],
        "T": [[_fmt_fraction(entry) for entry in row] for row in record.T],
        "params": {
            "alpha": _fmt_fraction(alpha),
            "beta": _fmt_fraction(beta),
            "gamma": _fmt_fraction(gamma),
            "delta": _fmt_fraction(delta),
        },
        "y": _poly_rows(record.y),
        "mu": _poly_rows(record.mu),
        "positivity_certified": record.positivity_certified,
    }


def _classification_dict(report: RegularityReport) -> Dict[str, Any]:
    return {
        "k": report.k,
        "case": report.case_label,
        "p_sup": None if report.p_sup is None else _fmt_fraction(report.p_sup),
        "p_interval": report.p_interval,
        "failed_conditions": list(report.failed_conditions),
        "conjectured_bounded": report.conjectured_bounded,
    }


def _diagnostic_dict(diag: DivergenceDiagnostic) -> Dict[str, Any]:
    return {
        "epsilons": [_fmt_float(e) for e in diag.epsilons],
        "values": [_fmt_float(v) for v in diag.values],
        "verdict": diag.verdict,
        "rate_estimate": _fmt_float(diag.rate_estimate),
    }


def _system_dict(system: ConstraintSystem, with_basis: bool = True) -> Dict[str, Any]:
    indices = list(system.space.indices())
    rows = []
    for label, row in zip(system.labels, system.rows):
        sparse = {
            f"{j},{k}": _fmt_fraction(value)
            for (j, k), value in zip(indices, row)
            if value != 0
        }
        rows.append({"label": label, "coefficients": sparse})
    result = {
        "space": {"max_deg_u": system.space.max_deg_u, "max_deg_v": system.space.max_deg_v},
        "rows": rows,
        "rank": system.rank,
        "admissible_dimension": system.admissible_dimension,
    }
    if with_basis:
        result["basis"] = [_poly_rows(poly) for poly in admissible_basis(system)]
    return result


def _gradient_dict(report: GradientLimitReport) -> Dict[str, Any]:
    return {
        "limit": [_fmt_fraction(report.limit[0]), _fmt_fraction(report.limit[1])],
        "observed": [
            {"lambda": _fmt_fraction(lam), "gradient": [_fmt_float(g) for g in grad]}
            for lam, grad in report.observed
        ],
        "max_deviation": _fmt_float(report.max_deviation),
    }


# -- command execution -------------------------------------------------------


def _job_geometry(job: Dict[str, Any]) -> Poly2:
    if "geometry" not in job:
        raise JobError("job is missing the \"geometry\" field")
    return _parse_poly(job["geometry"], "geometry", dim=2)


def _job_field(job: Dict[str, Any]) -> Poly2:
    if "field" not in job:
        raise JobError("job is missing the \"field\" field")
    return _parse_poly(job["field"], "field", dim=1)


def _job_record(job: Dict[str, Any], trust_jacobian: bool) -> DMapRecord:
    x = _job_geometry(job)
    trust = bool(job.get("trust_jacobian", trust_jacobian))
    try:
        return standardize(x, trust_jacobian=trust)
    except ValidationError as exc:
        raise JobError(
            "geometry rejected: " + exc.report.summary(), EXIT_REJECTED
        ) from exc


def _verify_block(
    record: DMapRecord, quotient: QuotientData, report: RegularityReport, j_max: int
) -> Dict[str, Any]:
    p_in, p_out = agreement_probes(report)
    block: Dict[str, Any] = {}
    consistent = True
    if p_in is not None:
        diag = truncated_norm(record, quotient.P, quotient.ell, p_in, j_max=j_max)
        block["p_inside"] = _fmt_fraction(p_in)
        block["inside"] = _diagnostic_dict(diag)
        consistent = consistent and diag.verdict == CONVERGENT
    if p_out is not None:
        diag = truncated_norm(record, quotient.P, quotient.ell, p_out, j_max=j_max)
        block["p_outside"] = _fmt_fraction(p_out)
        block["outside"] = _diagnostic_dict(diag)
        consistent = consistent and diag.verdict in (DIVERGENT_LOG, DIVERGENT_POWER)
    block["consistent"] = consistent
    return block


def _run_validate(job: Dict[str, Any], args: argparse.Namespace) -> Dict[str, Any]:
    x = _job_geometry(job)
    trust = bool(job.get("trust_jacobian", args.trust_jacobian))
    report = validate(x, trust_jacobian=trust)
    result = {"command": "validate", "report": _report_dict(report)}
    if not report.accepted:
        raise JobReject(result)
    return result


class JobReject(Exception):
    """A validate command whose geometry was rejected (exit code 2)."""

    def __init__(self, result: Dict[str, Any]):
        super().__init__("geometry rejected")
        self.result = result


def _run_standardize(job: Dict[str, Any], args: argparse.Namespace) -> Dict[str, Any]:
    record = _job_record(job, args.trust_jacobian)
    return {"command": "standardize", "record": _record_dict(record)}


def _run_classify(job: Dict[str, Any], args: argparse.Namespace) -> Dict[str, Any]:
    record = _job_record(job, args.trust_jacobian)
    z = _job_field(job)
    ks = [_parse_k(job["k"], "k")] if "k" in job else [1, 2]
    do_verify = bool(job.get("verify", args.verify))
    j_max = _parse_j_max(job["j_max"], "j_max") if "j_max" in job else args.j_max
    classifications = []
    for k in ks:
        report = classify(record, z, k)
        entry = _classification_dict(report)
        if do_verify:
            entry["verify"] = _verify_block(record, quotient(record, z, k), report, j_max)
        classifications.append(entry)
    return {"command": "classify", "classifications": classifications}


def _run_constrain(job: Dict[str, Any], args: argparse.Namespace) -> Dict[str, Any]:
    record = _job_record(job, args.trust_jacobian)
    if "k" not in job:
        raise JobError("constrain requires the \"k\" field")
    if "p" not in job:
        raise JobError("constrain requires the \"p\" field")
    k = _parse_k(job["k"], "k")
    p = _parse_rational(job["p"], "p")
    if "space" in job:
        space = _parse_space(job["space"], "space")
    elif args.space is not None:
        space = args.space
    else:
        space = CoefficientSpace(3, 3)
    try:
        system = constraints_for(record, k, p, space)
    except ValueError as exc:
        raise JobError(f"constrain: {exc}") from exc
    return {"command": "constrain", "k": k, "p": _fmt_fraction(p), "system": _system_dict(system)}


def _run_verify(job: Dict[str, Any], args: argparse.Namespace) -> Dict[str, Any]:
    record = _job_record(job, args.trust_jacobian)
    z = _job_field(job)
    ks = [_parse_k(job["k"], "k")] if "k" in job else [1, 2]
    j_max = _parse_j_max(job["j_max"], "j_max") if "j_max" in job else args.j_max
    entries = []
    for k in ks:
        report = classify(record, z, k)
        entry = _classification_dict(report)
        q = quotient(record, z, k)
        entry["verify"] = _verify_block(record, q, report, j_max)
        if "p" in job:
            p = _parse_rational(job["p"], "p")
            if p < 1:
                raise JobError("p: must be at least 1")
            diag = truncated_norm(record, q.P, q.ell, p, j_max=j_max)
            expected = report.contains(p)
            agree = (
                False
                if diag.verdict == INCONCLUSIVE
                else (diag.verdict == CONVERGENT) == expected
            )
            entry["probe"] = {
                "p": _fmt_fraction(p),
                "classified_member": expected,
                "oracle": _diagnostic_dict(diag),
                "agree": agree,
            }
        entries.append(entry)
    return {"command": "verify", "classifications": entries}


def _run_demo(job: Dict[str, Any], args: argparse.Namespace) -> Dict[str, Any]:
    record = canonical_dmap()
    steps: List[Dict[str, Any]] = []

    report = validate(record.x)
    steps.append({"step": "validate reference map", "report": _report_dict(report)})
    steps.append({"step": "standard form", "record": _record_dict(record)})

    z = Poly2.monomial(2, 0)
    for k in (1, 2):
        steps.append(
            {
                "step": f"classify z = u^2, order {k}",
                "classification": _classification_dict(classify(record, z, k)),
            }
        )

    system = constraints_for(record, 2, Fraction(2), CoefficientSpace(3, 3))
    steps.append(
        {
            "step": "second-order constraints at p = 2, bicubic space",
            "system": _system_dict(system, with_basis=False),
        }
    )

    smooth = Poly2.monomial(2, 0, 2) + Poly2.monomial(0, 2, 3) + (
        Poly2.monomial(1, 2, 2) + Poly2.monomial(2, 1, 3)
    ) + Poly2.monomial(3, 0, Fraction(1, 8))
    gradient = gradient_limit_check(record, smooth, j_max=args.j_max)
    steps.append({"step": "gradient limit along rays", "gradient": _gradient_dict(gradient)})

    value = log_squared_integral()
    steps.append(
        {
            "step": "endpoint-singular reference integral on (0, 1/2)",
            "value": _fmt_float(value),
            "exact": _fmt_float(1.0 / math.log(2.0)),
        }
    )
    return {"command": "demo", "steps": steps}


_RUNNERS = {
    "validate": _run_validate,
    "standardize": _run_standardize,
    "classify": _run_classify,
    "constrain": _run_constrain,
    "verify": _run_verify,
    "demo": _run_demo,
}


def _run_job(job: Any, args: argparse.Namespace) -> Tuple[Dict[str, Any], int]:
    if not isinstance(job, dict):
        raise JobError("each job must be a JSON object")
    command = job.get("command")
    if command not in _COMMANDS:
        raise JobError(
            f"unknown command {command!r}; expected one of {', '.join(_COMMANDS)}"
        )
    unknown = set(job) - _ALLOWED_KEYS[command]
    if unknown:
        raise JobError(
            f"unknown field(s) for {command}: {', '.join(sorted(unknown))}"
        )
    try:
        return _RUNNERS[command](job, args), EXIT_OK
    except JobReject as exc:
        return exc.result, EXIT_REJECTED
    except JobError:
        raise
    except ValidationError as exc:
        raise JobError(
            "geometry rejected: " + exc.report.summary(), EXIT_REJECTED
        ) from exc
    except InternalInconsistencyError as exc:
        raise JobError(str(exc), EXIT_INCONSISTENT) from exc
    except QuadratureError as exc:
        raise JobError(f"quadrature failure: {exc}", EXIT_INCONSISTENT) from exc
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise JobError(str(exc)) from exc


def _load_document(args: argparse.Namespace) -> Any:
    try:
        if args.input == "-":
            text = sys.stdin.read()
        else:
            with open(args.input, "r", encoding="utf-8") as handle:
                text = handle.read()
    except OSError as exc:
        raise JobError(f"cannot read input: {exc}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise JobError(f"invalid JSON: {exc}")


def _emit(args: argparse.Namespace, payload: Any) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if args.output == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise JobError(f"cannot write output: {exc}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dmapreg",
        description=(
            "Exact Sobolev regularity classification over degenerate geometry "
            "maps: validation, standardisation, classification, coefficient "
            "constraints and numeric verification, driven by JSON jobs."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument(
        "--input",
        default="-",
        metavar="PATH",
        help="job document path, or - for stdin (default)",
    )
    parser.add_argument(
        "--output",
        default="-",
        metavar="PATH",
        help="result path, or - for stdout (default)",
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help="attach quadrature-oracle diagnostics to classifications",
    )
    parser.add_argument(
        "--trust-jacobian",
        action="store_true",
        help="accept grid sampling of the Jacobian instead of a certificate",
    )
    parser.add_argument(
        "--j-max",
        type=int,
        default=20,
        metavar="N",
        help="deepest dyadic truncation level for the oracle (4..24, default 20)",
    )
    parser.add_argument(
        "--space",
        type=str,
        default=None,
        metavar="JxK",
        help="default coefficient space for constrain jobs, e.g. 3x3",
    )
    parser.add_argument(
        "--demo",
        action="store_true",
        help="run the built-in walkthrough instead of reading a job document",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if not 4 <= args.j_max <= 24:
            raise JobError("--j-max must be between 4 and 24")
        if args.space is not None:
            match = re.match(r"^(\d+)x(\d+)$", args.space)
            if not match:
                raise JobError("--space must look like 3x3")
            args.space = CoefficientSpace(int(match.group(1)), int(match.group(2)))
        if args.demo:
            document: Any = {"command": "demo"}
        else:
            document = _load_document(args)
        if isinstance(document, list):
            results = []
            worst = EXIT_OK
            for index, job in enumerate(document):
                try:
                    result, code = _run_job(job, args)
                except JobError as exc:
                    result, code = {"error": str(exc), "exit_code": exc.code}, exc.code
                result["job"] = index
                results.append(result)
                worst = max(worst, code)
            _emit(args, results)
            return worst
        result, code = _run_job(document, args)
        _emit(args, result)
        return code
    except JobError as exc:
        sys.stderr.write(f"dmapreg: error: {exc}\n")
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
