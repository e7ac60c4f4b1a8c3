"""Command line front end: JSON job documents in, JSON reports out.

A job document is an object with a ``command`` plus command-specific fields;
the top level may also be an array of such jobs (processed in order, results
collected into an array).  Polynomials are written as arrays of term rows
``[j, k, coeff...]`` with non-negative integer exponents and rational
coefficients given as integers or strings like ``"-3/4"``; floating point
coefficient literals are rejected so every job is exact.  Each job is parsed
whole, and checked against the size caps ``MAX_DEGREE`` and ``MAX_BITS``,
before any work.

Exit codes: 0 success, 2 geometry validation rejected, 3 internal
inconsistency, or mu <= 0 or overflow at a quadrature node, 4 input/output
or parse errors or a job over a size cap.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Tuple

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
from .poly2 import Poly2, PolyVec, _is_int
from .sobolev import (
    InternalInconsistencyError,
    RegularityReport,
    agreement_probes,
    classify,
    quotient,
)
from .verify import (
    CONVERGENT,
    DivergenceDiagnostic,
    INCONCLUSIVE,
    QuadratureError,
    gradient_limit_check,
    log_squared_integral,
    truncated_norms,
)

EXIT_OK = 0
EXIT_REJECTED = 2
EXIT_INCONSISTENT = 3
EXIT_BAD_INPUT = 4

#: Size cap: the largest exponent of a geometry or field term and the largest
#: degree of a coefficient space.  One validate of a dense degree-24 map (the
#: reference map plus every u^j v^k with j, k <= 24, each coefficient at most
#: 2^-20) took 24 to 43 s on a shared 2-core Xeon, nearly all of it in the
#: Bernstein boxes of its degree-(47, 47) mu; the cost grows steeply beyond it.
MAX_DEGREE = 24

#: Size cap: the bits of a rational's numerator plus those of its denominator.
MAX_BITS = 256
#: The most significant digits a written numerator or denominator may have:
#: those of 2^MAX_BITS, checked before conversion.
_MAX_DIGITS = len(str(2**MAX_BITS))

#: An integer or a fraction with a non-zero denominator, such as "-3/4".
_RATIONAL_RE = re.compile(r"^-?[0-9]+(/0*[1-9][0-9]*)?$")

Result = Tuple[Dict[str, Any], int]


class JobError(ValueError):
    """A job, input or output that cannot be handled (exit code 4)."""


# -- the job model -----------------------------------------------------------


def _parse_rational(value: Any, where: str) -> Fraction:
    text = value.strip() if isinstance(value, str) else None
    if not (_is_int(value) or text is not None and _RATIONAL_RE.match(text)):
        raise JobError(
            f"{where}: expected an integer or a rational string like \"-3/4\", got {value!r} "
            "(floating point literals are not accepted)"
        )
    if text is not None:
        _, sign, body = text.rpartition("-")
        parts = [part.lstrip("0") or "0" for part in body.split("/")]
        digits = max(map(len, parts))
        if digits > _MAX_DIGITS:
            raise JobError(f"{where}: {digits} digits, over the cap MAX_BITS = {MAX_BITS}")
        value = sign + "/".join(parts)
    number = Fraction(value)
    bits = number.numerator.bit_length() + number.denominator.bit_length()
    if bits > MAX_BITS:
        raise JobError(f"{where}: {bits} bits, over the cap MAX_BITS = {MAX_BITS}")
    return number


def _parse_poly(data: Any, where: str, dim: int) -> Poly2 | PolyVec:
    if not isinstance(data, list) or not data:
        raise JobError(f"{where}: expected a non-empty array of term rows")
    terms: Dict[Tuple[int, int], Tuple[Fraction, ...]] = {}
    for index, row in enumerate(data):
        label = f"{where}[{index}]"
        if not isinstance(row, list) or len(row) != 2 + dim:
            raise JobError(f"{label}: expected [j, k, {dim} coefficient(s)]")
        j, k = row[0], row[1]
        if not all(_is_int(e) and 0 <= e <= MAX_DEGREE for e in (j, k)):
            raise JobError(f"{label}: exponents must be integers from 0 to MAX_DEGREE = {MAX_DEGREE}")
        if (j, k) in terms:
            raise JobError(f"{label}: duplicate term for exponent ({j}, {k})")
        terms[(j, k)] = tuple(
            _parse_rational(c, f"{label} coefficient {i}") for i, c in enumerate(row[2:])
        )
    entries = tuple(Poly2({e: coeffs[i] for e, coeffs in terms.items()}) for i in range(dim))
    return entries[0] if dim == 1 else PolyVec(entries)


def _parse_space(data: Any, where: str) -> CoefficientSpace:
    if not isinstance(data, list) or len(data) != 2:
        raise JobError(f"{where}: expected [max_deg_u, max_deg_v]")
    if not all(_is_int(d) and 0 <= d <= MAX_DEGREE for d in data):
        raise JobError(f"{where}: degrees must be integers from 0 to MAX_DEGREE = {MAX_DEGREE}")
    return CoefficientSpace(data[0], data[1])


def _bounded(value: Any, where: str, low: int, high: int) -> int:
    if not (_is_int(value) and low <= value <= high):
        raise JobError(f"{where}: must be an integer from {low} to {high}")
    return value


def _parse_p(value: Any, where: str) -> Fraction:
    p = _parse_rational(value, where)
    if p < 1:
        raise JobError(f"{where}: must be at least 1")
    return p


#: The parser of each job field.
_PARSERS = {
    "geometry": lambda value, where: _parse_poly(value, where, dim=2),
    "field": lambda value, where: _parse_poly(value, where, dim=1),
    "k": lambda value, where: _bounded(value, where, 1, 2),
    "p": _parse_p,
    "space": _parse_space,
    "j_max": lambda value, where: _bounded(value, where, 4, 24),
    "verify": lambda value, where: bool(value),
    "trust_jacobian": lambda value, where: bool(value),
}


@dataclass(frozen=True)
class Job:
    """A parsed job: the command, and a value for every field."""

    command: str
    geometry: Optional[PolyVec]
    field: Optional[Poly2]
    k: Optional[int]
    p: Optional[Fraction]
    space: CoefficientSpace
    j_max: int
    verify: bool
    trust_jacobian: bool


# -- output formatting -------------------------------------------------------


def _json(value: Any) -> Any:
    """Plain JSON values: Fractions as exact strings, floats to 12 significant
    digits, polynomials as sorted term rows, tuples as lists."""
    if isinstance(value, dict):
        return {key: _json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json(item) for item in value]
    if isinstance(value, Poly2):
        return [[j, k, str(coeff)] for (j, k), coeff in value.sorted_terms()]
    if isinstance(value, PolyVec):
        return [[j, k, *map(str, coeffs)] for (j, k), coeffs in value.sorted_terms()]
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        return float(f"{value:.12g}")
    return value


def _report_dict(report: ValidationReport) -> Dict[str, Any]:
    return {"accepted": report.accepted, **asdict(report)}


def _record_dict(record: DMapRecord) -> Dict[str, Any]:
    return {
        "x00": record.x00,
        "T": record.T,
        "params": dict(zip(("alpha", "beta", "gamma", "delta"), record.params)),
        "y": record.y,
        "mu": record.mu,
        "positivity_certified": record.positivity_certified,
    }


def _classification_dict(report: RegularityReport) -> Dict[str, Any]:
    return {
        "k": report.k,
        "case": report.case_label,
        "p_sup": report.p_sup,
        "p_interval": report.p_interval,
        "failed_conditions": report.failed_conditions,
        "conjectured_bounded": report.conjectured_bounded,
    }


def _system_dict(system: ConstraintSystem, with_basis: bool = True) -> Dict[str, Any]:
    indices = system.space.indices()
    rows = [
        {"label": label, "coefficients": {f"{j},{k}": c for (j, k), c in zip(indices, row) if c}}
        for label, row in zip(system.labels, system.rows)
    ]
    result = {
        "space": asdict(system.space),
        "rows": rows,
        "rank": system.rank,
        "admissible_dimension": system.admissible_dimension,
    }
    if with_basis:
        result["basis"] = admissible_basis(system)
    return result


# -- command execution -------------------------------------------------------


def _record(job: Job) -> DMapRecord:
    return standardize(job.geometry, trust_jacobian=job.trust_jacobian)


def _run_validate(job: Job) -> Result:
    report = validate(job.geometry, trust_jacobian=job.trust_jacobian)
    result = {"command": "validate", "report": _report_dict(report)}
    return result, EXIT_OK if report.accepted else EXIT_REJECTED


def _run_standardize(job: Job) -> Result:
    return {"command": "standardize", "record": _record_dict(_record(job))}, EXIT_OK


def _run_classify(job: Job) -> Result:
    """classify, and verify: classify with the oracle block always on, plus
    the optional p probe.  The oracle's quotient also serves the cascade's
    leading-part cross-check, so each quotient is built once per order."""
    record = _record(job)

    def probe(diag: DivergenceDiagnostic, report: RegularityReport, p: Fraction) -> Dict[str, Any]:
        """The oracle at p beside the classification's verdict on p; they agree
        when both say member or both say not (inconclusive never agrees)."""
        member = report.contains(p)
        agree = diag.verdict != INCONCLUSIVE and (diag.verdict == CONVERGENT) == member
        return {"p": p, "classified_member": member, "oracle": asdict(diag), "agree": agree}

    entries = []
    for k in (job.k,) if job.k else (1, 2):
        q = quotient(record, job.field, k) if job.verify or job.command == "verify" else None
        report = classify(record, job.field, k, q)
        entry = _classification_dict(report)
        if q is not None:
            # One probe just inside the band and one just outside it, then the
            # job's p: the oracle integrates every exponent in one pass.
            probes = zip(("inside", "outside"), agreement_probes(report))
            sides = [(side, p) for side, p in probes if p is not None]
            ps = [p for _, p in sides] + ([job.p] if job.p is not None else [])
            diags = truncated_norms(record, q.P, q.ell, ps, j_max=job.j_max)
            oracles = [probe(diag, report, p) for diag, p in zip(diags, ps)]
            block, consistent = {}, True
            for (side, p), oracle in zip(sides, oracles):
                block.update({f"p_{side}": p, side: oracle["oracle"]})
                consistent = consistent and oracle["agree"]
            entry["verify"] = {**block, "consistent": consistent}
            if job.p is not None:
                entry["probe"] = oracles[-1]
        entries.append(entry)
    return {"command": job.command, "classifications": entries}, EXIT_OK


def _run_constrain(job: Job) -> Result:
    system = _system_dict(constraints_for(_record(job), job.k, job.p, job.space))
    return {"command": "constrain", "k": job.k, "p": job.p, "system": system}, EXIT_OK


def _run_demo(job: Job) -> Result:
    record = canonical_dmap()
    system = constraints_for(record, 2, Fraction(2), CoefficientSpace(3, 3))
    smooth = Poly2({(2, 0): 2, (0, 2): 3, (1, 2): 2, (2, 1): 3, (3, 0): Fraction(1, 8)})
    gradient = gradient_limit_check(record, smooth, j_max=job.j_max)
    gradient_dict = {
        "limit": gradient.limit,
        "observed": [{"lambda": lam, "gradient": grad} for lam, grad in gradient.observed],
        "max_deviation": gradient.max_deviation,
    }
    steps = [
        {"step": "validate reference map", "report": _report_dict(validate(record.x))},
        {"step": "standard form", "record": _record_dict(record)},
        *(
            {
                "step": f"classify z = u^2, order {k}",
                "classification": _classification_dict(classify(record, Poly2.monomial(2, 0), k)),
            }
            for k in (1, 2)
        ),
        {
            "step": "second-order constraints at p = 2, bicubic space",
            "system": _system_dict(system, with_basis=False),
        },
        {"step": "gradient limit along rays", "gradient": gradient_dict},
        {
            "step": "endpoint-singular reference integral on (0, 1/2)",
            "value": log_squared_integral(),
            "exact": 1.0 / math.log(2.0),
        },
    ]
    return {"command": "demo", "steps": steps}, EXIT_OK


#: Each command: its runner, its required fields and its optional fields,
#: besides "command".  An optional field that a job leaves out takes the
#: value of the flag of the same name (--space, --j-max, --verify,
#: --trust-jacobian); k then means both orders, and p no probe.
COMMANDS = {
    "validate": (_run_validate, ("geometry",), ("trust_jacobian",)),
    "standardize": (_run_standardize, ("geometry",), ("trust_jacobian",)),
    "classify": (_run_classify, ("geometry", "field"), ("k", "verify", "j_max", "trust_jacobian")),
    "constrain": (_run_constrain, ("geometry", "k", "p"), ("space", "trust_jacobian")),
    "verify": (_run_classify, ("geometry", "field"), ("k", "p", "j_max", "trust_jacobian")),
    "demo": (_run_demo, (), ()),
}


def _parse_job(document: Any, args: argparse.Namespace) -> Job:
    if not isinstance(document, dict):
        raise JobError("each job must be a JSON object")
    command = document.get("command")
    if not isinstance(command, str) or command not in COMMANDS:
        raise JobError(f"unknown command {command!r}; expected one of {', '.join(COMMANDS)}")
    _, required, optional = COMMANDS[command]
    unknown = set(document) - {"command", *required, *optional}
    if unknown:
        raise JobError(f"unknown field(s) for {command}: {', '.join(sorted(unknown))}")
    values = {name: getattr(args, name, None) for name in _PARSERS}
    for name in required + optional:
        if name in document:
            values[name] = _PARSERS[name](document[name], name)
        elif name in required:
            raise JobError(f"job is missing the \"{name}\" field")
    return Job(command=command, **values)


def _run_job(document: Any, args: argparse.Namespace) -> Result:
    job = _parse_job(document, args)
    return COMMANDS[job.command][0](job)


#: The errors a job can end with; any other exception is a bug and propagates.
_JOB_ERRORS = (
    ValueError, ZeroDivisionError, OverflowError, InternalInconsistencyError, QuadratureError
)


def _failure(exc: Exception) -> Tuple[str, int]:
    """The message and exit code of one of the _JOB_ERRORS."""
    if isinstance(exc, ValidationError):
        return "geometry rejected: " + exc.report.summary(), EXIT_REJECTED
    if isinstance(exc, InternalInconsistencyError):
        return str(exc), EXIT_INCONSISTENT
    if isinstance(exc, QuadratureError):
        return f"quadrature failure: {exc}", EXIT_INCONSISTENT
    return str(exc), EXIT_BAD_INPUT


def _load_document(args: argparse.Namespace) -> Any:
    try:
        text = sys.stdin.read() if args.input == "-" else Path(args.input).read_text("utf-8")
    except OSError as exc:
        raise JobError(f"cannot read input: {exc}")
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise JobError(f"invalid JSON: {exc}")


def _emit(args: argparse.Namespace, payload: Any) -> None:
    text = json.dumps(_json(payload), indent=2) + "\n"
    if args.output == "-":
        sys.stdout.write(text)
        return
    try:
        Path(args.output).write_text(text, encoding="utf-8")
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
        default="3x3",
        metavar="JxK",
        help="default coefficient space for constrain jobs (default 3x3)",
    )
    parser.add_argument(
        "--demo",
        action="store_true",
        help="run the built-in walkthrough instead of reading a job document",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        args.j_max = _PARSERS["j_max"](args.j_max, "--j-max")
        match = re.match(r"^([0-9]+)x([0-9]+)$", args.space)
        if not match:
            raise JobError("--space must look like 3x3")
        args.space = _parse_space([int(match.group(1)), int(match.group(2))], "--space")
        document = {"command": "demo"} if args.demo else _load_document(args)
        if not isinstance(document, list):
            result, code = _run_job(document, args)
            _emit(args, result)
            return code
        results, codes = [], [EXIT_OK]
        for index, job in enumerate(document):
            try:
                result, code = _run_job(job, args)
            except _JOB_ERRORS as exc:
                message, code = _failure(exc)
                result = {"error": message, "exit_code": code}
            results.append({**result, "job": index})
            codes.append(code)
        _emit(args, results)
        return max(codes)
    except _JOB_ERRORS as exc:
        message, code = _failure(exc)
        sys.stderr.write(f"dmapreg: error: {message}\n")
        return code


if __name__ == "__main__":
    sys.exit(main())
