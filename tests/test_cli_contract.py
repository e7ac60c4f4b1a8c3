"""The exit-code contract of the command line, on generated job documents.

Every document, valid or broken, must end in exit 0, 2 or 4 without an
escaping exception; a broken one must be refused with exit 4 before any
work.  The documents are built from ``cli.COMMANDS``, so a field added to a
command is generated too once it has a strategy below.  No generated job
reaches the quadrature oracle: verify jobs and ``"verify": true`` appear only
in broken documents.
"""

import contextlib
import io
import json
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmapreg import cli

REFERENCE = [[2, 0, 1, 0], [0, 2, 0, 1], [1, 2, 1, 0], [2, 1, 0, 1]]
NEGATIVE_BETA = [[2, 0, 1, 0], [1, 2, 1, 0], [0, 2, 0, 1], [2, 1, 0, -1]]
WRAPPED = [[0, 0, 1, 2], [2, 0, 1, 0], [1, 2, 1, 0], [0, 2, 1, 1], [2, 1, 1, 1]]
SINGULAR = [[2, 0, 1, 0], [0, 2, 2, 0], [1, 2, 1, 0], [2, 1, 0, 1]]

CAP = cli.MAX_DEGREE
#: Rationals just over the bit cap, and one of a thousand digits.
OVER_BITS = [2**cli.MAX_BITS, "1/" + str(2**cli.MAX_BITS), "3" * 1000 + "/" + "7" * 1003]


def run(document):
    """(exit code, stdout, stderr) of cli.main on a document read from stdin."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(json.dumps(document))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([])
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


# -- field values --------------------------------------------------------------

rational = st.one_of(
    st.integers(-5, 5),
    st.fractions(-5, 5, max_denominator=8).map(str),
)


def rows(width):
    """Term rows with distinct exponents and `width` rational coefficients."""
    exponents = st.tuples(st.integers(0, 4), st.integers(0, 4))
    coefficients = st.lists(rational, min_size=width, max_size=width)
    return st.dictionaries(exponents, coefficients, min_size=1, max_size=5).map(
        lambda terms: [[j, k, *c] for (j, k), c in terms.items()]
    )


VALID = {
    "geometry": st.sampled_from([REFERENCE, NEGATIVE_BETA, WRAPPED, SINGULAR]),
    "field": rows(1),
    "k": st.sampled_from([1, 2]),
    "p": st.one_of(st.integers(1, 8), st.fractions(1, 8, max_denominator=6).map(str)),
    "space": st.lists(st.integers(0, 4), min_size=2, max_size=2),
    "j_max": st.integers(4, 24),
    "verify": st.just(False),
    "trust_jacobian": st.booleans(),
}

BAD_COEFFICIENT = st.sampled_from([0.5, True, None, "1/0", "abc", "1.5", [1], *OVER_BITS])


def broken_rows(width):
    bad_exponent = st.one_of(
        st.integers(CAP + 1, 10**6), st.integers(-10**6, -1), st.sampled_from([1.0, True, "2"])
    )
    return st.one_of(
        st.sampled_from([[], {}, "u^2", 3, [[]], [[1, 1]]]),
        st.tuples(bad_exponent, st.integers(0, 4)).map(lambda e: [[*e] + [1] * width]),
        st.tuples(st.integers(0, 4), bad_exponent).map(lambda e: [[*e] + [1] * width]),
        BAD_COEFFICIENT.map(lambda c: [[2, 0] + [c] * width]),
        st.just([[2, 0] + [1] * width, [2, 0] + [2] * width]),
    )


BROKEN = {
    "geometry": broken_rows(2),
    "field": broken_rows(1),
    "k": st.sampled_from([0, 3, True, "1", 1.0, None]),
    "p": st.sampled_from([0, "1/2", -1, 1.5, "abc", True, None, "1/0", [2]]),
    "space": st.one_of(
        st.sampled_from([[1], "3x3", [True, 1], [1, 2, 3], [1.0, 2]]),
        st.tuples(st.integers(-5, -1), st.integers(0, 4)).map(list),
        st.tuples(st.integers(0, 4), st.integers(CAP + 1, 10**6)).map(list),
    ),
    "j_max": st.sampled_from([3, 25, True, 4.0, "8", None, -1]),
}


# -- documents -----------------------------------------------------------------


@st.composite
def job(draw, command, oracle=False):
    """A well-formed job; with `oracle`, classify may carry "verify": true."""
    _, required, optional = cli.COMMANDS[command]
    values = dict(VALID, verify=st.booleans()) if oracle else VALID
    document = {"command": command}
    for name in required:
        document[name] = draw(values[name])
    for name in optional:
        if draw(st.booleans()):
            document[name] = draw(values[name])
    return document


@st.composite
def broken_job(draw):
    command = draw(st.sampled_from(sorted(cli.COMMANDS)))
    document = draw(job(command, oracle=True))
    _, required, optional = cli.COMMANDS[command]
    breakable = [name for name in required + optional if name in BROKEN]
    ways = ["unknown field"] + (["missing field"] if required else [])
    ways += ["bad value"] * 3 if breakable else []
    way = draw(st.sampled_from(ways))
    if way == "unknown field":
        allowed = {"command", *required, *optional}
        document[draw(st.text(min_size=1, max_size=8).filter(lambda k: k not in allowed))] = 1
    elif way == "missing field":
        del document[draw(st.sampled_from(required))]
    else:
        name = draw(st.sampled_from(breakable))
        document[name] = draw(BROKEN[name])
    return document


not_a_job = st.one_of(
    st.integers(),
    st.text(max_size=10),
    st.none(),
    st.fixed_dictionaries(
        {"command": st.one_of(st.text(max_size=10), st.integers(), st.lists(st.integers()))}
    ),
)


@settings(max_examples=60, deadline=None)
@given(document=st.sampled_from(sorted(set(cli.COMMANDS) - {"verify"})).flatmap(job))
def test_valid_jobs_exit_0_or_2(document):
    code, out, err = run(document)
    assert code in (0, 2), (document, err)
    if code == 0 or document["command"] == "validate":
        assert json.loads(out)["command"] == document["command"]
    else:
        assert out == "" and err.startswith("dmapreg: error: geometry rejected: ")


@settings(max_examples=200, deadline=None)
@given(document=st.one_of(broken_job(), not_a_job))
def test_broken_jobs_exit_4_before_any_work(document):
    code, out, err = run(document)
    assert code == 4, (document, out)
    assert out == ""
    assert err.startswith("dmapreg: error: ") and "Traceback" not in err


@settings(max_examples=30, deadline=None)
@given(documents=st.lists(st.one_of(broken_job(), job("standardize"), not_a_job), max_size=4))
def test_batches_exit_with_the_worst_code(documents):
    code, out, err = run(documents)
    results = json.loads(out)
    assert [entry["job"] for entry in results] == list(range(len(documents)))
    assert code == max((entry.get("exit_code", 0) for entry in results), default=0)
    assert code in (0, 2, 4) and err == ""


# -- bad fields are refused before any work --------------------------------------

ORACLE_JOB = {"geometry": REFERENCE, "field": [[1, 1, 1]], "k": 2, "j_max": 20}
BAD_FIELDS = [
    ("verify", {**ORACLE_JOB, "p": 0}),
    ("verify", {**ORACLE_JOB, "p": "abc"}),
    ("verify", {**ORACLE_JOB, "k": 3}),
    ("verify", {**ORACLE_JOB, "j_max": 30}),
    ("verify", {**ORACLE_JOB, "field": [[1, 1, 0.5]]}),
    ("verify", {**ORACLE_JOB, "field": [[100000, 100000, 1]], "k": 1, "j_max": 4}),
    ("classify", {**ORACLE_JOB, "verify": True, "k": 0}),
    ("classify", {**ORACLE_JOB, "verify": True, "j_max": 2}),
    ("classify", {**ORACLE_JOB, "verify": True, "field": [[CAP + 1, 0, 1]]}),
    ("constrain", {"geometry": REFERENCE, "k": 2, "p": "1/2"}),
    ("constrain", {"geometry": REFERENCE, "k": 5, "p": 2}),
    ("constrain", {"geometry": REFERENCE, "k": 2, "p": 2, "space": [3, CAP + 1]}),
    ("constrain", {"geometry": REFERENCE, "k": 2, "p": 2, "space": [-1, 3]}),
    ("validate", {"geometry": [[2, 0, 1, 0], [0, CAP + 1, 0, 1]]}),
    ("standardize", {"geometry": [[2, 0, 1, 0], [0, 2, 0, 0.5]]}),
    ("verify", {**ORACLE_JOB, "geometry": NEGATIVE_BETA, "p": 0}),
    ("validate", {"geometry": REFERENCE + [[3, 3, OVER_BITS[2], 1]]}),
    ("classify", {**ORACLE_JOB, "field": [[1, 1, OVER_BITS[0]]]}),
    ("verify", {**ORACLE_JOB, "p": OVER_BITS[1]}),
]


@pytest.mark.parametrize("command, fields", BAD_FIELDS)
def test_bad_field_exits_4_at_once(command, fields):
    start = time.perf_counter()
    code, out, err = run({"command": command, **fields})
    seconds = time.perf_counter() - start
    assert code == 4 and out == ""
    assert err.startswith("dmapreg: error: ") and "Traceback" not in err
    assert seconds < 0.05


def test_size_cap_is_named():
    code, _, err = run({"command": "verify", **ORACLE_JOB, "field": [[100000, 100000, 1]]})
    assert code == 4
    assert "MAX_DEGREE = 24" in err


def test_bit_cap_is_named_and_sharp():
    # 2^255 - 1 takes 255 bits and its denominator 1 bit: at the cap, not over it.
    at_cap = 2 ** (cli.MAX_BITS - 1) - 1
    code, _, _ = run({"command": "validate", "geometry": REFERENCE + [[3, 3, 1, f"1/{at_cap}"]]})
    assert code == 0
    for value in OVER_BITS:
        code, out, err = run({"command": "validate", "geometry": REFERENCE + [[3, 3, 1, value]]})
        assert (code, out) == (4, "")
        assert "MAX_BITS = 256" in err


def test_long_rationals_are_bounded_before_conversion():
    # Past Python's 4300-digit conversion limit the cap still names itself,
    # and leading zeros count for nothing: 5000 zeros then a 1 is the number 1.
    for value in ("7" * 5000, "1/" + "3" * 5000, "-" + "9" * 5000 + "/7"):
        start = time.perf_counter()
        code, out, err = run({"command": "validate", "geometry": REFERENCE + [[3, 3, 1, value]]})
        assert (code, out) == (4, "")
        assert "MAX_BITS = 256" in err and "4300" not in err
        assert time.perf_counter() - start < 0.05
    for padded, plain in (("0" * 5000 + "1", "1"), ("-" + "0" * 5000 + "1/" + "0" * 5000 + "64", "-1/64")):
        results = [
            run({"command": "standardize", "geometry": REFERENCE + [[3, 3, value, 0]]})
            for value in (padded, plain)
        ]
        assert results[0] == results[1] and results[0][0] == 0
