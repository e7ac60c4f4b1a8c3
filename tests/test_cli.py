"""End-to-end tests of the JSON job command line."""

import json

import pytest

from dmapreg import cli, sobolev

CANONICAL = [[2, 0, 1, 0], [0, 2, 0, 1], [1, 2, 1, 0], [2, 1, 0, 1]]
NEGATIVE_BETA = [[2, 0, 1, 0], [1, 2, 1, 0], [0, 2, 0, 1], [2, 1, 0, -1]]


def run(tmp_path, capsys, document, argv=()):
    """Run main() on a JSON document; return (exit code, parsed stdout or None)."""
    path = tmp_path / "job.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    code = cli.main(["--input", str(path), *argv])
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_version():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["--version"])
    assert excinfo.value.code == 0


def test_demo(capsys):
    assert cli.main(["--demo"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["command"] == "demo"
    assert len(payload["steps"]) == 7
    assert payload["steps"][0]["report"]["accepted"] is True
    classified = [s for s in payload["steps"] if "classification" in s]
    assert {c["classification"]["k"] for c in classified} == {1, 2}


def test_classify_both_orders(tmp_path, capsys):
    job = {"command": "classify", "geometry": CANONICAL, "field": [[2, 0, 1]]}
    code, payload = run(tmp_path, capsys, job)
    assert code == 0
    first, second = payload["classifications"]
    assert first["k"] == 1 and first["case"] == "c"
    assert first["p_sup"] is None and first["p_interval"] == "[1, inf)"
    assert first["conjectured_bounded"] is True
    assert second["k"] == 2 and second["case"] == "b"
    assert second["p_sup"] == "3/2"
    assert any("w12" in cond for cond in second["failed_conditions"])


def test_validate_reject_reports_witness(tmp_path, capsys):
    job = {"command": "validate", "geometry": NEGATIVE_BETA}
    code, payload = run(tmp_path, capsys, job)
    assert code == 2
    report = payload["report"]
    assert report["accepted"] is False
    assert report["jacobian_positive"] == "failed"
    assert report["failure_witness"] is not None


def test_classify_rejected_geometry_errors(tmp_path, capsys):
    job = {"command": "classify", "geometry": NEGATIVE_BETA, "field": [[2, 0, 1]]}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job), encoding="utf-8")
    code = cli.main(["--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "geometry rejected" in captured.err


@pytest.mark.parametrize(
    "job",
    [
        {"command": "classify", "geometry": CANONICAL, "field": [[2, 0, 0.5]]},
        {"command": "classify", "geometry": CANONICAL, "field": [[2, 0, "1/0"]]},
        {"command": "classify", "geometry": CANONICAL, "field": [[2, 0, True]]},
        {"command": "classify", "geometry": CANONICAL, "field": [[2, 0, 1], [2, 0, 2]]},
        {"command": "classify", "geometry": CANONICAL, "field": [[-1, 0, 1]]},
        {"command": "classify", "geometry": CANONICAL, "field": [[2, 0, 1]], "bogus": 1},
        {"command": "classify", "geometry": CANONICAL, "field": [[2, 0, 1]], "k": 3},
        {"command": "frobnicate"},
        {"command": "classify", "geometry": [], "field": [[2, 0, 1]]},
        {"command": "classify", "geometry": CANONICAL},
        {"command": "verify", "geometry": CANONICAL},
        {"command": "constrain", "geometry": CANONICAL, "k": 2},
        "not an object",
    ],
)
def test_bad_jobs_exit_4(tmp_path, capsys, job):
    code, payload = run(tmp_path, capsys, job)
    assert code == 4
    assert payload is None


def test_invalid_json_exit_4(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{nope", encoding="utf-8")
    assert cli.main(["--input", str(path)]) == 4
    assert "invalid JSON" in capsys.readouterr().err


def test_missing_input_exit_4(tmp_path, capsys):
    assert cli.main(["--input", str(tmp_path / "absent.json")]) == 4
    assert "cannot read input" in capsys.readouterr().err


def test_bad_flags_exit_4(capsys):
    assert cli.main(["--space", "3", "--demo"]) == 4
    assert cli.main(["--j-max", "30", "--demo"]) == 4
    capsys.readouterr()


def test_batch_worst_code(tmp_path, capsys):
    batch = [
        {"command": "validate", "geometry": CANONICAL},
        {"command": "classify", "geometry": CANONICAL, "field": [[2, 0, 0.5]]},
        {"command": "validate", "geometry": NEGATIVE_BETA},
    ]
    code, payload = run(tmp_path, capsys, batch)
    assert code == 4
    assert [entry["job"] for entry in payload] == [0, 1, 2]
    assert payload[0]["report"]["accepted"] is True
    assert payload[1]["error"] and payload[1]["exit_code"] == 4
    assert payload[2]["report"]["accepted"] is False


def test_constrain_with_space_flag(tmp_path, capsys):
    job = {"command": "constrain", "geometry": CANONICAL, "k": 2, "p": "3/2"}
    code, payload = run(tmp_path, capsys, job, argv=["--space", "2x2"])
    assert code == 0
    system = payload["system"]
    assert system["space"] == {"max_deg_u": 2, "max_deg_v": 2}
    assert system["rank"] == 5
    assert system["admissible_dimension"] == 4
    assert len(system["basis"]) == 4


def test_constrain_job_space_overrides_flag(tmp_path, capsys):
    job = {
        "command": "constrain",
        "geometry": CANONICAL,
        "k": 2,
        "p": 2,
        "space": [3, 3],
    }
    code, payload = run(tmp_path, capsys, job, argv=["--space", "2x2"])
    assert code == 0
    system = payload["system"]
    assert system["space"] == {"max_deg_u": 3, "max_deg_v": 3}
    assert len(system["rows"]) == 7
    assert system["rank"] == 7
    assert system["admissible_dimension"] == 9
    labels = [row["label"] for row in system["rows"]]
    assert labels[0] == "k2:a:w10"
    # Each label must sit beside its own condition row, not a reduced row:
    # cascade order and pivot order disagree for most of these.
    by_label = {row["label"]: row["coefficients"] for row in system["rows"]}
    assert by_label["k2:a:w10"] == {"1,0": "1"}
    assert by_label["k2:a:w01"] == {"0,1": "1"}
    assert by_label["k2:c:w21"] == {"2,1": "1", "0,2": "-1"}
    assert by_label["k2:d:w13 - (3/2)*delta*w03"] == {"1,3": "1"}


def test_standardize_affine_wrap(tmp_path, capsys):
    geometry = [
        [0, 0, 1, 2],
        [2, 0, 1, 0],
        [1, 2, 1, 0],
        [0, 2, 1, 1],
        [2, 1, 1, 1],
    ]
    code, payload = run(tmp_path, capsys, {"command": "standardize", "geometry": geometry})
    assert code == 0
    record = payload["record"]
    assert record["x00"] == ["1", "2"]
    assert record["T"] == [["1", "-1"], ["0", "1"]]
    assert record["params"] == {"alpha": "0", "beta": "1", "gamma": "1", "delta": "0"}
    assert record["positivity_certified"] is True


def count_calls(monkeypatch, name):
    """Record the calls of sobolev.<name> made from here on."""
    calls = []
    original = getattr(sobolev, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(sobolev, name, counting)
    return calls


def test_verify_builds_each_quotient_once(tmp_path, capsys, monkeypatch):
    full = count_calls(monkeypatch, "quotient_second")
    rows = count_calls(monkeypatch, "_second_order_row")
    job = {
        "command": "verify",
        "geometry": CANONICAL,
        "field": [[3, 0, 1], [2, 2, 1]],
        "k": 2,
        "p": 2,
        "j_max": 6,
    }
    code, payload = run(tmp_path, capsys, job)
    assert code == 0
    assert "probe" in payload["classifications"][0]
    # The cascade's cross-check reads the oracle's quotient: one row, unbounded.
    assert len(full) == 1
    assert [args[2] for args in rows] == [None]


def test_first_order_verify_builds_its_quotient_once(tmp_path, capsys, monkeypatch):
    calls = count_calls(monkeypatch, "quotient_first")
    job = {"command": "verify", "geometry": CANONICAL, "field": [[1, 2, 1]], "k": 1, "j_max": 6}
    code, payload = run(tmp_path, capsys, job)
    assert code == 0
    assert payload["classifications"][0]["verify"]["consistent"] is True
    assert len(calls) == 1


def test_classify_without_oracle_keeps_the_truncated_quotient(tmp_path, capsys, monkeypatch):
    full = count_calls(monkeypatch, "quotient_second")
    rows = count_calls(monkeypatch, "_second_order_row")
    job = {"command": "classify", "geometry": CANONICAL, "field": [[3, 0, 1]], "k": 2}
    code, _ = run(tmp_path, capsys, job)
    assert code == 0
    assert len(full) == 0
    assert [args[2] for args in rows] == [sobolev.MAX_CASE_WEIGHT]


def test_verify_probe_agrees(tmp_path, capsys):
    job = {
        "command": "verify",
        "geometry": CANONICAL,
        "field": [[1, 0, 1], [1, 1, 1]],
        "k": 1,
        "p": 2,
        "j_max": 8,
    }
    code, payload = run(tmp_path, capsys, job)
    assert code == 0
    (entry,) = payload["classifications"]
    assert entry["case"] == "a" and entry["p_sup"] == "3"
    block = entry["verify"]
    assert block["p_inside"] == "2" and block["p_outside"] == "7/2"
    assert block["inside"]["verdict"] == "convergent"
    assert block["outside"]["verdict"].startswith("divergent")
    assert block["consistent"] is True
    probe = entry["probe"]
    assert probe["classified_member"] is True
    assert probe["agree"] is True


def test_classify_with_inline_verify(tmp_path, capsys):
    job = {
        "command": "classify",
        "geometry": CANONICAL,
        "field": [[2, 0, 1]],
        "k": 1,
        "verify": True,
        "j_max": 8,
    }
    code, payload = run(tmp_path, capsys, job)
    assert code == 0
    (entry,) = payload["classifications"]
    # Bounded case: only the inside probe at p = 6 exists.
    assert entry["verify"]["p_inside"] == "6"
    assert "p_outside" not in entry["verify"]
    assert entry["verify"]["consistent"] is True


def test_output_file(tmp_path, capsys):
    job = {"command": "validate", "geometry": CANONICAL}
    in_path = tmp_path / "job.json"
    out_path = tmp_path / "result.json"
    in_path.write_text(json.dumps(job), encoding="utf-8")
    code = cli.main(["--input", str(in_path), "--output", str(out_path)])
    assert code == 0
    assert capsys.readouterr().out == ""
    payload = json.loads(out_path.read_text(encoding="utf-8"))
    assert payload["report"]["accepted"] is True


def test_output_is_byte_identical_across_runs(tmp_path, capsys):
    job = {
        "command": "verify",
        "geometry": CANONICAL,
        "field": [[2, 0, 1], [1, 1, "3/4"]],
        "k": 2,
        "j_max": 8,
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job), encoding="utf-8")
    assert cli.main(["--input", str(path)]) == 0
    first = capsys.readouterr().out
    assert cli.main(["--input", str(path)]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.strip()
