"""Byte-for-byte regression of the CLI on a saved batch.

``golden/cli_batch.json`` runs validate (accepted and rejected), standardize,
classify at every order-1 case, every order-2 case a-f and "none", and
constrain for both orders with an admissible basis, on one affinely wrapped
map with nonzero alpha and delta.  ``golden/cli_batch.out`` is its stdout.
Verify and demo jobs are left out: their float digits are not fixed.
"""

from pathlib import Path

from dmapreg import cli

GOLDEN = Path(__file__).parent / "golden"


def test_cli_batch_output_is_byte_identical(capsys):
    code = cli.main(["--input", str(GOLDEN / "cli_batch.json")])
    out = capsys.readouterr().out
    assert code == 2  # the batch holds rejected geometries
    assert out == (GOLDEN / "cli_batch.out").read_text(encoding="utf-8")
