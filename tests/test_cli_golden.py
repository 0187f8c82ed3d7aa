"""Recorded CLI output: each vector of cli_golden.json prints the stdout and
stderr it recorded and returns the recorded exit code.

The vectors cover the exact subcommands (JSON, CSV, `--decimals` and `--k`
variants, the echoed `params`), one output of each printer the other scalar
modes have (float and big-float laws, big-float limit values, the `w-cdf`
grid), and refusals owned by the CLI and by the library.  Outputs that
depend on the numpy version are left out; the big-float digits are those of
mpmath 1.3.
After a deliberate change of output, record the vectors again with
`PYTHONPATH=src python tests/test_cli_golden.py` and review the diff.
"""

import contextlib
import io
import json
import os
from pathlib import Path
from unittest import mock

import pytest

from urnlab import cli

GOLDEN = Path(__file__).with_name("cli_golden.json")
VECTORS = json.loads(GOLDEN.read_text())


def run(vector):
    """(stdout, stderr, exit code) of `cli.main` on the vector's argv, with
    its environment variables set."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, vector.get("env", {})), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(vector["argv"])
    return out.getvalue(), err.getvalue(), code


@pytest.mark.parametrize("vector", VECTORS, ids=[" ".join(v["argv"]) for v in VECTORS])
def test_same_output_as_recorded(vector):
    assert run(vector) == (vector["stdout"], vector["stderr"], vector["exit"])


if __name__ == "__main__":
    for vector in VECTORS:
        vector["stdout"], vector["stderr"], vector["exit"] = run(vector)
    GOLDEN.write_text(json.dumps(VECTORS, indent=1) + "\n")
