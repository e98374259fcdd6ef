"""Machine reports pinned by SHA-256.

A refactor must leave every ``--format machine`` report byte-identical.
These digests were recorded from the code before the candidate scans were
shared; the commands together reach the n > 24 (two-coset certificates)
and n > 48 (structured hypothesis witnesses) paths.  The four ``quotient``
reports pin the cut engines' ``arc_cut.*`` lines: the exhaustive scan with a
complete and with a truncated atom list, and the transitive sweep with a
truncated one on SD(23,11) and on SD(47,23).  The SD(47,23) digest was
recorded before the sweep moved from ``itertools.combinations`` to numpy
chunks; there the size-4 cuts come in chunks.  The ``group``, ``atoms``, ``classify --set``, ``example``
and ``scan`` digests pin every other command's report, ``config.*`` header
included (a CASE_I set with translator 1 and a CASE_II set); they were
recorded before the header moved from a config object onto the parsed
arguments.  The two ``59 29`` digests pin the order-1711 family member; they
were recorded before dense sets were translated by their complements.
Commands are split shell-style, so a quoted set literal stays one argument.
"""

import hashlib
import io
import os
import shlex
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from sumatoms.cli import main

GOLDEN = {
    "verify main-theorem --max-order 10": (
        "4a54889ec923979d3f508031412f90ddf29df3d10f46be7f43120a907e542ddc"
    ),
    "verify intersection --max-order 8": (
        "0dab3b3a8a1354a104b702fd24223ee758cc81535257e5079d6742e44be7a5ee"
    ),
    "verify mann --max-order 8": (
        "408b033ef4a6ca539a83262094e3bdb0cc2ce5e112b9a726743d0330d8cb0d8d"
    ),
    "verify oracle --max-order 8 --samples 50": (
        "604ee9b98772cf0ac56a99606cdb365771a5ed8e5e6b80745069d66fd09956f5"
    ),
    "verify graph-lemmas --max-order 12": (
        "4b7a1e5f57a42260108fde2713e672c27e4c7a4b097ac20eda143ce61ae1662c"
    ),
    "verify two-coset --limit 12": (
        "4478e755eb3c2c65cf8331b8fae31d7c9e1bdf3c17f1d1daf91534766979aab9"
    ),
    "classify --semidirect 11 5 --example": (
        "12cd12bed96f0db1c2fcf559f575b7364caedad44bef16c9ea23f3e3115c6d61"
    ),
    "group --cyclic 6": (
        "8860f36c934ba76453c703467e2e499d2f476818e831354f2f34863a574d3692"
    ),
    'atoms --cyclic 7 --set "0 1 2" --k 2 --oracle --atom-cap 4': (
        "7ad035848dc1a004662795eda244b3c7d0c44fd82dd96c35555809f83a4bd2ba"
    ),
    'classify --cyclic 7 --set "1 2 5"': (
        "223e031e3589ae6615f0c55e496dd0b13480087e0f6e906ff602b19535e88f47"
    ),
    'classify --cyclic 6 --set "0 2 3"': (
        "e6a4244f22beb67ec488059cae309bc1fe7c1251de6a9ff3718240b0a52ecf80"
    ),
    "example 7 3": (
        "89ba22ca1a19b645e0c99d1a50a819934d0f071817d1dae811ede094b3bc6ef9"
    ),
    "example 59 29": (
        "8b1ae6b2a24529fbbfa0d79ab79e9717d96e352a8b12df24c3e43965675bff88"
    ),
    "classify --semidirect 59 29 --example": (
        "25638452d2a5952dfecdf7add8f5d4c81a4de3bd268b9d4060a9e38e369f2ce3"
    ),
    "scan --limit 25": (
        "f48d279f1b332c82b2e290a1b99864051cfa3236dd7f292aa5ee4c578d28ef0a"
    ),
    'quotient --semidirect 7 3 --subgroup "0 1 2" --element 3 --k 3': (
        "de38962614c0282a591dbd0a0a98cda8bc0597d90fa86fe8cee1898c6b18ae5c"
    ),
    'quotient --semidirect 11 5 --subgroup "0 1 2 3 4" --element 5 --k 4': (
        "757de97b069d252bd77963c62e01abb9269286858a5c0bfd0cec90b5e5b3879e"
    ),
    'quotient --semidirect 23 11 --subgroup "0 1 2 3 4 5 6 7 8 9 10" --element 11 --k 3': (
        "7a9ba19cd0e8c56f5c38dc990404ed05f295ae83c524e011530f42281d0a38d0"
    ),
    'quotient --semidirect 47 23 --subgroup "0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22" --element 23 --k 3': (
        "22f10d5e5555dcb881d764af845d42a00bec716eaf258f4d0816b22922a5357a"
    ),
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_machine_report_digest(command):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(shlex.split(command) + ["--format", "machine"])
    assert code == 0
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digest == GOLDEN[command]


def test_python_dash_m_prints_the_same_report():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    command = "group --cyclic 6"
    done = subprocess.run(
        [sys.executable, "-m", "sumatoms", *command.split(), "--format", "machine"],
        env=env,
        capture_output=True,
        check=True,
    )
    assert hashlib.sha256(done.stdout).hexdigest() == GOLDEN[command]
