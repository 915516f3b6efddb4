"""Byte-identity guard for the CLI.

`DIGESTS` holds, for a short list of commands, the sha256 of stdout, the
sha256 of stderr and the exit status, recorded on the code before a
refactor.  A change that means to keep every output (a simplification, a
speed-up) leaves them all as they are.  A change that alters an output on
purpose re-records the lines it names, printed by

    PYTHONPATH=src python tests/test_output_digests.py

and says why in CHANGES.md.  The whole list runs in a few seconds.
"""

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

from qgenocchi.cli import main

EMPTY = hashlib.sha256(b"").hexdigest()

DIGESTS = {
    "table --nmax 12": (
        "e510a8d17b022d1c6df3812da8b3cf6ca2c22db0f0e8bce089ba50c2673600fd",
        EMPTY, 0),
    "table --nmax 12 --format json": (
        "392776fca1b87c46b3ed0d5c3e409596c00ddceb34d0872e832beedf7c7febb5",
        EMPTY, 0),
    "table --nmax 12 --format csv": (
        "6d2671610c142715a7cf5fdcda3d23e9f52dfaaa5a136fd3e6372a1848c1af11",
        EMPTY, 0),
    "table --nmax 8 --polynomials": (
        "f8cc210856c5879541db93e5ff75b67f7c65588b1df4383e4c3d48028ff8f0a7",
        EMPTY, 0),
    "table --nmax 8 --polynomials --format csv": (
        "07a87ac86a665bf3ab5951c36fcc65a35d733d5f18f0c37baa55e5e72ca3f7a1",
        EMPTY, 0),
    "table --nmax 12 --q 4": (
        "89052b205604d6d9f36bf59cecda55dd80dddb358dc4e1cdc44f3dba622eb081",
        EMPTY, 0),
    "table --nmax 12 --q 2/3 --polynomials --format json": (
        "20be44463cfcf7bb44e5b371a75e4a773f618a66e3c0f3d19d2b65bc34040814",
        EMPTY, 0),
    "table --nmax 12 --q 1 --polynomials": (
        "457461cc8119fd8a26b59567aae8f187c74ff14a2dde848df1f4fab7719168fd",
        EMPTY, 0),
    "table --nmax 2 --q -1": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "f7b223667c46a93796ff8cbc3bf773027f2f9d5154c4e8ae7327083cf1fa1b68", 3),
    "table --nmax 251": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "73ce946e127feeda7eef32e890203721aa0168c3205f76b4856e215ee1b02f85", 2),
    "verify --nmax 4 --format text": (
        "a48d2af6b31318951d6f422b69d8876184322a286cb197a6dc8a00424a4de14e",
        EMPTY, 0),
    "verify --only THM4 --nmax 6": (
        "fbb739d937b860faace298f7225a778a5b61180ef9171cf2f9fa85a8094dfb7e",
        EMPTY, 0),
    "verify --only PROP_EQ15,THM6 --nmax 5 --format text": (
        "22bcf9adfcdf46a96b0966676004223100da6efe32cde9dc513af134ad179207",
        EMPTY, 0),
    "verify --only THM8 --nmax 6": (
        "5e04961065791e25cca5fa9a8650dc97befa9275135d1d4ed2767b8821b600da",
        "4f88ba9601abbc88df54fec72a74ff1d3186d03a43a2f1e6133455587d8833f9", 0),
    "verify --only THM7 --nmax 3 --format text": (
        "773c1e718975d770c947d819ee6df026d8900f46b4b29ca294202eea821c2c86",
        EMPTY, 0),
    "bernstein --n 4": (
        "a18e224fe89ef4aaaf648f8882123e2bac6b89c93a36753425b135cfffa6f473",
        EMPTY, 0),
    "bernstein --n 3 --format csv": (
        "1a3f0dc118fb19d35b14dfa35cb568587c5a3e1dd369419374483383bb264c8f",
        EMPTY, 0),
    "loggamma --prime 5 --mmax 3": (
        "ba41d071ee903d5aa95365c31338334e37229951045a65e1f79a0235a066f89e",
        EMPTY, 0),
    "loggamma --prime 3 --precision 4 --mmax 6 --format json": (
        "e8400d0704c6791f1506e305c7860ad156a154da6c47f47319818246c439fd30",
        EMPTY, 0),
    "padic-converge --n 4 --prime 3 --mmax 4": (
        "c11713a98b40b72ddedabf7ede3dfe4266c0eed19b31e2238a447ad6057959ce",
        EMPTY, 0),
    "padic-converge --n 3 --prime 3 --mmax 5": (
        "22772cebf5c47a2e638eb495fa4116f5be092fd39769376f95421cbd84e4514f",
        "7d4ed6546d35694ea5d2e4fd48fa187cb7795a546fd3829115dd60a80089ef08", 4),
    "padic-converge --n 2 --prime 5 --q 7/2 --mmax 3 --format csv": (
        "32e3b4865cefc674332aa1e3d4067826a7ac9f07f1f99673ee1520551a18ea6e",
        EMPTY, 0),
}


def digests(command: str):
    """(sha256 of stdout, sha256 of stderr, exit status) of one CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = main(command.split())
    return (hashlib.sha256(out.getvalue().encode()).hexdigest(),
            hashlib.sha256(err.getvalue().encode()).hexdigest(), status)


@pytest.mark.parametrize("command", DIGESTS)
def test_output_is_byte_identical(command):
    assert digests(command) == DIGESTS[command]


if __name__ == "__main__":
    for command in DIGESTS:
        out, err, status = digests(command)
        err = "EMPTY" if err == EMPTY else f'"{err}"'
        print(f'    "{command}": (\n        "{out}",\n        {err}, {status}),')
