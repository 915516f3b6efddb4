"""Byte-identity guard for the CLI.

`DIGESTS` holds, for a short list of commands, the sha256 of stdout, the
sha256 of stderr and the exit status, recorded on the code before a
refactor.  A change that means to keep every output (a simplification, a
speed-up) leaves them all as they are.  A change that alters an output on
purpose re-records the lines it names, printed by

    PYTHONPATH=src python tests/test_output_digests.py ["<command>" ...]

and says why in CHANGES.md.  Each argument is one command, such as
"bernstein --n 4", and only its DIGESTS line is printed; without arguments
every line of both lists is.  A new pin is recorded the same way, on the
code before the change.  The whole list runs in a few seconds.

`FIELD_DIGESTS` does the same for the library on parsed rational functions
whose denominators have no factor q or 1+q (`field_results`), the inputs
that reach the general gcd.
"""

import hashlib
import io
import random
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from qgenocchi.cli import main
from qgenocchi.exactq import parse_qrational

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
    "table --nmax 72 --format json": (
        "7adbdbd0316f7e009ef4b77d3d5a5d6edb0592c16383d09a5c7fc1965d2eb653",
        EMPTY, 0),
    "table --nmax 40 --polynomials --format csv": (
        "c607a784fb3eee93cdedacbd15bb386a35d193c07316631ed8b2c7bc8f6283ce",
        EMPTY, 0),
    "table --nmax 0": (
        "eb3cbf1c08ba7cda44acdc4ba518cb4de7a65571edb0cb3a86832fcd30e4386e",
        EMPTY, 0),
    "table --nmax 1 --polynomials": (
        "3506743330426e14d797daf84b2b7eb09b3e9ddb80dc7f2537605c87decfa9bb",
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
    "table --nmax 250": (
        "5afe644706c5b6c6515f2bd6902411141cc82613b1d1b476ae5bcafd4510c169",
        EMPTY, 0),
    "table --nmax 120 --q 2/3 --polynomials --format csv": (
        "11b28597c1715f498c305565c2630ee119b70eb238e2d0be3130a93b7599491a",
        EMPTY, 0),
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
        "a0fe04e24213eaf3ec3434679ee2487b375b9c57a557394887ac50b589ebfb97",
        EMPTY, 0),
    "verify --only THM8 --nmax 6": (
        "5e04961065791e25cca5fa9a8650dc97befa9275135d1d4ed2767b8821b600da",
        "4f88ba9601abbc88df54fec72a74ff1d3186d03a43a2f1e6133455587d8833f9", 0),
    "verify --only THM7 --nmax 3 --format text": (
        "773c1e718975d770c947d819ee6df026d8900f46b4b29ca294202eea821c2c86",
        EMPTY, 0),
    "verify --nmax 20 --format json": (
        "c33389306982c877cf3f26876b8c56fc67e48235342c18eb01905d94d1543ba7",
        "43c7d7dec62e81b72630fc6ee2fee2e0200e66d976f586bff0a738ffd07ba741", 0),
    "verify --only THM4_EQ11 --nmax 25": (
        "b2c4a9dc786b5764f7c157a23897d357737eb52b95974c6c518f2adaf0d8af7a",
        EMPTY, 0),
    "verify --only THM1,THM2_EQ10,PROP_EQ14 --nmax 22 --format json": (
        "e0f99a8a019c65ff5067ad90e035433fbe9b422513298cf68e2de4b44333f1f2",
        EMPTY, 0),
    "verify --only THM8 --nmax 4 --format text": (
        "6afcb2471dad225e7ba98a3cdeee53b7decd401af14abda742bf395f52ca7442",
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
    "padic-converge --n 249 --prime 3 --mmax 11": (
        "6f24a91de56ab2e1c855db33b104184f234272182de158025963c9dc328b61b2",
        EMPTY, 0),
    "padic-converge --n 249 --prime 3 --mmax 11 --q 1048570/1048573": (
        "88e4a09b01ee778ac955d60993780bcb62521101741609afd194bdd3b3d318e9",
        "7d4ed6546d35694ea5d2e4fd48fa187cb7795a546fd3829115dd60a80089ef08", 4),
    "loggamma --prime 3 --mmax 11 --precision 120": (
        "6088613e45db5d05b80f22d83839e4cffa397547f4aa4f2a9a635e2f5a4b72e7",
        EMPTY, 0),
    "loggamma --prime 7 --mmax 2 --precision 30": (
        "716b3c34d57edcac36384befbc7d88ee71a13ab3bd322a95d94bd230c9aaf58e",
        EMPTY, 0),
    "verify --only THM6_EQ16 --nmax 30 --format json": (
        "afefa1121010794dc7d1c134662d30e61ad9232147f2a63ab7c13a77ba519ba8",
        EMPTY, 0),
    "loggamma --prime 3 --mmax 7 --q=7 --x=1/3 --precision 12 --format json": (
        "1a84224a8a9cf7a672622d99caf79e1180c887bc6128043db60739f0c04419e2",
        EMPTY, 0),
    "loggamma --prime 5 --mmax 5 --q=11 --x=1/5 --precision 12 --format text": (
        "bdc03e6f3302a3aeef7af8bd58ae91121f2091c3d7a059c79076a0e1e55fbde4",
        EMPTY, 0),
    "loggamma --prime 7 --mmax 4 --q=15 --x=1/7 --precision 12 --format json": (
        "cdde28785f2132f5a25e9ffba9b104563e1d565b6d641d78359010f256c15fc7",
        EMPTY, 0),
    "loggamma --prime 3 --mmax 5 --q 7/4 --x 4/9": (
        "63e6a1e01ccdb54f8fe43d5e5090ff53482325374fb09e091bfe8532c33086bf",
        EMPTY, 0),
    "padic-converge --n 8 --prime 3 --mmax 9 --q=4": (
        "87560cbac13e5beaf3d857febb894b41945d78266fdfd22d9a3bf1060760550f",
        EMPTY, 0),
    "padic-converge --n 5 --prime 5 --mmax 6 --q=7/2 --format csv": (
        "5a6b9da7787e7d20deb6ab7cb9d880ac9ff118693f6e19df40d7f57746f3578d",
        EMPTY, 0),
    "padic-converge --n 3 --prime 3 --mmax 4 --q=4": (
        "639172da0d4646ddb551892fbba24edc692e5a72de11da555868965f6bda916c",
        "7d4ed6546d35694ea5d2e4fd48fa187cb7795a546fd3829115dd60a80089ef08", 4),
    "table --nmax 250 --q 123456789012345678901/2": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "2f656b78f9f81549accb90208c63f6a4edabd94a0aa0fe880bf9061e6241c62c", 2),
    "table --nmax 3 --q 1e20000000": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "2f0bd20d8ec7975db0a319671778914c24752d1b9f1dee027ad614652e8c7205", 2),
    "padic-converge --n 5 --prime 3 --mmax 11 --q 16777217/16777216": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "195cfe5c1af36153e044d11bcef1bc1698d137752da1a3f2bffac2fe86639bec", 2),
    "loggamma --prime 3 --mmax 9 --precision 200 --x 1e300": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "04298685be2580289ad1a97bbd3bab8ea2f3fb1118dc99bc8492e97630289355", 2),
    "padic-converge --n 1 --prime 3 --mmax 2 --precision 4000000": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "3ade6dafded6b8c1ce977f685c9e15f5abb16d348cde0c01dcbefce6282cd9f5", 2),
    "loggamma --prime 3 --precision 4000000": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "3ade6dafded6b8c1ce977f685c9e15f5abb16d348cde0c01dcbefce6282cd9f5", 2),
    "padic-converge --n 1 --prime 1000000000000000003 --mmax 0": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "c8055db0a27bc2ecfa04159b1b8379bf3403f31d264f474f6f26973cff62fa92", 2),
    "verify --only THM7,THM8 --nmax 40 --format json": (
        "88453fe3e6338065deb824b63daada0beaefb6891a02cd76b24037f028f01f09",
        "f325775868da758e23a4f7a18e3b2f67ee6db9da71daa7dd787046e46bef89fd", 0),
    "bernstein --n 40 --format csv": (
        "570254e9d609cb4b51b350807be5a417244596f1b8b973dd199301464241a2bd",
        EMPTY, 0),
    "verify --only EQ6,EQ7,THM3_EQ13,PROP_EQ15 --nmax 50 --format json": (
        "780741e3aac75de0b24169e1a3e2d5bd537dc5268e91bcdfd7e4904383e05589",
        EMPTY, 0),
    "verify --only THM1,THM2_EQ10,THM4_EQ11,THM5_EQ12,PROP_EQ14 --nmax 50 --format text": (
        "e8f2aac6352a36505498c179d2cef07ad1c9b813744c5f0d1081e08622cc3feb",
        EMPTY, 0),
    "verify --nmax 50 --format json": (
        "8b154d82177c1e2fb73122ea776445ac9e224b6c03f52d94dd649253d493e17b",
        "8281a66218e4c61939c423366ac4bd7be0b53613dd30d9d11555864f087230cb", 0),
    "table --nmax 60 --polynomials": (
        "07f7ada4e080915ed1ec1a25fef26cfeaf488fd578450a707f7336f27b306aed",
        EMPTY, 0),
    "table --nmax 30 --polynomials --format json": (
        "d63c8d9d19f82acb5dd332445eb396a060a993d875dcae464340dbb6d82292a4",
        EMPTY, 0),
    "bernstein --n 6 --format json": (
        "3c21a98b14d9a4b378285e5cf88127d09cdd70d85e1a54bb7f66d2ea2a37b046",
        EMPTY, 0),
    "verify --only THM7 --nmax 50 --format text": (
        "6d6f4ac9da894f5506af27ee07131ac0e397008324f92bce10cc550bd6e13e70",
        EMPTY, 0),
    "verify --nmax 10 --format text": (
        "b0bf8a30525fc17327182a629c1904c5ff55dc803a175a2b7c020876e345f714",
        "ad424d07d22f453e120aea7c886ca7df0fb782b6b6c6e06a5da9606b82eda145", 0),
    "verify --only THM8 --nmax 4 --format json": (
        "5e04961065791e25cca5fa9a8650dc97befa9275135d1d4ed2767b8821b600da",
        EMPTY, 0),
    "verify --only PROP_EQ15,THM6_EQ16 --nmax 1 --format text": (
        "38865b1edae97eed1026b5e82e60827480bf922229e1e67c55c480f2d8d45681",
        "0e5702021ea7e15fb92e3083b5937e9fc40b57bd6655a51c5b30d25ac4eceb0b", 0),
    "bernstein --n 100 --format csv": (
        "b5d09b039a188b227410f275bc7bb24c4eba79873b5ea272113d484a0c8a6652",
        EMPTY, 0),
}


FIELD_DIGESTS = {
    "sum": "eabe9f892743082c626ac4bc588aac9f9ae74615f1e549c9ef82ab351a5ce55b",
    "chain": "efe8d0b526e13d7fed7143d81e49fe66eba9dfab871e4fca3f37d6cf83a2bb3e",
    "cross": "1aa917f7386ab97d96adc5e42aaab99b99e0086b17378c39792a1b3a7ba525da",
    "sum_inverted": "77f3976c6590c82b5275fd77cd1d77abdd8f7a5ed27ddded64e5f1c23e681783",
}


def field_texts(seed=20, count=40):
    """`count` seeded texts f*g/(h*k[*l]), each factor of degree 1-3 with no
    root at 0 or -1, drawn from a pool of `count` factors."""
    rng = random.Random(seed)

    def factor():
        while True:
            coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(2, 4))]
            if coeffs[0] and coeffs[-1] and sum(c * (-1) ** i for i, c in enumerate(coeffs)):
                return "(" + "+".join(f"({c})*q^{i}" for i, c in enumerate(coeffs)) + ")"

    pool = [factor() for _ in range(count)]
    return [f"{'*'.join(rng.sample(pool, 2))}/({'*'.join(rng.sample(pool, rng.randint(2, 3)))})"
            for _ in range(count)]


def field_results():
    """to_text of the sum of `field_texts`, the chain a_0 * a_1 / a_2 * a_2
    / a_3 ..., the cross sum sum_i a_i * invert_q(a_(i+1)) (cyclic) and the
    inverted sum."""
    values = [parse_qrational(t) for t in field_texts()]
    total = values[0]
    for v in values[1:]:
        total = total + v
    chain = values[0]
    for a, b in zip(values[1:], values[2:]):
        chain = chain * a / b
    cross = values[0] * values[-1].invert_q()
    for a, b in zip(values, values[1:]):
        cross = cross + a * b.invert_q()
    results = {"sum": total, "chain": chain, "cross": cross, "sum_inverted": total.invert_q()}
    return {k: hashlib.sha256(v.to_text().encode()).hexdigest() for k, v in results.items()}


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


def test_field_results_are_byte_identical():
    assert field_results() == FIELD_DIGESTS


if __name__ == "__main__":
    commands = sys.argv[1:] or list(DIGESTS)
    for command in commands:
        out, err, status = digests(command)
        err = "EMPTY" if err == EMPTY else f'"{err}"'
        print(f'    "{command}": (\n        "{out}",\n        {err}, {status}),')
    if not sys.argv[1:]:
        for key, digest in field_results().items():
            print(f'    "{key}": "{digest}",')
