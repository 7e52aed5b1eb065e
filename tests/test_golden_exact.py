"""Frozen exact outputs: SHA-256 digests of exact-ring results.

These cover the exact kernels (Z[alpha] products and squares, the norm
descent, division by a unit and group-ring products) through `unit` and
`tables` stdout, the v1 generator images at n = 7 and one n = 10
group-ring product of two u_chi1 images.  A change to how those kernels
compute must leave these bytes alone.  The `identities` digests at n = 9
and 12 were recorded while those reports still took exact powers,
products and Galois images in Z[alpha]; the parity-ring reports must
print the same bytes.  The two mixed-sign n = 10 unit words were recorded
while a word's value was still its positive part times the inverse of its
negative part, each d_j power computed on its own.  The `funnel` digests
at n = 4..12 were recorded while F's generators were still built apart
from the coset generators of sqrt(F)/F.
"""

import hashlib
import json

import pytest

from circunits import Level, eval_word, gr_mul, parse_word, u_chi1, v1_generators
from circunits.cli import main

# funnel --n 4..12 stdout: both generator lists, their labels and words.
FUNNEL_DIGESTS = {
    4: "be7787db40435c1f37fc185b2b74ea5f407d075f9c1d9272819a2db797705e31",
    5: "b3ccb3b6af821860b1111731fb5267a33b5c17b692bafdf00d4b7f3d75700de5",
    6: "5d13d6d7363e43518eac176dd7c80154bc3416751337a02db729df5265eb0992",
    7: "ae402efcfc544ab2e2edee47d198e36fb0d9133f146801f5e6eeea07311a967f",
    8: "569846fa401ed5d2b988cf9ff06bf84a87ee62d504590385aeb9832e397f7d9a",
    9: "a8e24d1664423ca5133107260cd6a26ffbada68e07b47b65de7f728277199d1e",
    10: "353e286b883c67fa0312c37cce7f8b8f126c8f24d980403ac54239b2d822794a",
    11: "adf122b4bc19633424cf9489724568ca5d7490946e8940a9672a0cbf1b712786",
    12: "898e931dd892ac9fd17f397792359fab8e5cfb46835518e383fd0712a096c2f7",
}
CLI_DIGESTS = [
    (
        ("unit", "--n", "9", "--word", "d1^-64 * d3^8 * d61^-8"),
        2,
        "43699a45b0af60c8d1a19abb8f44018abe7a2bce7ad71ca437df959ae89d8212",
    ),
    (
        ("unit", "--n", "10", "--word", "d1^-256 * d3^256"),
        0,
        "a09402d1663e9301706724b9b55e2c1ba1e3578fccd3fa36d60d6a2e9d8aa380",
    ),
    (
        (
            "unit",
            "--n",
            "10",
            "--word",
            "d37 * d475^-1 * d65^4 * d191^-4 * d15^-16 * d17^16",
        ),
        0,
        "a4ffa9a5939706427ec48742f03bedf4da10f39bb6b1bfd7d7b443046571ff5e",
    ),
    (
        (
            "unit",
            "--n",
            "10",
            "--word",
            "a^512 * d7^32 * d25^-32 * d45^-4 * d83^4 * d217^-2 * d295^2",
        ),
        0,
        "67b5a880e3f6d09f43b5e66d36b8057b6eb29818d7b05280e431dac5dfb65859",
    ),
    (
        ("identities", "--n", "9"),
        0,
        "5b1d615766402b590a7599702f06e1db510149dffb9c03efe02adff48d12bb44",
    ),
    (
        ("identities", "--n", "12"),
        0,
        "9f126d46ed451e5209c6f5939d4805d3a692ce1a82d49a556cbe65c93c2039eb",
    ),
    (
        ("tables", "--n", "5"),
        0,
        "67e8d02bf546ef9ca6948f43d08ae1ca379642872d37f81c49d90f987842c6bd",
    ),
    *[(("funnel", "--n", str(n)), 0, d) for n, d in FUNNEL_DIGESTS.items()],
]
V1_DIGEST_N7 = "ec45814cd890905bd94efeac7c850e398240bb9f5a06cf7cac65ea4433cb7a63"
GR_MUL_DIGEST_N10 = "0625d1d2d975d57a82081256a117a285900d301ade88f6a817cbe24b5d2b8aa2"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize(
    "argv, code, expected", CLI_DIGESTS, ids=[" ".join(c[0]) for c in CLI_DIGESTS]
)
def test_cli_stdout_bytes(argv, code, expected, capsys):
    assert main(list(argv)) == code
    assert digest(capsys.readouterr().out) == expected


def v1_digest(report) -> str:
    doc = {
        "labels": list(report.labels),
        "images": [image.to_json_dict() for image in report.images],
        "torsion": report.torsion_generator.to_json_dict(),
    }
    return digest(json.dumps(doc, sort_keys=True))


def test_v1_generator_images_bytes():
    assert v1_digest(v1_generators(Level(7))) == V1_DIGEST_N7


def test_group_ring_product_bytes():
    """u_chi1 of d_1^-256 d_3^256 times u_chi1 of q(1,5)^2 q(0,3) at n = 10."""
    lv = Level(10)
    u = u_chi1(eval_word(parse_word(lv, "d1^-256 * d3^256")))
    v = u_chi1(eval_word(parse_word(lv, "d5^-2 * d251^2 * d3^-1 * d509")))
    assert digest(json.dumps(gr_mul(u, v).to_json_dict())) == GR_MUL_DIGEST_N10
