"""Frozen certificates: the SHA-256 of `verify` stdout at every level.

A change to the verifier's internals must leave these bytes alone; a
deliberate change to the certificate format updates the digests here.
"""

import hashlib

import pytest

from circunits.cli import main

VERIFY_DIGESTS = {
    4: "5b3b7f85cc9fa1add4dec35c3e3f466f6216be13fe5f8c5099cb9ea27d878c29",
    5: "7aa2ac072ce322d9bb163d23fa7dddb033e2269e418a3e8162967916b7739e99",
    6: "edb13df8d31b280aac12348b6bfc5f1e3ba716dbe7b4b212203038cb7bc4c43a",
    7: "186bf25ffb765d98bdc0d10fca5dd58f20252a0b62702ab1043d7663a7039468",
    8: "01de45ee74dcd8c59dfda419f4d634b4ce18948bd010990e262af6a189189ecb",
    9: "39f4ea6493e345b2794e6d51d4a4dc7a2ee2d882254daa54d07022de6e752a02",
    10: "0260ca62dec44e472d46d5b0c7267d6daa618ebc28b7c1758bdccd1a030a2fa7",
    11: "830a47b6a257376579e7413276ce7336cd39fe446f7b0fa30ab5e4e016625771",
    12: "6d8420af2da549c558af1bf9d14ee74afd641eddacd2af669d34acaed5d3c1fd",
}
DEFAULT_WALK_DIGEST = "21e58d98657ba2eb43beb97325d942a398e70f1d27ae2380d673805ac621b361"


def stdout_digest(capsys, *argv):
    assert main(list(argv)) == 0
    return hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("n", sorted(VERIFY_DIGESTS))
def test_verify_certificate_bytes(n, capsys):
    assert stdout_digest(capsys, "verify", "--n", str(n)) == VERIFY_DIGESTS[n]


def test_verify_default_walk_bytes(capsys):
    assert stdout_digest(capsys, "verify") == DEFAULT_WALK_DIGEST
