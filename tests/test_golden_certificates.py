"""Frozen certificates: the SHA-256 of `verify` stdout at every level up to
n = 14.  The digests at 13 and 14 were recorded before the cap rose from 12,
from a tree that differed only in that cap; n = 15 and 16 take seconds each,
so CI runs `verify --n 16` through the console script instead.

A change to the verifier's internals must leave these bytes alone; a
deliberate change to the certificate format updates the digests here.

The previous format (tool_version 0.1.0) also spelled out each class as
`coords` next to its `coords_hex`, and the odd-r block as `rows_bits` next
to its `rows_hex`.  Its digests stay below: rebuilding that format from
today's output and matching them shows that the certificate changed by
exactly those two copies and the version.
"""

import hashlib
import json

import pytest

from circunits import TOOL_VERSION, Level, SpecialCoordsMod2, verify_main_theorem
from circunits.cli import main
from circunits.gf2 import unpack_bits

VERIFY_DIGESTS = {
    4: "e2d6e0593359e74a0c03a59f0b691dbbe43f0ffe9a73134107a151bc48277775",
    5: "577ca174d59f84c63140f3dfda9e6dc14ac54be558d09874638185ddf9b494a8",
    6: "dcd6282a86fba949c563bacb6051debbc913d71604b435e42363687eb1f68865",
    7: "1a8a2c8e514bac145a4cddb615560994d240700e67390d021d4e05cce7253b45",
    8: "3bf8c8b20a1436e617178a6de34d27edbe05e465c0a17375ff74ebd101dd1cd2",
    9: "8d85ce43597eac177e9150017ddce8a3ad8c00a505e1bb4ace566ca195d52301",
    10: "4d6ea4f5d0708b89fc9d5e3dfe07a6cd3ec48a21c83bf84a4e2eb594ef299adf",
    11: "cb5faf1976200eeb23fb14ccab8770715da01d33e1613708e1dba353df163167",
    12: "eca6186a1971eb15be5d13444f7346e2edd1f12a7ab5a7a5a5b814cdd3248cac",
    13: "345cb6b13c9e01989038a1ecde55a830d4a692174a25828f775b0bbeb6051edf",
    14: "022af2e85af2714c29948eef9da3a78f9980ca2686bc46f70429354a0f9c72d9",
}
DEFAULT_WALK_DIGEST = "8937a79042ccce4f16976c211c8482c1150e8e1f941df1207657e556c94fa580"

PARENT_TOOL_VERSION = "0.1.0"
PARENT_VERIFY_DIGESTS = {
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
PARENT_DEFAULT_WALK_DIGEST = (
    "21e58d98657ba2eb43beb97325d942a398e70f1d27ae2380d673805ac621b361"
)


def verify_stdout(capsys, *argv) -> str:
    assert main(["verify", *argv]) == 0
    return capsys.readouterr().out


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def printed(document) -> str:
    """A document as `verify` prints it."""
    return json.dumps(document, indent=2) + "\n"


def insert_before(entry: dict, anchor: str, key: str, value) -> dict:
    """A copy of entry with key: value placed just ahead of anchor."""
    out = {}
    for k, v in entry.items():
        if k == anchor:
            out[key] = value
        out[k] = v
    return out


def parent_certificate(doc: dict) -> dict:
    """The previous format of one certificate: each generator's rendered
    class ahead of its coords_hex, the odd-r rows_bits unpacked from
    rows_hex just after them, and the previous tool_version."""
    level = Level(doc["n"])
    old = dict(doc, tool_version=PARENT_TOOL_VERSION)
    old["generators"] = [
        insert_before(
            g,
            "coords_hex",
            "coords",
            SpecialCoordsMod2(level, int(g["coords_hex"], 16)).render(),
        )
        for g in doc["generators"]
    ]
    sub = doc.get("odd_r_subsystem")
    if sub is not None:
        width = len(sub["column_indices"])
        bits = [unpack_bits(int(h, 16), width) for h in sub["rows_hex"]]
        old["odd_r_subsystem"] = insert_before(sub, "rank", "rows_bits", bits)
    return old


@pytest.mark.parametrize("n", sorted(VERIFY_DIGESTS))
def test_verify_certificate_bytes(n, capsys):
    assert digest(verify_stdout(capsys, "--n", str(n))) == VERIFY_DIGESTS[n]


def test_verify_default_walk_bytes(capsys):
    assert digest(verify_stdout(capsys)) == DEFAULT_WALK_DIGEST


@pytest.mark.parametrize("n", sorted(PARENT_VERIFY_DIGESTS))
def test_certificate_is_the_parent_without_its_copies(n, capsys):
    doc = json.loads(verify_stdout(capsys, "--n", str(n)))
    assert doc["tool_version"] == TOOL_VERSION != PARENT_TOOL_VERSION
    rebuilt = printed(parent_certificate(doc))
    assert digest(rebuilt) == PARENT_VERIFY_DIGESTS[n]


def test_default_walk_is_the_parent_without_its_copies(capsys):
    docs = json.loads(verify_stdout(capsys))
    rebuilt = printed([parent_certificate(doc) for doc in docs])
    assert digest(rebuilt) == PARENT_DEFAULT_WALK_DIGEST


@pytest.mark.parametrize("n", [8, 12])
def test_rows_bits_is_built_at_certified_levels_only(n):
    """Beyond n = 7 the odd-r block keeps no rows_bits in memory, and the
    certificate is the same bytes: to_json_dict has nothing to drop."""
    cert = verify_main_theorem(Level(n))
    assert "rows_bits" not in cert.odd_r_subsystem
    data = cert.to_json_dict()
    assert data["odd_r_subsystem"] == cert.odd_r_subsystem
    assert digest(printed(data)) == VERIFY_DIGESTS[n]
