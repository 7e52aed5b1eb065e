"""Digests of outputs recorded from the implementation at commit 0f0d3b0.

CERTIFY_DIGESTS covers each level's generator labels, coords_hex and
matrix_rows_hex; IDENTITIES_DIGESTS covers the identity verdicts and the
rendered classes.  See workloads.certificate_digest and
workloads.identities_digest.
"""

CERTIFY_DIGESTS = {
    4: "f93954563d048845f9e1950eda0d72107a0ed36af37a5475e7414e2776407463",
    5: "9ec5aaf6848f309f50efb9479adade65934d544c457454859f5fd265e005ce9d",
    6: "9b3182ab0c758fc2b9107afa42f048627f7a98f873ced0b80a36009c79f1a208",
    7: "6b29c34e231c8e7dffbc04c81c10ae5978975f246509798136718d68aaee648e",
    8: "f0fae2e79d6119be8c49049c6252f04a28f28b377dc4e043357e1e31a0e38013",
    9: "bba65b78a3f969014fd29b82c37bfe41cdff7af7275be68b4925cffd7ab35def",
}

IDENTITIES_DIGESTS = {
    4: "e646bc55dfe15c72307a828625642310c87d86772b13cfd75126eefb80c9318a",
    5: "e85158258330981e747484563e0be6a9cbf5dd6cbb6f06228672c3c29375f421",
    6: "8bffb93a8f190967927e4b786f01fb0d1fe42c4be37fe382cccb370d5da488c1",
    7: "bb01a85738bfba1590cb243560735c765aa1771b6d499c3a1f59b1f08787043e",
    8: "b8accfc497c2004bc13d6c142cd2cb169f5946d4c9a096290a2271b48697638f",
    9: "8e590d1b90a29e8f67b967b34347103c0d1e8a7cb246e91b890b4d4282f56ede",
}
