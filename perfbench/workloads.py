"""Inputs, items and known-answer checks of the three benchmark workloads.

A workload is a list of items run one after another in one cold process.
Each item is tagged with its level n, so a pass can split its time into
the certified range (n = 4..7) and the exploratory levels (n >= 8).  Items
look library functions up on their modules at call time, so the layer
wrappers installed by ``layertrace`` see every call.

Inputs come from ``--seed`` alone and are built without calling the
library: the unit words of ``units`` use the closed-form generator
formulas, not ``circunits.funnel``.  Nothing here touches the library's
evaluation cache before the timed region starts.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Callable

from known_answers import CERTIFY_DIGESTS, IDENTITIES_DIGESTS

CERTIFIED = range(4, 8)

LEVELS = {
    # certify and identities: the CLI's default walk plus two exploratory levels
    "full": {"certify": (4, 5, 6, 7, 8, 9), "identities": (4, 5, 6, 7, 8, 9)},
    "smoke": {"certify": (4, 5, 8), "identities": (4, 5, 8)},
}

# units: (level, admitted words, refused words) per block
UNIT_BLOCKS = {
    "full": ((7, 16, 16), (10, 2, 2)),
    "smoke": ((7, 2, 1), (8, 2, 1)),
}

# Word shapes: one (funnel block, exponent magnitude) pair per F generator
# factor, cycled over the words.  The seed picks the generator inside each
# block and every sign.  A block-k generator carries exponents 2^k and its
# cost grows steeply with k, so fixing the blocks keeps the cost of a pass
# nearly the same for every seed.  Refused words add one coset generator
# from the given block.  Blocks must not exceed n - 3.  The head power
# d_1^(2^(n-2)) is left out: its cost swings several-fold with its sign.
ADMITTED_SHAPES = (
    ((0, 1), (1, 2), (4, 1)),
    ((0, 2), (2, 1), (4, 2)),
)
REFUSED_SHAPES = (
    (((0, 1), (1, 1), (3, 2)), 2),
    (((0, 2), (2, 2), (0, 1)), 4),
)


class CheckFailed(Exception):
    """An output disagrees with its known answer."""


@dataclass
class Item:
    level: int
    label: str
    run: Callable[[], str]  # returns the item's output as canonical text


def _digest(data) -> str:
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _expect(condition: bool, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


# ---------------------------------------------------------------------- #
# certify


def certificate_digest(doc: dict) -> str:
    """Digest of the certificate fields that every verifier route keeps."""
    return _digest(
        {
            "generator_labels": [g["label"] for g in doc["generators"]],
            "coords_hex": [g["coords_hex"] for g in doc["generators"]],
            "matrix_rows_hex": doc["matrix_rows_hex"],
        }
    )


def _certify_item(lib, n: int) -> Item:
    def run() -> str:
        cert = lib.congruence.verify_main_theorem(lib.Level(n))
        doc = cert.to_json_dict()
        gens = 1 << (n - 3)
        _expect(cert.trivial_only, f"n={n}: verdict is not trivial_only")
        _expect(len(doc["generators"]) == gens, f"n={n}: generator count")
        _expect(doc["rank"] == gens, f"n={n}: rank {doc['rank']} != {gens}")
        _expect(doc["nullity"] == 0, f"n={n}: nullity {doc['nullity']}")
        if n in CERTIFIED:
            _expect(
                doc.get("exhaustive_kernel_size") == 1,
                f"n={n}: exhaustive kernel size",
            )
        _expect(
            certificate_digest(doc) == CERTIFY_DIGESTS[n],
            f"n={n}: certificate digest differs from the recorded one",
        )
        return json.dumps(doc, sort_keys=True)

    return Item(n, f"certify n={n}", run)


# ---------------------------------------------------------------------- #
# identities


def identities_digest(power: dict, transport: dict | None) -> str:
    """Digest of the identity verdicts and rendered classes."""
    data = {
        "q_power": [
            [c["name"], c.get("k"), c["passed"], c["lhs"], c["rhs"]]
            for c in power["checks"]
        ]
    }
    if transport is not None:
        data["transports"] = [
            [t["label"], t["passed"], t["value"], t["transported"]]
            for t in transport["transports"]
        ]
        data["coset_table"] = [
            [t["label"], t["value"]] for t in transport["coset_table"]
        ]
    return _digest(data)


def _identities_item(lib, n: int) -> Item:
    def run() -> str:
        level = lib.Level(n)
        power = lib.congruence.q_power_identities(level)
        transport = None
        if n >= 5:
            transport = lib.congruence.galois_transport_check(level)
        # five checks per funnel step k = 1..n-3, plus the r-block check
        _expect(power["all_passed"], f"n={n}: a q-power identity failed")
        _expect(len(power["checks"]) == 5 * (n - 3) + 1, f"n={n}: check count")
        if transport is not None:
            _expect(transport["all_passed"], f"n={n}: a transport failed")
            # one transport per coset generator except the head power
            _expect(
                len(transport["transports"]) == (1 << (n - 3)) - 1,
                f"n={n}: transport count",
            )
        _expect(
            identities_digest(power, transport) == IDENTITIES_DIGESTS[n],
            f"n={n}: identity report digest differs from the recorded one",
        )
        return json.dumps([power, transport], sort_keys=True)

    return Item(n, f"identities n={n}", run)


# ---------------------------------------------------------------------- #
# units: words drawn from the closed-form generator formulas


def _blocks(n: int, halve: bool) -> dict[int, list[dict[int, int]]]:
    """d-exponents of the q-generators by funnel block k, where
    q(k,j) = d_j^-1 d_(2^(n-1-k)-j) and j runs over the odd numbers below
    2^(n-2-k), without 1 when k = 0.

    F generators (halve false): q(k,j)^(2^k) for k = n-3..0.
    sqrt(F)/F coset generators (halve true): q(k,j)^(2^(k-1)) for k = n-3..1.
    """
    shift = 1 if halve else 0
    blocks = {}
    for k in range(n - 3, shift - 1, -1):
        e = 1 << (k - shift)
        first = 3 if k == 0 else 1
        blocks[k] = [
            {j: -e, (1 << (n - 1 - k)) - j: e}
            for j in range(first, 1 << (n - 2 - k), 2)
        ]
    return blocks


def _word_text(factors: list[tuple[dict[int, int], int]]) -> str:
    """Render factors as CLI word text, one d-token per generator factor;
    parse_word merges repeated indices."""
    tokens = []
    for exps, e in factors:
        tokens.extend(f"d{j}^{x * e}" for j, x in sorted(exps.items()))
    return " * ".join(tokens)


def _draw(rng: random.Random, blocks: dict, shape) -> list:
    factors, used = [], []
    for block, magnitude in shape:
        gen = rng.choice([g for g in blocks[block] if g not in used])
        used.append(gen)
        factors.append((gen, magnitude * rng.choice((-1, 1))))
    return factors


def unit_words(n: int, admitted: int, refused: int, rng: random.Random):
    """(word text, admitted?) pairs at level n, admitted and refused words
    interleaved.

    Each word multiplies distinct F generators with exponents in
    {+-1, +-2}.  A refused word is further multiplied by one coset
    generator, which leaves its class mod 2 nontrivial.
    """
    f_blocks = _blocks(n, halve=False)
    coset_blocks = _blocks(n, halve=True)
    words = []
    for i in range(max(admitted, refused)):
        if i < admitted:
            factors = _draw(rng, f_blocks, ADMITTED_SHAPES[i % len(ADMITTED_SHAPES)])
            words.append((_word_text(factors), True))
        if i < refused:
            shape, coset_block = REFUSED_SHAPES[i % len(REFUSED_SHAPES)]
            factors = _draw(rng, f_blocks, shape)
            factors.append((rng.choice(coset_blocks[coset_block]), 1))
            words.append((_word_text(factors), False))
    return words


def _unit_items(lib, n: int, words, state: dict) -> list[Item]:
    items = []
    previous = None
    for idx, (text, admitted) in enumerate(words):
        key = (n, idx)

        def run(text=text, admitted=admitted, key=key) -> str:
            level = lib.Level(n)
            word = lib.circular_units.parse_word(level, text)
            beta = lib.circular_units.eval_word(word)
            try:
                image = lib.group_ring.u_chi1(beta)
            except lib.NotIntegral:
                _expect(not admitted, f"n={n}: word {key[1]} refused unexpectedly")
                odd = [beta.coeffs[0] - 1, *beta.coeffs[1:]]
                _expect(
                    any(c & 1 for c in odd), f"n={n}: refused word has beta - 1 even"
                )
                return "refused"
            _expect(admitted, f"n={n}: word {key[1]} admitted unexpectedly")
            _expect(image.augmentation() == 1, f"n={n}: augmentation is not 1")
            back = image.apply_character(lib.CycInt.monomial(level, 1))
            _expect(back == beta, f"n={n}: apply_character(alpha) != beta")
            state[key] = (text, image)
            return json.dumps(image.to_json_dict())

        items.append(Item(n, f"units n={n} word {idx}", run))
        if not admitted:
            continue
        if previous is not None:

            def run_pair(a=previous, b=key) -> str:
                text_a, image_a = state[a]
                text_b, image_b = state[b]
                product = lib.group_ring.gr_mul(image_a, image_b)
                level = lib.Level(n)
                word = lib.circular_units.parse_word(level, f"{text_a} * {text_b}")
                expected = lib.group_ring.u_chi1(lib.circular_units.eval_word(word))
                _expect(product == expected, f"n={n}: gr_mul law fails for {a}, {b}")
                return json.dumps(product.to_json_dict())

            items.append(Item(n, f"units n={n} product {previous[1]}*{idx}", run_pair))
        previous = key
    return items


# ---------------------------------------------------------------------- #


WORKLOADS = ("certify", "identities", "units")


def build(lib, workload: str, seed: int, size: str = "full") -> list[Item]:
    """The items of one pass.  ``lib`` is a namespace of circunits modules.

    certify and identities have fixed inputs; the seed only draws the
    unit words.
    """
    if workload == "certify":
        return [_certify_item(lib, n) for n in LEVELS[size]["certify"]]
    if workload == "identities":
        return [_identities_item(lib, n) for n in LEVELS[size]["identities"]]
    if workload == "units":
        rng = random.Random(seed)
        state: dict = {}
        items = []
        for n, admitted, refused in UNIT_BLOCKS[size]:
            words = unit_words(n, admitted, refused, rng)
            items.extend(_unit_items(lib, n, words, state))
        return items
    raise ValueError(f"unknown workload {workload!r}")
