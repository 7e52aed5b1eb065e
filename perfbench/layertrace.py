"""Per-layer tracing from outside the library.

``Tracer.install`` replaces each target function of the circunits package
with a wrapper that records one span per call: (layer name, start, end,
parent span, item id).  A module-level function is rebound everywhere it
is bound across the package's modules, found by object identity, so
``from .gf2 import cyc_mul_f2`` copies are wrapped too.  A method is
replaced on its class.  A target that no longer exists is skipped and its
metrics are left out.

Spans stay in memory until ``summary`` folds them into calls and self time
per layer and ``write_spans`` writes them out.  Self time is a span's
duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import sys
import time

# (layer name, module, attribute path, metrics reported for it)
TARGETS = (
    ("cyclotomic.mul", "cyclotomic", "CycInt.__mul__", ("calls", "self_s", "max_bits")),
    ("cyclotomic.pow", "cyclotomic", "CycInt.__pow__", ("calls", "self_s")),
    ("cyclotomic.invert_unit", "cyclotomic", "CycInt.invert_unit", ("calls", "self_s")),
    ("cyclotomic.norm", "cyclotomic", "CycInt.norm", ("calls", "self_s")),
    ("cyclotomic.galois", "cyclotomic", "CycInt.galois", ("calls", "self_s")),
    ("gf2.cyc_mul_f2", "gf2", "cyc_mul_f2", ("calls", "self_s")),
    ("gf2.cyc_pow_f2", "gf2", "cyc_pow_f2", ("calls", "self_s")),
    ("gf2.gf2_rank", "gf2", "gf2_rank", ("calls", "self_s")),
    ("congruence.verify_main_theorem", "congruence", "verify_main_theorem", ("self_s",)),
    ("congruence.word_mod2", "congruence", "word_mod2", ("calls", "self_s")),
    ("congruence.q_power_identities", "congruence", "q_power_identities", ("self_s",)),
    ("congruence.galois_transport_check", "congruence", "galois_transport_check", ("self_s",)),
    ("real_basis.special_mod2", "real_basis", "special_mod2", ("calls", "self_s")),
    (
        "real_basis.special_mod2_from_parities",
        "real_basis",
        "special_mod2_from_parities",
        ("calls", "self_s"),
    ),
    ("circular_units.eval_word", "circular_units", "eval_word", ("calls", "self_s")),
    ("circular_units.parse_word", "circular_units", "parse_word", ("calls", "self_s")),
    ("funnel.generator_system", "funnel", "generator_system", ("calls", "self_s")),
    ("funnel.build_partition", "funnel", "build_partition", ("calls", "self_s")),
    ("group_ring.u_chi1", "group_ring", "u_chi1", ("calls", "self_s")),
    ("group_ring.apply_character", "group_ring", "GroupRingElt.apply_character", ("calls", "self_s")),
    ("group_ring.gr_mul", "group_ring", "gr_mul", ("calls", "self_s")),
)

# Read from the evaluation cache after the pass, not from spans.
D_POWER_CACHE = ("circular_units.d_power_cache.hit_ratio", "circular_units", "_d_power")

OVERHEAD = "trace.overhead_frac"

PACKAGE = "circunits"

UNITS = {
    "calls": "count",
    "self_s": "s",
    "max_bits": "bits",
    "hit_ratio": "ratio",
    "overhead_frac": "ratio",
}


def metric_names() -> list[str]:
    """Every per-layer metric the traced run can report, in report order."""
    names = [f"{layer}.{m}" for layer, _, _, metrics in TARGETS for m in metrics]
    return names + [D_POWER_CACHE[0], OVERHEAD]


def metric_unit(name: str) -> str:
    return UNITS[name.rsplit(".", 1)[1]]


def _resolve(module, path: str):
    """(owner, attribute name, object) for a dotted path, or None."""
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    obj = getattr(owner, parts[-1], None)
    return None if obj is None else (owner, parts[-1], obj)


def _max_bits(result) -> int:
    return max(map(int.bit_length, result.coeffs), default=0)


class Tracer:
    def __init__(self) -> None:
        self.layers: list[str] = []  # layer id -> name
        self.spans: list = []  # (layer id, start, end, parent, item, tail)
        self.max_bits: dict[int, int] = {}
        self.item = -1
        self._stack = [-1]

    def _wrap(self, layer: int, fn, observe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (layer, start, end, parent, tracer.item, 0.0)
            if observe is not None:
                bits = observe(result)
                if bits > tracer.max_bits.get(layer, -1):
                    tracer.max_bits[layer] = bits
                # the observation is tracer work: keep it out of the parent
                spans[idx] = (layer, start, end, parent, tracer.item, clock() - end)
            return result

        return wrapper

    def install(self) -> None:
        prefix = PACKAGE + "."
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(prefix))
        ]
        for layer_name, module_name, path, metrics in TARGETS:
            module = sys.modules.get(prefix + module_name)
            found = None if module is None else _resolve(module, path)
            if found is None:
                continue
            owner, attr, fn = found
            layer = len(self.layers)
            self.layers.append(layer_name)
            observe = _max_bits if "max_bits" in metrics else None
            wrapper = self._wrap(layer, fn, observe)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, wrapper)

    def summary(self) -> dict[str, float]:
        """Calls, self time and observed maxima per installed layer."""
        count = len(self.layers)
        calls = [0] * count
        total = [0.0] * count
        inner = [0.0] * len(self.spans)
        for layer, start, end, parent, _item, tail in self.spans:
            calls[layer] += 1
            total[layer] += end - start
            if parent >= 0:
                inner[parent] += end - start + tail
        for idx, (layer, *_rest) in enumerate(self.spans):
            total[layer] -= inner[idx]
        out: dict[str, float] = {}
        for layer_name, _, _, metrics in TARGETS:
            if layer_name not in self.layers:
                continue
            layer = self.layers.index(layer_name)
            values = {
                "calls": calls[layer],
                "self_s": total[layer],
                "max_bits": self.max_bits.get(layer, 0),
            }
            for m in metrics:
                out[f"{layer_name}.{m}"] = values[m]
        cache_name, module_name, attr = D_POWER_CACHE
        cached = getattr(sys.modules.get(f"{PACKAGE}.{module_name}"), attr, None)
        info = getattr(cached, "cache_info", None)
        if info is not None:
            hits, misses = info().hits, info().misses
            out[cache_name] = hits / (hits + misses) if hits + misses else 0.0
        return out

    def write_spans(self, path, item_labels: list[str]) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# layer\tstart_s\tend_s\tparent\titem\n")
            for layer, start, end, parent, item, _tail in self.spans:
                fh.write(f"{self.layers[layer]}\t{start:.9f}\t{end:.9f}\t{parent}\t{item}\n")
            fh.write("# items\n")
            for idx, label in enumerate(item_labels):
                fh.write(f"# {idx}\t{label}\n")
