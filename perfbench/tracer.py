"""Outside-in span tracer for the relqft layers.

The tracer wraps the public functions of each traced layer and records,
for every wrapped function ``<layer>.<name>``:

  ``.calls``   number of calls;
  ``.s``       inclusive seconds;
  ``.self_s``  inclusive seconds minus the seconds of wrapped callees.

It also records exact work counts and waste ratios at the same boundaries
(see ``Tracer.metrics``).  Modules import kernels by name -- ``fields`` and
``net`` do ``from relqft.frames import born_measure`` -- so a function has
one binding per importing module.  ``install`` rebinds every ``relqft.*``
module attribute that holds the original function object, so a call made
through any of those names is counted.  Nothing under ``src/`` changes.

Run a program under the tracer (from the repository root):

    PYTHONPATH=src python3 perfbench/tracer.py cli verify channels --format json
    PYTHONPATH=src python3 perfbench/tracer.py net --seed 7

It prints one JSON object: the program's exit code, its captured standard
output, and the trace.  The process exits with the program's exit code.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import inspect
import io
import itertools
import json
import sys
import time
import weakref

#: Wrapped functions per layer.  ``lattice`` is left out on purpose: its
#: calls are single group operations, cheaper than the wrapper itself.
TRACED = {
    "operators": ("commutant", "double_commutant",
                  "AlgebraSubspace.from_spanning"),
    "frames": ("born_measure", "born_measure_trace_class", "build_frame",
               "disintegrate"),
    "fields": ("relational_local_field", "relational_local_observable",
               "extend_trace_class", "relativize", "relativization_channel",
               "oriented_field"),
    "causality": ("find_joint_state", "check_r_microcausal",
                  "check_r_causal"),
    "net": ("local_algebra", "states_supported_in", "verify_net_axioms"),
    "wightman": ("irreducibility_check", "field_operator_span", "vev",
                 "kernel"),
    "runner": ("run", "validate_semantics"),
    "config": ("load_config",),
}

#: Bytes of one complex128 entry; the commutant's Gram matrix is d^2 x d^2.
_COMPLEX_BYTES = 16


class Tracer:
    """Span and counter store for one traced process."""

    def __init__(self):
        self.spans = {f"{layer}.{name}": [0, 0.0, 0.0]
                      for layer, names in TRACED.items() for name in names}
        self.counts = dict.fromkeys(
            ("commutant_generators", "commutant_gram_bytes",
             "born_effects", "joint_iterations", "joint_converged",
             "algebra_lookups", "algebra_hits"), 0)
        self._stack = [0.0]  # child seconds accumulated per open span
        self._measures = set()  # (frame serial, omega shape, omega digest)
        self._frames = {}  # id(frame) -> (weakref, serial)
        self._serials = itertools.count(1)
        self._undo = []

    # -- spans ------------------------------------------------------------

    def wrap(self, name: str, fn, before=None, after=None):
        """Wrapper recording a span; ``before`` may rewrite the bound
        arguments and ``after`` sees the bound arguments and the result."""
        record = self.spans[name]
        stack = self._stack
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = None
            if before is not None or after is not None:
                bound = signature.bind(*args, **kwargs)
                if before is not None:
                    before(bound.arguments)
                args, kwargs = bound.args, bound.kwargs
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = stack.pop()
                stack[-1] += elapsed
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - children
            if after is not None:
                after(bound.arguments, result)
            return result

        return traced

    # -- counters ---------------------------------------------------------

    def _count_commutant(self, arguments):
        ops = list(arguments["ops"])  # may be an iterator: consume once
        arguments["ops"] = ops
        self.counts["commutant_generators"] += len(ops)
        if ops:  # an empty list returns the full algebra without a Gram
            dim = arguments.get("dim") or ops[0].shape[0]
            self.counts["commutant_gram_bytes"] += _COMPLEX_BYTES * dim ** 4

    def _frame_serial(self, frame) -> int:
        entry = self._frames.get(id(frame))
        if entry is None or entry[0]() is not frame:  # new, or id reused
            entry = (weakref.ref(frame), next(self._serials))
            self._frames[id(frame)] = entry
        return entry[1]

    def _count_born(self, arguments):
        of = arguments["of"]
        self.counts["born_effects"] += len(of.frame.effects)
        digest = hashlib.blake2b(of.omega.tobytes(), digest_size=16).digest()
        self._measures.add((self._frame_serial(of.frame), of.omega.shape,
                            digest))

    def _count_joint(self, arguments, result):
        self.counts["joint_iterations"] += result.iterations
        self.counts["joint_converged"] += bool(result.converged)

    # -- installation -----------------------------------------------------

    def _rebind_everywhere(self, original, replacement):
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "relqft"
                                      or mod_name.startswith("relqft.")):
                continue
            hits = [attr for attr, value in vars(module).items()
                    if value is original]
            for attr in hits:
                self._undo.append((module, attr, original))
                setattr(module, attr, replacement)

    def _set_class_attr(self, cls, attr, value):
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, value)

    def install(self) -> "Tracer":
        """Import every layer and rebind each traced function."""
        importlib.import_module("relqft.cli")  # pulls in every layer
        hooks = {"operators.commutant": (self._count_commutant, None),
                 "frames.born_measure": (self._count_born, None),
                 "causality.find_joint_state": (None, self._count_joint)}
        for layer, names in TRACED.items():
            module = importlib.import_module(f"relqft.{layer}")
            for qualname in names:
                name = f"{layer}.{qualname}"
                before, after = hooks.get(name, (None, None))
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[attr]
                    wrapped = self.wrap(name, raw.__func__, before, after)
                    self._set_class_attr(cls, attr, classmethod(wrapped))
                else:
                    original = getattr(module, qualname)
                    self._rebind_everywhere(
                        original, self.wrap(name, original, before, after))
        net = importlib.import_module("relqft.net")
        lookup = net.LocalAlgebraNet.__dict__["algebra"]
        counts = self.counts

        def counted_lookup(net_self, region):
            counts["algebra_lookups"] += 1
            counts["algebra_hits"] += frozenset(region) in net_self.algebras
            return lookup(net_self, region)

        self._set_class_attr(net.LocalAlgebraNet, "algebra", counted_lookup)
        return self

    def uninstall(self) -> None:
        """Restore every binding that ``install`` replaced."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict:
        """Flat metric name -> value.  ``operators.commutant.gram_bytes``
        is computed from array shapes (16 d^4 bytes per call), not
        measured; the other counts are counted at the call boundary."""
        out = {}
        for name, (calls, total, self_s) in self.spans.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = total
            out[f"{name}.self_s"] = self_s
        c = self.counts
        born_calls = self.spans["frames.born_measure"][0]
        joint_calls = self.spans["causality.find_joint_state"][0]
        out["operators.commutant.generators"] = c["commutant_generators"]
        out["operators.commutant.gram_bytes"] = c["commutant_gram_bytes"]
        out["frames.born_measure.effects"] = c["born_effects"]
        out["frames.born_measure.distinct_frac"] = _ratio(
            len(self._measures), born_calls)
        out["causality.find_joint_state.iterations"] = c["joint_iterations"]
        out["causality.find_joint_state.converged_frac"] = _ratio(
            c["joint_converged"], joint_calls)
        out["net.LocalAlgebraNet.algebra.hit_frac"] = _ratio(
            c["algebra_hits"], c["algebra_lookups"])
        return out


def _ratio(part: int, whole: int) -> float:
    """part / whole, and 0 when nothing was attempted."""
    return part / whole if whole else 0.0


def run_program(target: str, argv: list[str]) -> int:
    """Run the CLI (``cli``) or the local-net workload (``net``)."""
    if target == "cli":
        return importlib.import_module("relqft.cli").main(argv)
    if target == "net":
        return importlib.import_module("netload").main(argv)
    raise SystemExit(f"unknown target {target!r} (known: cli, net)")


def main(argv: list[str]) -> int:
    if not argv:
        raise SystemExit("usage: tracer.py {cli,net} [program arguments]")
    tracer = Tracer().install()
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = run_program(argv[0], argv[1:])
    print(json.dumps({"exit_code": code, "stdout": captured.getvalue(),
                      "trace": tracer.metrics()}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
