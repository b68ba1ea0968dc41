"""Span tracing for the benchmark's traced run, built from the outside.

The program has no tracing of its own, so this module wraps the public
functions of each kellerlab module.  Modules import names directly
(``from .polymap import matrix_det``), so a wrapper replaces the original
object in *every* module namespace and class dict that binds it, not only
in the defining module; ``properties.matrix_det`` is patched as well as
``polymap.matrix_det``.  Operators (``MultiPoly.__mul__``/``__rmul__``,
``Scalar.__mul__``/``__rmul__``, ``PolyMatrix.__matmul__``) are replaced on
their classes, which also updates the interpreter's operator slots.

Spans are aggregated in memory as a call tree: one node per distinct path
of span names, with a link to its parent, so millions of scalar multiplies
cost a dict lookup each rather than an object each.  A node's self time is
its total time minus the time of its traced children.  `Tracer.dump`
writes the tree out once, at the end of the run.
"""

from __future__ import annotations

import json
import sys
import time


class Span:
    """All calls that share one path of span names from the root."""

    __slots__ = ("name", "parent", "children", "calls", "total", "child_total", "count")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.children = {}
        self.calls = 0
        self.total = 0.0
        self.child_total = 0.0
        self.count = 0

    def walk(self):
        yield self
        for child in self.children.values():
            yield from child.walk()


def _mul_term_pairs(args, _result):
    left, right = args[0], args[1]
    return len(left.terms) * (len(right.terms) if hasattr(right, "terms") else 1)


def _ext_field(args, _result):
    return 1 if args[0].field.degree > 1 else 0


def _result_terms(_args, result):
    return len(result.terms)


# (module, attribute path, span name, counter or None).  The span name is
# the metric prefix in the benchmark output.
TRACED = (
    ("exactfield", "Scalar.__mul__", "exactfield.scalar_mul", _ext_field),
    ("exactfield", "Scalar.inverse", "exactfield.scalar_inverse", None),
    ("multipoly", "MultiPoly.__mul__", "multipoly.mul", _mul_term_pairs),
    ("multipoly", "MultiPoly.__pow__", "multipoly.pow", None),
    ("multipoly", "MultiPoly.substitute", "multipoly.substitute", None),
    ("multipoly", "divide_exact", "multipoly.divide_exact", None),
    ("multipoly", "rename_variables", "multipoly.rename_variables", None),
    ("linalg", "rref", "linalg.rref", None),
    ("polymap", "jacobian", "polymap.jacobian", None),
    ("polymap", "matrix_det", "polymap.matrix_det", _result_terms),
    ("polymap", "PolyMatrix.__matmul__", "polymap.matmul", None),
    ("polymap", "matrix_is_nilpotent", "polymap.matrix_is_nilpotent", None),
    ("polymap", "invert_triangular", "polymap.invert_triangular", None),
    ("polymap", "map_compose", "polymap.map_compose", None),
    ("polymap", "conjugate", "polymap.conjugate", None),
    ("properties", "check_sum_condition", "properties.check_sum_condition", None),
    ("properties", "is_strongly_nilpotent", "properties.is_strongly_nilpotent", None),
    ("properties", "strong_nilpotence_product", "properties.strong_nilpotence_product", None),
    ("properties", "is_quasi_translation", "properties.is_quasi_translation", None),
    ("properties", "certificate_failure", "properties.certificate_failure", None),
    ("properties", "triangularization_from_certificate",
     "properties.triangularization_from_certificate", None),
    ("properties", "certificate_from_triangularization",
     "properties.certificate_from_triangularization", None),
    ("constructions", "make_family", "constructions.make_family", None),
    ("constructions", "family_certificate", "constructions.family_certificate", None),
    ("constructions", "gz_verify", "constructions.gz_verify", None),
    ("identities", "verify_identity", "identities.verify_identity", None),
    ("serialize", "map_from_json", "serialize.map_from_json", None),
    ("serialize", "report_to_json", "serialize.report_to_json", None),
    ("serialize", "dumps", "serialize.dumps", None),
)


class Tracer:
    """Installs wrappers on enter, restores every original binding on exit."""

    def __init__(self):
        self.root = Span("run", None)
        self.current = self.root
        self._restore = []

    def run(self, name, fn, *args):
        """Call fn(*args) inside a benchmark-level span, such as one case."""
        return self._wrap(name, fn, None)(*args)

    def _wrap(self, name, fn, counter):
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = tracer.current
            node = parent.children.get(name)
            if node is None:
                node = parent.children[name] = Span(name, parent)
            tracer.current = node
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                tracer.current = parent
                node.calls += 1
                node.total += elapsed
                parent.child_total += elapsed
            if counter is not None and result is not NotImplemented:
                node.count += counter(args, result)
            return result

        return traced

    def __enter__(self):
        holders = {}
        for key, module in list(sys.modules.items()):
            if module is None or not (key == "kellerlab" or key.startswith("kellerlab.")):
                continue
            holders[id(module)] = module
            for value in vars(module).values():
                if isinstance(value, type) and value.__module__.startswith("kellerlab"):
                    holders[id(value)] = value
        for module_name, path, span_name, counter in TRACED:
            owner = sys.modules["kellerlab." + module_name]
            for part in path.split("."):
                owner = vars(owner)[part]
            wrapper = self._wrap(span_name, owner, counter)
            for holder in holders.values():
                for key, value in list(vars(holder).items()):
                    if value is owner:
                        setattr(holder, key, wrapper)
                        self._restore.append((holder, key, owner))
        return self

    def __exit__(self, *exc):
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()
        self.current = self.root
        return False

    def totals(self):
        """Per span name: calls, total time (outermost calls only), self time, count."""
        out = {}
        for node in self.root.walk():
            if node is self.root:
                continue
            entry = out.setdefault(node.name, {"calls": 0, "total_s": 0.0,
                                               "self_s": 0.0, "count": 0})
            entry["calls"] += node.calls
            entry["self_s"] += node.total - node.child_total
            entry["count"] += node.count
            if not _has_ancestor(node, node.name):
                entry["total_s"] += node.total
        return out

    def dump(self, path):
        """Write the span tree, one record per node with its parent's id."""
        ids = {}
        records = []
        for node in self.root.walk():
            ids[id(node)] = len(ids)
            records.append({
                "id": ids[id(node)],
                "parent": None if node.parent is None else ids[id(node.parent)],
                "name": node.name,
                "calls": node.calls,
                "total_s": node.total,
                "self_s": node.total - node.child_total,
                "count": node.count,
            })
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(records, handle)


def _has_ancestor(node, name):
    parent = node.parent
    while parent is not None:
        if parent.name == name:
            return True
        parent = parent.parent
    return False

