"""Layer spans recorded from outside the program.

`install` wraps the public functions and methods of each layer and patches
every alias of them (`from ... import` names included) in the loaded
`gausscomp` modules.  Each call appends a span with its name, start, end,
parent span, the operation it belongs to and a few counts derived from
argument sizes or the result.  Spans stay in memory until the pass ends;
`layer_metrics` turns them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import sys
import time

import numpy as np

from gausscomp import banded, checker, cli, gaussmeas, hermite
from gausscomp.gaussmeas import DivergenceError
from oracle import NOT_COMPUTABLE


def _window_entries(args):
    n, eta = args["n"], args["self"].eta
    return {"entries": n * n if eta >= n - 1
            else n * (2 * eta + 1) - eta * (eta + 1)}


def _basis_points(args):
    shape = np.shape(args["points"])
    return {"points": shape[0] if len(shape) > 1 else 1}


def _corners(args):
    return {"corners": args["K"]}


def _lambda_points(args):
    grid = args.get("grid") or checker.LambdaGrid()
    return {"lambda_points": 1 + len(grid.radii) * grid.n_angles + grid.n_random}


def _output_path(args):
    argv = list(args.get("argv") or [])
    return {"output": argv[argv.index("--output") + 1]} if "--output" in argv else {}


def _body_bytes(result, attrs):
    """Size of the written report: the body plus a header of fixed size."""
    path = attrs.pop("output", None)
    try:
        return {"body_bytes": os.path.getsize(path)}
    except (TypeError, OSError):
        return {}


def _nonfinite(result, attrs):
    return {"nonfinite": int(not math.isfinite(result))}


def _not_computable(reports, attrs):
    return {"not_computable": sum(NOT_COMPUTABLE in str(r.payload.get("detail", ""))
                                  for r in reports)}


def _valid(result, attrs):
    return {"valid": int(bool(result.valid))}


# (owner, attribute, span name, counts from arguments, counts from result)
TARGETS = [
    (banded, "det_sequence", "banded.det_sequence", _corners, None),
    (banded.BandedSymbol, "window", "banded.window", _window_entries, None),
    (banded, "truncate", "banded.truncate", None, None),
    (banded, "power", "banded.power", None, None),
    (banded, "power_entry_bound", "banded.power_entry_bound", None, None),
    (banded.BandedSymbol, "from_dense", "banded.from_dense", None, None),
    (banded, "in_class_F", "banded.in_class_F", None, None),
    (banded.PerturbedIdentity, "validate_window", "banded.validate_window",
     None, None),
    (gaussmeas, "chi_norm_sq", "gaussmeas.chi_norm_sq", None, _nonfinite),
    (gaussmeas, "h_normalization", "gaussmeas.h_normalization", None, None),
    (gaussmeas, "diag_closed_form", "gaussmeas.diag_closed_form", None, None),
    (gaussmeas, "perturbation_bound_check",
     "gaussmeas.perturbation_bound_check", None, None),
    (gaussmeas, "singular_scaling_demo", "gaussmeas.singular_scaling_demo",
     None, None),
    (hermite.HermiteModel, "get", "hermite.HermiteModel.get", None, None),
    (hermite.HermiteModel, "basis_matrix", "hermite.HermiteModel.basis_matrix",
     _basis_points, None),
    (hermite, "adjoint_apply", "hermite.adjoint_apply", None, None),
    (hermite, "composition_apply", "hermite.composition_apply", None, None),
    (checker, "thm51_suite", "checker.thm51_suite", None, _not_computable),
    (checker, "prop52_suite", "checker.prop52_suite", None, _not_computable),
    (checker, "prop56_suite", "checker.prop56_suite", None, _not_computable),
    (checker, "form_positivity_evidence", "checker.form_positivity_evidence",
     _lambda_points, None),
    (checker, "snr_form_value", "checker.snr_form_value", None, _valid),
    (checker, "hyponormality_consequence",
     "checker.hyponormality_consequence", None, None),
    (cli, "main", "cli.main", _output_path, _body_bytes),
]


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = None
        self._t0 = time.perf_counter()

    def begin_op(self, name):
        """Open the root span of one operation; close it with `close`."""
        self._op = name
        return self._open(f"op.{name}", {})

    def _open(self, name, attrs):
        idx = len(self.spans)
        self.spans.append({"name": name, "op": self._op,
                           "parent": self._stack[-1] if self._stack else None,
                           "start": time.perf_counter() - self._t0,
                           "end": None, "attrs": attrs})
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx]["end"] = time.perf_counter() - self._t0
        self._stack.pop()

    def wrap(self, fn, name, from_args, from_result):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = (from_args(sig.bind(*args, **kwargs).arguments)
                     if from_args else {})
            idx = self._open(name, attrs)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                attrs["error"] = type(exc).__name__
                raise
            finally:
                self.close(idx)
            if from_result:
                attrs.update(from_result(result, attrs))
            return result
        return traced

    def install(self):
        """Wrap every target and patch each alias of it in gausscomp."""
        modules = [m for n, m in sys.modules.items()
                   if n == "gausscomp" or n.startswith("gausscomp.")]
        for owner, attr, name, from_args, from_result in TARGETS:
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(
                    self.wrap(raw.__func__, name, from_args, from_result)))
                continue
            wrapped = self.wrap(raw, name, from_args, from_result)
            setattr(owner, attr, wrapped)
            if inspect.isclass(owner):
                continue
            for mod in modules:
                for alias, value in list(vars(mod).items()):
                    if value is raw:
                        setattr(mod, alias, wrapped)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


# ---------------------------------------------------------------------------
# aggregation

APPLY = ("hermite.adjoint_apply", "hermite.composition_apply")


def layer_metrics(spans):
    """Per-layer totals of one traced pass.

    `s` is busy time: the summed duration of spans not nested in a span of
    the same name.  `self_s` subtracts the time covered by direct child
    spans.  An apply call is cold when it evaluated basis functions (built
    its operator), warm otherwise.
    """
    children = [[] for _ in spans]
    for idx, sp in enumerate(spans):
        if sp["parent"] is not None:
            children[sp["parent"]].append(idx)

    def dur(idx):
        return spans[idx]["end"] - spans[idx]["start"]

    def nested_in_same(idx):
        p = spans[idx]["parent"]
        while p is not None:
            if spans[p]["name"] == spans[idx]["name"]:
                return True
            p = spans[p]["parent"]
        return False

    def has_descendant(idx, name):
        return any(spans[c]["name"] == name or has_descendant(c, name)
                   for c in children[idx])

    agg = {}
    for idx, sp in enumerate(spans):
        if sp["name"].startswith("op."):
            continue
        a = agg.setdefault(sp["name"], {"s": 0.0, "self_s": 0.0, "calls": 0,
                                        "cold_s": 0.0, "warm_s": 0.0})
        a["calls"] += 1
        a["self_s"] += dur(idx) - sum(dur(c) for c in children[idx])
        if not nested_in_same(idx):
            a["s"] += dur(idx)
            if sp["name"] in APPLY:
                cold = has_descendant(idx, "hermite.HermiteModel.basis_matrix")
                a["cold_s" if cold else "warm_s"] += dur(idx)
        for key, value in sp["attrs"].items():
            if key == "error":
                a[value] = a.get(value, 0) + 1
            else:
                a[key] = a.get(key, 0) + value

    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    snr_calls = get("checker.snr_form_value", "calls")
    chi = "gaussmeas.chi_norm_sq"
    return {
        "banded.det_sequence.s": get("banded.det_sequence", "s"),
        "banded.det_sequence.corners": get("banded.det_sequence", "corners"),
        "banded.window.s": get("banded.window", "s"),
        "banded.window.calls": get("banded.window", "calls"),
        "banded.window.entries": get("banded.window", "entries"),
        "banded.truncate.s": get("banded.truncate", "s"),
        "banded.power.s": get("banded.power", "s"),
        "banded.power_entry_bound.s": get("banded.power_entry_bound", "s"),
        "banded.from_dense.s": get("banded.from_dense", "s"),
        "banded.in_class_F.s": get("banded.in_class_F", "s"),
        "banded.validate_window.s": get("banded.validate_window", "s"),
        f"{chi}.s": get(chi, "s"),
        f"{chi}.calls": get(chi, "calls"),
        f"{chi}.nonfinite": get(chi, "nonfinite"),
        f"{chi}.budget_errors": get(chi, "ValueError"),
        f"{chi}.divergence_errors": get(chi, DivergenceError.__name__),
        "gaussmeas.h_normalization.s": get("gaussmeas.h_normalization", "s"),
        "gaussmeas.diag_closed_form.s": get("gaussmeas.diag_closed_form", "s"),
        "gaussmeas.perturbation_bound_check.s":
            get("gaussmeas.perturbation_bound_check", "s"),
        "gaussmeas.singular_scaling_demo.s":
            get("gaussmeas.singular_scaling_demo", "s"),
        "hermite.HermiteModel.get.s": get("hermite.HermiteModel.get", "s"),
        "hermite.HermiteModel.get.calls": get("hermite.HermiteModel.get", "calls"),
        "hermite.adjoint_apply.cold_s": get("hermite.adjoint_apply", "cold_s"),
        "hermite.adjoint_apply.warm_s": get("hermite.adjoint_apply", "warm_s"),
        "hermite.adjoint_apply.calls": get("hermite.adjoint_apply", "calls"),
        "hermite.composition_apply.cold_s":
            get("hermite.composition_apply", "cold_s"),
        "hermite.composition_apply.warm_s":
            get("hermite.composition_apply", "warm_s"),
        "hermite.HermiteModel.basis_matrix.s":
            get("hermite.HermiteModel.basis_matrix", "s"),
        "hermite.HermiteModel.basis_matrix.points":
            get("hermite.HermiteModel.basis_matrix", "points"),
        **{f"checker.{s}_suite.{k}": get(f"checker.{s}_suite", k)
           for s in ("thm51", "prop52", "prop56") for k in ("s", "self_s")},
        "checker.form_positivity_evidence.s":
            get("checker.form_positivity_evidence", "s"),
        "checker.form_positivity_evidence.lambda_points":
            get("checker.form_positivity_evidence", "lambda_points"),
        "checker.snr_form_value.s": get("checker.snr_form_value", "s"),
        "checker.snr_form_value.valid_share":
            get("checker.snr_form_value", "valid") / snr_calls if snr_calls else 0.0,
        "checker.hyponormality_consequence.s":
            get("checker.hyponormality_consequence", "s"),
        "checker.not_computable_reports":
            sum(get(f"checker.{s}_suite", "not_computable")
                for s in ("thm51", "prop52", "prop56")),
        "cli.main.s": get("cli.main", "s"),
        "cli.main.self_s": get("cli.main", "self_s"),
        "cli.main.calls": get("cli.main", "calls"),
        "cli.body_bytes": get("cli.main", "body_bytes"),
    }
