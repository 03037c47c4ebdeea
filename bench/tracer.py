"""Timing spans installed around admles functions from outside the package.

The tracer never edits the program: it replaces module attributes with
wrappers after import.  A function imported into another module with
``from .spectral import tensor_divergence`` has its own binding there, so
every binding of the original object across the ``admles.*`` namespaces
is replaced.  Methods are wrapped on their class.  The FFT entry points
of ``numpy.fft`` and ``scipy.fft`` are wrapped before ``admles`` is
imported, so a later switch of transform library stays visible.

A span is ``[name, start, end, parent_index, info]``; spans stay in
memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
import time

# span name -> (module, function or Class.method names); each name is a
# layer metric prefix (see README.md)
HOOKS = {
    "spectral.transform": ("spectral", ("forward_transform", "inverse_transform")),
    "spectral.tensor_divergence": ("spectral", ("tensor_divergence",)),
    "spectral.leray_project": ("spectral", ("leray_project",)),
    "spectral.resample": ("spectral", ("resample",)),
    "spectral.norms": ("spectral", (
        "l2_norm", "grad_norm", "horizontal_grad_norm", "vertical_seminorm",
        "vertical_grad_seminorm", "inner_product")),
    "filters.apply": ("filters", (
        "apply_filter", "apply_bar", "apply_half_filter", "apply_deconv",
        "apply_half_deconv")),
    "filters.symbol": ("filters", ("filter_symbol", "deconv_symbol")),
    "solver.run": ("solver", ("run",)),
    "solver.step": ("solver", ("step",)),
    "solver.rhs": ("solver", ("StepOperators.rhs",)),
    "solver.cfl": ("solver", ("StepOperators.advective_speed",)),
    "solver.setup": ("solver", ("StepOperators.__init__", "initial_state")),
    "solver.checkpoint": ("solver", ("write_checkpoint",)),
    "diagnostics.energy_terms": ("diagnostics", ("energy_terms",)),
    "ensembles.draw": ("ensembles", ("draw_vector", "draw_line", "draw_scalar")),
    "inequalities.ratio": ("inequalities", (
        "agmon_ratio", "agmon_split_bound", "ladyzhenskaya_ratio",
        "vertical_embedding_ratio", "trilinear_ratio_i", "trilinear_ratio_ii")),
    "inequalities.runner": ("inequalities", (
        "run_agmon", "run_ladyzhenskaya", "run_vertical_embedding",
        "run_trilinear")),
    "cli": ("cli", ("main",)),
}

FFT_MODULES = ("numpy.fft", "scipy.fft")
# entry point -> (transform kind, default axes; None means every axis)
FFT_KINDS = {
    "fft": ("c2c", (-1,)), "ifft": ("c2c", (-1,)),
    "fft2": ("c2c", (-2, -1)), "ifft2": ("c2c", (-2, -1)),
    "fftn": ("c2c", None), "ifftn": ("c2c", None),
    "rfft": ("r2c", (-1,)), "rfft2": ("r2c", (-2, -1)), "rfftn": ("r2c", None),
    "irfft": ("c2r", (-1,)), "irfft2": ("c2r", (-2, -1)), "irfftn": ("c2r", None),
}


def _fft_info(kind: str, default_axes, args, kwargs, out) -> list:
    """Computed work of one FFT call: [transforms, points, bytes, flops].

    The transform length is taken on the real-side (full) array; flops
    use the 5 L log2 L count of a complex transform, halved for real
    ones.  Bytes are one pass over the input plus one over the output.
    """
    inp = args[0] if args else kwargs.get("x", kwargs.get("a"))
    full = out if kind == "c2r" else inp
    if not (hasattr(inp, "nbytes") and hasattr(full, "shape")):
        return [0, 0, 0, 0.0]
    axes = args[2] if len(args) > 2 else kwargs.get("axes", kwargs.get("axis"))
    if axes is None:
        axes = default_axes if default_axes is not None else range(full.ndim)
    elif isinstance(axes, int):
        axes = (axes,)
    length = math.prod(full.shape[ax] for ax in axes)
    transforms = full.size // max(length, 1)
    flops = 5.0 * length * math.log2(max(length, 2)) * transforms
    if kind != "c2c":
        flops *= 0.5
    return [transforms, transforms * length, inp.nbytes + out.nbytes, flops]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.missing: list[str] = []
        self.clock = time.perf_counter

    def wrap(self, name: str, fn, info=None):
        spans, stack, clock = self.spans, self.stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            try:
                out = fn(*args, **kwargs)
                if info is not None:
                    span[4] = info(args, kwargs, out)
                return out
            finally:
                stack.pop()
                span[2] = clock()

        return traced

    def install_fft(self) -> None:
        """Wrap FFT entry points; call before ``admles`` is imported."""
        for modname in FFT_MODULES:
            mod = importlib.import_module(modname)
            for fname, (kind, axes) in FFT_KINDS.items():
                fn = getattr(mod, fname, None)
                if fn is None:
                    self.missing.append(f"{modname}.{fname}: not in module")
                    continue
                info = functools.partial(_fft_info, kind, axes)
                setattr(mod, fname, self.wrap("spectral.fft", fn, info))

    def install_admles(self) -> None:
        """Wrap every binding of each hooked function in admles.*."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "admles" or n.startswith("admles."))]
        for span_name, (modname, targets) in HOOKS.items():
            home = sys.modules.get(f"admles.{modname}")
            for target in targets:
                where = f"admles.{modname}.{target}"
                if home is None:
                    self.missing.append(f"{where}: module not imported")
                    continue
                if "." in target:
                    cls_name, meth = target.split(".")
                    cls = getattr(home, cls_name, None)
                    fn = vars(cls).get(meth) if isinstance(cls, type) else None
                    if fn is None:
                        self.missing.append(f"{where}: no such method")
                        continue
                    setattr(cls, meth, self.wrap(span_name, fn))
                    continue
                fn = getattr(home, target, None)
                if fn is None:
                    self.missing.append(f"{where}: no such function")
                    continue
                info = _file_size if span_name == "solver.checkpoint" else None
                wrapped = self.wrap(span_name, fn, info)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapped)

    def dump(self) -> dict:
        return {"spans": self.spans, "missing": self.missing}


def _file_size(args, kwargs, out):
    path = args[0] if args else kwargs.get("path")
    try:
        return [os.path.getsize(path)]
    except (OSError, TypeError):
        return [0]
