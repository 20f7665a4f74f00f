"""The layers of regselect as the traced run sees them, and the per-layer
metrics derived from their spans.

Each target names a span kind and the public function or method that
marks a layer boundary.  Metrics ending in `_s` are self time in seconds
(span time minus the time of wrapped calls made inside it); the others are
counts.  All are per study call.
"""

from __future__ import annotations

import os

from tracer import Tracer

OPS = "regselect.operators"
SPEC = "regselect.spectral"
VAR = "regselect.variational"
SEL = "regselect.selection"
MET = "regselect.experiments.methods"
MOD = "regselect.experiments.models"


def _pairs_times_grid(args, kwargs, result):
    _, _, data, grid = args[:4]
    return len(data) * len(getattr(grid, "values", grid))


def _sample_size(args, kwargs, result):
    return len(result)


def _file_size(args, kwargs, result):
    return os.stat(args[0]).st_size


def _fast_path_hit(args, kwargs, result):
    return result is not None


# (span kind, module, class or None, attribute, span value)
TARGETS = [
    ("operators.svd", "numpy.linalg", None, "svd", None),
    ("operators.conv_apply", OPS, "ConvolutionOperator", "apply", None),
    ("operators.conv_adjoint", OPS, "ConvolutionOperator", "adjoint_apply", None),
    ("operators.grad", OPS, None, "image_gradient", None),
    ("operators.grad_adjoint", OPS, None, "gradient_adjoint", None),
    ("spectral.factor", SPEC, None, "landweber_factors", None),
    ("spectral.factor", SPEC, "Tikhonov", "factors", None),
    ("spectral.factor", SPEC, "Landweber", "factors", None),
    ("spectral.factor", SPEC, "SpectralCutoff", "factors", None),
    ("spectral.filter_table", SPEC, None, "filter_grid_matrix", None),
    ("variational.lasso", VAR, None, "lasso_solve", None),
    ("variational.tv", VAR, None, "tv_denoise", None),
    ("variational.bregman_tv", VAR, None, "bregman_tv", None),
    ("selection.erm", SEL, None, "erm_select", None),
    ("selection.risk_curve", SEL, None, "risk_curve", _pairs_times_grid),
    ("selection.qo_landweber", SEL, None, "quasi_optimality_landweber", None),
    ("selection.qo_tikhonov", SEL, None, "quasi_optimality_tikhonov", None),
    ("selection.l1_batch", SEL, "L1BregmanLoss", "batch", None),
    ("methods.fast_path", MET, "SpectralFilterMethod", "risk_curve", _fast_path_hit),
    ("methods.filter_table", MET, "SpectralFilterMethod", "filter_table", None),
    ("methods.soft_grid", MET, "SoftThresholdMethod", "solve_grid", None),
    ("methods.lasso_grid", MET, "LassoMethod", "solve_grid", None),
    ("models.sample", MOD, "SpectralSource", "sample", _sample_size),
    ("models.sample", MOD, "SparseDenoise", "sample", _sample_size),
    ("models.sample", MOD, "SparseDeblur", "sample", _sample_size),
    ("models.sample", MOD, "TvImages", "sample", _sample_size),
    ("idx.load", "regselect.experiments.idx", None, "load_idx_images", _file_size),
    ("dataio.csv", "regselect.experiments.dataio", None, "write_csv", _file_size),
    ("studies.error_matrix", "regselect.experiments.studies", None, "_squared_error_matrix", None),
]

# Per-layer metric -> (unit, better).  The order is the order of BENCHMARK.json.
PER_LAYER = {
    "operators.svd_calls": ("count", "lower"),
    "operators.svd_s": ("s", "lower"),
    "operators.conv_calls": ("count", "lower"),
    "operators.conv_s": ("s", "lower"),
    "operators.grad_calls": ("count", "lower"),
    "operators.grad_s": ("s", "lower"),
    "spectral.factor_calls": ("count", "lower"),
    "spectral.factor_s": ("s", "lower"),
    "spectral.filter_table_s": ("s", "lower"),
    "variational.lasso_solves": ("count", "lower"),
    "variational.lasso_iters": ("count", "lower"),
    "variational.lasso_s": ("s", "lower"),
    "variational.tv_solves": ("count", "lower"),
    "variational.tv_iters": ("count", "lower"),
    "variational.tv_s": ("s", "lower"),
    "variational.bregman_tv_s": ("s", "lower"),
    "selection.risk_curve_calls": ("count", "lower"),
    "selection.risk_curve_s": ("s", "lower"),
    "selection.loss_evals": ("count", "higher"),
    "selection.qo_landweber_s": ("s", "lower"),
    "selection.qo_tikhonov_s": ("s", "lower"),
    "selection.l1_batch_s": ("s", "lower"),
    "methods.fast_path_attempts": ("count", "lower"),
    "methods.fast_path_hits": ("count", "higher"),
    "methods.fast_path_s": ("s", "lower"),
    "methods.filter_table_lookups": ("count", "lower"),
    "methods.filter_table_misses": ("count", "lower"),
    "methods.soft_grid_s": ("s", "lower"),
    "methods.lasso_grid_s": ("s", "lower"),
    "models.sample_s": ("s", "lower"),
    "models.pairs_sampled": ("count", "lower"),
    "idx.load_calls": ("count", "lower"),
    "idx.load_s": ("s", "lower"),
    "idx.bytes_read": ("bytes", "lower"),
    "dataio.csv_s": ("s", "lower"),
    "dataio.csv_bytes": ("bytes", "lower"),
    "studies.error_matrix_s": ("s", "lower"),
    "studies.driver_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# Time metrics: metric -> span kinds whose self time it sums.
_SELF_TIME = {
    "operators.svd_s": ("operators.svd",),
    "operators.conv_s": ("operators.conv_apply", "operators.conv_adjoint"),
    "operators.grad_s": ("operators.grad", "operators.grad_adjoint"),
    "spectral.factor_s": ("spectral.factor",),
    "spectral.filter_table_s": ("spectral.filter_table",),
    "variational.lasso_s": ("variational.lasso",),
    "variational.tv_s": ("variational.tv",),
    "variational.bregman_tv_s": ("variational.bregman_tv",),
    "selection.risk_curve_s": ("selection.risk_curve",),
    "selection.qo_landweber_s": ("selection.qo_landweber",),
    "selection.qo_tikhonov_s": ("selection.qo_tikhonov",),
    "selection.l1_batch_s": ("selection.l1_batch",),
    "methods.fast_path_s": ("methods.fast_path",),
    "methods.soft_grid_s": ("methods.soft_grid",),
    "methods.lasso_grid_s": ("methods.lasso_grid",),
    "models.sample_s": ("models.sample",),
    "idx.load_s": ("idx.load",),
    "dataio.csv_s": ("dataio.csv",),
    "studies.error_matrix_s": ("studies.error_matrix",),
    "studies.driver_s": ("study",),
}

# Count metrics: metric -> (span kinds, "calls" or "value").
_COUNTS = {
    "operators.svd_calls": (("operators.svd",), "calls"),
    "operators.conv_calls": (("operators.conv_apply", "operators.conv_adjoint"), "calls"),
    "operators.grad_calls": (("operators.grad", "operators.grad_adjoint"), "calls"),
    "spectral.factor_calls": (("spectral.factor",), "calls"),
    "variational.lasso_solves": (("variational.lasso",), "calls"),
    "variational.tv_solves": (("variational.tv",), "calls"),
    "selection.risk_curve_calls": (("selection.risk_curve",), "calls"),
    "selection.loss_evals": (("selection.risk_curve",), "value"),
    "methods.fast_path_attempts": (("methods.fast_path",), "calls"),
    "methods.fast_path_hits": (("methods.fast_path",), "value"),
    "methods.filter_table_lookups": (("methods.filter_table",), "calls"),
    "models.pairs_sampled": (("models.sample",), "value"),
    "idx.load_calls": (("idx.load",), "calls"),
    "idx.bytes_read": (("idx.load",), "value"),
    "dataio.csv_bytes": (("dataio.csv",), "value"),
}

# Counts of spans of one kind made inside a span of another kind:
# metric -> (inner kind, enclosing kind).  One FISTA iteration applies the
# convolution once; one TV dual iteration takes one image gradient.
_NESTED = {
    "variational.lasso_iters": ("operators.conv_apply", "variational.lasso"),
    "variational.tv_iters": ("operators.grad", "variational.tv"),
    "methods.filter_table_misses": ("spectral.filter_table", "methods.filter_table"),
}


def install(tracer: Tracer) -> None:
    """Patch every target; names that no longer exist are listed in tracer.missing."""
    for kind, module, cls, attr, value in TARGETS:
        if cls is None:
            tracer.patch_function(kind, module, attr, value)
        else:
            tracer.patch_method(kind, module, cls, attr, value)


def study_metrics(tracer: Tracer, root: int) -> dict[str, float]:
    """Per-layer metrics of the study call whose root span is `root`.

    Spans are stored in call order, so the spans of one study call are the
    contiguous ids from `root` up to the next span with no parent.
    """
    n = len(tracer.start)
    stop = root + 1
    while stop < n and tracer.parent[stop] >= 0:
        stop += 1
    own = tracer.self_times()
    kind_ids = {name: i for i, name in enumerate(tracer.kinds)}
    sums = {k: 0 for k in range(len(tracer.kinds))}
    calls = dict(sums)
    values = dict(sums)
    for i in range(root, stop):
        k = tracer.kind[i]
        sums[k] += own[i]
        calls[k] += 1
        values[k] += tracer.value[i]

    def ids(kinds):
        return [kind_ids[k] for k in kinds if k in kind_ids]

    out: dict[str, float] = {}
    for metric, kinds in _SELF_TIME.items():
        out[metric] = sum(sums[k] for k in ids(kinds)) / 1e9
    for metric, (kinds, field) in _COUNTS.items():
        table = calls if field == "calls" else values
        out[metric] = sum(table[k] for k in ids(kinds))
    for metric, (inner, outer) in _NESTED.items():
        inner_id, outer_id = kind_ids.get(inner), kind_ids.get(outer)
        inside = {}  # span id -> inside an `outer` span
        count = 0
        for i in range(root, stop):
            p = tracer.parent[i]
            inside[i] = tracer.kind[i] == outer_id or (p >= root and inside[p])
            if tracer.kind[i] == inner_id and p >= root and inside[p]:
                count += 1
        out[metric] = count
    return out
