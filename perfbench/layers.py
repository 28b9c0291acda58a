"""Per-layer metrics derived from the spans of one traced run.

Layer names are seglv module names.  Times are in seconds; ``*_s`` of a
named span is its inclusive time, ``<layer>.self_s`` the layer's self time.
Linear-algebra spans (``scipy.*``) count towards the owning layer found by
``Span.owner``; those with no system or scalar owner go to
``sparse.other_s``.  Self times of the listed layers, the attributed
linear-algebra times and ``sparse.other_s`` / ``other.self_s`` add up to
the time of the top-level spans.
"""

from __future__ import annotations

from collections import defaultdict

from tracer import OWNER_LAYERS, SCIPY_ENTRIES

# metric prefix -> span name; gives <prefix>_s (inclusive) and <prefix>_calls
NAMED_SPANS = {
    "system.solve": "system.solve_system",
    "scalar.eig": "scalar.principal_eigenvalue",
    "scalar.ball_solve": "scalar.solve_ball",
    "scalar.nd": "scalar.nd_margin",
    "scalar.phi": "scalar.supersolution_phi",
    "operators.solve_spd": "operators.solve_spd",
    "diagnostics.perturb": "diagnostics.seeded_perturbation",
    "diagnostics.compute": "diagnostics.compute_diagnostics",
    "continuation.run": "continuation.continuation_run",
    "domain.build": "domain.build_domain",
    "domain.laplacian": "domain.GridDomain.laplacian",
}

# span name -> counters read off the call's result
COUNTERS = {
    "system.solve_system": lambda r: {"system.newton_iters": r[1]},
    "scalar.solve_ball": lambda r: {"scalar.ball_newton_iters": r.newton_iterations},
    "scalar.nd_margin": lambda r: {"scalar.rayleigh_iters": r.rayleigh_iterations},
    "continuation.continuation_run": lambda r: {"continuation.steps": len(r.steps)},
    "diagnostics.uniqueness_probe": lambda r: {"probe.trials": r.trials},
}

SELF_LAYERS = ("config", "domain", "operators", "reaction", "scalar", "system",
               "continuation", "diagnostics", "fileio", "runner", "trace")

PROBE_SPAN = "diagnostics.uniqueness_probe"


def _kind(span):
    if span.name == "scipy.lu_solve":
        return "lu_solve"
    return SCIPY_ENTRIES[span.name.partition(".")[2]]


def _under(span, name):
    node = span.parent
    while node is not None:
        if node.name == name:
            return True
        node = node.parent
    return False


def layer_metrics(spans, traced_wall, untraced_wall):
    """All per-layer metrics of the spans of one traced set-up and run."""
    m = defaultdict(float)
    fill = defaultdict(list)
    for layer in SELF_LAYERS:
        m[f"{layer}.self_s"] = 0.0
    for prefix in NAMED_SPANS:
        m[f"{prefix}_s"] = 0.0
        m[f"{prefix}_calls"] = 0
    for owner in OWNER_LAYERS:
        for kind in ("factor", "lu_solve", "krylov"):
            m[f"{owner}.{kind}_s"] = 0.0
            m[f"{owner}.{kind}_calls"] = 0
    for key in ("system.newton_iters", "scalar.ball_newton_iters",
                "scalar.rayleigh_iters", "continuation.steps", "probe.trials",
                "fileio.emit_s", "fileio.files", "sparse.other_s", "other.self_s"):
        m[key] = 0
    probe_factors = 0

    by_name = {span: prefix for prefix, span in NAMED_SPANS.items()}
    for s in spans:
        for key, value in s.counts.items():
            if key != "fill_nnz":
                m[key] += value
        prefix = by_name.get(s.name)
        if prefix is not None:
            m[f"{prefix}_s"] += s.duration
            m[f"{prefix}_calls"] += 1
        if s.layer == "scipy":
            owner, kind = s.owner(), _kind(s)
            if owner not in OWNER_LAYERS:
                m["sparse.other_s"] += s.duration
                continue
            m[f"{owner}.{kind}_s"] += s.duration
            m[f"{owner}.{kind}_calls"] += 1
            if "fill_nnz" in s.counts:
                fill[owner].append(s.counts["fill_nnz"])
            if owner == "system" and kind == "factor" and _under(s, PROBE_SPAN):
                probe_factors += 1
            continue
        if s.layer in SELF_LAYERS:
            m[f"{s.layer}.self_s"] += s.self_time
        else:
            m["other.self_s"] += s.self_time
        if s.layer == "fileio" and s.name.startswith("fileio.emit_"):
            m["fileio.emit_s"] += s.duration
            m["fileio.files"] += 1

    for owner in OWNER_LAYERS:
        nnz = fill[owner]
        m[f"{owner}.lu_fill_nnz"] = sum(nnz) / len(nnz) if nnz else 0.0
    factors = m["system.factor_calls"]
    m["system.iters_per_factor"] = m["system.newton_iters"] / factors if factors else 0.0
    trials = m["probe.trials"]
    m["system.factor_calls_per_trial"] = probe_factors / trials if trials else 0.0

    top = sum(s.duration for s in spans if s.parent is None and s.phase == "run")
    m["trace.coverage"] = top / traced_wall
    m["trace.wall_s"] = traced_wall
    m["trace.overhead_s"] = traced_wall - untraced_wall
    m["trace.spans"] = len(spans)
    return dict(m)
