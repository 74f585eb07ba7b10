"""What the traced run wraps, which metrics it reports, and what each should move.

The layers are the modules of the ``cliffdyn`` package.  ``TRACED`` names
every function the traced run wraps: ``span`` functions get a timed span per
call, ``count`` functions (hot leaves) get a call count only, so their time
is charged to the span that called them.  A dotted name such as
``GramResolution.gram_residual`` is a method, wrapped on its class.
"""

from __future__ import annotations

LAYERS = ("acceptance", "cli", "clifford", "spinors", "particle", "matrixmech",
          "worldsheet", "current_algebra")

CRITERIA = ("proposition_suite", "contraction_identity", "bracket_reduction",
            "particle_dynamics", "un_covariance", "picture_equivalence",
            "string_suite", "algebra_suite")

TRACED = {
    "acceptance": {fn: "span" for fn in CRITERIA + ("run_all",)},
    "cli": {fn: "span" for fn in ("main", "cmd_resolve", "cmd_particle", "cmd_string",
                                  "cmd_verify_all")},
    "clifford": {"hermitian_eig": "span", "resolve_hermitian": "span",
                 "GramResolution.realized_gram": "span",
                 "GramResolution.gram_residual": "span",
                 "GramResolution.null_residual": "span",
                 "resolve_pair": "span", "bullet": "count"},
    "spinors": {fn: "count" for fn in ("vec_to_spinor", "spinor_to_vec", "flip_both",
                                       "eta_flip", "spinor_down_to_covec")},
    "particle": {fn: "span" for fn in ("integrate", "noether_charges",
                                       "Trajectory.constraint_drift", "Trajectory.to_csv",
                                       "mu_of_tau", "build_state", "clifford_bracket",
                                       "poisson_bracket")},
    "matrixmech": {fn: "span" for fn in ("evolve_heisenberg", "covariant_evolve",
                                         "evolve_state", "evolve_matrix_classical")},
    "worldsheet": {"build_wave_state": "span", "wave_residual": "span",
                   "residual_f51": "span", "residual_f52": "span",
                   "dilaton_residual": "span", "energy_momentum": "span",
                   "total_momentum": "span", "eval_x": "count", "dilaton": "count",
                   "dstar_upper": "count"},
    "current_algebra": {fn: "span" for fn in ("sample_currents", "current_bracket",
                                              "current_bracket_dotted", "charge_algebra",
                                              "nk_decomposition", "poincare_check",
                                              "unitary_current_check",
                                              "fit_structure_constants")},
}

# Functions whose ``steps`` argument is summed into a per-layer step count.
STEP_COUNTED = {"particle": ("integrate",),
                "matrixmech": ("evolve_heisenberg", "covariant_evolve", "evolve_state",
                               "evolve_matrix_classical")}


def _stats(layer: str, fn: str, *stats: str) -> list[tuple[str, str]]:
    units = {"calls": "count", "total_share": "ratio", "self_share": "ratio"}
    return [(f"{layer}.{fn}.{s}", units[s]) for s in stats]


# Per-layer metrics of the traced run, in the order they are printed.  Fewer
# calls, steps, bytes and errors and smaller shares are better, except for
# HIGHER_IS_BETTER.  Every time is given as a share of the traced op's wall
# time, so a layer that does no work on a workload reads 0 without reading as
# a time; the seconds behind each share are in the run's results file.
PER_LAYER: list[tuple[str, str]] = [
    *[m for fn in CRITERIA + ("run_all",) for m in _stats("acceptance", fn, "total_share")],
    ("acceptance.run_all.overlap", "ratio"),
    ("acceptance.threads", "count"),
    *[m for fn in ("cmd_resolve", "cmd_particle", "cmd_string", "cmd_verify_all")
      for m in _stats("cli", fn, "self_share")],
    ("cli.output_bytes", "bytes"),
    *_stats("clifford", "hermitian_eig", "calls", "total_share"),
    *_stats("clifford", "resolve_hermitian", "self_share"),
    *_stats("clifford", "GramResolution.gram_residual", "total_share"),
    *_stats("clifford", "GramResolution.null_residual", "total_share"),
    *_stats("clifford", "resolve_pair", "total_share"),
    *_stats("clifford", "bullet", "calls"),
    *[m for fn in TRACED["spinors"] for m in _stats("spinors", fn, "calls")],
    *_stats("particle", "integrate", "calls", "self_share"),
    ("particle.integrate.steps", "count"),
    *_stats("particle", "noether_charges", "calls", "total_share"),
    *_stats("particle", "Trajectory.constraint_drift", "total_share"),
    *_stats("particle", "Trajectory.to_csv", "total_share"),
    *_stats("particle", "mu_of_tau", "calls", "total_share"),
    *[m for fn in ("build_state", "clifford_bracket", "poisson_bracket")
      for m in _stats("particle", fn, "total_share")],
    *[m for fn in TRACED["matrixmech"] for m in _stats("matrixmech", fn, "total_share")],
    ("matrixmech.steps", "count"),
    *[m for fn in ("build_wave_state", "wave_residual", "residual_f51", "residual_f52",
                   "dilaton_residual", "energy_momentum", "total_momentum")
      for m in _stats("worldsheet", fn, "total_share")],
    *[m for fn in ("eval_x", "dilaton", "energy_momentum", "dstar_upper")
      for m in _stats("worldsheet", fn, "calls")],
    *_stats("current_algebra", "sample_currents", "total_share"),
    *_stats("current_algebra", "current_bracket", "calls", "total_share"),
    *_stats("current_algebra", "current_bracket_dotted", "calls", "total_share"),
    *_stats("current_algebra", "charge_algebra", "calls", "total_share"),
    ("current_algebra.charge_algebra.repeat_ratio", "ratio"),
    *[m for fn in ("nk_decomposition", "poincare_check", "unitary_current_check",
                   "fit_structure_constants")
      for m in _stats("current_algebra", fn, "total_share")],
    *[(f"{layer}.{stat}", unit) for layer in LAYERS
      for stat, unit in (("share", "ratio"), ("errors", "count"))],
    ("trace.uncovered_share", "ratio"),
    ("trace.op_p50_s", "s"),
    ("trace.overhead", "ratio"),
]

HIGHER_IS_BETTER = {"acceptance.run_all.overlap", "acceptance.threads"}

# End-to-end metrics of the untraced run: (name, unit, better, bound).
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
]

# Which end-to-end metric a change to each layer should move, on which
# workload, and where the prediction is no change.  Later performance
# changes cite these rows by layer name.  op_p50_s is printed but not gated:
# with one caller in a closed loop ops_per_s is 1 / mean op time, so a
# change that moves op_p50_s moves the gated ops_per_s too.
PREDICTIONS = {
    "acceptance": {"moves": ["op_p50_s"], "on": ["verify"],
                   "no_change": ["cli-files", "string"]},
    "cli": {"moves": ["ops_per_s"], "on": ["cli-files", "string"], "no_change": []},
    "clifford": {"moves": ["ops_per_s", "op_p50_s"], "on": ["cli-files", "verify"],
                 "no_change": []},
    "spinors": {"moves": ["op_p50_s"], "on": ["verify"], "no_change": []},
    "particle": {"moves": ["op_p50_s", "ops_per_s"], "on": ["verify", "cli-files"],
                 "no_change": ["string"]},
    "matrixmech": {"moves": ["op_p50_s"], "on": ["verify"],
                   "no_change": ["cli-files", "string"]},
    "worldsheet": {"moves": ["op_p50_s"], "on": ["string", "verify"],
                   "no_change": ["cli-files"]},
    "current_algebra": {"moves": ["op_p50_s"], "on": ["string", "verify"],
                        "no_change": ["cli-files"]},
}
