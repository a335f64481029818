"""Workloads of the acceptance-lab benchmark and the metrics reported on them.

One operation is one acceptance criterion evaluated through
``restrictionlab.cli.main(["accept", "--only", ...])``. Each criterion 1-11
belongs to exactly one workload, so the three workloads together are one full
``accept`` pass. Criterion 12 (two whole-suite runs compared byte for byte)
stays in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

# Lab seeds with stored reference tables. A benchmark seed n runs the lab at
# REFERENCE_SEEDS[n % len(REFERENCE_SEEDS)], so every seed has a reference.
REFERENCE_SEEDS = tuple(range(10))


@dataclass(frozen=True)
class Workload:
    name: str
    criteria: Tuple[int, ...]
    # False when none of the criteria reads the seed: one reference serves all.
    seeded: bool
    # Spans that must record at least one call in a traced run.
    expected_spans: Tuple[str, ...]
    # "span.field" terms whose sum is the predicted dominant share of wall_s;
    # no term's time lies inside another's.
    dominant: Tuple[str, ...]
    # Dominant share from one profile taken before this benchmark existed.
    predicted_share: float
    problem_sizes: Dict[str, object]


_REPORTING = ("cli.main", "reporting.emit_csv", "reporting.write_verdict")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="dyadic",
            criteria=(5,),
            seeded=False,
            expected_spans=_REPORTING
            + (
                "acceptance.criterion_05",
                "measures.dyadic_piece",
                "bumps.dyadic_ring",
                "grids.inverse_fourier_on_grid",
            ),
            dominant=("measures.dyadic_piece.self_s",),
            predicted_share=21.0 / 28.0,
            problem_sizes={
                "criterion_05": "circle measure 4096 atoms; 2-D grid 2048^2, half width 2; j = 1..8",
            },
        ),
        Workload(
            name="knapp",
            criteria=(8,),
            seeded=False,
            expected_spans=_REPORTING
            + (
                "acceptance.criterion_08",
                "knapp.knapp_sharpness_experiment",
                "knapp.knapp_function",
                "grids.inverse_fourier_on_grid",
                "lorentz.lorentz_norm_values",
                "fitting.loglog_fit",
            ),
            dominant=("grids.inverse_fourier_on_grid.s", "lorentz.lorentz_norm_values.s"),
            predicted_share=18.2 / 22.0,
            problem_sizes={
                "criterion_08": "2-D grid 4096^2, half width 512; N = 2..6 caps; "
                "circle 16384 atoms; Lorentz (6/5, 2) and (6/5, inf)",
            },
        ),
        Workload(
            name="oscillatory",
            # Criteria 1-4, 6, 7 and 11 run here too: on their own (about
            # 1.5 s a pass) their wall time could not be made steady on a
            # shared 2-core box, but their small-call layers are traced here.
            criteria=(1, 2, 3, 4, 6, 7, 9, 10, 11),
            seeded=True,
            expected_spans=_REPORTING
            + tuple("acceptance.criterion_%02d" % i for i in (1, 2, 3, 4, 6, 7, 9, 10, 11))
            + (
                "oscillatory.scaling_experiment",
                "oscillatory.apply_T_lambda_product",
                "oscillatory.check_fold",
                "oscillatory.tstar_kernel_entry",
                "oscillatory.dyadic_kernel_sup",
                "lorentz.lorentz_norm_values",
                "measures.fourier_transform_at",
                "measures.ball_regularity_profile",
                "operators.extend",
                "operators.restrict_at_atoms",
                "operators.convolve_mu_hat",
                "operators.restrict_sq_integral",
                "exponents.verify_identities",
                "fitting.loglog_fit",
            ),
            dominant=("oscillatory.apply_T_lambda_product.s",),
            # 16.4 s of 17 s for criteria 9 and 10, plus about 1.5 s for the rest
            predicted_share=16.4 / 18.5,
            problem_sizes={
                "criterion_01": "102 rational exponent triples",
                "criterion_02": "named exponents at (d, a, b) = (3, 2, 1)",
                "criterion_03": "circle 8192 atoms; 7 radii x 64 directions; 8 ball radii",
                "criterion_04": "Cantor ratio 1/3, levels 14 and 16",
                "criterion_06": "2-D grid 64^2; circle 256 atoms; 20 fields",
                "criterion_07": "1053 Lorentz norms of 8-200 samples",
                "criterion_09": "parabola phase, lambda = 2^4..2^10, q = 6, "
                "x 192 or 160 points per axis, y 8192 (y_dim 1) or 4096 points per axis",
                "criterion_10": "fold-curved phase, 9 fold probes, lambda = 2^4..2^9, q = 3",
                "criterion_11": "parabola phase, lambda 1024, j = 2..7, 2048-point quadrature",
            },
        ),
    )
}

# Per-layer metrics, reported by traced runs: name -> (span, field, unit).
# Fields: "s" busy time, "self_s" busy time outside traced callees, "calls",
# or a count computed from argument shapes (see tracer.COUNTERS). Times and
# counts are per pass of the workload's criteria.
_LAYER_FIELDS = (
    ("measures.dyadic_piece", ("self_s", "calls", "phase_entries")),
    ("bumps.dyadic_ring", ("s", "points")),
    ("grids.inverse_fourier_on_grid", ("s", "calls", "points", "bytes")),
    ("lorentz.lorentz_norm_values", ("s", "calls", "elements")),
    ("knapp.knapp_function", ("self_s",)),
    ("knapp.knapp_sharpness_experiment", ("self_s",)),
    ("oscillatory.apply_T_lambda_product", ("s", "calls", "phase_entries")),
    ("oscillatory.scaling_experiment", ("self_s",)),
    ("oscillatory.check_fold", ("s",)),
    ("oscillatory.tstar_kernel_entry", ("s", "calls")),
    ("oscillatory.dyadic_kernel_sup", ("self_s",)),
    ("measures.fourier_transform_at", ("s", "calls", "terms")),
    ("measures.ball_regularity_profile", ("s",)),
    ("operators.extend", ("s", "calls")),
    ("operators.restrict_at_atoms", ("s", "calls")),
    ("operators.convolve_mu_hat", ("s", "calls")),
    ("operators.restrict_sq_integral", ("s", "calls")),
    ("exponents.verify_identities", ("s", "calls")),
    ("fitting.loglog_fit", ("calls",)),
    ("reporting.emit_csv", ("s",)),
    ("reporting.write_verdict", ("s",)),
) + tuple(("acceptance.criterion_%02d" % i, ("s",)) for i in range(1, 12)) + (
    ("cli.main", ("self_s",)),
)

_UNITS = {
    "s": "s",
    "self_s": "s",
    "calls": "count",
    "phase_entries": "count_computed",
    "points": "count_computed",
    "terms": "count_computed",
    "elements": "count_computed",
    "bytes": "B_computed",
}

PER_LAYER = {
    "%s.%s" % (span, field): (span, field, _UNITS[field])
    for span, fields in _LAYER_FIELDS
    for field in fields
}
PER_LAYER["reporting.csv_bytes"] = ("reporting.emit_csv", "bytes", "B")

# Metrics of the traced run as a whole: name -> unit.
TRACE_METRICS = {
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_est_s": "s",
    "trace.dominant_share": "ratio",
    "trace.span_exceptions": "count",
    "reporting.csv_max_rel_dev": "ratio",
}
