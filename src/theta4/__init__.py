"""Theta functions of order four: exact combinatorics and numerical checks.

The package is organised around one chain of objects:

* ``char2``          -- theta characteristics as pairs of g-bit vectors,
                        parity, the symplectic pairing and quadratic forms,
                        all exact over GF(2).
* ``mmatrix``        -- int8 tables of pairing signs, the d+ x d+ sign
                        matrix M over even pairs (int64 from build_m) and its
                        row-sum law, verified in exact integer arithmetic
                        through M^2 = 2^(g-1) M + 2^(2g-1) I.
* ``theta_eval``     -- numerical theta series with characteristics on the
                        Siegel upper half-space, truncated with a Gaussian
                        tail bound.
* ``identities``     -- residual sweeps of the quartic addition relation and
                        its even-pair inversion at given points, one
                        JSON-ready record dict per (point, characteristic),
                        and the one pass rule over them (``summarize``).
* ``basis_analysis`` -- evaluation matrices at two-torsion points, the
                        normalized sign structure, fourth-power span ranks and
                        vanishing-null detection.
* ``cli``            -- the ``theta4`` command line front end.
"""

from theta4.char2 import (
    Characteristic,
    d_minus,
    d_plus,
    enumerate_characteristics,
    even_characteristics,
    even_points,
    isometry_to_even_points,
    kappa_value,
    parity,
    translate,
    weil_pairing,
)
from theta4.mmatrix import build_m, pairing_signs, row_sum
from theta4.theta_eval import (
    PeriodMatrix,
    TruncationError,
    TruncationPolicy,
    block_diagonal_tau,
    random_tau,
    sample_cell_points,
    theta_nulls,
    theta_series,
    theta_table,
    two_torsion_point,
)
from theta4.identities import inversion_residuals, quartic_residuals
from theta4.basis_analysis import (
    VanishingNullError,
    basis_report,
    evaluation_matrix,
    fourth_power_rank,
    mu,
    normalized_evaluation_matrix,
    numerical_rank,
    vanishing_nulls,
)

__version__ = "0.1.0"

__all__ = [
    "Characteristic",
    "PeriodMatrix",
    "TruncationError",
    "TruncationPolicy",
    "VanishingNullError",
    "basis_report",
    "block_diagonal_tau",
    "build_m",
    "d_minus",
    "d_plus",
    "enumerate_characteristics",
    "evaluation_matrix",
    "even_characteristics",
    "even_points",
    "fourth_power_rank",
    "inversion_residuals",
    "isometry_to_even_points",
    "kappa_value",
    "mu",
    "normalized_evaluation_matrix",
    "numerical_rank",
    "pairing_signs",
    "parity",
    "quartic_residuals",
    "random_tau",
    "row_sum",
    "sample_cell_points",
    "theta_nulls",
    "theta_series",
    "theta_table",
    "translate",
    "two_torsion_point",
    "vanishing_nulls",
    "weil_pairing",
    "__version__",
]
