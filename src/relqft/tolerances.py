"""Default numerical tolerances, shared across the package.

All computations are sums and products of O(10^3) unit-scale terms in double
precision, so equality-type residuals sit far below 1e-10 while eigenvalue
clipping needs the slightly looser 1e-9.

A scenario config or the CLI's ``--tol KEY=VAL`` can override exactly the
names in ``TOLERANCE_KEYS``: ``tol_eq``, ``tol_psd``, ``tol_supp``,
``tol_feas`` and ``tol_dft``.  A function that a check passes one of these
takes it as an argument defaulting to the value here; every other use
reads the constant.  ``TOL_HERM`` and ``TOL_TRACE`` are fixed: they guard
``psd_gap``, ``is_state`` and ``born_measure`` against usage errors and
decide no check.

``verdict`` is the one rule that turns ``Measurement`` values into a verdict.
"""

from dataclasses import dataclass

TOL_EQ = 1e-10     # entrywise operator equality / commutator residuals
TOL_HERM = 1e-10   # hermiticity defect
TOL_PSD = 1e-9     # most-negative eigenvalue allowed for "positive"
TOL_TRACE = 1e-10  # trace normalization defect
TOL_SUPP = 1e-12   # pmf support membership threshold
TOL_FEAS = 1e-7    # feasibility residual for the joint-state solver
TOL_DFT = 1e-9     # spectral-support violations in Fourier tables

SVD_CUTOFF = 1e-8  # relative singular-value cutoff for rank/nullspace calls
MAX_ITER_FEAS = 5000  # alternating-projection iteration cap


def defaults() -> dict:
    """Return the overridable tolerances and their defaults as a plain dict."""
    return {
        "tol_eq": TOL_EQ,
        "tol_psd": TOL_PSD,
        "tol_supp": TOL_SUPP,
        "tol_feas": TOL_FEAS,
        "tol_dft": TOL_DFT,
    }


#: Names accepted as tolerance overrides, in ``defaults()`` order.
TOLERANCE_KEYS = tuple(defaults())


@dataclass(frozen=True)
class Measurement:
    """A measured value and the bound it must meet: ``value <= bound``,
    ``value >= bound``, or ``value == bound`` (flags and exact counts)."""

    name: str
    value: float
    bound: float
    sense: str = "<="

    @property
    def margin(self) -> float:
        """Signed distance to the bound, negative when it is violated: 0.0
        for a met equality, NaN for a NaN value."""
        v, b = float(self.value), float(self.bound)
        return {"<=": b - v, ">=": v - b, "==": 0.0 - abs(v - b)}[self.sense]

    @property
    def holds(self) -> bool:
        # exact for finite doubles: b - v >= 0 iff v <= b; NaN meets nothing
        return self.margin >= 0.0


def verdict(measurements, premise: bool = True, certified: bool = True) -> str:
    """The verdict: "no-certificate" when a feasibility search ended
    undecided, else "vacuous" when the premise of a conditional statement
    never held, else "verified" exactly when every measurement meets its
    bound, else "failed"."""
    if not certified:
        return "no-certificate"
    if not premise:
        return "vacuous"
    return "failed" if any(not m.holds for m in measurements) else "verified"
