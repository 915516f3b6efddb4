"""Exact q-Genocchi numbers and polynomials with weight zero.

Layers:
  exactq     -- arithmetic in Q[q] and Q(q) with canonical forms
  genocchi   -- the number/polynomial sequences: two pipelines in Q(q) and
                a closed form at a numeric q; Frobenius-Euler polynomials,
                the fermionic moment oracle
  bernstein  -- Bernstein basis polynomials and products
  identities -- mechanical verification of the identity suite
  padic      -- precision-tracked Q_p arithmetic, fermionic Riemann sums,
                the Iwasawa logarithm, and p-adic log-gamma values
  cli        -- the qgenocchi command
  _kernel    -- the hot integer-polynomial loops, in pure Python
                (`kernel_backend` names the implementation: "python")
"""

from ._kernel import BACKEND as kernel_backend
from .bernstein import (
    BernsteinIndex,
    bernstein_basis,
    bernstein_operator,
    bernstein_product,
    bernstein_reflect,
)
from .errors import (
    DomainError,
    LengthError,
    PoleError,
    PrecisionExhausted,
    QGenocchiError,
)
from .exactq import (
    QPolynomial,
    QRational,
    Rational,
    XPolynomial,
    parse_qrational,
    q_bracket,
)
from .genocchi import (
    GenocchiTable,
    SeriesExpansion,
    classical_genocchi,
    frobenius_euler_polynomial,
    genocchi_number,
    genocchi_polynomial,
    genocchi_series_oracle,
    integrate_polynomial,
    moment,
    moments_at,
)
from .identities import IdentityReport
from .padic import (
    IntegrandSpec,
    PadicContext,
    PadicNumber,
    fermionic_riemann_sum,
    iwasawa_log,
    loggamma_direct,
    loggamma_series,
    moment_convergence,
    padic_log1p,
)

__version__ = "0.1.0"

__all__ = [
    "BernsteinIndex",
    "DomainError",
    "GenocchiTable",
    "IdentityReport",
    "IntegrandSpec",
    "LengthError",
    "PadicContext",
    "PadicNumber",
    "PoleError",
    "PrecisionExhausted",
    "QGenocchiError",
    "QPolynomial",
    "QRational",
    "Rational",
    "SeriesExpansion",
    "XPolynomial",
    "bernstein_basis",
    "bernstein_operator",
    "bernstein_product",
    "bernstein_reflect",
    "classical_genocchi",
    "fermionic_riemann_sum",
    "frobenius_euler_polynomial",
    "genocchi_number",
    "genocchi_polynomial",
    "genocchi_series_oracle",
    "integrate_polynomial",
    "iwasawa_log",
    "kernel_backend",
    "loggamma_direct",
    "loggamma_series",
    "moment",
    "moment_convergence",
    "moments_at",
    "padic_log1p",
    "parse_qrational",
    "q_bracket",
]
