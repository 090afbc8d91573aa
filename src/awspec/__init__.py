"""awspec: basic hypergeometric series, continuous q-Jacobi polynomials,
the Askey-Wilson divided-difference operator, and the spectral machinery
of its right-inverse integral operator.

Scalar series/product primitives are pure Python in ``awspec.backend``;
everything layered on top is pure Python + numpy.
"""
from .backend import BACKEND
from .exceptions import (DomainError, NonConvergenceError, PoleError,
                         QSeriesError)
from .qcore import QContext, exp_itheta, h_product, phi, qpoch, qpoch_inf
from .qpolys import (ConnectionTriple, JacobiLevel, connection_down, cqjacobi,
                     cqjacobi_seq, dual_expansion_aw, norm_h)
from .awop import (CoeffVector, QuadratureRule, dq_coeffs, dq_pointwise,
                   eval_coeffvector, kernel_eval, make_rule, t_coeffs,
                   t_factor, t_quadrature, xi_factor)
from .spectral import (EigenResult, bn_explicit, eigenfunction, eigenvalues,
                       f_eval, markov_ratio, markov_stieltjes, matrix_oracle,
                       q_coulomb, recurrence_a_coeffs, s_poly, x_nu)
from .qexp import (am_coeff, eq_exp, expansion_residual, hermite_identity_residual,
                   hermite_series, jm_quadrature)
from .framework import (LadderFamily, MonicSystem, cf_minimal_ratio,
                        large_param_limit_check, monicize, qjacobi_family,
                        shift_invariance_check, telescope_residual,
                        ultraspherical_family)

__version__ = "0.1.0"
