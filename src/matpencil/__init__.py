"""Companion-pencil linearizations of matrix polynomials.

Build generalized eigenvalue pencils for polynomials assembled from smaller
pieces (shifted products, sums, and the glued z*a*d0*b + c0 form), keep the
standard triple realizing the inverse polynomial as a resolvent, solve the
pencils, and verify every construction against brute-force determinant
oracles, including the exact-integer Mandelbrot matrix family.
"""

from .errors import (ContractError, DegenerateInputError, ResourceLimitError,
                     SpectrumError, StructuralError, VerificationError)
from .matpoly import (BasisSpec, CallablePoly, HeightReport, MatPoly,
                      barycentric_weights, eval_at, height_report)
from .pencil import (Pencil, StandardTriple, VerifyReport, is_block_upper_hessenberg,
                     pencil_det_at, pivot_condition, resolvent_eval, verify_triple)
from .constructions import (add_lower_degree, chebyshev_triple, composite,
                            frobenius_triple, lagrange_triple, product,
                            scalar_shift_left, scalar_shift_right)
from .mandelbrot import (InverseStructureReport, MandelbrotMatrix, charpoly_identity,
                         inverse_structure, mandelbrot_dim, mandelbrot_matrix,
                         mandelbrot_poly_at, mandelbrot_poly_coeffs)
from .eigensolve import (EigenReport, MatchReport, generalized_eigen, match_roots,
                         residuals)
from .oracle import det_equality, interp_charpoly, scalar_roots

__version__ = "0.1.0"
