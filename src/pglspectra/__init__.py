"""pglspectra: element-order spectra, prime graphs and primitive prime
divisors for 2x2 matrix groups over small finite fields."""

from .errors import (BadAction, CapExceeded, FactorizationIncomplete,
                     NotCoprime, NotCppPrime, NotPrime, ToolkitError)
from .matrixgroups import (FieldCtx, field_ctx, find_binary_octahedral_subgroup,
                           omega_bruteforce, subgroup_closure)
from .numtheory import (CatalanSolution, Factorization, PpdReport,
                        catalan_solutions, cyclotomic_value, divisors, factor,
                        factor_pieces, is_prime, multiplicative_order,
                        ppd_exists_above, primitive_prime_divisors,
                        zsigmondy_exception)
from .primegraph import (ComponentPartition, PrimeGraph, build_graph,
                         components, is_cpp_candidate, mu_components, to_dot)
from .spectra import (Spectrum, maximal_elements, mu_pgl2, mu_psl2,
                      omega_alternating, omega_closure, omega_metacyclic,
                      omega_symmetric, psi_f4)
from .verify import (check_pgl2_component_structure, table2_lookup,
                     verify_all, verify_case_factorizations, verify_lemma1,
                     verify_lemma2, verify_table1)

__version__ = "0.1.0"
