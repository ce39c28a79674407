"""Exact rational computation of moment polyhedra of holomorphic coadjoint
orbit projections for the classical Hermitian families, cross-validated by an
independent Horn-inequality oracle.

Subpackages / modules:

  exactmath   -- rational vectors, affine inequality systems, exact LP
  certificates -- reusable certificates of redundancy decisions
  weyl        -- products of symmetric groups, lengths, coset representatives
  rootdata    -- root data of the four classical Hermitian families
  horn        -- the Horn index triples T_r^n
  schubert    -- type-A Schubert calculus (polynomial model + Chevalley rule)
  admissible  -- dominant indivisible admissible one-parameter subgroups
  wellcover   -- the cohomological well-covering criterion for pairs
  polytope    -- assembly, closed forms, membership, oracle cross-checks
  goldens     -- checked-in ground-truth tables used by the tests and the
                 benchmark
  cli         -- command line front end
"""

__version__ = "0.1.0"
