"""Order functions on a cuspidal curve.

The ring is k[x, y] localized at the origin modulo x^2 - y^3.  The adic
order nu(f) is the largest j with f in m^j (modulo the relation), and
the asymptotic order nubar(f) is the limit of nu(f^n)/n.  The residue
class of x shows why the limit matters: nu(x) = 1, but nu(x^2) jumps to
3 because x^2 equals y^3 in the quotient.
"""

from slopelab import LocalRingPresentation, Ring, nu, nubar
from slopelab.samuel import ValuationCertificate

ring = Ring(("x", "y"))
cusp = LocalRingPresentation(ring, [ring.parse("x^2 - y^3")])
x = ring.var("x")

print("adic orders of powers of x:")
for n in range(1, 7):
    value = nu(cusp, x ** n).lower
    print("  nu(x^%d) = %s   ratio %s/%d" % (n, value, value, n))

print()
print("the ratios climb toward 3/2; the limit strategy certifies a")
print("lower bound from finitely many powers:")
estimate = nubar(cusp, x, strategy="limit", max_n=12)
print("  nubar(x) >= %s (%s)" % (estimate.lower, estimate.status))

print()
print("a monomial valuation with weights x:3, y:2 kills the relation")
print("(both terms get weight 6) and takes value 2 on the maximal ideal,")
print("so it computes the asymptotic order exactly:")
certificate = ValuationCertificate(ring, [({"x": 3, "y": 2}, 2)])
exact = nubar(cusp, x, certificate=certificate)
print("  nubar(x) = %s (%s)" % (exact.lower, exact.status))
