"""Ideal membership the slow, reliable way.

Everything upstream of the Newton polyhedron shortcut rests on exact
Groebner bases: the adic order asks whether f lies in m^j + relations,
dimension counts come from leading monomials, and radical membership
uses the extra-variable localization trick.
"""

from slopelab import IdealPresentation, Ring, buchberger, radical_member
from slopelab.groebner import ideal_power, monomial_dimension

ring = Ring(("x", "y", "z"))
ideal = IdealPresentation(ring, [ring.parse("x^2 - y*z"),
                                 ring.parse("x*y - z^2")])

basis = buchberger(ideal)
print("reduced Groebner basis of (x^2 - y*z, x*y - z^2):")
for g in basis.polys:
    print("  %s" % g.canonical_string())

probe = ring.parse("x^3 - z^3")
print()
print("x^3 - z^3 in the ideal?  %s" % basis.contains(probe))
print("x in the ideal?          %s" % basis.contains(ring.var("x")))

maximal = IdealPresentation(ring, [ring.var(v) for v in ring.variables])
square = ideal_power(maximal, 2)
print()
print("m^2 has %d generators; x*z in m^2?  %s"
      % (len(square.generators),
         buchberger(square).contains(ring.parse("x*z"))))

nilpotent_test = IdealPresentation(ring, [ring.parse("x^2"),
                                          ring.parse("y^3"),
                                          ring.parse("z")])
print()
print("x + y is not in (x^2, y^3, z), but it is in the radical:")
print("  membership: %s" % buchberger(nilpotent_test).contains(
    ring.parse("x + y")))
print("  radical:    %s" % radical_member(ring.parse("x + y"),
                                          nilpotent_test))

lead = IdealPresentation(ring, [ring.parse("x^2"), ring.parse("y^3")])
print()
print("monomial quotient k[x,y,z]/(x^2, y^3) has dimension %d"
      % monomial_dimension(lead))
