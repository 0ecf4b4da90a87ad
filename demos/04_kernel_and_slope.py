"""The kernel of the graded evaluation map, and the Samuel slope.

A pair of lines x^2 = y^2 makes the characteristic visible.  Away from
characteristic 2 the tangent cone is reduced (two distinct lines), the
degree-one nilpotent space is zero, and the ring is non-extremal with
slope 1.  In characteristic 2 the same equation degenerates to the
double line (x + y)^2: the class of x + y is a degree-one nilpotent,
the ring becomes extremal, and since (x + y)^2 is literally zero in the
quotient the slope is infinite.
"""

from slopelab import LocalRingPresentation, Ring, kernel_lambda, \
    samuel_slope

for char in (0, 2, 3):
    ring = Ring(("x", "y"), char=char)
    pair = LocalRingPresentation(ring, [ring.parse("x^2 - y^2")])
    kernel = kernel_lambda(pair)
    label = "characteristic %s" % (char or "zero")
    print("%s:" % label)
    print("  excess t = %d, kernel dimension r = %d (%s, method %s)"
          % (kernel.t, kernel.r, kernel.classification, kernel.method))
    if kernel.basis:
        print("  kernel basis: %s"
              % "; ".join(b.canonical_string() for b in kernel.basis))
    result = samuel_slope(pair)
    tag = "=" if result.exact else ">="
    print("  samuel slope %s %s" % (tag, result.lower))
    if result.witness:
        print("  witness sequence: %s"
              % "; ".join(w.canonical_string() for w in result.witness))
    print()

print("the cusp in characteristic zero is extremal but with a finite")
print("bound; the search tries translated generators automatically:")
ring = Ring(("x", "y"))
cusp = LocalRingPresentation(ring, [ring.parse("x^2 - y^3")])
result = samuel_slope(cusp, max_n=10)
print("  samuel slope >= %s via %s"
      % (result.lower,
         "; ".join(w.canonical_string() for w in result.witness)))
