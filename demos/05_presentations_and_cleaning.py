"""Presentations with a monic fiber polynomial, slopes, and cleaning.

In characteristic p, a monic polynomial of degree p^l in the fiber
variable z has a slope: the smaller of ord(top coefficient)/p^l and the
order of the elimination algebra built from the other coefficients.
When the initial form of the top coefficient is a p^l-th power G^{p^l}
the translation z -> z - G strictly improves the slope (case B3); the
cleaning loop applies such translations until none is left, and the
final slope is the order of the presentation.
"""

from slopelab import PointSpec, Ring, VariableSplit, build_p_presentation, \
    clean, slope

ring = Ring(("z", "y1", "y2"), char=2)
split = VariableSplit(ring, base=("y1", "y2"), fiber=("z",))
g = ring.parse("z^2 + y1^2*y2^2 + y1^5")

# p is the characteristic of the ring, here 2
presentation = build_p_presentation(g, split)
first = slope(presentation)
print("before cleaning: slope %s, case %s" % (first.value, first.case))
print("  the top coefficient y1^2 y2^2 + y1^5 has initial form")
print("  (y1 y2)^2, a square, so a translation is available")

report = clean(presentation)
print()
print("after cleaning:")
for name, shift in report.transcript:
    print("  translated %s by %s" % (name, (-shift).canonical_string()))
print("  final slope %s, case %s, order %s"
      % (report.value, report.case, report.hord))
print("  elimination order %s" % report.elimination_order)

print()
print("cleaning can also consume the polynomial entirely; z^2 + y1^2")
print("collapses to z^2 after one translation and the order is infinite:")
degenerate = clean(build_p_presentation(ring.parse("z^2 + y1^2"), split))
print("  order %s, degenerate flag %s"
      % (degenerate.hord, degenerate.degenerate))

print()
print("at the coordinate prime (z, y1) only the y1-degree counts; the")
print("umbrella z^2 + y1^2 y2 keeps order 1 there:")
umbrella = clean(build_p_presentation(ring.parse("z^2 + y1^2*y2"), split),
                 at=PointSpec.prime(("z", "y1")))
print("  order %s, elimination order %s, case %s"
      % (umbrella.hord, umbrella.elimination_order, umbrella.case))
