"""Confronting the two structure statements on explicit germs.

For a singular hypersurface germ, the classification of the local ring
decides the order of its differential-saturated presentation:

  * non-extremal rings must come out with order exactly 1, and
  * extremal rings must satisfy order = min(Samuel slope, elimination
    order), which certifies the slope exactly whenever the order lands
    strictly below the elimination order.

The built-in corpus replays both statements; this demo walks the most
telling members and prints what each side computed.
"""

from slopelab import cross_check_theorems
from slopelab.corpus import local_ring_members, whitney_members

for m in local_ring_members() + whitney_members():
    if m.g is None:
        continue
    report = cross_check_theorems(m.presentation, m.split, at=m.point)
    where = "origin" if m.point.kind == "origin" \
        else "prime (%s)" % ", ".join(m.point.variables)
    print("%s at the %s:" % (m.name, where))
    print("  %s; order %s, elimination order %s"
          % (report.classification, report.hord, report.ord_d))
    if report.classification == "extremal":
        tag = "certified exact" if report.slope_certified else "lower bound"
        print("  samuel slope %s (%s)" % (report.slope_value, tag))
    if report.note:
        print("  note: %s" % report.note)
    print("  verdict: %s" % report.verdict)
    print()

print("the same checks run from the command line:")
print("  slopelab corpus --filter theorem/")
