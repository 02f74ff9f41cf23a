"""The rule table: stable ids and citations.

Each rule id names one inference step; the cite string is a self-contained
statement of the mathematical fact the step rests on.  The level
arithmetic and the determinacy gates live at each rule's node in the
inference engine; the derivation checker deliberately keeps its own copy
of both, one table entry per rule id here, leaves included, so that an
engine that gets a step wrong is caught on replay.
"""

from __future__ import annotations

CITATIONS = {
    "DECL": "declared in the program environment",
    "SCHED": "declared level schedule for a countable family",
    "S-COMPL": "complements swap sigma and pi at each level and fix delta",
    "S-CU": "each level of the hierarchy is closed under countable unions",
    "S-CI": "each level of the hierarchy is closed under countable intersections",
    "S-PROD": "binary products stay within a common kind at a common level; "
              "a strict sigma/pi mixture upcasts to the least common delta",
    "S-PROJ": "projecting along a factor preserves sigma n and sends pi n into sigma n+1",
    "S-BIMG": "images under level-1 (Borel) functions preserve sigma n and "
              "send pi n into sigma n+1",
    "S-BPRE": "preimages under level-1 (Borel) functions preserve every class; "
              "sections arise as such preimages under a pair embedding",
    "S-SUBLEV": "a level-p measurable function pulls every Borel target, in "
                "particular every sublevel set, back into delta p",
    "S-WR": "for a set at sigma n, the measures assigning it mass at least r "
            "form a sigma n subset of the measure space; beyond n = 1 this "
            "rests on determinacy",
    "F-DOM": "a function declared on a partial domain carries the domain's "
             "class, lifted to delta, joined into its level",
    "F-PAIR": "a pair of measurable functions is measurable at the larger of "
              "the two levels",
    "F-CYL": "extending a function along an extra product factor keeps its level",
    "F-COMP": "composing level-p after level-q measurable functions is "
              "measurable at level p+q",
    "F-COMP-B": "composing with an inner level-1 (Borel) function keeps the "
                "outer level: Borel preimages preserve each delta class",
    "F-PRE-Δ": "the preimage of a delta n set under a level-p function lies "
               "in delta p+n",
    "F-PRE-Σ": "the preimage of a sigma n set under a level-p function lies "
               "in sigma n+p-1",
    "F-GRAPH": "a level-n measurable function on a delta n domain has its "
               "graph in delta n+1 of the product",
    "F-UNGRAPH": "a function whose graph and domain both lie in delta n is "
                 "measurable at level n+1",
    "F-SECT": "fixing one product coordinate of a level-p function yields a "
              "level p+1 function of the other",
    "F-ARITH": "pointwise sums, negation, products, minima, maxima, inner "
               "products and positive powers of nonnegative functions keep "
               "the larger operand level",
    "F-CSUP": "a countable supremum over a family bounded at a fixed level "
              "stays at that level",
    "F-CINF": "a countable infimum over a family bounded at a fixed level "
              "stays at that level",
    "F-PARTIAL": "the sectionwise infimum or supremum over a constraint set "
                 "at level q is measurable at level q+1",
    "F-INT": "integrating a level-p function against a level-r kernel yields "
             "a level p+r+2 function; requires projective determinacy",
    "F-SELECT": "a set in pi 2m+1 admits a selector whose graph is again in "
                "pi 2m+1; for m >= 1 this requires projective determinacy",
    "F-EPS": "an eps-optimal measurable selector exists inside the constraint "
             "set; requires projective determinacy",
    "P-UM": "level-1 sets and functions are universally measurable outright; "
            "every projective level is, under projective determinacy",
}

UM_REFUSAL = (
    "universal measurability beyond level 1 is independent of the base "
    "axioms: consistently, a level-2 set can fail to be measurable"
)
