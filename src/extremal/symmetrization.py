"""Symmetrization of family-free hypergraphs and exact Turan numbers.

Both step variants pick the lexicographically least pair of equivalence
classes that share no edge, ordered so the class with smaller (degree, size)
gets its links replaced by the other's.  Class steps rewrite a whole class at
once and strictly reduce the class count; vertex steps rewrite one vertex and
strictly increase (edge count, class energy) lexicographically.  Every step
re-checks freeness even though blowup-invariance guarantees it: a violation is
converted into a loud SoundnessError carrying the offending graph.

``ex_bruteforce`` maximizes over an isomorph-free enumeration; the pattern
route maximizes blowups of two-covered free patterns, which agrees with the
brute force for blowup-invariant families.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable, Optional

from .errors import Meter, SoundnessError
# canonical_form is unused here; perfbench/tests checks that its tracer rebinds it
from .isomorphism import CANONICAL_MAX_N, canonical_form, canonical_relabel
from .morphism import FamilySpec, free_representatives, is_free, two_covered_free_patterns
from .rgraph import (
    RGraph,
    bit,
    blowup,
    class_energy,
    equivalence_classes,
    is_symmetrized,
    mask_of,
    pair_covered,
)

CLASS_MODE = "class"
VERTEX_MODE = "vertex"


@dataclass(frozen=True)
class SymStep:
    kind: str  # "class-merge" | "vertex"
    absorbed: tuple[int, ...]
    donor: tuple[int, ...]
    edges_before: int
    edges_after: int
    energy_before: int
    energy_after: int


@dataclass(frozen=True)
class SymTrace:
    steps: tuple[SymStep, ...]
    final: RGraph


@dataclass(frozen=True)
class ExResult:
    n: int
    family: FamilySpec
    value: int
    witnesses: tuple[RGraph, ...]
    method: str  # "bruteforce" | "patterns" | "both-agree"


def _select_pair(h: RGraph) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The least-indexed pair of equivalence classes with no covering edge
    between them, returned as (absorbed, donor) by (degree, size) order."""
    parts = equivalence_classes(h).classes
    degs = [h.degrees[c[0]] if c else 0 for c in parts]
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            if pair_covered(h, parts[i][0], parts[j][0]):
                continue
            key_i = (degs[i], len(parts[i]))
            key_j = (degs[j], len(parts[j]))
            if key_i <= key_j:
                return parts[i], parts[j]
            return parts[j], parts[i]
    return None


def _replace_links(h: RGraph, absorbed: Iterable[int], donor_rep: int) -> RGraph:
    """Rebuild the graph so that every absorbed vertex gets the donor's link.

    Donor links avoid the absorbed class entirely (any common edge would cover
    the class pair), so the rewritten edges are valid r-sets.
    """
    absorbed = tuple(absorbed)
    absorbed_mask = mask_of(absorbed)
    donor_link = h.link_masks[donor_rep]
    kept = [m for m in h.edge_masks if not m & absorbed_mask]
    fresh = [a | bit(v) for v in absorbed for a in donor_link]
    return RGraph.from_masks(h.r, h.n, kept + fresh)


def _guard_free(h_new: RGraph, fam: FamilySpec, before: RGraph) -> None:
    if not is_free(h_new, fam):
        raise SoundnessError(
            f"symmetrization step left the {fam.label} class: the family is not "
            f"blowup-invariant on this input (before: {before!r}, after: {h_new!r})"
        )


def _step(
    h: RGraph, fam: FamilySpec, mode: str
) -> Optional[tuple[tuple[int, ...], tuple[int, ...], RGraph]]:
    """One link replacement on the pair ``_select_pair`` picks, for the whole
    absorbed class (class mode) or its first vertex (vertex mode), checked
    to stay family-free: ``(absorbed, donor, out)``, or None when ``h`` is
    already symmetrized."""
    pair = _select_pair(h)
    if pair is None:
        return None
    absorbed, donor = pair
    if mode == VERTEX_MODE:
        absorbed = (absorbed[0],)
    out = _replace_links(h, absorbed, donor[0])
    _guard_free(out, fam, h)
    return absorbed, donor, out


def symmetrize(h: RGraph, fam: FamilySpec, mode: str = CLASS_MODE) -> SymTrace:
    """Iterate symmetrization steps to a symmetrized, family-free graph.

    Raises SoundnessError if a step breaks monotonicity or freeness (both are
    guaranteed for blowup-invariant families, so a raise is a counterexample).
    """
    if mode not in (CLASS_MODE, VERTEX_MODE):
        raise ValueError(f"mode must be 'class' or 'vertex', got {mode!r}")
    if not is_free(h, fam):
        raise ValueError("input graph is not family-free")
    steps: list[SymStep] = []
    cur = h
    cap = comb(h.n, h.r) * (h.n**2 + 1) + h.n + 1  # lex chain bound on (edges, energy)
    for _ in range(cap):
        step = _step(cur, fam, mode)
        if step is None:
            break
        absorbed, donor, nxt = step
        rec = SymStep(
            "class-merge" if mode == CLASS_MODE else "vertex",
            absorbed,
            donor,
            len(cur.edges),
            len(nxt.edges),
            class_energy(cur),
            class_energy(nxt),
        )
        before = (rec.edges_before, rec.energy_before)
        after = (rec.edges_after, rec.energy_after)
        if mode == VERTEX_MODE:
            if after <= before:
                raise SoundnessError(f"vertex step did not lex-increase: {before} -> {after}")
        else:
            if after < before:
                raise SoundnessError(f"class step lex-decreased: {before} -> {after}")
            cc_before = equivalence_classes(cur).class_count
            cc_after = equivalence_classes(nxt).class_count
            if cc_after >= cc_before:
                raise SoundnessError(
                    f"class step did not reduce class count: {cc_before} -> {cc_after}"
                )
        steps.append(rec)
        cur = nxt
    else:
        raise SoundnessError("symmetrization failed to terminate within its lex bound")
    if not is_symmetrized(cur):
        raise SoundnessError("symmetrization stopped with a pair still to symmetrize")
    return SymTrace(tuple(steps), cur)


# ---------------------------------------------------------------------------
# exact Turan numbers

def ex_bruteforce(n: int, fam: FamilySpec) -> ExResult:
    """Exact maximum edge count over all family-free graphs on n vertices,
    with every extremal graph retained up to isomorphism."""
    return _most_edges(n, fam, free_representatives(n, fam))


def _most_edges(n: int, fam: FamilySpec, reps: tuple[RGraph, ...]) -> ExResult:
    value = max(len(g.edges) for g in reps)
    witnesses = tuple(g for g in reps if len(g.edges) == value)
    return ExResult(n, fam, value, witnesses, "bruteforce")


def _compositions(total: int, parts: int):
    """Positive integer vectors of the given length summing to ``total``."""
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _blowup_size(g: RGraph, sizes: tuple[int, ...]) -> int:
    total = 0
    for e in g.edges:
        term = 1
        for v in e:
            term *= sizes[v]
        total += term
    return total


def ex_via_patterns(n: int, fam: FamilySpec, p_max: Optional[int] = None) -> ExResult:
    """Maximum edge count over proper blowups of two-covered family-free
    patterns, searching every composition of ``n`` into each pattern's class
    sizes.  For blowup-invariant families (caller-asserted) with ``p_max = n``
    this equals the brute-force value: symmetrized graphs are exactly proper
    blowups of their two-covered quotients, and symmetrization never loses
    edges.  A cap ``p_max`` below ``n`` makes the value a lower bound only;
    a cap below 1 raises ``ValueError``.  The compositions of every pattern
    count against ``CAPS["compositions"]``, each pattern's before its walk;
    past the cap the call raises ``BudgetError``."""
    if p_max is not None and p_max < 1:
        raise ValueError(f"pattern size cap must be >= 1, got {p_max}")
    p_cap = min(p_max if p_max is not None else n, n)
    patterns = two_covered_free_patterns(fam, p_cap)
    best_val = 0
    best: list[tuple[int, RGraph, tuple[int, ...]]] = []
    meter = Meter("compositions")
    for i, pat in enumerate(patterns):
        meter.tick(comb(n - 1, pat.n - 1))
        for sizes in _compositions(n, pat.n):
            val = _blowup_size(pat, sizes)
            if val > best_val:
                best_val = val
                best = [(i, pat, sizes)]
            elif val == best_val:
                best.append((i, pat, sizes))
    witnesses: dict[tuple, RGraph] = {}
    for i, pat, sizes in best:
        g, _ = blowup(pat, sizes)
        if g.n <= CANONICAL_MAX_N:
            # the certificate labeling, keyed as enumeration orders classes
            g = canonical_relabel(g)
            key = tuple(sorted(g.edge_masks))
        else:
            # the patterns are pairwise non-isomorphic, so a position names a class
            key = (i, tuple(sorted(sizes)))
        if key not in witnesses:
            if not is_free(g, fam):
                raise SoundnessError(
                    f"pattern blowup is not family-free; {fam.label} is not blowup-invariant"
                )
            witnesses[key] = g
    wit = tuple(witnesses[k] for k in sorted(witnesses))
    return ExResult(n, fam, best_val, wit, "patterns")


def ex(n: int, fam: FamilySpec, method: str = "both", p_max: Optional[int] = None) -> ExResult:
    """Front door: brute force, the pattern route, or both with agreement check.

    Both routes: the pattern route runs first, and its value ``L`` gates the
    brute force to the free graphs with at least ``L`` edges, which then
    proves ``L`` optimal or beats it.  A pattern witness is a free graph on
    ``n`` vertices with ``L`` edges, so an empty gated list is a
    ``SoundnessError``; a larger brute-force value is a route disagreement.

    ``p_max`` caps the pattern size of the pattern route alone, where it makes
    the value a lower bound; with ``brute`` or ``both`` it raises ``ValueError``.
    """
    if method not in ("brute", "patterns", "both"):
        raise ValueError(f"method must be brute|patterns|both, got {method!r}")
    if p_max is not None and method != "patterns":
        raise ValueError(f"a pattern size cap needs method 'patterns', not {method!r}")
    if method == "brute":
        return ex_bruteforce(n, fam)
    if method == "patterns":
        return ex_via_patterns(n, fam, p_max)
    patt = ex_via_patterns(n, fam)
    reps = free_representatives(n, fam, min_edges=patt.value)
    if not reps:
        raise SoundnessError(
            f"no {fam.label}-free graph on {n} vertices has the {patt.value} edges "
            f"of a pattern-route witness"
        )
    brute = _most_edges(n, fam, reps)
    if brute.value != patt.value:
        raise SoundnessError(
            f"route disagreement for {fam.label} at n={n}: "
            f"bruteforce={brute.value}, patterns={patt.value}"
        )
    return ExResult(n, fam, brute.value, brute.witnesses, "both-agree")
