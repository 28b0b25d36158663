"""Staged block-diagonalization of Dirac-type Hamiltonians.

Each stage conjugates by exp(S) with S = beta * (current odd part) / Eg and
keeps terms through the target 1/Eg order T (Foldy & Wouthuysen, Phys. Rev.
78, 29 (1950)).  fw_run runs max(3, ceil(T/2)) stages as one loop: after
stage k it checks that the rest-mass term is unchanged and that the residual
odd part starts at order 1 for k = 1 and at order k + 1 after that, and
after the last stage that the even slices 1..T did not move.  The product of
a run is the split after each stage and the final even slices, nothing else.
T is always the caller's; fw holds no order bound of its own.

Every part of a run is an algebra expression in its one grouped int form,
int numerators grouped by (1/Eg order, matrix, phase, V/Pi word) (see
algebra.Expression): the generator, every nesting ad_S^n(H), their sum, the
splits and the final slices.  The guards, the zero tests and the
stability and mass checks read that form, so a run builds no Fraction;
each part builds its .terms view when a caller first reads it.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import factorial

from . import algebra as al
from .algebra import Expression


class PipelineError(RuntimeError):
    """A structural guarantee of the staged transformation failed."""


class OddEvenSplit(namedtuple("OddEvenSplit", "mass even odd")):
    """Rest-mass slot plus the beta-even and beta-odd remainder."""

    __slots__ = ()


def split_even_odd(h: Expression) -> OddEvenSplit:
    """Split h in one pass over its groups: the (order -1, beta) group is
    the rest mass, and every other group is even or odd by its matrix."""
    parts = al.split_groups(h, lambda order, mat: "mass" if (order, mat) == (-1, al.BETA_MAT)
                            else al.MAT_ODD[mat], ("mass", False, True))
    return OddEvenSplit(parts["mass"], parts[False], parts[True])


_BETA_GAP = Expression.term(1, mat=al.BETA_MAT, dims=al.dim(Eg=-1))


def stage_generator(odd: Expression) -> Expression:
    """S = beta * odd / Eg; anti-Hermitian whenever odd is Hermitian and odd."""
    return al.mul(_BETA_GAP, odd)


def bch_conjugate(s: Expression, h: Expression, max_order: int) -> Expression:
    """exp(s) h exp(-s) = sum_n ad_s^n(h) / n!, truncated above max_order.

    Every term of s must sit at a positive 1/Eg order, so each nesting raises
    the order and truncating inside the loop is exact.  s is required to be
    anti-Hermitian (that is what makes exp(s) unitary).  Both guards, every
    nesting and the zero test read the grouped form (see algebra.Expression),
    h is truncated only if it has terms past max_order, and the nestings are
    summed once, over one common denominator, so no Fraction is built.
    """
    if not al.is_anti_hermitian(s):
        raise PipelineError("stage generator is not anti-Hermitian")
    low = al.min_order(s)
    if low is not None and low < 1:
        raise PipelineError("stage generator has terms at non-positive order")
    nested = al.truncate_order(h, max_order)
    series = [(1, nested)]
    for n in range(1, 4 * (max_order + 2)):
        nested = al.commutator(s, nested, max_order=max_order)
        if nested.is_zero():
            break
        series.append((Fraction(1, factorial(n)), nested))
    else:
        raise PipelineError("commutator nesting did not terminate")
    return al.linear_combination(series)


class FWRunResult(namedtuple("FWRunResult", "model stages even_slices")):
    """What the staged transformation produced.

    model is the model's name; stages[k] is the split after stage k + 1, in
    stage order (the odd slices of stages[0] are the raw ingredients of the
    higher-order corrections); even_slices[n], n = 1..target order, are the
    final stable slices h''(n) = h'(n).  Every part is an algebra
    expression, whose Fractions are built when its .terms view is first read.
    """

    __slots__ = ()


def fw_run(h: Expression, target_order: int, *, model: str) -> FWRunResult:
    """Run the staged transformation to any target_order >= 1 and slice the
    result by order.

    Raises PipelineError, naming the stage and the order, if a stage moves
    the rest-mass term, if a residual odd part starts below its stage's
    order, or if the even slices are not stable across the last stage.
    """
    if target_order < 1:
        raise ValueError("target_order must be at least 1")

    split = split_even_odd(h)
    mass, stages = split.mass, []
    # Stage k >= 3 first moves the even part at order 2k + 1, so the last of
    # max(3, ceil(T/2)) stages leaves slices 1..T alone; the check below asserts it.
    for stage in range(1, max(3, -(-target_order // 2)) + 1):
        start = 1 if stage == 1 else stage + 1
        h = bch_conjugate(stage_generator(split.odd), h, target_order)
        split = split_even_odd(h)
        if split.mass != mass:
            raise PipelineError(
                f"stage-{stage} rest-mass term (order -1) not preserved")
        low = al.min_order(split.odd)
        if low is not None and low < start:
            raise PipelineError(f"stage-{stage} odd part starts at order {low}, "
                                f"expected >= {start}")
        stages.append(split)

    if split.even != stages[-2].even:
        n = al.min_order(split.even - stages[-2].even)
        raise PipelineError(f"stage-{len(stages)} even slice at order {n} changed")

    slices = al.by_order(split.even)
    return FWRunResult(model, tuple(stages), {n: slices.get(n, Expression.zero())
                                              for n in range(1, target_order + 1)})
