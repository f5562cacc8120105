"""Structural facts about a built action, computed through saturated
subtori and the component group, kept as test oracles.

The library's lattice audit, ``lattice_inclusion_check``, reads block
coordinates off one inverse of the block-sum basis.  The routines here
take the block lattices as the saturated intersections of each block's
subspace with the lattice, compare lattices by their column Hermite
bases, and find the component group of the block sum as torsion points.
``reference_structure`` returns three facts that no command reads, with
the lattice audit of the reference block lattices:

- the fixed subtorus of the reflection is its image subtorus;
- the rotation carries the first block lattice onto the second;
- the combined shift's point omega generates the Z/2 component group.
"""

from fractions import Fraction
from typing import NamedTuple

from linear_oracles import canonical, image_saturation, rational_rank

from hyptor import d4_family, exact_linear
from hyptor.d4_family import D4Action, D4Parameters, LatticeInclusionReport, case1_subgroup_generator
from hyptor.exact_linear import Matrix, kernel_sublattice, snf
from hyptor.torus import ComplexTorus, FiniteSubgroup, TorsionPoint, elliptic_curve, product


class ReferenceStructure(NamedTuple):
    """Structural facts about a built action.

    kernel_image_agree: the connected fixed locus of the reflection
    equals the image of (I + S) as a subtorus (first factor).
    rotated_block_agree: the rotation carries the first block lattice
    onto the second block, which equals the intersection of the second
    coordinate subspace with the lattice.
    omega_matches: whether the component group of the block sum, whose
    divisors are inclusion.quotient_divisors, is generated by the image
    of the expected 2-torsion point.

    kernel_image_agree and rotated_block_agree hold on every action that
    can be built: S is an integral involution, and quotient_frame
    rejects any H that is not r-stable.  They can fail only on actions
    put together by hand, such as one with r and s swapped.
    """

    kernel_image_agree: bool
    rotated_block_agree: bool
    omega_matches: bool
    inclusion: LatticeInclusionReport


def product_torus(params: D4Parameters) -> ComplexTorus:
    """E x E x E' of the parameters, before the quotient by H."""
    return product([elliptic_curve(params.tau), elliptic_curve(params.tau), elliptic_curve(params.tau_prime)])


def reference_block_sublattices(t_quot):
    """The block lattices as the saturated intersection of each block's
    subspace, spanned by columns of basis_change^-1, with Z^(2g)."""
    basis_inv = t_quot.basis_change.inverse()
    out = []
    for off, length in t_quot.blocks:
        w = Matrix.from_columns([basis_inv.column(off + k) for k in range(length)])
        assert rational_rank(w) == length
        out.append(image_saturation(w.scaled_integer()[0]))
    return tuple(out)


def _reference_component_group(t: ComplexTorus, m: Matrix):
    """The lattice of t modulo the full sublattice spanned by m's
    columns, as torsion points in m's coordinates, with its elementary
    divisors > 1."""
    dec = snf(m)
    gens, divisors = [], []
    for i in range(t.rank):
        d = dec.d.at(i, i)
        if d > 1:
            divisors.append(d)
            gens.append(TorsionPoint(tuple(Fraction(x, d) for x in dec.v.column(i))))
    sub_torus = ComplexTorus(t.g, m.inverse() @ t.j @ m, t.basis_change @ m, t.blocks)
    return FiniteSubgroup(sub_torus, tuple(gens)), tuple(sorted(divisors))


def reference_structure(action: D4Action) -> ReferenceStructure:
    """The structural facts through saturated subtori and the component
    group, compared as canonical lattice bases."""
    t = action.torus
    s_cur = action.s.a
    ident = Matrix.identity(t.rank)
    for a in (s_cur - ident, s_cur + ident):
        assert (a @ t.j).entries == (t.j @ a).entries
    ker = kernel_sublattice(s_cur - ident)
    img = image_saturation(s_cur + ident)
    kernel_image_agree = canonical(ker).entries == img.entries

    lams = reference_block_sublattices(t)
    block_basis = Matrix.from_columns([lam.column(k) for lam in lams for k in range(lam.cols)])
    block_inv = block_basis.inverse()
    rotated_block_agree = canonical(action.r.a @ lams[0]).entries == lams[1].entries

    # omega's raw lift to quotient coordinates, not a torsion point:
    # reduction mod 1 would kill it too early
    cg, divisors = _reference_component_group(t, block_basis)
    omega_matches = False
    if divisors == (2,):
        omega_prod = case1_subgroup_generator(action.params.s_shift1, action.params.s_shift2)
        omega_lift = (t.basis_change.inverse() @ product_torus(action.params).basis_change).apply(omega_prod.coords)
        omega_block = TorsionPoint(tuple(block_inv.apply(omega_lift)))
        omega_matches = omega_block in cg.elements and not omega_block.is_zero()

    inclusion = d4_family._inclusion_report(action, exact_linear.inverse_numerators(block_basis))
    assert inclusion.quotient_divisors == divisors
    return ReferenceStructure(
        kernel_image_agree=kernel_image_agree,
        rotated_block_agree=rotated_block_agree,
        omega_matches=omega_matches,
        inclusion=inclusion,
    )
