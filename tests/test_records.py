"""Value semantics of the package's small data classes: repr, equality,
hashing, refused assignment, constructor defaults and checks, ``replace``."""

from fractions import Fraction

import pytest

from sysbound.catalog import Space, projective_space, quadric
from sysbound.characteristic import ChernData, PowerSums
from sysbound.cones import (ConeProblem, ContractionReport, FactorReport,
                            Unbounded)
from sysbound.errors import (DivisionInconsistent, InvalidPresentation,
                             PreconditionUnmet)
from sysbound.graded import Generator, RingPresentation
from sysbound.grammar import (AtomNode, ProductNode, Token, TwistNode,
                              _Constructor)
from sysbound.lattices import (NormedLattice, ReducedDualBasis,
                               TransferenceReport)
from sysbound.pushforward import SymmetricPolynomial
from sysbound.values import PiScaled

_H = projective_space(2).primitive_x
_POINT = Space(name="pt", family="point", real_dim=0, b1=0, b2=0)
_POINT_REPR = (
    "Space(name='pt', family='point', real_dim=0, b1=0, b2=0, ring=None, "
    "is_complex=False, complex_dim=None, tangent_of=None, c1=None, "
    "a_hat_of=None, koszul=None, spin_c=None, primitive_x=None, odd_xi=None, "
    "fano_index=None, metadata_only=False, nef_rays=(), "
    "kahler_einstein=None, notes='', factor_embeddings=())")

#: one instance of each class and its repr, as the classes print them
_SAMPLES = [
    (Token("NAME", "CP", 0), "Token(kind='NAME', text='CP', pos=0)"),
    (_Constructor("S1", alias_of=("S", (1,))),
     "_Constructor(name='S1', fn=None, params=(), alias_of=('S', (1,)))"),
    (AtomNode("CP", (3,)), "AtomNode(name='CP', args=(3,))"),
    (TwistNode(AtomNode("Q", (4,)), -1),
     "TwistNode(inner=AtomNode(name='Q', args=(4,)), k=-1)"),
    (ProductNode(AtomNode("CP", (2,)), AtomNode("S", (1,))),
     "ProductNode(left=AtomNode(name='CP', args=(2,)), "
     "right=AtomNode(name='S', args=(1,)))"),
    (ConeProblem(space=_POINT, rays=()),
     "ConeProblem(space=%s, rays=())" % _POINT_REPR),
    (Unbounded(witness=_H), "Unbounded(witness=H)"),
    (FactorReport(factor=1, ambient_dim=3, degree_sum=2, k_negative=True,
                  fiber_dim=2, anticanonical_coeff=2),
     "FactorReport(factor=1, ambient_dim=3, degree_sum=2, k_negative=True, "
     "fiber_dim=2, anticanonical_coeff=2)"),
    (ContractionReport(dim=4, fano=True, admissible_p=2, factors=()),
     "ContractionReport(dim=4, fano=True, admissible_p=2, factors=())"),
    (SymmetricPolynomial(terms=(((1, 0), -1), ((0, 1), -1)), nvars=2),
     "SymmetricPolynomial(terms=(((1, 0), -1), ((0, 1), -1)), nvars=2)"),
    (ChernData(2, 1 + 3 * _H + 3 * _H ** 2),
     "ChernData(rank=2, total=1 + 3*H + 3*H^2)"),
    (PowerSums((3 * _H, 3 * _H ** 2)), "PowerSums(sums=(3*H, 3*H^2))"),
    (PiScaled(Fraction(1, 2), 1), "1/2 * pi"),
    (Generator("x", 2, False), "Generator(name='x', degree=2, odd=False)"),
    (RingPresentation([Generator("x", 2, False)], 4),
     "RingPresentation(generators=[Generator(name='x', degree=2, "
     "odd=False)], truncation=4, power_rules={}, pair_rules=(), pairing={})"),
    (_POINT, _POINT_REPR),
    (NormedLattice(basis=[[1, 0], [0, 1]], gram=[[2, 1], [1, 2]]),
     "NormedLattice(basis=[[Fraction(1, 1), Fraction(0, 1)], "
     "[Fraction(0, 1), Fraction(1, 1)]], gram=[[Fraction(2, 1), "
     "Fraction(1, 1)], [Fraction(1, 1), Fraction(2, 1)]], vertices=None)"),
    (TransferenceReport(lambda1_sq=Fraction(1),
                        dual_lambda_r_sq=Fraction(2, 3),
                        product_sq=Fraction(2, 3), rank=2),
     "TransferenceReport(lambda1_sq=Fraction(1, 1), dual_lambda_r_sq="
     "Fraction(2, 3), product_sq=Fraction(2, 3), rank=2)"),
    (ReducedDualBasis(vectors=((Fraction(1), Fraction(0)),),
                      dual_norms=(Fraction(2, 3),), lambda1=Fraction(1),
                      squared=True, rank=2),
     "ReducedDualBasis(vectors=((Fraction(1, 1), Fraction(0, 1)),), "
     "dual_norms=(Fraction(2, 3),), lambda1=Fraction(1, 1), squared=True, "
     "rank=2)"),
]
_IDS = [type(sample).__name__ for sample, _ in _SAMPLES]
#: assignable and unhashable: a token is never hashed or kept
_MUTABLE = (Token, Space, RingPresentation, NormedLattice)


def test_every_class_has_one_sample():
    assert len(set(_IDS)) == len(_IDS) == 19


@pytest.mark.parametrize("sample, text", _SAMPLES, ids=_IDS)
def test_repr_text(sample, text):
    assert repr(sample) == text


@pytest.mark.parametrize("sample, text", _SAMPLES, ids=_IDS)
def test_equality_is_by_fields_within_one_class(sample, text):
    same = type(sample).replace(sample)
    assert same is not sample
    assert same == sample and not same != sample
    for other, _ in _SAMPLES:
        # PiScaled compares with numbers only, and raises on anything else
        if other is not sample and PiScaled not in (type(sample), type(other)):
            assert sample != other and not sample == other


@pytest.mark.parametrize("sample, text", _SAMPLES, ids=_IDS)
def test_frozen_classes_hash_and_refuse_assignment(sample, text):
    cls = type(sample)
    if cls in _MUTABLE:
        assert cls.__hash__ is None
        with pytest.raises(TypeError):
            hash(sample)
        name = sample._fields[0]
        value = getattr(sample, name)
        setattr(sample, name, None)
        assert getattr(sample, name) is None
        setattr(sample, name, value)
        return
    if cls is ConeProblem:  # its space is unhashable, so it is too
        with pytest.raises(TypeError):
            hash(sample)
        assert hash(ConeProblem("pt", ())) == hash(("pt", ()))
    else:
        assert hash(sample) == hash(type(sample).replace(sample))
    name = sample._fields[0]
    with pytest.raises(AttributeError):
        setattr(sample, name, None)
    with pytest.raises(AttributeError):
        delattr(sample, name)
    assert getattr(sample, name) is not None


def test_own_methods_win_over_the_shared_ones():
    assert PiScaled(Fraction(1, 2), 1) == PiScaled(Fraction(1, 2), 1)
    assert PiScaled(Fraction(0), 3) == PiScaled(Fraction(0), 0) == 0
    assert hash(PiScaled(Fraction(0), 3)) == hash(PiScaled(Fraction(0), 0))
    assert str(Unbounded(_H)) == "UNBOUNDED"


def test_keyword_construction_and_defaults():
    assert PiScaled(q=Fraction(3)) == PiScaled(Fraction(3), 0)
    assert _Constructor(name="CP").params == ()
    first = RingPresentation(generators=[], truncation=0)
    second = RingPresentation([], 0)
    assert first == second
    first.power_rules["x"] = (1, {})
    first.pairing[(1,)] = Fraction(1)
    assert second.power_rules == {} and second.pairing == {}
    assert NormedLattice(basis=[[2]], gram=[[1]]) \
        == NormedLattice([[2]], [[1]], None)


def test_construction_checks_raise_typed_errors():
    with pytest.raises(InvalidPresentation, match="positive degree"):
        Generator("x", 0, False)
    with pytest.raises(InvalidPresentation, match="parity flag"):
        Generator("x", 2, True)
    with pytest.raises(DivisionInconsistent, match="start with 1"):
        ChernData(2, 3 * _H)
    with pytest.raises(PreconditionUnmet, match="basis is empty"):
        NormedLattice(basis=[], gram=[])
    with pytest.raises(PreconditionUnmet, match="exactly one"):
        NormedLattice(basis=[[1]], gram=[[1]], vertices=[[1], [-1]])
    with pytest.raises(PreconditionUnmet, match="odd dimensions"):
        Space(name="pt", family="point", real_dim=0, b1=0, b2=0, odd_xi=_H)


def test_the_polytope_normals_are_left_out_of_equality_and_repr():
    square = [[1, 1], [1, -1], [-1, 1], [-1, -1]]
    lattice = NormedLattice([[1, 0], [0, 1]], vertices=square)
    again = NormedLattice([[1, 0], [0, 1]], vertices=square)
    rows, den = again._coeff_normals
    again._coeff_normals = (rows[::-1], den)
    # the shared norm data, swapped for the polar square's
    again._norm = again._norm.dual
    assert lattice == again
    assert "normals" not in repr(lattice) and "_norm" not in repr(lattice)


def test_space_replace_keeps_recipes_and_drops_kept_values():
    space = quadric(4)
    kept = (space.tangent, space.a_hat_cls, space.todd_cls)
    assert all(value is not None for value in kept)
    copy = space.replace(notes="copied")
    assert copy.notes == "copied" and space.notes != "copied"
    for name in space._fields:
        if name != "notes":
            assert getattr(copy, name) is getattr(space, name), name
    for name in ("tangent", "a_hat_cls", "todd_cls"):
        assert name in vars(space) and name not in vars(copy), name
    assert copy.tangent == space.tangent and copy.tangent is not space.tangent
    with pytest.raises(PreconditionUnmet, match="odd dimensions"):
        space.replace(odd_xi=space.primitive_x)
