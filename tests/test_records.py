"""The record contract: every value record of the package is a
`core.Record`, built positionally or by keyword, immutable, equal only
to a record of its own type with equal fields, hashed by its fields,
printed as a dataclass prints, and picklable.  Importing the command
line loads none of `dataclasses`, `inspect` or `typing`."""

import dataclasses
import os
import pickle
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest

from apolar_kit.apolarity import GradedIdealPiece, apolar_ideal_piece, hilbert_function
from apolar_kit.core import Polynomial, Record
from apolar_kit.curvegen import (BihomSection, CurveGenerationError, CurveSpec,
                                 IdealReconstruction, _restriction_classes, ideal_pieces,
                                 random_section, sample_points, trigonal_curve)
from apolar_kit.pipeline import AlphaResult, alpha_for_curve
from apolar_kit.planemodel import (BlowupClass, PlaneModel, adjunction_check,
                                   higher_gonality_degree, nakai_certificate,
                                   tetragonal_numerology)
from apolar_kit.scroll import Scroll
from apolar_kit.seeding import make_rng
from apolar_kit.waring import fermat_detect_detail

SRC = Path(__file__).resolve().parent.parent / "src"

# a dict field makes these unhashable, as their dataclasses were
UNHASHABLE = {BihomSection, CurveSpec, IdealReconstruction}


@cache
def examples() -> dict:
    """One record of every type, by its type's name."""
    curve = trigonal_curve(5, 1)
    recon = ideal_pieces(curve, sample_points(curve, curve.guaranteed_point_count, 1))
    fermat = Polynomial(3, 3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})
    numerology = tetragonal_numerology(7)
    nakai = nakai_certificate(2)
    model = PlaneModel(6, (3, 2))
    records = [
        curve.scroll, curve.classes[0], curve.equations[0], curve, recon,
        apolar_ideal_piece(fermat, 2), hilbert_function(fermat),
        fermat_detect_detail(fermat, seed=5)[0],
        alpha_for_curve(curve, 1),
        model, BlowupClass(6, (-3, -2)), adjunction_check(model),
        numerology.branches[0], numerology, higher_gonality_degree(5, 2),
        nakai.ample, nakai,
    ]
    return {type(r).__name__: r for r in records}


def every_record_type(cls=Record):
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("apolar_kit."):
            yield sub
        yield from every_record_type(sub)


RECORD_NAMES = sorted(cls.__name__ for cls in every_record_type())


def rebuilt(record):
    """A fresh record of the same type from the same field values."""
    return type(record)(*record._values())


def test_every_record_type_has_an_example():
    assert len(RECORD_NAMES) == 17
    assert sorted(examples()) == RECORD_NAMES
    assert not any(dataclasses.is_dataclass(r) for r in examples().values())


@pytest.mark.parametrize("name", RECORD_NAMES)
class TestContract:
    def test_equality_is_by_type_and_fields(self, name):
        record = examples()[name]
        assert rebuilt(record) == record and not rebuilt(record) != record
        assert record != record._values()
        # a record of another type with the same name, fields and values
        other = type(name, (Record,), {"__annotations__": dict.fromkeys(record._fields, "object"),
                                       "__qualname__": type(record).__qualname__})
        assert other(*record._values()) != record
        assert repr(other(*record._values())) == repr(record)

    def test_equal_records_hash_equal(self, name):
        record = examples()[name]
        if type(record) in UNHASHABLE:
            with pytest.raises(TypeError, match="unhashable"):
                hash(record)
        else:
            assert hash(rebuilt(record)) == hash(record) == hash(record._values())

    def test_assignment_and_deletion_raise(self, name):
        record = examples()[name]
        for field in record._fields + ("unknown",):
            with pytest.raises(AttributeError):
                setattr(record, field, None)
            with pytest.raises(AttributeError):
                delattr(record, field)
        assert rebuilt(record) == record

    def test_repr_is_the_dataclass_text(self, name):
        record = examples()[name]
        twin = dataclasses.make_dataclass(name, record._fields, frozen=True)
        twin.__qualname__ = type(record).__qualname__
        assert repr(record) == repr(twin(*record._values()))

    def test_pickle_round_trip(self, name):
        record = examples()[name]
        back = pickle.loads(pickle.dumps(record))
        assert type(back) is type(record) and back == record
        assert repr(back) == repr(record)

    def test_keywords_build_what_positions_build(self, name):
        record = examples()[name]
        assert type(record)(**record._asdict()) == record
        with pytest.raises(TypeError, match="missing"):
            type(record)(**{field: value for field, value in record._asdict().items()
                            if field != record._fields[0]})
        with pytest.raises(TypeError, match="were given"):
            type(record)(*record._values(), None)
        with pytest.raises(TypeError, match="unexpected or repeated"):
            type(record)(*record._values(), **{record._fields[0]: None})
        with pytest.raises(TypeError, match="unexpected or repeated"):
            type(record)(*record._values(), unknown=None)


def test_reprs():
    scroll = Scroll((1, 2))
    assert repr(scroll) == "Scroll(type=(1, 2))"
    assert repr(scroll.cls(2, 1)) == "DivisorClass(h=2, f=1, scroll=Scroll(type=(1, 2)))"
    assert str(scroll.cls(2, 1)) == "2H+1F"
    assert repr(BlowupClass(3, (1, -1))) == "BlowupClass(a=3, b=(1, -1))"
    with pytest.raises(CurveGenerationError) as err:
        random_section(scroll, scroll.cls(0, -5), make_rng(1))
    assert str(err.value) == "class 0H-5F has no sections on Scroll(type=(1, 2))"


def test_fiber_hints_default_to_empty():
    curve = examples()["CurveSpec"]
    bare = CurveSpec(curve.genus, curve.gonality, curve.scroll, curve.classes,
                     curve.equations, seed=curve.seed)
    assert bare.rational_fiber_hints == ()
    assert bare.guaranteed_point_count == 0


@pytest.mark.parametrize("build, message", [
    (lambda: Scroll(()), "scroll type must be nonempty"),
    (lambda: Scroll((1, -1)), "scroll type entries must be >= 0"),
    (lambda: Scroll((0, 0)), "scroll type must not be identically zero"),
    (lambda: GradedIdealPiece(2, 3, (Polynomial(3, 3, {(3, 0, 0): 1}),)),
     "basis element has wrong degree or arity"),
    (lambda: GradedIdealPiece(2, 3, (Polynomial(2, 2, {(2, 0): 1}),)),
     "basis element has wrong degree or arity"),
    (lambda: PlaneModel(0, ()), "plane curve degree must be >= 1"),
    (lambda: PlaneModel(4, (2, 1)), "singular point multiplicities must be >= 2"),
])
def test_post_init_errors(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def test_section_image_is_outside_equality_and_repr():
    section = examples()["BihomSection"]
    assert section._fields == ("scroll", "cls", "coeffs")
    assert "image" not in repr(section)
    assert rebuilt(section).image == section.image
    # the image is the primitive integer form of the coefficients, so a
    # multiple of the section keeps it while the fields differ
    doubled = BihomSection(section.scroll, section.cls, {
        exp: Polynomial(2, form.degree, {e: 2 * c for e, c in form.terms.items()})
        for exp, form in section.coeffs.items()})
    assert doubled != section and doubled.image == section.image
    assert vars(section)["image"] is section.image


def test_alpha_caches_mu_and_cubic_on_first_read():
    alpha = rebuilt(examples()["AlphaResult"])
    assert not {"mu", "cubic"} & set(vars(alpha))
    cubic = alpha.cubic
    assert vars(alpha)["mu"] is alpha.mu and vars(alpha)["cubic"] is cubic
    assert alpha.cubic is cubic
    # derived values stay out of equality
    assert alpha == rebuilt(alpha)


def test_restriction_classes_cache_on_equal_scrolls():
    first = _restriction_classes(Scroll((1, 2, 2)), 2)
    assert _restriction_classes(Scroll((1, 2, 2)), 2) is first


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    """`-S` skips `site`, which on some installs preloads `typing`."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = ("import sys, apolar_kit.cli; "
             "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"

