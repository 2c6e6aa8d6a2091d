import argparse
import concurrent.futures
import enum
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import apolar_kit
from apolar_kit import cli, jsonio, pipeline
from apolar_kit.apolarity import apolar_ideal_piece
from apolar_kit.cli import _COMMANDS, build_parser, main
from apolar_kit.core import Polynomial, change_coordinates
from apolar_kit.curvegen import (BihomSection, CurveSpec, random_section, tetragonal_curve,
                                 trigonal_curve)
from apolar_kit.scroll import Scroll
from apolar_kit.seeding import make_rng, random_form
from apolar_kit.waring import fermat_detect_detail
import oracles


def fermat_json(n):
    poly = Polynomial(n, 3, {tuple(3 if i == j else 0 for j in range(n)): 1
                             for i in range(n)})
    return jsonio.polynomial_to_json(poly)


def run(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = main(list(argv) + ["--out", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


class TestJsonRoundTrips:
    def test_polynomial(self):
        poly = Polynomial(3, 3, {(1, 1, 1): Fraction(-7, 3), (3, 0, 0): 2})
        assert jsonio.polynomial_from_json(jsonio.polynomial_to_json(poly)) == poly

    def test_piece(self):
        piece = apolar_ideal_piece(jsonio.polynomial_from_json(fermat_json(3)), 2)
        back = jsonio.piece_from_json(jsonio.piece_to_json(piece))
        assert back == piece

    def test_curve(self):
        curve = trigonal_curve(5, seed=3)
        back = jsonio.curve_from_json(jsonio.curve_to_json(curve))
        assert back == curve

    @pytest.mark.parametrize("split", [(1, 1), (0, 2)])
    def test_tetragonal_curve(self, split):
        curve = tetragonal_curve(7, *split, seed=3)
        assert jsonio.curve_from_json(jsonio.curve_to_json(curve)) == curve

    def test_decomposition(self):
        dec, _ = fermat_detect_detail(jsonio.polynomial_from_json(fermat_json(3)), seed=1)
        data = jsonio.decomposition_to_json(dec)
        assert set(data) == {"rank", "nvars", "certificate", "residual",
                             "scheme_equation", "points"}
        assert data["rank"] == 3 and data["nvars"] == 3
        assert data["certificate"] == "exact" and data["residual"] == "0"
        assert [int(c) for c in data["scheme_equation"]] == list(dec.scheme_equation)
        assert [[int(c) for c in f] for f in data["points"]] == [list(f) for f in dec.points]


def write_polynomial(tmp_path, data):
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(data))
    return str(path)


class TestStrictPolynomialJson:
    """Malformed polynomials are input errors (exit 2), never coerced."""

    def test_repeated_exponent_is_input_error(self, tmp_path):
        data = {"nvars": 2, "degree": 3, "terms": [{"exp": [3, 0], "coef": "1"},
                                                   {"exp": [3, 0], "coef": "2"}]}
        with pytest.raises(ValueError, match="twice"):
            jsonio.polynomial_from_json(data)
        assert main(["apolar", "--in", write_polynomial(tmp_path, data)]) == 2

    @pytest.mark.parametrize("key", ["nvars", "degree", "exp"])
    def test_non_integer_is_input_error(self, tmp_path, key):
        data = {"nvars": 2, "degree": 3, "terms": [{"exp": [3, 0], "coef": "1"}]}
        if key == "exp":
            data["terms"] = [{"exp": [1.5, 1.5], "coef": "1"}]
        else:
            data[key] = data[key] + 0.7
        with pytest.raises(ValueError, match="integer"):
            jsonio.polynomial_from_json(data)
        assert main(["apolar", "--in", write_polynomial(tmp_path, data)]) == 2

    def test_non_integer_piece_and_curve_fields_are_input_errors(self, tmp_path):
        piece = jsonio.piece_to_json(apolar_ideal_piece(
            jsonio.polynomial_from_json(fermat_json(3)), 2))
        with pytest.raises(ValueError, match="integer"):
            jsonio.piece_from_json({**piece, "degree": 2.0})
        curve = jsonio.curve_to_json(trigonal_curve(5, seed=3))
        with pytest.raises(ValueError, match="integer"):
            jsonio.curve_from_json({**curve, "genus": "5"})
        path = tmp_path / "curve.json"
        path.write_text(json.dumps({**curve, "scroll": {"type": [1.0, 2]}}))
        assert main(["alpha", "--in", str(path), "--seed", "1"]) == 2
        for d in (3.7, True):
            path = tmp_path / "pieces.json"
            path.write_text(json.dumps({"d": d, "pieces": [piece]}))
            assert main(["inverse", "--in", str(path)]) == 2

    def test_piece_dim_must_match_its_basis(self, tmp_path):
        # "dim" 7 over a one-element basis used to run and fail on the socle (exit 1)
        piece = jsonio.piece_to_json(apolar_ideal_piece(
            jsonio.polynomial_from_json(fermat_json(3)), 2))
        short = {**piece, "dim": 7, "basis": piece["basis"][:1]}
        with pytest.raises(ValueError, match="dim 7"):
            jsonio.piece_from_json(short)
        no_dim = {k: v for k, v in piece.items() if k != "dim"}
        for bad in (short, {**piece, "dim": 3.0}, {**piece, "dim": True}, no_dim):
            path = tmp_path / "pieces.json"
            path.write_text(json.dumps({"d": 3, "pieces": [bad]}))
            assert main(["inverse", "--in", str(path)]) == 2

    def test_boolean_coefficient_is_input_error(self, tmp_path):
        data = {"nvars": 2, "degree": 3, "terms": [{"exp": [3, 0], "coef": True}]}
        with pytest.raises(ValueError, match="coefficients"):
            jsonio.polynomial_from_json(data)
        assert main(["apolar", "--in", write_polynomial(tmp_path, data)]) == 2


def _set(*path_and_value):
    """An edit of a curve file: the value at the given path of keys."""
    *path, key, value = path_and_value

    def edit(data):
        for step in path:
            data = data[step]
        data[key] = value
    return edit


MALFORMED_CURVES = {
    "gonality-4": _set("gonality", 4),
    "gonality-7": _set("gonality", 7),
    "fiber-exp-not-a-template": _set("equations", 0, "terms", 0, "fiber_exp", [9, 9]),
    "class-2H": _set("classes", 0, "h", 2),
    "genus-9": _set("genus", 9),
    "hint-1/0": _set("rational_fiber_hints", 0, "1/0"),
    "hint-repeated": lambda data: data["rational_fiber_hints"].append(
        data["rational_fiber_hints"][0]),
}


class TestStrictCurveJson:
    """A curve file must be a curve the generators could have built."""

    @pytest.fixture(scope="class")
    def curve(self):
        return jsonio.curve_to_json(trigonal_curve(6, seed=1))

    @pytest.mark.parametrize("edit", MALFORMED_CURVES.values(), ids=MALFORMED_CURVES)
    def test_malformed_curve_is_input_error(self, curve, edit, tmp_path, capsys):
        data = json.loads(json.dumps(curve))
        edit(data)
        with pytest.raises(ValueError):
            jsonio.curve_from_json(data)
        path = tmp_path / "curve.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "report.json"
        assert main(["alpha", "--in", str(path), "--seed", "1", "--out", str(out)]) == 2
        assert "input error" in capsys.readouterr().err
        assert not out.exists()

    def test_sections_must_fit_their_class(self, curve):
        data = json.loads(json.dumps(curve))
        terms = data["equations"][0]["terms"]
        terms.append(terms[0])
        with pytest.raises(ValueError, match="twice"):
            jsonio.curve_from_json(data)
        terms.pop()
        terms[0]["base"]["terms"] = [{"exp": [1, 0], "coef": "1"}]
        terms[0]["base"]["degree"] = 1
        with pytest.raises(ValueError, match="degree"):
            jsonio.curve_from_json(data)

    def test_tetragonal_classes_must_split_g_minus_5(self):
        data = jsonio.curve_to_json(tetragonal_curve(7, 0, 2, seed=1))
        for edit, match in ((_set("classes", 0, "f", 1), "not those"),
                            (_set("classes", 1, "f", -3), "not those"),
                            (lambda d: d["equations"].reverse(), "its curve class")):
            bad = json.loads(json.dumps(data))
            edit(bad)
            with pytest.raises(ValueError, match=match):
                jsonio.curve_from_json(bad)


    def _alpha_on(self, tmp_path, curve):
        path = tmp_path / "curve.json"
        path.write_text(json.dumps(jsonio.curve_to_json(curve)))
        out = tmp_path / "report.json"
        code = main(["alpha", "--in", str(path), "--seed", "1", "--out", str(out)])
        assert not out.exists()
        return code

    def test_tetragonal_file_with_only_reducible_surfaces_is_input_error(self, tmp_path,
                                                                         capsys):
        # 2H - 5F on S(2, 2, 3): 5 > min(e1 + e3, 2 e2) = 4, so every
        # section is reducible; `tetragonal_curve` refuses the split (0, 5)
        scroll = Scroll((2, 2, 3))
        classes = scroll.cls(2, 0), scroll.cls(2, -5)
        rng = make_rng(1)
        curve = CurveSpec(10, 4, scroll, classes,
                          tuple(random_section(scroll, c, rng) for c in classes), 1)
        with pytest.raises(ValueError, match="only reducible surfaces"):
            jsonio.curve_from_json(jsonio.curve_to_json(curve))
        assert self._alpha_on(tmp_path, curve) == 2
        assert "only reducible surfaces" in capsys.readouterr().err

    def test_trigonal_file_containing_a_fiber_is_input_error(self, tmp_path, capsys):
        # s times a section of 3H - 4F on S(2, 3): every base form has the
        # factor s, so the curve contains the fiber s = 0
        scroll = Scroll((2, 3))
        residual = random_section(scroll, scroll.cls(3, -4), make_rng(1))
        cls = scroll.cls(3, -3)
        coeffs = {exp: Polynomial(2, form.degree + 1, {(a + 1, b): c
                                                       for (a, b), c in form.terms.items()})
                  for exp, form in residual.coeffs.items()}
        curve = CurveSpec(7, 3, scroll, (cls,), (BihomSection(scroll, cls, coeffs),), 1)
        with pytest.raises(ValueError, match="contains a fiber"):
            jsonio.curve_from_json(jsonio.curve_to_json(curve))
        assert self._alpha_on(tmp_path, curve) == 2
        assert "contains a fiber" in capsys.readouterr().err


class TestStrictCoefficients:
    """A coefficient string reads "p" or "p/q" in ASCII digits and nothing
    else, wherever a command reads one; `Fraction` alone accepts each of
    these."""

    LOOSE = ["1.5", "1e3", "1_000", " 3/4 ", "+2"]

    @staticmethod
    def rejected(argv, capsys):
        code = main(argv)
        return code == 2 and "p/q" in capsys.readouterr().err

    @pytest.mark.parametrize("raw", LOOSE)
    def test_polynomial_coefficient(self, tmp_path, capsys, raw):
        form = fermat_json(3)
        form["terms"][0]["coef"] = raw
        with pytest.raises(ValueError, match="p/q"):
            jsonio.polynomial_from_json(form)
        path = write_polynomial(tmp_path, form)
        assert self.rejected(["apolar", "--in", path], capsys)
        assert self.rejected(["fermat", "--in", path, "--seed", "1"], capsys)
        # the same value written as p/q runs
        form["terms"][0]["coef"] = str(Fraction(raw))
        assert main(["apolar", "--in", write_polynomial(tmp_path, form)]) == 0

    @pytest.mark.parametrize("raw", LOOSE)
    def test_piece_coefficient(self, tmp_path, capsys, raw):
        piece = jsonio.piece_to_json(apolar_ideal_piece(
            jsonio.polynomial_from_json(fermat_json(3)), 2))
        piece["basis"][0]["terms"][0]["coef"] = raw
        path = tmp_path / "pieces.json"
        path.write_text(json.dumps({"d": 3, "pieces": [piece]}))
        assert self.rejected(["inverse", "--in", str(path)], capsys)

    @pytest.mark.parametrize("raw", LOOSE)
    @pytest.mark.parametrize("where", [
        ("equations", 0, "terms", 0, "base", "terms", 0, "coef"),
        ("rational_fiber_hints", 0)], ids=["base-form", "hint"])
    def test_curve_coefficient(self, tmp_path, capsys, raw, where):
        data = jsonio.curve_to_json(trigonal_curve(6, seed=1))
        _set(*where, raw)(data)
        path = tmp_path / "curve.json"
        path.write_text(json.dumps(data))
        assert self.rejected(["alpha", "--in", str(path), "--seed", "1"], capsys)


def exit_code(argv):
    """main's return code, or argparse's exit status when it stops."""
    try:
        return main(argv)
    except SystemExit as stop:
        return stop.code


class Reached(Exception):
    """Raised by a stand-in trial: the command got past its input checks."""


def reach(args):
    raise Reached


# each flag with a value it accepts, and ways of writing that value that
# `int` reads but the strict grammar refuses
INTEGER_FLAGS = {
    "g": (["numerology", "--g", "{}"], "7"),
    "seed": (["verify-a", "--g", "5", "--trials", "1", "--seed", "{}"], "1"),
    "trials": (["verify-a", "--g", "5", "--trials", "{}", "--seed", "1"], "1"),
    "type": (["scroll", "--type", "1,{}", "--op", "canonical"], "2"),
    "class": (["scroll", "--type", "1,2", "--class", "1,{}", "--op", "degree"], "1"),
    "split": (["verify-b", "--g", "7", "--split", "1,{}", "--trials", "1", "--seed", "1"],
              "1"),
}
LOOSE_SPELLINGS = {
    "underscore": "0_{}".format, "space-before": " {}".format, "space-after": "{} ".format,
    "plus": "+{}".format, "arabic-indic": lambda v: v.translate({48 + k: 0x660 + k
                                                                  for k in range(10)}),
}


class TestStrictIntegers:
    """An integer flag or list part reads ASCII digits with an optional
    leading minus and nothing else; `int` alone accepts each loose
    spelling, and read it as the accepted value."""

    @pytest.mark.parametrize("argv", [
        ["scroll", "--type", "1_1,2", "--op", "canonical"],
        ["scroll", "--type", "\u0661,\u0662", "--op", "canonical"],
        ["numerology", "--g", "1_2"]], ids=["type-underscore", "type-arabic", "g-underscore"])
    def test_loosely_written_integers_exit_two(self, argv, tmp_path):
        out = tmp_path / "report.json"
        assert exit_code([*argv, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("spelling", LOOSE_SPELLINGS.values(), ids=LOOSE_SPELLINGS)
    @pytest.mark.parametrize("template, value", INTEGER_FLAGS.values(), ids=INTEGER_FLAGS)
    def test_every_integer_flag_is_strict(self, template, value, spelling, tmp_path,
                                          monkeypatch):
        monkeypatch.setattr(pipeline, "_trial", reach)
        out = tmp_path / "report.json"
        assert exit_code([part.format(spelling(value)) for part in template]
                         + ["--out", str(out)]) == 2
        assert not out.exists()
        # the value itself passes every input check
        try:
            assert main([part.format(value) for part in template] + ["--out", str(out)]) == 0
        except Reached:
            pass


class TestCommands:
    def test_numerology_genus_seven(self, tmp_path):
        code, report = run(tmp_path, "numerology", "--g", "7")
        assert code == 0
        assert report["multiplicities"] == [3, 3, 2, 2]
        assert report["degS"] == 6
        assert "claim" in report

    def test_scroll_degree(self, tmp_path):
        code, report = run(tmp_path, "scroll", "--type", "1,1,2",
                           "--class", "2,-2", "--op", "degree")
        assert code == 0 and report["result"] == 6

    def test_scroll_chow(self, tmp_path):
        code, report = run(tmp_path, "scroll", "--type", "1,1,2",
                           "--classes", "1,0;1,0;1,0", "--op", "chow")
        assert code == 0 and report["result"] == 4

    def test_fermat_command(self, tmp_path):
        poly_path = tmp_path / "cubic.json"
        poly_path.write_text(json.dumps(fermat_json(4)))
        code, report = run(tmp_path, "fermat", "--in", str(poly_path),
                           "--seed", "1")
        assert code == 0 and report["fermat"] and report["reason"] == "ok"
        dec = report["decomposition"]
        assert dec["rank"] == 4 and dec["certificate"] == "exact"
        assert dec["residual"] == "0" and len(dec["scheme_equation"]) == 5
        assert len(dec["points"]) == 4

    @pytest.mark.parametrize("option", [["--precision-bits", "64"], ["--tolerance", "1e-9"]],
                             ids=["precision-bits", "tolerance"])
    def test_fermat_takes_no_precision_options(self, tmp_path, option):
        poly_path = tmp_path / "cubic.json"
        poly_path.write_text(json.dumps(fermat_json(3)))
        with pytest.raises(SystemExit) as err:
            main(["fermat", "--in", str(poly_path), "--seed", "1", *option])
        assert err.value.code == 2

    @pytest.mark.parametrize("argv", [["verify-a", "--g", "5"], ["verify-b", "--g", "6"]],
                             ids=["verify-a", "verify-b"])
    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_below_one_are_input_errors(self, argv, trials):
        assert main([*argv, "--trials", trials, "--seed", "1"]) == 2

    @pytest.mark.parametrize("argv", [
        ["curve-gen", "--g", "5", "--gonality", "3", "--points", "-3", "--seed", "1"],
        ["curve-gen", "--g", "5", "--gonality", "3", "--split", "9,9", "--seed", "1"],
        ["alpha", "--g", "5", "--gonality", "3", "--split", "9,9", "--seed", "1"],
        ["nakai", "--k", "3", "--a-max", "-5"],
        ["curve-gen", "--g", "12", "--gonality", "4", "--split", "0,7", "--seed", "1"],
        ["curve-gen", "--g", "13", "--gonality", "4", "--split", "0,8", "--seed", "1"],
        ["alpha", "--g", "10", "--gonality", "4", "--split", "0,5", "--seed", "1"]],
        ids=["negative-points", "curve-gen-trigonal-split", "alpha-trigonal-split",
             "negative-a-max", "curve-gen-split-without-sections",
             "curve-gen-reducible-split", "alpha-reducible-split"])
    def test_values_out_of_range_are_input_errors(self, argv, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main([*argv, "--out", str(out)]) == 2
        assert "input error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, flag", [
        (["scroll", "--type", "1,,2", "--class", "2,-2", "--op", "degree"], "--type"),
        (["scroll", "--type", "", "--op", "canonical"], "--type"),
        (["scroll", "--type", "1,1,2", "--class", "2,", "--op", "degree"], "--class"),
        (["scroll", "--type", "1,1,2", "--classes", "1,0;1,0;", "--op", "chow"], "--classes"),
        (["verify-b", "--g", "7", "--split", "1,1,", "--trials", "1", "--seed", "1"],
         "--split"),
        (["verify-b", "--g", "7", "--split", "", "--trials", "1", "--seed", "1"], "--split"),
        (["curve-gen", "--g", "7", "--gonality", "4", "--split", "", "--seed", "1"],
         "--split"),
        (["alpha", "--g", "5", "--gonality", "3", "--split", "", "--seed", "1"], "--split")],
        ids=["empty-type-part", "empty-type", "empty-class-part", "empty-classes-part",
             "trailing-split-comma", "empty-split", "empty-curve-gen-split",
             "empty-trigonal-split"])
    def test_malformed_integer_lists_are_input_errors(self, argv, flag, tmp_path, capsys,
                                                      monkeypatch):
        def no_trial(args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(pipeline, "_trial", no_trial)
        out = tmp_path / "report.json"
        assert main([*argv, "--out", str(out)]) == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, flag", [
        (["curve-gen", "--g", "7", "--gonality", "4", "--split", "1,1,0", "--seed", "1"],
         "--split"),
        (["alpha", "--g", "7", "--gonality", "4", "--split", "2", "--seed", "1"], "--split"),
        (["verify-b", "--g", "7", "--split", "2", "--trials", "1", "--seed", "1"], "--split"),
        (["verify-b", "--g", "7", "--split", "0,1,1", "--trials", "1", "--seed", "1"],
         "--split"),
        (["scroll", "--type", "1,1,2", "--class", "2", "--op", "degree"], "--class"),
        (["scroll", "--type", "1,1,2", "--class", "2,-1,0", "--op", "sections"], "--class"),
        (["scroll", "--type", "1,1,2", "--classes", "1;1,0;1,0", "--op", "chow"], "--classes"),
        (["scroll", "--type", "1,1,2", "--classes", "1,0;1,0;1,0,0", "--op", "chow"],
         "--classes")],
        ids=["curve-gen-split-3", "alpha-split-1", "verify-b-split-1", "verify-b-split-3",
             "class-1", "class-3", "first-classes-part-1", "last-classes-part-3"])
    def test_wrong_counts_name_the_flag(self, argv, flag, tmp_path, capsys, monkeypatch):
        def no_trial(args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(pipeline, "_trial", no_trial)
        out = tmp_path / "report.json"
        assert main([*argv, "--out", str(out)]) == 2
        assert f"input error: {flag} takes 2 comma-separated integers" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("option", [["--g", "9"], ["--gonality", "4"], ["--split", "9,9"]],
                             ids=["g", "gonality", "split"])
    def test_curve_options_with_a_curve_file_are_input_errors(self, option, tmp_path, capsys):
        # the file fixes the curve; a flag that would choose another one is
        # rejected, not ignored
        path = tmp_path / "curve.json"
        path.write_text(json.dumps(jsonio.curve_to_json(trigonal_curve(5, seed=3))))
        out = tmp_path / "report.json"
        assert main(["alpha", "--in", str(path), *option, "--seed", "1",
                     "--out", str(out)]) == 2
        assert "input error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("split", ["0,3", "-1,3", "2", "0,1,1"])
    def test_bad_split_is_input_error_before_any_trial(self, monkeypatch, split):
        def no_trial(args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(pipeline, "_trial", no_trial)
        assert main(["verify-b", "--g", "7", f"--split={split}", "--trials", "1",
                     "--seed", "1"]) == 2

    @pytest.mark.parametrize("g, split", [(10, "0,5"), (11, "0,6"), (11, "6,0")])
    def test_reducible_split_is_input_error_before_any_trial(self, monkeypatch, capsys,
                                                             g, split):
        def no_trial(args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(pipeline, "_trial", no_trial)
        assert main(["verify-b", "--g", str(g), "--split", split, "--trials", "1",
                     "--seed", "1"]) == 2
        assert "only reducible surfaces" in capsys.readouterr().err

    @pytest.mark.parametrize("g", [5, 31])
    def test_genus_past_the_guard_is_input_error_before_any_trial(self, monkeypatch, capsys,
                                                                  g):
        def no_trial(args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(pipeline, "_trial", no_trial)
        assert main(["verify-b", "--g", str(g), "--trials", "1", "--seed", "1"]) == 2
        assert "genus 6 through 30" in capsys.readouterr().err

    def test_apolar_command(self, tmp_path):
        poly_path = tmp_path / "cubic.json"
        poly_path.write_text(json.dumps(fermat_json(3)))
        code, report = run(tmp_path, "apolar", "--in", str(poly_path), "--k", "2")
        assert code == 0
        assert report["hilbert"] == [1, 3, 3, 1]
        assert report["piece"]["dim"] == 3

    def test_inverse_command(self, tmp_path):
        poly = jsonio.polynomial_from_json(fermat_json(3))
        pieces = [jsonio.piece_to_json(apolar_ideal_piece(poly, k))
                  for k in (1, 2, 3)]
        in_path = tmp_path / "pieces.json"
        in_path.write_text(json.dumps({"d": 3, "pieces": pieces}))
        code, report = run(tmp_path, "inverse", "--in", str(in_path))
        assert code == 0
        assert jsonio.polynomial_from_json(report["form"]) == poly

    def test_curve_gen_and_alpha(self, tmp_path):
        code, report = run(tmp_path, "curve-gen", "--g", "5", "--gonality", "3",
                           "--seed", "11")
        assert code == 0
        assert report["ideal"]["degree2_dim"] == 3
        assert report["ideal"]["dims_expected"]
        curve_path = tmp_path / "curve.json"
        curve_path.write_text(json.dumps(report["curve"]))
        code, report = run(tmp_path, "alpha", "--in", str(curve_path),
                           "--seed", "11")
        assert code == 0 and report["hilbert"] == [1, 3, 3, 1]

    def test_verify_a(self, tmp_path):
        code, report = run(tmp_path, "verify-a", "--g", "5", "--trials", "1",
                           "--seed", "5")
        assert code == 0 and report["passed"]

    def test_verify_b(self, tmp_path):
        code, report = run(tmp_path, "verify-b", "--g", "6", "--trials", "1",
                           "--seed", "6")
        assert code == 0 and report["passed"]
        assert report["bound"] == 6

    def test_failing_certificate_is_a_failed_trial(self, tmp_path, monkeypatch):
        # every certificate of every hyperplane pair fails: the squarefree
        # check of the scroll's D on a trigonal curve, and of each surface's
        # on a tetragonal one
        def fail(*args):
            raise pipeline.CertificateError("(a) the scheme equation is not squarefree "
                                            "of degree 4")

        monkeypatch.setattr(pipeline, "_certify_roots", fail)
        for command, per_pair, prefix in (("verify-a", 1, "certificate: "),
                                          ("verify-b", 2, "surface b=")):
            code, report = run(tmp_path, command, "--g", "6", "--trials", "1",
                               "--seed", "8")
            assert code == 1 and report["passed"] is False
            failures = report["trials"][0]["failures"]
            assert len(failures) == 5 * per_pair
            assert all(f.startswith(prefix) and "(a)" in f for f in failures)

    @pytest.mark.parametrize("command, option", [
        (command, option)
        for command in (["alpha", "--gonality", "3"], ["verify-a"], ["verify-b"])
        for option in (["--tolerance", "1e-9"], ["--precision-bits", "64"])],
        ids=["option0", "option1", "verify-a-option0", "verify-a-option1",
             "verify-b-option0", "verify-b-option1"])
    def test_alpha_takes_no_precision_options(self, command, option):
        with pytest.raises(SystemExit) as err:
            main([*command, "--g", "5", "--seed", "1", *option])
        assert err.value.code == 2

    def test_nakai(self, tmp_path):
        code, report = run(tmp_path, "nakai", "--k", "3", "--a-max", "20")
        assert code == 0 and report["holds"]
        assert report["ample_self_intersection"] == 9

    def test_gonality_n(self, tmp_path):
        code, report = run(tmp_path, "gonality-n", "--n", "5", "--k", "2")
        assert code == 0 and report["deg_surface"] == 9

    def test_malformed_json_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["apolar", "--in", str(bad)])
        assert code == 2

    def test_missing_file_is_input_error(self, tmp_path):
        code = main(["apolar", "--in", str(tmp_path / "absent.json")])
        assert code == 2

    def test_directory_as_input_is_input_error(self, tmp_path, capsys):
        assert main(["apolar", "--in", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("input error: ")

    @pytest.mark.parametrize("failing", [False, True], ids=["success", "failure"])
    def test_directory_as_output_is_input_error(self, tmp_path, capsys, failing):
        # the report is written after the command ran: its success report,
        # or the failure payload of exit code 1, cannot land in a directory
        if failing:
            piece = jsonio.piece_to_json(apolar_ideal_piece(
                jsonio.polynomial_from_json(fermat_json(3)), 2))
            in_path = tmp_path / "pieces.json"
            in_path.write_text(json.dumps({"d": 3, "pieces": [piece]}))
            argv = ["inverse", "--in", str(in_path)]
        else:
            argv = ["scroll", "--type", "1,2", "--op", "canonical"]
        assert run(tmp_path, *argv)[0] == int(failing)
        capsys.readouterr()
        assert main(argv + ["--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("input error: ") and captured.out == ""

    def test_socle_failure_is_exit_one(self, tmp_path):
        # a single degree-2 piece with a huge solution space
        piece = jsonio.piece_to_json(apolar_ideal_piece(
            jsonio.polynomial_from_json(fermat_json(3)), 2))
        in_path = tmp_path / "pieces.json"
        in_path.write_text(json.dumps({"d": 3, "pieces": [piece]}))
        code, report = run(tmp_path, "inverse", "--in", str(in_path))
        assert code == 1
        assert not report["passed"]

    def test_determinism(self, tmp_path):
        _, r1 = run(tmp_path, "verify-a", "--g", "5", "--trials", "1", "--seed", "9")
        _, r2 = run(tmp_path, "verify-a", "--g", "5", "--trials", "1", "--seed", "9")
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)

    def test_console_script(self):
        src = str(Path(apolar_kit.__file__).resolve().parent.parent)
        result = subprocess.run(
            [sys.executable, "-m", "apolar_kit.cli", "numerology", "--g", "9"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
        assert result.returncode == 0
        report = json.loads(result.stdout)
        assert report["degS"] == 9 and report["multiplicities"] == [3, 3, 3, 3]

    def test_fermat_leaves_out_mpmath(self, tmp_path):
        poly_path = tmp_path / "cubic.json"
        poly_path.write_text(json.dumps(fermat_json(3)))
        src = str(Path(apolar_kit.__file__).resolve().parent.parent)
        script = ("import sys\n"
                  "from apolar_kit.cli import main\n"
                  f"code = main(['fermat', '--in', {str(poly_path)!r}, '--seed', '1',"
                  f" '--out', {str(tmp_path / 'out.json')!r}])\n"
                  "print(code, 'mpmath' in sys.modules)")
        result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                                text=True, env={**os.environ, "PYTHONPATH": src})
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["0", "False"]

    def test_import_leaves_out_sympy(self):
        src = str(Path(apolar_kit.__file__).resolve().parent.parent)
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys, apolar_kit.cli; print('sympy' in sys.modules)"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"

    def test_import_leaves_out_the_process_pool(self):
        # a serial run never needs concurrent.futures or multiprocessing
        src = str(Path(apolar_kit.__file__).resolve().parent.parent)
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys, apolar_kit.cli; "
             "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"


def parse_outcome(parse, argv, capsys):
    """Exit code, stdout and stderr of a parse that ends the program."""
    with pytest.raises(SystemExit) as stop:
        parse(argv)
    return (stop.value.code, *capsys.readouterr())


class TestParser:
    @pytest.mark.parametrize("argv", [
        ["--help"], [], ["bogus"], *([name, "-h"] for name in _COMMANDS),
        ["fermat", "--seed", "1"], ["fermat", "--in", "x", "--seed", "1", "extra"]],
        ids=["help", "empty", "bogus", *(f"{name}-h" for name in _COMMANDS),
             "missing-required", "extra"])
    def test_main_prints_what_the_full_parser_prints(self, argv, capsys):
        # main parses with the parser built at import, and prints what a
        # parser built anew prints
        full = parse_outcome(build_parser().parse_args, argv, capsys)
        assert parse_outcome(main, argv, capsys) == full
        if argv[-1:] == ["extra"]:
            assert ",".join(_COMMANDS) in full[2]


class TestProcessCount:
    """APOLAR_KIT_THREADS is the number of worker processes for the trials."""

    @pytest.mark.parametrize("value", ["two", "-1", "1.5", "\u0662", "-0"])
    def test_bad_value_is_input_error(self, monkeypatch, value):
        monkeypatch.setenv("APOLAR_KIT_THREADS", value)
        assert main(["verify-a", "--g", "5", "--trials", "1", "--seed", "5"]) == 2

    def test_pool_never_exceeds_trials(self, tmp_path, monkeypatch):
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setenv("APOLAR_KIT_THREADS", "64")
        code, report = run(tmp_path, "verify-a", "--g", "5", "--trials", "2",
                           "--seed", "5")
        assert code == 0 and report["passed"]
        assert sizes == [2]

    @pytest.mark.parametrize("argv", [
        ["verify-a", "--g", "5", "--trials", "2", "--seed", "5"],
        ["verify-b", "--g", "6", "--trials", "2", "--seed", "6"],
    ])
    def test_parallel_report_equals_serial(self, tmp_path, monkeypatch, argv):
        reports = []
        for threads in ("0", "2"):
            monkeypatch.setenv("APOLAR_KIT_THREADS", threads)
            out = tmp_path / f"report{threads}.json"
            assert main(argv + ["--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]


# one small case of every command; `{name}` is an input file made below
GUARDED = {
    "apolar": ["apolar", "--in", "{cubic}"],
    "apolar-k": ["apolar", "--in", "{cubic}", "--k", "2"],
    "inverse": ["inverse", "--in", "{pieces}"],
    "fermat": ["fermat", "--in", "{cubic}", "--seed", "1"],
    "scroll": ["scroll", "--type", "1,1,2", "--op", "sections", "--class", "2,-1"],
    "curve-gen-3": ["curve-gen", "--g", "5", "--gonality", "3", "--seed", "1"],
    "curve-gen-4": ["curve-gen", "--g", "6", "--gonality", "4", "--seed", "1"],
    "alpha": ["alpha", "--g", "6", "--gonality", "3", "--seed", "1"],
    "alpha-in": ["alpha", "--in", "{curve}", "--seed", "1"],
    "verify-a": ["verify-a", "--g", "5", "--trials", "1", "--seed", "1"],
    "verify-b": ["verify-b", "--g", "6", "--trials", "1", "--seed", "1"],
    "numerology": ["numerology", "--g", "9"],
    "nakai": ["nakai", "--k", "3", "--a-max", "10"],
    "gonality-n": ["gonality-n", "--n", "5", "--k", "2"],
}


class TestRationalLayerIsDead:
    """`core.ExactMatrix`, `change_coordinates` and `substitute` stay in the
    package only for the bench tracer; no command reaches them."""

    def test_every_command_is_guarded(self):
        assert {argv[0] for argv in GUARDED.values()} == set(_COMMANDS)

    @pytest.mark.parametrize("name", GUARDED)
    def test_command_runs_without_it(self, name, tmp_path, monkeypatch):
        argv = guarded_argvs(tmp_path)[name]
        monkeypatch.delenv("APOLAR_KIT_THREADS", raising=False)
        expected = run(tmp_path, *argv)
        oracles.refuse_rational_layer(monkeypatch)
        assert run(tmp_path, *argv) == expected
        assert expected[0] == 0


def guarded_argvs(tmp_path):
    """The cases of GUARDED, by name, with their input files written under tmp_path."""
    cubic = jsonio.polynomial_from_json(fermat_json(3))
    inputs = {"cubic": fermat_json(3),
              "pieces": {"d": 3, "pieces": [jsonio.piece_to_json(apolar_ideal_piece(cubic, k))
                                            for k in (1, 2, 3)]},
              "curve": jsonio.curve_to_json(tetragonal_curve(6, 0, 1, seed=3))}
    paths = {}
    for name, data in inputs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(data))
    return {name: [arg.format(**paths) for arg in argv] for name, argv in GUARDED.items()}


class TestOneParser:
    """`main` parses every call with the one parser `cli` built at import
    and runs the handler the module holds under the command's name."""

    def test_a_replaced_handler_runs(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_cmd_numerology", lambda args: {"replaced": args.g})
        assert run(tmp_path, "numerology", "--g", "9") == (0, {"replaced": 9})

    def test_calls_share_no_parser_state(self, tmp_path, monkeypatch):
        # every case of GUARDED twice, in turn: `apolar --k 2` between two
        # `apolar` calls, `alpha --in` between two `alpha` calls without one
        monkeypatch.delenv("APOLAR_KIT_THREADS", raising=False)
        out = tmp_path / "report.json"
        first = {}
        for name, argv in [*guarded_argvs(tmp_path).items()] * 2:
            out.unlink(missing_ok=True)
            assert main(argv + ["--out", str(out)]) == 0
            assert out.read_bytes() == first.setdefault(name, out.read_bytes()), name

    def test_main_builds_no_parser(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("main built a parser")

        argvs = guarded_argvs(tmp_path)
        monkeypatch.delenv("APOLAR_KIT_THREADS", raising=False)
        monkeypatch.setattr(cli, "build_parser", refuse)
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
        for name, argv in argvs.items():
            assert run(tmp_path, *argv)[0] == 0, name


def dumps(value):
    return json.dumps(value, indent=2, sort_keys=True)


# keys and strings with quotes, backslashes, control and non-ASCII characters
TEXT = st.text(st.sampled_from('a"\\/\x00\x1f\x7f \n\t\u00e9\u2028\ud800\U0001f600')
               | st.characters(), max_size=6)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-10 ** 90, 10 ** 90)
    | st.floats() | TEXT,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(TEXT, inner, max_size=4)),
    max_leaves=30)


class TestReportWriter:
    """`jsonio.report_text` writes what `json.dumps` with a two-space
    indent and sorted keys writes, and refuses what it refuses."""

    @settings(max_examples=400, deadline=None)
    @given(JSON_VALUES)
    def test_writes_what_json_dumps_writes(self, value):
        assert jsonio.report_text(value) == dumps(value)

    def test_subclasses_are_written_as_their_base(self):
        class Level(enum.IntEnum):
            HIGH = 7

        class Name(str):
            pass

        class Ratio(float):
            pass

        value = {"b": [Level.HIGH, Name("x\u00e9")], "a": (Ratio(0.5), Ratio("nan"))}
        assert jsonio.report_text(value) == dumps(value)

    @pytest.mark.parametrize("value", [Fraction(1, 2), {1, 2}, b"ab", [[Fraction(1)]],
                                       {"a": {"b": frozenset()}}],
                             ids=["Fraction", "set", "bytes", "nested", "in-dict"])
    def test_other_values_raise_type_error(self, value):
        with pytest.raises(TypeError):
            dumps(value)
        with pytest.raises(TypeError):
            jsonio.report_text(value)

    @pytest.mark.parametrize("key", [1, None, True, 1.5, (1,)])
    def test_a_key_that_is_no_str_raises_type_error(self, key):
        with pytest.raises(TypeError):
            jsonio.report_text({key: 1})


def recorded_reports(monkeypatch):
    """The reports `main` hands to `_emit`, appended to the returned list."""
    reports, emit = [], cli._emit

    def record(report, out_path):
        reports.append(report)
        emit(report, out_path)
    monkeypatch.setattr(cli, "_emit", record)
    return reports


def sweep_forms(n, seed):
    """A random cubic with 10-bit coefficients and a Fermat cubic moved by
    an invertible matrix, in n variables."""
    rng = make_rng(seed)
    fermat = Polynomial(n, 3, {tuple(3 * (i == j) for j in range(n)): 1 for i in range(n)})
    return {"random": random_form(n, 3, rng, bound=2 ** 10),
            "fermat": change_coordinates(fermat, oracles.random_invertible_matrix(n, rng))}


class TestEmittedReports:
    """Every report `_emit` writes, to stdout or `--out`, is the text of
    `json.dumps(report, indent=2, sort_keys=True)` and a newline."""

    @pytest.mark.parametrize("argv", [
        *(["verify-a", "--g", str(g)] for g in range(5, 9)),
        ["verify-b", "--g", "6"], ["verify-b", "--g", "7", "--split", "1,1"],
        ["verify-b", "--g", "7", "--split", "0,2"], ["verify-b", "--g", "8"]],
        ids=" ".join)
    def test_verifier_reports(self, argv, tmp_path, monkeypatch):
        monkeypatch.delenv("APOLAR_KIT_THREADS", raising=False)
        reports, out = recorded_reports(monkeypatch), tmp_path / "report.json"
        assert main([*argv, "--seed", "1", "--out", str(out)]) == 0
        [report] = reports
        assert out.read_text() == dumps(report) + "\n"

    @pytest.mark.parametrize("n", range(3, 9))
    def test_forms_reports(self, n, tmp_path, monkeypatch, capsys):
        reports = recorded_reports(monkeypatch)

        def emitted(*argv):
            assert main(list(argv)) == 0
            assert capsys.readouterr().out == dumps(reports[-1]) + "\n"
            return reports[-1]

        for seed in (1, 2, 3):
            for kind, form in sweep_forms(n, seed).items():
                form_path = tmp_path / f"{kind}{seed}.json"
                form_path.write_text(json.dumps(jsonio.polynomial_to_json(form)))
                pieces = [emitted("apolar", "--in", str(form_path), "--k", str(k))["piece"]
                          for k in (2, 3)]
                pieces_path = tmp_path / f"{kind}{seed}.pieces.json"
                pieces_path.write_text(json.dumps({"d": 3, "pieces": pieces}))
                assert emitted("inverse", "--in", str(pieces_path))["form"]["nvars"] == n
                report = emitted("fermat", "--in", str(form_path), "--seed", str(seed))
                assert report["fermat"] == (kind == "fermat")


NON_ASCII_DIGITS = "\u0660\u0661\u06f5\u0966\uff11\U0001d7ce"
COEFFICIENTS = st.one_of(
    st.text(st.sampled_from("-/0123456789 +_.e"), max_size=12),
    st.text(st.sampled_from("-/0123456789" + NON_ASCII_DIGITS), max_size=8),
    # past `int`'s 4300-digit limit, in either place
    st.builds("{}{}{}".format, st.sampled_from(["", "-"]),
              st.integers(4295, 4305).map("1".__mul__),
              st.sampled_from(["", "/7", "/0", "/" + "3" * 4301])),
    st.integers(4295, 4305).map(lambda k: "5/" + "2" * k),
    st.integers(), st.integers(-10 ** 90, 10 ** 90), st.booleans(), st.floats(), st.none())


def read_outcome(read, raw):
    """What a reader made of raw: the value with the types of its parts,
    or the text of its ValueError."""
    try:
        value = read(raw)
    except ValueError as err:
        return "ValueError", str(err)
    if isinstance(value, Polynomial):
        return value, [tuple(map(type, exp)) for exp in value.terms]
    return type(value), value, type(value.numerator), type(value.denominator)


class Exponent(int):
    """An int subclass: JSON never yields one, but the reader accepts it."""


def spellings(e):
    """The exponent e as an int, a float, an int subclass and, for 0 and 1,
    a bool."""
    return st.sampled_from([e, float(e), Exponent(e)] + [bool(e)] * (e < 2))


EXPONENTS = st.sampled_from([(3, 0), (2, 1), (1, 2), (0, 3)]).flatmap(
    lambda exp: st.tuples(*map(spellings, exp)).map(list))


class TestIntegerFirstReader:
    """The coefficient and exponent readers give what `Fraction` on the
    matched string and `_int` on every exponent gave
    (`oracles.coef_from_str`, `oracles.polynomial_from_json`): the same
    values or a ValueError with the same text."""

    @settings(max_examples=500, deadline=None)
    @given(COEFFICIENTS)
    def test_coefficients(self, raw):
        assert (read_outcome(jsonio._coef_from_str, raw)
                == read_outcome(oracles.coef_from_str, raw))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(EXPONENTS, min_size=1, max_size=3))
    def test_exponents(self, exps):
        data = {"nvars": 2, "degree": 3, "terms": [{"exp": e, "coef": "1"} for e in exps]}
        assert (read_outcome(jsonio.polynomial_from_json, data)
                == read_outcome(oracles.polynomial_from_json, data))
