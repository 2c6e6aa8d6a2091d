"""Golden-file checks: command reports are byte-stable across releases."""

import json
from pathlib import Path

import pytest

from apolar_kit import apolarity
from apolar_kit.cli import main

GOLDEN = Path(__file__).parent / "golden"


def refuse_the_generic_kernel(monkeypatch):
    """The quotient reads its inverse system off the scroll; the kernel
    over all cubics serves only `inverse_system`."""
    def refuse(*args):
        raise AssertionError("the generic inverse system ran")

    monkeypatch.setattr(apolarity, "_inverse_vectors", refuse)


def fresh_report(argv, tmp_path):
    out = tmp_path / "fresh.json"
    code = main(argv + ["--out", str(out)])
    assert code == 0
    return out.read_text()


@pytest.mark.parametrize("g", range(6, 26))
def test_numerology_golden(g, tmp_path):
    recorded = (GOLDEN / f"numerology_g{g}.json").read_text()
    assert fresh_report(["numerology", "--g", str(g)], tmp_path) == recorded


@pytest.mark.parametrize("k", range(2, 9))
def test_nakai_golden(k, tmp_path):
    recorded = (GOLDEN / f"nakai_k{k}.json").read_text()
    assert fresh_report(["nakai", "--k", str(k)], tmp_path) == recorded


def test_golden_values_spot_check():
    g7 = json.loads((GOLDEN / "numerology_g7.json").read_text())
    assert g7["multiplicities"] == [3, 3, 2, 2]
    assert g7["degS"] == 6
    g9 = json.loads((GOLDEN / "numerology_g9.json").read_text())
    assert g9["degS"] == 9
    k3 = json.loads((GOLDEN / "nakai_k3.json").read_text())
    assert k3["ample_self_intersection"] == 9 and k3["holds"]


@pytest.mark.parametrize("name, argv", [
    ("verify_a_g5", ["verify-a", "--g", "5", "--trials", "2", "--seed", "41"]),
    ("verify_b_g7_split02", ["verify-b", "--g", "7", "--split", "0,2",
                             "--trials", "1", "--seed", "42"]),
    ("verify_a_g12", ["verify-a", "--g", "12", "--trials", "1", "--seed", "41"]),
    ("verify_b_g8", ["verify-b", "--g", "8", "--trials", "2", "--seed", "42"]),
    ("verify_b_g11", ["verify-b", "--g", "11", "--trials", "1", "--seed", "41"]),
    ("verify_a_g16", ["verify-a", "--g", "16", "--trials", "1", "--seed", "41"]),
    ("verify_b_g15", ["verify-b", "--g", "15", "--trials", "1", "--seed", "41"]),
    ("verify_b_g17", ["verify-b", "--g", "17", "--trials", "1", "--seed", "41"]),
    ("verify_a_g30", ["verify-a", "--g", "30", "--trials", "1", "--seed", "41"]),
    ("verify_b_g30", ["verify-b", "--g", "30", "--trials", "1", "--seed", "41"]),
])
def test_verify_golden(name, argv, tmp_path, monkeypatch):
    monkeypatch.delenv("APOLAR_KIT_THREADS", raising=False)
    refuse_the_generic_kernel(monkeypatch)
    recorded = (GOLDEN / f"{name}.json").read_text()
    assert fresh_report(argv, tmp_path) == recorded


@pytest.mark.parametrize("name, argv", [
    # the quotient read off the section curve, from a curve file
    ("alpha_in_g7_split11", ["alpha", "--in", str(GOLDEN / "curve_g7_split11.json"),
                             "--seed", "9"]),
    # the first pair's section curve degenerates, so the second pair is drawn
    ("alpha_g7_split02", ["alpha", "--g", "7", "--gonality", "4", "--split", "0,2",
                          "--seed", "1262656446957978"]),
    # the cubic printed in the kept coordinates of a trigonal and a
    # tetragonal quotient
    ("alpha_g12", ["alpha", "--g", "12", "--gonality", "3", "--seed", "41"]),
    ("alpha_g12_tet", ["alpha", "--g", "12", "--gonality", "4", "--seed", "41"]),
])
def test_alpha_golden(name, argv, tmp_path, monkeypatch):
    refuse_the_generic_kernel(monkeypatch)
    recorded = (GOLDEN / f"{name}.json").read_text()
    assert fresh_report(argv, tmp_path) == recorded


@pytest.mark.parametrize("g", [5, 6, 7, 8, 12, 20])
def test_curve_gen_golden(g, tmp_path):
    # the closed-form trigonal section, sampled and reconstructed: its
    # equation, hints and points byte for byte, with three, two, four and
    # two interpolated fibers at g = 5..8 and none at g = 12 and 20
    recorded = (GOLDEN / f"curve_gen_g{g}.json").read_text()
    argv = ["curve-gen", "--g", str(g), "--gonality", "3", "--seed", "1"]
    assert fresh_report(argv, tmp_path) == recorded


def test_alpha_in_curve_gen_golden(tmp_path, monkeypatch):
    # the quotient of the curve of `curve_gen_g8.json`, read from its file
    refuse_the_generic_kernel(monkeypatch)
    curve = tmp_path / "curve.json"
    curve.write_text(json.dumps(json.loads((GOLDEN / "curve_gen_g8.json").read_text())["curve"]))
    recorded = (GOLDEN / "alpha_in_g8.json").read_text()
    assert fresh_report(["alpha", "--in", str(curve), "--seed", "1"], tmp_path) == recorded


@pytest.mark.parametrize("name, argv", [
    (f"apolar_k{k}_{kind}_n5", ["apolar", "--in", str(GOLDEN / f"form_{kind}_n5.json"),
                                "--k", str(k)])
    for kind in ("random", "fermat") for k in (2, 3)] + [
    (f"fermat_{kind}_n5_seed5", ["fermat", "--in", str(GOLDEN / f"form_{kind}_n5.json"),
                                 "--seed", "5"])
    for kind in ("random", "fermat")] + [
    # a quartic sum of five fourth powers, so d != 3 and Ann(F)_2 != 0
    ("apolar_k2_quartic_n4", ["apolar", "--in", str(GOLDEN / "form_quartic_n4.json"),
                              "--k", "2"]),
] + [
    (f"fermat_{kind}_seed5", ["fermat", "--in", str(GOLDEN / f"form_{kind}.json"),
                              "--seed", "5"])
    for kind in ("fermat_n8",
                 # x0^3 - 3 x0 x1^2, a sum of two cubes at complex points
                 "complex_n2",
                 # x0^3 + x1^3 + x2^3 + t x0 x1 x2: Fermat at t = 6, not at t = 1
                 "hesse6_n3", "hesse1_n3",
                 # a double root: no simple pencil
                 "x0sqx1_n2",
                 # a Fermat cubic plus y^3, y orthogonal to the three
                 # directions drawn at seed 5: the third Hessian commutes
                 # with the pencil and a coordinate Hessian does not
                 "fermat_cube_n6")])
def test_forms_golden(name, argv, tmp_path):
    # a random 10-bit cubic and a Fermat cubic under an integer change of
    # coordinates, at n = 5
    recorded = (GOLDEN / f"{name}.json").read_text()
    assert fresh_report(argv, tmp_path) == recorded


@pytest.mark.parametrize("kind", ["random", "fermat"])
def test_inverse_golden(kind, tmp_path):
    # the form back from the degree-2 and degree-3 pieces of its goldens
    pieces = tmp_path / "pieces.json"
    pieces.write_text(json.dumps({"d": 3, "pieces": [
        json.loads((GOLDEN / f"apolar_k{k}_{kind}_n5.json").read_text())["piece"]
        for k in (2, 3)]}))
    recorded = (GOLDEN / f"inverse_{kind}_n5.json").read_text()
    assert fresh_report(["inverse", "--in", str(pieces)], tmp_path) == recorded


@pytest.mark.parametrize("name, argv", [
    ("scroll_degree_112", ["scroll", "--type", "1,1,2", "--class", "2,-2", "--op", "degree"]),
    ("scroll_canonical_12", ["scroll", "--type", "1,2", "--op", "canonical"]),
    ("scroll_chow_112", ["scroll", "--type", "1,1,2", "--classes", "1,0;1,-1;2,1",
                         "--op", "chow"]),
    ("scroll_sections_12", ["scroll", "--type", "1,2", "--class", "2,1", "--op", "sections"]),
    ("scroll_project_112", ["scroll", "--type", "1,1,2", "--op", "project", "--index", "2"]),
    ("gonality_n5_k2", ["gonality-n", "--n", "5", "--k", "2"]),
    # past the reference bound, with one unit of excess multiplicity
    ("gonality_n10_k2_e1", ["gonality-n", "--n", "10", "--k", "2", "--excess", "1"]),
])
def test_record_report_golden(name, argv, tmp_path):
    # reports built from scroll and plane-model records
    recorded = (GOLDEN / f"{name}.json").read_text()
    assert fresh_report(argv, tmp_path) == recorded
