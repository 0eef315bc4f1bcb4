"""Command line driver and document round-trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bistellar
from bistellar import (
    BistellarError,
    BistellarMove,
    FanLabelling,
    NotEquivariant,
    Z2Complex,
    apply_z2_move,
    canonical_cross_labelling,
    cross_polytope,
    enumerate_moves,
    enumerate_z2_moves,
    fan_certificate,
    fresh_vertex,
    random_fan_labelling,
    random_z2_walk,
    replay_verify,
    simplex_boundary,
)
from bistellar.cli import (
    certificate_document,
    complex_document,
    dumps_canonical,
    main,
    parse_complex_document,
    parse_sequence_document,
    sequence_document,
)
from conftest import kuhn_torus, naive_dumps_canonical

_OCTAHEDRON = complex_document(cross_polytope(3), z2=True)  # unlabelled


@pytest.fixture
def octa_file(tmp_path):
    doc = complex_document(cross_polytope(3).complex, z2=True,
                           labelling=canonical_cross_labelling(3))
    path = tmp_path / "octa.json"
    path.write_text(dumps_canonical(doc))
    return str(path)


@pytest.fixture
def bad_labels_file(tmp_path):
    doc = complex_document(cross_polytope(3).complex, z2=True)
    doc["labels"] = [[v, v] for v in cross_polytope(3).vertices]
    doc["labels"] = [[v, abs(x)] if v in (3, -3) else [v, x]
                     for v, x in doc["labels"]]
    path = tmp_path / "bad.json"
    path.write_text(dumps_canonical(doc))
    return str(path)


class TestRoundTrip:
    def test_complex_document(self):
        signed = cross_polytope(3)
        doc = complex_document(signed.complex, z2=True,
                               labelling=canonical_cross_labelling(3))
        text = dumps_canonical(doc)
        cx, z2, lab = parse_complex_document(text)
        assert cx == signed.complex
        assert z2 is not None and z2.complex == signed.complex
        assert lab == canonical_cross_labelling(3)
        again = complex_document(cx, z2=True, labelling=lab)
        assert dumps_canonical(again) == text

    def test_sequence_document(self):
        _, sequence = random_z2_walk(cross_polytope(3), 5, seed=2)
        text = dumps_canonical(sequence_document(sequence))
        assert parse_sequence_document(text) == sequence

    @pytest.mark.parametrize("edit, needle", [
        (lambda doc: doc.update(z2="false"), 'z2: "false" is not a boolean'),
        (lambda doc: doc.update(source=1), "source: 1 is not a string"),
        (lambda doc: doc["moves"][0]["removed"].append(1.5),
         "moves: 1.5 is not an integer"),
        (lambda doc: doc["moves"][0].pop("inserted"),
         "moves: null is not a list of integers"),
        (lambda doc: doc.update(moves={}), "moves: not a list of objects"),
        (lambda doc: doc.update(kind="certificate"), "kind 'flip-sequence'"),
        (lambda doc: doc["moves"][-1].update(inserted=[0], fresh=[0]),
         "nonzero integers"),
    ], ids=["z2-string", "source-int", "vertex-float", "no-inserted",
            "moves-object", "wrong-kind", "fresh-zero"])
    def test_sequence_schema_enforced(self, edit, needle):
        # "false" used to read as True, 1.5 as vertex 1; a fresh 0 parsed,
        # and its replay stopped halfway
        _, sequence = random_z2_walk(cross_polytope(3), 2, seed=2)
        doc = sequence_document(sequence)
        edit(doc)
        with pytest.raises(BistellarError, match=needle):
            parse_sequence_document(json.dumps(doc))

    @pytest.mark.parametrize("version", [7, 2, 1.0, "1", True, None],
                             ids=json.dumps)
    def test_sequence_format_must_be_1(self, version):
        # format 7 used to be read under the rules of format 1
        _, sequence = random_z2_walk(cross_polytope(3), 2, seed=2)
        doc = sequence_document(sequence)
        doc["format"] = version
        with pytest.raises(BistellarError, match=f"^format: {json.dumps(version)} is not 1$"):
            parse_sequence_document(json.dumps(doc))
        del doc["format"]
        assert parse_sequence_document(json.dumps(doc)) == sequence

    @pytest.mark.parametrize("text", ["[]", "{}"])
    def test_sequence_document_not_an_object_of_its_kind(self, text):
        # [] used to raise TypeError and {} KeyError
        with pytest.raises(BistellarError, match="kind 'flip-sequence'"):
            parse_sequence_document(text)

    def test_fresh_ids_recorded(self):
        _, sequence = random_z2_walk(cross_polytope(3), 3, seed=0)
        doc = sequence_document(sequence)
        for record in doc["moves"]:
            if len(record["inserted"]) == 1:
                u = record["inserted"][0]
                assert sorted((u, -u)) == record["fresh"]
            else:
                assert record["fresh"] == []


_SCALARS = (st.none() | st.booleans() | st.integers(-10 ** 20, 10 ** 20)
            | st.floats(allow_nan=False, allow_infinity=False)
            | st.sampled_from(["", "], [", "[1, 2], [3]", "\\", '"']) | st.text(max_size=4))
_ROWS = st.lists(st.lists(st.integers(-9, 9), max_size=4)
                 | st.lists(st.integers(-9, 9) | st.booleans(), max_size=4)
                 | st.lists(st.integers(-9, 9) | st.floats(-2, 2), max_size=4)
                 | st.lists(st.lists(st.integers(-9, 9), max_size=3), max_size=3)
                 | st.lists(st.integers(-9, 9), max_size=4).map(tuple)
                 | st.lists(st.integers(-9, 9) | st.booleans(), max_size=4).map(tuple)
                 | st.lists(st.lists(st.integers(-9, 9), max_size=3), max_size=3).map(tuple),
                 max_size=5)
_DOCUMENTS = st.recursive(
    _SCALARS | _ROWS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=16)


def _written_documents():
    """One of each document the command line writes."""
    walked, sequence = random_z2_walk(cross_polytope(3), 6, seed=1)
    certificate = fan_certificate(walked, random_fan_labelling(walked, 4, 1), seed=1)
    _, face_map = walked.equivariant_sd()
    return [complex_document(walked.complex, z2=True),
            complex_document(walked.complex, z2=True,
                             labelling=random_fan_labelling(walked, 5, 2)),
            complex_document(cross_polytope(2).complex),
            sequence_document(sequence),
            certificate_document(certificate),
            {"format": 1, "kind": "face-map",
             "map": [[v, list(f)] for v, f in sorted(face_map.items())]}]


@settings(max_examples=100, deadline=None)
@given(doc=_DOCUMENTS | st.sampled_from(_written_documents()))
@example(doc=[[1, True], [2, 3]])
@example(doc={"rows": [[], [1], [-2, 3]], "flags": [[True], [False, 0]], "empty": {}})
@example(doc=[[[1, 2]], [[3]]])
@example(doc={"facets": [[1, 2, 3], [], [-4, 5], [6, -7, 8], [-9], []]})
@example(doc=[[-1, -2], [-3, -10 ** 30], [0, 2 ** 70]])
@example(doc=[[1, 2], [3, False]])
def test_renderer_matches_one_row_at_a_time(doc):
    assert dumps_canonical(doc) == naive_dumps_canonical(doc)


@pytest.mark.parametrize("doc", [{"labels": [[1, 10 ** 4300]]}, [[-10 ** 4300, 1]]])
def test_int_past_the_digit_limit_raises_as_in_the_naive_renderer(doc):
    # CPython refuses to write an int of more than 4300 digits as text
    with pytest.raises(ValueError) as naive:
        naive_dumps_canonical(doc)
    with pytest.raises(ValueError) as rendered:
        dumps_canonical(doc)
    assert str(rendered.value) == str(naive.value)


def test_documents_hold_the_library_rows():
    walked, _ = random_z2_walk(cross_polytope(3), 6, seed=1)
    labelling = random_fan_labelling(walked, 4, 1)
    doc = complex_document(walked.complex, z2=True, labelling=labelling)
    assert len(doc["facets"]) == len(walked.facets)
    assert all(row is facet for row, facet in zip(doc["facets"], walked.complex.facets))
    assert doc["labels"] == labelling.items()
    assert {type(row) for row in doc["labels"]} == {tuple}
    certificate = fan_certificate(walked, labelling, seed=1)
    final = certificate_document(certificate)["final_labels"]
    assert final == certificate.final_labelling.items()
    assert {type(row) for row in final} == {tuple}


def test_rows_render_without_a_json_dumps_call_each(monkeypatch):
    # rows of plain ints, lists or tuples, take one format per row length
    calls, dumps = [], json.dumps
    monkeypatch.setattr(bistellar.cli.json, "dumps",
                        lambda *args, **kwargs: (calls.append(args), dumps(*args, **kwargs))[1])

    def dumps_calls(sphere, labels):
        calls.clear()
        dumps_canonical(complex_document(sphere.complex, z2=True, labelling=labels))
        return len(calls)

    walked, _ = random_z2_walk(cross_polytope(4), 56, seed=0)
    assert len(walked.facets) == 228
    pair = cross_polytope(1)
    assert len(pair.facets) == 2
    assert dumps_calls(walked, random_fan_labelling(walked, 5, 0)) <= \
        dumps_calls(pair, FanLabelling({1: 1, -1: -1}))


class TestCommands:
    def test_info(self, octa_file, capsys):
        assert main(["info", octa_file]) == 0
        out = capsys.readouterr().out
        assert "f-vector: (6, 12, 8)" in out
        assert "valid Fan labelling" in out

    def test_info_prints_the_alternating_counts(self, octa_file, capsys):
        assert main(["info", octa_file]) == 0
        assert "alternating facets: +1 / -1" in capsys.readouterr().out.splitlines()

    def test_fan_check_ok(self, octa_file, capsys):
        assert main(["fan-check", octa_file]) == 0
        assert "+1 / -1" in capsys.readouterr().out

    def test_fan_check_violations_exit_2(self, bad_labels_file, capsys):
        assert main(["fan-check", bad_labels_file]) == 2
        assert "violation" in capsys.readouterr().out

    @pytest.mark.parametrize("fixture", ["octa_file", "bad_labels_file"])
    def test_info_and_fan_check_print_one_label_report(self, fixture, request,
                                                        capsys):
        path = request.getfixturevalue(fixture)
        fan_code = main(["fan-check", path])
        fan_out = capsys.readouterr().out
        assert main(["info", path]) == fan_code
        info_out = capsys.readouterr().out
        assert fan_out and info_out.endswith(fan_out)
        assert "z2: valid free involution" in info_out.removesuffix(fan_out)

    def test_moves_listing(self, octa_file, capsys):
        assert main(["moves", octa_file]) == 0
        assert "total: 4" in capsys.readouterr().out

    def test_a_closed_stdout_exits_1_without_a_traceback(self, tmp_path):
        # The reader closes the pipe after one line, as ``| head -1`` does.
        # sd^3 of the octahedron lists over 80 kB of moves, more than a pipe
        # holds, so the command is still writing when the pipe closes.
        cx = cross_polytope(3)
        for _ in range(3):
            cx, _ = cx.equivariant_sd()
        path = tmp_path / "sd3.json"
        path.write_text(dumps_canonical(complex_document(cx, z2=True)))
        env = {**os.environ, "PYTHONPATH": str(Path(bistellar.__file__).parents[1])}
        child = subprocess.Popen([sys.executable, "-m", "bistellar", "moves", str(path)],
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                 bufsize=0, env=env)
        first = child.stdout.readline()
        child.stdout.close()
        err = child.stderr.read()
        child.stderr.close()
        assert child.wait(timeout=60) == 1
        assert first.startswith(b"removed=") and err == b""

    @pytest.mark.parametrize("make", [
        lambda: cross_polytope(3),
        lambda: random_z2_walk(cross_polytope(4), 40, seed=5)[0],
        lambda: simplex_boundary(3),
    ], ids=["octahedron", "walked-c4", "plain-tetrahedron"])
    def test_flip_applies_every_listed_move(self, tmp_path, capsys, make):
        cx = make()
        z2 = isinstance(cx, Z2Complex)
        path, out = tmp_path / "in.json", str(tmp_path / "out.json")
        path.write_text(dumps_canonical(complex_document(cx, z2=z2)))
        assert main(["moves", str(path)]) == 0
        *rows, total = capsys.readouterr().out.splitlines()
        enumerate_ = enumerate_z2_moves if z2 else enumerate_moves
        assert total == f"total: {len(enumerate_(cx))}"
        for row in rows:  # removed=[1, 2, 3] inserted=[4]
            removed, inserted = [",".join(map(str, json.loads(part))) for part
                                 in row.removeprefix("removed=").split(" inserted=")]
            assert main(["flip", str(path), f"--removed={removed}",
                         f"--inserted={inserted}", "-o", out]) == 0, row

    def test_flip_writes_result(self, octa_file, tmp_path, capsys):
        out = tmp_path / "flipped.json"
        code = main(["flip", octa_file, "--removed", "1,2,3",
                     "--inserted", "7", "-o", str(out)])
        assert code == 0
        cx, z2, _ = parse_complex_document(out.read_text())
        assert cx.f_vector().counts == (8, 18, 12)

    @pytest.mark.parametrize("argv", [
        ["--removed=-3,-2,-1", "--inserted=4"],
        ["--removed", "-3 -2 -1", "--inserted", "4"],
    ], ids=["equals", "spaces"])
    def test_flip_negative_ids(self, octa_file, tmp_path, argv):
        out = tmp_path / "flipped.json"
        assert main(["flip", octa_file, *argv, "-o", str(out)]) == 0
        expected, _ = apply_z2_move(cross_polytope(3), BistellarMove((-3, -2, -1), (4,)))
        assert out.read_text() == dumps_canonical(
            complex_document(expected.complex, z2=True))

    def test_flip_inadmissible_exit_2(self, octa_file, capsys):
        assert main(["flip", octa_file, "--removed", "1,2",
                     "--inserted", "3,-3"]) == 2
        assert "error" in capsys.readouterr().err

    def test_walk_byte_identical(self, octa_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        la, lb = tmp_path / "la.json", tmp_path / "lb.json"
        assert main(["walk", octa_file, "--steps", "10", "--seed", "1",
                     "-o", str(a), "--log", str(la)]) == 0
        assert main(["walk", octa_file, "--steps", "10", "--seed", "1",
                     "-o", str(b), "--log", str(lb)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert la.read_bytes() == lb.read_bytes()

    def test_subdivide_barycentric(self, octa_file, tmp_path):
        out = tmp_path / "sd.json"
        assert main(["subdivide", octa_file, "--barycentric",
                     "-o", str(out)]) == 0
        cx, z2, _ = parse_complex_document(out.read_text())
        assert cx.f_vector().counts == (26, 72, 48)
        assert z2 is not None

    def test_subdivide_stellar(self, octa_file, tmp_path):
        out = tmp_path / "st.json"
        assert main(["subdivide", octa_file, "--stellar", "1,2",
                     "-o", str(out)]) == 0
        cx, _, _ = parse_complex_document(out.read_text())
        assert cx.euler_characteristic() == 2

    def test_subdivide_stellar_at_an_edge_adds_one_vertex(self, octa_file, tmp_path):
        out = tmp_path / "st.json"
        assert main(["subdivide", octa_file, "--stellar", "1,2", "-o", str(out)]) == 0
        cx, _, _ = parse_complex_document(out.read_text())
        assert cx.f_vector().counts == (7, 15, 10)

    def test_subdivide_map_records_the_canonical_face(self, octa_file, tmp_path):
        # the face used to be recorded as typed: [4, [2, 1, 1]]
        out, face_map = tmp_path / "out.json", tmp_path / "map.json"
        assert main(["subdivide", octa_file, "--stellar", "2,1,1", "-o", str(out),
                     "--map", str(face_map)]) == 0
        assert json.loads(face_map.read_text())["map"] == [[4, [1, 2]]]
        plain = cross_polytope(3).complex.stellar_subdivide((1, 2), 4)
        assert out.read_text() == dumps_canonical(complex_document(plain))

    @pytest.mark.parametrize("branch", ["stellar", "barycentric", "equivariant"])
    def test_subdivide_writes_the_library_result_and_map(self, octa_file, tmp_path,
                                                         branch):
        octa = cross_polytope(3)
        plain = tmp_path / "plain.json"
        plain.write_text(dumps_canonical(complex_document(octa.complex)))
        if branch == "stellar":  # a z2 file gives a plain result here
            source, flag = octa_file, "--stellar=-2,1"
            fresh = fresh_vertex(octa.complex)
            result, mapping = octa.complex.stellar_subdivide((-2, 1), fresh), {fresh: (-2, 1)}
        elif branch == "barycentric":
            source, flag = str(plain), "--barycentric"
            result, mapping = octa.complex.barycentric_subdivide()
        else:
            source, flag = octa_file, "--barycentric"
            signed, mapping = octa.equivariant_sd()
            result = signed.complex
        out, face_map = tmp_path / "out.json", tmp_path / "map.json"
        assert main(["subdivide", source, flag, "-o", str(out),
                     "--map", str(face_map)]) == 0
        assert out.read_text() == dumps_canonical(
            complex_document(result, z2=branch == "equivariant"))
        assert face_map.read_text() == dumps_canonical(
            {"format": 1, "kind": "face-map",
             "map": [[v, list(f)] for v, f in sorted(mapping.items())]})

    def test_quotient(self, octa_file, tmp_path):
        out = tmp_path / "q.json"
        assert main(["quotient", octa_file, "-o", str(out)]) == 0
        cx, _, _ = parse_complex_document(out.read_text())
        assert cx.f_vector().counts == (13, 36, 24)

    def test_tucker_on_fan_labelling_exit_2(self, octa_file, capsys):
        # canonical labelling has no complementary edge: loud failure
        assert main(["tucker", octa_file]) == 2

    def test_tucker_finds_a_complementary_edge_exit_0(self, tmp_path, capsys):
        # labels 1, 2, 1 on the octahedron's 1, 2, 3, negated on -v: the
        # edge (-3, 1) carries -1 and 1
        labelling = FanLabelling({s * v: s * x for v, x in ((1, 1), (2, 2), (3, 1))
                                  for s in (1, -1)})
        path = tmp_path / "labelled.json"
        path.write_text(dumps_canonical(complex_document(
            cross_polytope(3), z2=True, labelling=labelling)))
        assert main(["tucker", str(path)]) == 0
        out, err = capsys.readouterr()
        assert out == "complementary edge: [-3, 1] (labels -1 and 1)\n" and err == ""

    def test_tucker_on_a_labelled_torus_exit_2(self, tmp_path, capsys):
        torus = kuhn_torus()
        path = tmp_path / "torus.json"
        path.write_text(dumps_canonical(complex_document(
            torus.complex, z2=True, labelling=random_fan_labelling(torus, 2, 0))))
        assert main(["tucker", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: no complementary edge found")
        assert "the complex is not a sphere" in err and "counterexample" not in err

    def test_reduce(self, octa_file, tmp_path, capsys):
        walked = tmp_path / "walked.json"
        main(["walk", octa_file, "--steps", "8", "--seed", "3",
              "-o", str(walked)])
        assert main(["reduce", str(walked), "--z2", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "outcome: reduced" in out
        assert "replay verified: True" in out

    def test_reduce_log_replays(self, octa_file, tmp_path, capsys):
        # the --log document parses and replays onto the cross polytope
        walked, log = tmp_path / "walked.json", tmp_path / "seq.json"
        main(["walk", octa_file, "--steps", "8", "--seed", "3",
              "-o", str(walked)])
        assert main(["reduce", str(walked), "--z2", "--seed", "1",
                     "--log", str(log)]) == 0
        sequence = parse_sequence_document(log.read_text())
        _, source, _ = parse_complex_document(walked.read_text())
        assert sequence.z2 and len(sequence) > 0
        assert replay_verify(source, sequence, cross_polytope(3))

    def test_reduce_inconclusive_exit_3(self, octa_file, tmp_path, capsys):
        walked = tmp_path / "walked.json"
        main(["walk", octa_file, "--steps", "8", "--seed", "3",
              "-o", str(walked)])
        assert main(["reduce", str(walked), "--z2", "--seed", "1",
                     "--budget", "2"]) == 3

    def test_reduce_the_subdivided_octahedron(self, octa_file, tmp_path, capsys):
        # within 40 flips the best state is printed and the exit is 3; with
        # the default budget the logged sequence replays
        sd, log = tmp_path / "sd.json", tmp_path / "seq.json"
        assert main(["subdivide", octa_file, "--barycentric", "-o", str(sd)]) == 0
        assert main(["reduce", str(sd), "--z2", "--seed", "3", "--budget", "40"]) == 3
        assert "best f-vector: (18, 48, 32)" in capsys.readouterr().out.splitlines()
        assert main(["reduce", str(sd), "--z2", "--seed", "3", "--log", str(log)]) == 0
        assert "replay verified: True" in capsys.readouterr().out.splitlines()
        assert parse_sequence_document(log.read_text()).z2

    def test_certify_inconclusive_exit_3(self, octa_file, tmp_path, capsys):
        walked = tmp_path / "walked.json"
        main(["walk", octa_file, "--steps", "8", "--seed", "3",
              "-o", str(walked)])
        capsys.readouterr()
        assert main(["certify", str(walked), "--labels", "random", "--seed", "1",
                     "--budget", "2"]) == 3
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("inconclusive: ")
        assert out[1].startswith("alpha-positive (direct count): ")
        assert int(out[1].split(": ")[1]) % 2 == 1

    def test_certify_canonical(self, octa_file, tmp_path, capsys):
        cert = tmp_path / "cert.json"
        assert main(["certify", octa_file, "--labels", "canon",
                     "--seed", "1", "--out", str(cert)]) == 0
        out = capsys.readouterr().out
        assert "alpha-positive: 1" in out
        doc = json.loads(cert.read_text())
        assert doc["alpha_positive"] == 1
        assert doc["parity"] == 1

    def test_certify_labels_from_the_file(self, tmp_path, capsys):
        # --labels file is the default; --out holds the library's certificate
        walked, _ = random_z2_walk(cross_polytope(3), 12, seed=5)
        labelling = random_fan_labelling(walked, 5, 2)
        path, cert = tmp_path / "labelled.json", tmp_path / "cert.json"
        path.write_text(dumps_canonical(complex_document(
            walked, z2=True, labelling=labelling)))
        assert main(["certify", str(path), "--seed", "1", "--out", str(cert)]) == 0
        assert "verified: alpha-positive is odd: True" in capsys.readouterr().out
        assert cert.read_text() == dumps_canonical(certificate_document(
            fan_certificate(walked, labelling, seed=1)))

    def test_certify_random_labels_on_walked(self, octa_file, tmp_path, capsys):
        walked = tmp_path / "walked.json"
        main(["walk", octa_file, "--steps", "12", "--seed", "5",
              "-o", str(walked)])
        assert main(["certify", str(walked), "--labels", "random",
                     "--label-seed", "2", "--seed", "1"]) == 0
        assert "verified: alpha-positive is odd: True" in capsys.readouterr().out

    def test_parse_error_exit_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["info", str(path)]) == 2
        assert "parse error" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, argv, needle", [
        (_OCTAHEDRON, ["subdivide", "--stellar", "1,2", "--fresh", "3"],
         "already present"),
        (_OCTAHEDRON, ["subdivide", "--barycentric", "--fresh", "5"],
         "--fresh needs --stellar"),
        (_OCTAHEDRON, ["tucker"], "carries no 'labels'"),
        (complex_document(simplex_boundary(3), z2=True), ["info"],
         "has no antipodal facet"),
    ], ids=["stellar-fresh-taken", "fresh-without-stellar", "tucker-unlabelled",
            "tetrahedron-marked-z2"])
    def test_rejected_input_prints_only_an_error(self, tmp_path, capsys, doc, argv,
                                                  needle):
        path = tmp_path / "in.json"
        path.write_text(dumps_canonical(doc))
        assert main([argv[0], str(path), *argv[1:]]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and needle in err

    def test_missing_z2_flag_rejected(self, tmp_path, capsys):
        doc = complex_document(cross_polytope(3).complex)  # no z2 marker
        path = tmp_path / "plain.json"
        path.write_text(dumps_canonical(doc))
        assert main(["walk", str(path), "--steps", "1", "--seed", "1"]) == 2


class TestMalformedInput:
    def _write(self, tmp_path, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        return str(path)

    @pytest.mark.parametrize("argv", [
        ["moves"],
        ["flip", "--removed", "1,2,3", "--inserted", "9"],
        ["walk", "--steps", "1", "--seed", "1"],
    ])
    def test_non_pure_complex_rejected(self, tmp_path, capsys, argv):
        # triangles with dangling edges used to list facet moves
        path = self._write(tmp_path, {"facets": [[1, 2, 3], [-3, -2, -1],
                                                 [3, 4], [-4, -3]], "z2": True})
        assert main([argv[0], path] + argv[1:]) == 2
        assert "moves need a pure complex" in capsys.readouterr().err

    @pytest.mark.parametrize("facets, needle", [
        ("abc", '"abc" is not a list of integers'),
        ([[1, "x"]], '"x" is not an integer'),
        ([[1, 2.5]], "2.5 is not an integer"),
        ([7], "7 is not a list of integers"),
    ])
    def test_malformed_facets_rejected(self, tmp_path, capsys, facets, needle):
        path = self._write(tmp_path, {"facets": facets})
        assert main(["info", path]) == 2
        out = capsys.readouterr().err
        assert out.startswith("error: facets")
        assert needle in out

    @pytest.mark.parametrize("parse", [parse_complex_document, parse_sequence_document],
                             ids=["complex", "sequence"])
    @pytest.mark.parametrize("text, needle", [
        ("[" * 100_000 + "]" * 100_000, "unreadable JSON: "),
        ('{"facets": [[1, %s]]}' % ("9" * 5000), "unreadable JSON: "),
        ("{not json", "parse error at line 1, column 2: "),
    ], ids=["nested-100000-deep", "integer-of-5000-digits", "not-json"])
    def test_parsers_raise_only_bistellar_errors(self, parse, text, needle):
        # a RecursionError, a ValueError and a JSONDecodeError used to escape
        # both public parsers; only the CLI converted them
        with pytest.raises(BistellarError, match=f"^{needle}"):
            parse(text)

    @pytest.mark.parametrize("text", [
        "[" * 100_000 + "]" * 100_000,
        '{"facets": [[1, %s]]}' % ("9" * 5000),
    ], ids=["nested-100000-deep", "integer-of-5000-digits"])
    def test_unparseable_json_exits_2(self, tmp_path, capsys, text):
        # a RecursionError and CPython's int-string limit used to escape
        path = tmp_path / "doc.json"
        path.write_text(text)
        assert main(["info", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: unreadable JSON: ")

    @pytest.mark.parametrize("text, key", [
        ('{"facets": [[1, 2]], "facets": [[1, 2, 3]]}', "facets"),
        ('{"facets": [[1, 2]], "z2": false, "z2": true}', "z2"),
        ('{"facets": [[1, 2]], "labels": [], "format": 1, "labels": []}', "labels"),
    ])
    def test_repeated_key_rejected(self, tmp_path, capsys, text, key):
        # the last value used to win
        path = tmp_path / "doc.json"
        path.write_text(text)
        assert main(["info", str(path)]) == 2
        assert capsys.readouterr().err == f'error: key "{key}" occurs more than once\n'

    def test_repeated_key_in_a_sequence_record_rejected(self):
        text = ('{"kind": "flip-sequence", "z2": false, "source": "", "target": "",'
                ' "moves": [{"removed": [1], "inserted": [2], "removed": [3]}]}')
        with pytest.raises(BistellarError, match='key "removed" occurs more than once'):
            parse_sequence_document(text)

    @pytest.mark.parametrize("entry", [[2, 0.5], [1, 1.7], [1], [1, "3"]])
    def test_non_integer_labels_rejected(self, tmp_path, capsys, entry):
        # int() used to truncate 1.7 to 1 and 0.5 to 0
        doc = complex_document(cross_polytope(3).complex, z2=True,
                               labelling=canonical_cross_labelling(3))
        doc["labels"] = [entry if v == entry[0] else [v, x]
                         for v, x in doc["labels"]]
        path = self._write(tmp_path, doc)
        assert main(["fan-check", path]) == 2
        out = capsys.readouterr().err
        assert out.startswith("error: labels")
        assert "zero" not in out

    def test_non_integer_face_argument_rejected(self, octa_file, capsys):
        assert main(["flip", octa_file, "--removed", "1,2.5",
                     "--inserted", "7"]) == 2
        assert "not a list of integers" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["info"],
        ["moves"],
        ["flip", "--removed", "1", "--inserted", "2"],
        ["walk", "--steps", "1", "--seed", "1"],
        ["subdivide", "--barycentric"],
        ["quotient"],
        ["fan-check"],
        ["tucker"],
        ["reduce", "--seed", "1"],
        ["certify", "--labels", "canon", "--seed", "1"],
    ], ids=lambda argv: argv[0])
    def test_complex_without_vertices_rejected(self, tmp_path, capsys, argv):
        # info used to call it a closed pseudomanifold, walk and certify
        # ended in tracebacks
        path = self._write(tmp_path, {"facets": [[]], "z2": True, "labels": []})
        assert main([argv[0], path] + argv[1:]) == 2
        assert capsys.readouterr().err.startswith(
            "error: cannot build a complex without vertices")

    @pytest.mark.parametrize("z2", [1, 0, "false", "true", None, [True]],
                             ids=json.dumps)
    def test_non_boolean_z2_rejected(self, tmp_path, capsys, z2):
        # 1 and "false" were both read as symmetric
        doc = complex_document(cross_polytope(3).complex)
        doc["z2"] = z2
        path = self._write(tmp_path, doc)
        assert main(["info", path]) == 2
        assert capsys.readouterr().err.startswith("error: z2:")

    @pytest.mark.parametrize("argv, needle", [
        (["walk", "--steps", "-2", "--seed", "1"], "steps must be an integer >= 0"),
        (["reduce", "--z2", "--budget", "-1", "--seed", "1"],
         "budget must be an integer >= 0"),
        (["reduce", "--budget", "-1", "--seed", "1"], "budget must be an integer >= 0"),
        (["certify", "--labels", "canon", "--budget", "-1", "--seed", "1"],
         "budget must be an integer >= 0"),
        (["certify", "--labels", "random", "--label-bound", "0", "--seed", "1"],
         "label bound must be at least 1, got 0"),
        (["subdivide", "--stellar", " , "], "the empty face has no stellar"),
        (["subdivide", "--stellar", ""], "the empty face has no stellar"),
        (["subdivide", "--barycentric", "--fresh", "5"], "--fresh needs --stellar"),
        (["certify", "--labels", "canon", "--label-bound", "5", "--seed", "1"],
         "--label-bound and --label-seed need --labels random"),
        (["certify", "--label-seed", "0", "--seed", "1"],
         "--label-bound and --label-seed need --labels random"),
    ], ids=["walk-steps", "reduce-z2-budget", "reduce-budget", "certify-budget",
            "label-bound-zero", "stellar-blank", "stellar-empty",
            "fresh-without-stellar", "label-bound-without-random",
            "label-seed-without-random"])
    def test_bad_counts_and_empty_faces_rejected(self, octa_file, capsys, argv,
                                                 needle):
        # each used to exit 0: a negative count ran no step, a label bound
        # of 0 fell back to dimension + 2, an empty stellar face wrote
        # {"facets": []} or ran the barycentric subdivision, and --fresh
        # beside --barycentric, or a label option beside other labels, was ignored
        assert main([argv[0], octa_file] + argv[1:]) == 2
        out = capsys.readouterr().err
        assert out.startswith("error: ") and needle in out

    @pytest.mark.parametrize("version", [7, 0, 1.0, "1", True, None],
                             ids=json.dumps)
    @pytest.mark.parametrize("command", ["info", "fan-check"])
    def test_unknown_format_rejected(self, tmp_path, capsys, version, command):
        # "format": 7 used to be read under the rules of format 1
        doc = complex_document(cross_polytope(3).complex, z2=True,
                               labelling=canonical_cross_labelling(3))
        doc["format"] = version
        assert main([command, self._write(tmp_path, doc)]) == 2
        assert capsys.readouterr().err == \
            f"error: format: {json.dumps(version)} is not 1\n"

    def test_missing_format_accepted(self, tmp_path, capsys):
        doc = complex_document(cross_polytope(3).complex, z2=True,
                               labelling=canonical_cross_labelling(3))
        del doc["format"]
        assert main(["fan-check", self._write(tmp_path, doc)]) == 0

    @pytest.mark.parametrize("extra", [[5, 3], [-5, -3], [5, 1]])
    @pytest.mark.parametrize("command", ["info", "fan-check", "tucker"])
    def test_label_outside_the_complex_rejected(self, tmp_path, capsys, extra,
                                                command):
        # info and fan-check used to call this a valid Fan labelling
        doc = {"facets": [[1, 2], [2, -1], [-1, -2], [-2, 1]], "z2": True,
               "labels": [[1, 1], [-1, -1], [2, 2], [-2, -2], extra]}
        assert main([command, self._write(tmp_path, doc)]) == 2
        assert capsys.readouterr().err == \
            f"error: labels: vertex {extra[0]} is not in the complex\n"

    def test_labels_outside_the_complex_name_the_smallest(self):
        doc = {"facets": [[1, 2], [2, -1], [-1, -2], [-2, 1]],
               "labels": [[9, 1], [1, 1], [-7, 2]]}
        with pytest.raises(BistellarError, match="^labels: vertex -7 is not in"):
            parse_complex_document(json.dumps(doc))

    @pytest.mark.parametrize("command", ["info", "fan-check"])
    def test_symmetry_is_reported_before_a_stray_label(self, tmp_path, capsys,
                                                       command):
        # the complex is wrapped, and so checked, before its labels are read
        doc = {"facets": [[1, 2], [2, 3], [1, 3]], "z2": True,
               "labels": [[1, 1], [2, 2], [3, 3], [9, 4]]}
        with pytest.raises(NotEquivariant, match=r"^facet \(1, 2\) has no antipodal"):
            parse_complex_document(json.dumps(doc))
        assert main([command, self._write(tmp_path, doc)]) == 2
        assert capsys.readouterr().err == \
            "error: facet (1, 2) has no antipodal facet\n"

    def test_repeated_label_rejected(self, tmp_path, capsys):
        # the last entry used to win, reported as an antipodality violation
        doc = complex_document(cross_polytope(3).complex, z2=True,
                               labelling=canonical_cross_labelling(3))
        doc["labels"].append([1, 5])
        path = self._write(tmp_path, doc)
        assert main(["fan-check", path]) == 2
        out = capsys.readouterr().err
        assert out == "error: labels: vertex 1 is labelled twice\n"

    @pytest.mark.parametrize("text, message", [
        ('{"z2": false, "facets": [[1, 2]], "facets": [[1]], "z2": true}',
         'key "facets" occurs more than once'),
        ('{"facets": [[1, 2]], "labels": [[2, 1], [1, 1], [1, 2], [2, 2]]}',
         "labels: vertex 1 is labelled twice"),
        # true and 1 are one dict key, but the row check names true first
        ('{"facets": [[1, 2]], "labels": [[true, 1], [1, -1]]}',
         "labels: true is not an integer"),
    ], ids=["keys", "labels", "true-and-1"])
    def test_the_first_repeat_is_named(self, text, message):
        # keys and labelled vertices share one rule: the first repeat is named
        with pytest.raises(BistellarError) as raised:
            parse_complex_document(text)
        assert str(raised.value) == message


class TestFileErrors:
    """A file that cannot be read or written exits 2 with a message that
    names it, instead of a traceback."""

    @pytest.mark.parametrize("make", [
        lambda path: None,
        lambda path: path.mkdir(),
        lambda path: path.write_bytes(b"\xff\xfe{\x00}\x00"),
    ], ids=["missing", "directory", "utf-16-bytes"])
    def test_unreadable_input_exits_2(self, tmp_path, capsys, make):
        path = tmp_path / "in.json"
        make(path)
        assert main(["info", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

    def test_document_loads_before_the_options_are_checked(self, tmp_path, capsys):
        # every command gets its document from main, so an unreadable one is
        # named even beside an option that would be refused
        path = tmp_path / "missing.json"
        assert main(["subdivide", str(path), "--barycentric", "--fresh", "5"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

    @pytest.mark.parametrize("argv", [
        ["flip", "--removed", "1,2,3", "--inserted", "7", "-o"],
        ["walk", "--steps", "1", "--seed", "1", "--log"],
        ["certify", "--labels", "canon", "--seed", "1", "--out"],
        ["subdivide", "--barycentric", "--map"],
    ], ids=["flip-output", "walk-log", "certify-out", "subdivide-map"])
    def test_unwritable_output_exits_2(self, octa_file, tmp_path, capsys, argv):
        out = tmp_path / "no-such-dir" / "out.json"
        assert main([argv[0], octa_file, *argv[1:], str(out)]) == 2
        assert f"error: {out}: " in capsys.readouterr().err
        assert not out.parent.exists()


_KEYS = st.sampled_from(["facets", "z2", "labels", "format"]) | st.text(max_size=4)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 5) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_KEYS, inner, max_size=4),
    max_leaves=12)
_VERTEX = st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4])
_FACET = st.lists(_VERTEX, max_size=5)
_SPHERES = [cross_polytope(k).complex.facets for k in (1, 2, 3, 4)]


@st.composite
def _near_miss_documents(draw):
    """Complex documents that are often valid and often off by one detail:
    cross polytopes with a facet or two replaced, or random facet lists
    closed under negation or not, with labels that may break antipodality
    or repeat a vertex or label one outside the complex."""
    if draw(st.booleans()):
        facets = [list(f) for f in draw(st.sampled_from(_SPHERES))]
        for _ in range(draw(st.integers(0, 2))):
            facets[draw(st.integers(0, len(facets) - 1))] = draw(_FACET)
    else:
        facets = draw(st.lists(_FACET, max_size=6))
        if draw(st.booleans()):
            facets += [[-v for v in f] for f in facets]
    doc = {"facets": facets}
    z2 = draw(st.sampled_from([True, True, False, 1, "false", None, "absent"]))
    if z2 != "absent":
        doc["z2"] = z2
    labels = draw(st.sampled_from(["absent", "identity", "random"]))
    if labels != "absent":
        vertices = sorted({v for f in facets for v in f})
        doc["labels"] = [[v, v if labels == "identity" else draw(_VERTEX)]
                         for v in vertices]
        if doc["labels"]:
            doc["labels"] += draw(st.lists(st.sampled_from(doc["labels"]),
                                           max_size=1))
        if draw(st.booleans()):
            doc["labels"].append([draw(st.sampled_from([5, -5, 9])), draw(_VERTEX)])
    return doc


@settings(max_examples=50, deadline=None)
@given(doc=_JSON | _near_miss_documents())
@example(doc={"facets": [[]], "z2": True})
@example(doc={"facets": [[1, 2], [-1, -2], [1, -2], [-1, 2]], "z2": 1})
@example(doc={"facets": [[1, 2], [-1, -2], [1, -2], [-1, 2]], "z2": True,
              "labels": [[1, 1], [-1, -1], [2, 2], [-2, -2], [1, 5]]})
@example(doc={"facets": [[1, 2], [2, -1], [-1, -2], [-2, 1]], "z2": True,
              "labels": [[1, 1], [-1, -1], [2, 2], [-2, -2], [5, 3]]})
@example(doc={"facets": [[1, 2], [-1, -2], [1, -2], [-1, 2]], "format": 7})
def test_main_fuzz(tmp_path_factory, doc):
    """Every document exits 0, 2 or 3 under every command; nothing escapes."""
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    path.write_text(json.dumps(doc))
    for argv in (["info"], ["moves"], ["fan-check"], ["tucker"],
                 ["walk", "--steps", "2", "--seed", "1"],
                 ["flip", "--removed", "1", "--inserted", "2"],
                 ["subdivide", "--barycentric"], ["subdivide", "--stellar", "1"],
                 ["quotient"],
                 ["reduce", "--seed", "1", "--budget", "5"],
                 ["reduce", "--seed", "1", "--budget", "5", "--z2"],
                 ["certify", "--labels", "canon", "--seed", "1", "--budget", "5"],
                 ["certify", "--labels", "random", "--seed", "1", "--budget", "5"]):
        assert main([argv[0], str(path)] + argv[1:]) in (0, 2, 3)
