import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import pivot_oracle
from bitrades import cli, core, exact, geometry, groups, jsonio, solver, trigons
from bitrades.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_is_built_once(corpus_dir, capsys):
    cli._parser.cache_clear()
    for _ in range(3):
        assert run(capsys, "validate", str(corpus_dir / "ex45.json"))[0] == 0
    assert cli._parser.cache_info().misses == 1


class TestValidate:
    def test_ex45(self, corpus_dir, capsys):
        code, out, _ = run(capsys, "validate", str(corpus_dir / "ex45.json"))
        assert code == 0
        assert "size 12, m 14" in out
        assert "genus 0" in out

    def test_toroidal(self, corpus_dir, capsys):
        code, out, _ = run(capsys, "validate", str(corpus_dir / "toroidal.json"))
        assert code == 0
        assert "genus 1" in out

    def test_json_flag(self, corpus_dir, capsys):
        code, out, _ = run(capsys, "validate", "--json", str(corpus_dir / "ex45.json"))
        doc = json.loads(out)
        assert doc["size"] == 12 and doc["trigons"] == 0

    def test_malformed_json_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code, _, err = run(capsys, "validate", str(bad))
        assert code == 3 and "error" in err

    def test_missing_file_exit_3(self, tmp_path, capsys):
        code, _, _ = run(capsys, "validate", str(tmp_path / "absent.json"))
        assert code == 3

    def test_impossible_metrics_exit_6(self, tmp_path, capsys, monkeypatch, two_intercalates):
        # m = 12 > size + 2 = 10 is proven impossible on an indecomposable bitrade, so
        # a wrong indecomposability verdict is an internal check failure
        path = tmp_path / "two_intercalates.json"
        jsonio.dump(two_intercalates, path)
        monkeypatch.setattr(core, "is_indecomposable", lambda T: True)
        code, out, err = run(capsys, "validate", str(path))
        assert (code, out) == (6, "")
        assert err.startswith("error: internal check failed: m = 12 > size + 2 = 10")

    @staticmethod
    def bad_inputs(d, intercalate):
        """A star entry with a list for a name, a non-UTF-8 file, a directory,
        JSON nested deeper than the parser's recursion limit."""
        doc = json.loads(jsonio.dumps(intercalate))
        doc["star"][0][0] = [doc["star"][0][0]]
        (d / "list_name.json").write_text(json.dumps(doc))
        (d / "latin1.json").write_bytes(jsonio.dumps(intercalate).replace(
            '"r0"', '"ré"').encode("latin-1"))
        (d / "folder.json").mkdir()
        (d / "deep.json").write_text("[" * 100_000)
        return ["deep.json", "folder.json", "latin1.json", "list_name.json"]

    @pytest.mark.parametrize("command", ["validate", "solve", "dissect", "embed", "trigons"])
    def test_bad_input_file_exit_3(self, tmp_path, capsys, intercalate, command):
        for name in self.bad_inputs(tmp_path, intercalate):
            code, out, err = run(capsys, command, str(tmp_path / name))
            assert (code, out) == (3, "") and err.startswith("error: "), name

    def test_bad_input_files_keep_the_report(self, tmp_path, capsys, intercalate):
        bad = self.bad_inputs(tmp_path, intercalate)
        jsonio.dump(intercalate, tmp_path / "intercalate.json")
        code, out, _ = run(capsys, "report", str(tmp_path))
        rows = list(csv.DictReader(io.StringIO(out)))
        assert code == 0 and len(rows) == len(bad) + intercalate.size
        assert sorted(r["path"] for r in rows if r["status"] == "parse error") == bad
        assert [r["status"] for r in rows if r["path"] == "intercalate.json"] == ["ok"] * 4

    def test_duplicate_triple_exit_3(self, tmp_path, capsys, intercalate):
        doc = json.loads(jsonio.dumps(intercalate))
        doc["star"].append(doc["star"][0])
        dup = tmp_path / "dup.json"
        dup.write_text(json.dumps(doc))
        code, _, err = run(capsys, "validate", str(dup))
        assert code == 3 and "duplicate triple" in err
        code, out, _ = run(capsys, "report", str(tmp_path))
        assert code == 0 and out.splitlines()[1] == "dup.json,,,,,parse error,,,,,"

    def test_unused_label_exit_3(self, tmp_path, capsys, intercalate):
        doc = json.loads(jsonio.dumps(intercalate))
        doc["rows"].append("rX")
        (tmp_path / "unused.json").write_text(json.dumps(doc))
        with pytest.raises(jsonio.ParseError, match="^unused rows label 'rX'$"):
            jsonio.loads(json.dumps(doc))
        code, out, err = run(capsys, "validate", str(tmp_path / "unused.json"))
        assert (code, out) == (3, "") and "unused rows label 'rX'" in err
        jsonio.dump(intercalate, tmp_path / "intercalate.json")
        code, out, _ = run(capsys, "report", str(tmp_path))
        rows = list(csv.DictReader(io.StringIO(out)))
        assert code == 0 and [r["status"] for r in rows] == ["ok"] * 4 + ["parse error"]
        assert rows[-1]["path"] == "unused.json"

    def test_unused_labels_named_per_role(self, intercalate):
        doc = json.loads(jsonio.dumps(intercalate))
        doc["cols"][1:1] = ["cX", "cY"]  # declared before a used label
        doc["syms"].append("sX")
        with pytest.raises(jsonio.ParseError) as e:
            jsonio.loads(json.dumps(doc))
        assert str(e.value) == "unused cols label 'cX'; unused syms label 'sX'"

    def test_axiom_violation_exit_2(self, tmp_path, capsys, intercalate):
        doc = json.loads(jsonio.dumps(intercalate))
        doc["delta"][0] = doc["star"][0]
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc))
        code, _, err = run(capsys, "validate", str(broken))
        assert code == 2 and "R1" in err


class TestInputEntries:
    """Each bad triple entry gives the message of the first bad entry."""

    @staticmethod
    def document(star):
        """The intercalate on one-letter names, with its star entries replaced."""
        return json.dumps({"rows": ["a", "b"], "cols": ["c", "d"], "syms": ["e", "f"],
                           "star": star,
                           "delta": [["a", "c", "f"], ["a", "d", "e"], ["b", "c", "e"],
                                     ["b", "d", "f"]]})

    def test_the_intercalate_loads(self):
        T = jsonio.loads(self.document([["a", "c", "e"], ["a", "d", "f"], ["b", "c", "f"],
                                        ["b", "d", "e"]]))
        assert T.size == 4

    @pytest.mark.parametrize("entry", [
        "ace",  # would unpack into three known names
        {"a": 0, "c": 0, "e": 0},  # so would its keys
        ["a", 1, "e"], ["a", ["c"], "e"], ["a", "c"], ["a", "c", "e", "f"], None,
    ])
    def test_bad_entry(self, entry):
        star = [entry, ["a", "d", "f"], ["b", "c", "f"], ["b", "d", "e"]]
        with pytest.raises(jsonio.ParseError) as e:
            jsonio.loads(self.document(star))
        assert str(e.value) == f'bad entry in "star": {entry!r}'

    @pytest.mark.parametrize("entry, message", [
        (["x", "c", "e"], "unknown rows label 'x'"),
        (["a", "x", "e"], "unknown cols label 'x'"),
        (["a", "c", "x"], "unknown syms label 'x'"),
        (["c", "a", "e"], "unknown rows label 'c'"),
    ])
    def test_unknown_label(self, entry, message):
        star = [["a", "c", "e"], entry, ["b", "c", "f"], "bde"]  # the first bad entry is named
        with pytest.raises(jsonio.ParseError) as e:
            jsonio.loads(self.document(star))
        assert str(e.value) == f'{message} in "star"'


class TestSolve:
    def test_ex45_values(self, corpus_dir, capsys):
        code, out, _ = run(
            capsys, "solve", str(corpus_dir / "ex45.json"), "--pivot", "r0,c0,s4"
        )
        assert code == 0
        assert "r1=2/7" in out and "s3=11/14" in out
        assert "width: 14" in out

    def test_singular_exit_4(self, corpus_dir, capsys):
        code, _, err = run(capsys, "solve", str(corpus_dir / "toroidal.json"))
        assert code == 4 and "singular" in err

    def test_bad_pivot_exit_3(self, corpus_dir, capsys):
        code, _, _ = run(
            capsys, "solve", str(corpus_dir / "ex45.json"), "--pivot", "r9,c9,s9"
        )
        assert code == 3

    def test_json_output(self, corpus_dir, capsys):
        code, out, _ = run(
            capsys, "solve", "--json", str(corpus_dir / "intercalate.json")
        )
        doc = json.loads(out)
        assert doc["width"] == 2 and doc["separated"]

    def test_internal_check_exit_6(self, corpus_dir, capsys, monkeypatch):
        def wrong(M):
            form = exact.smith_normal_form(M)
            form.U[0] = [u + 1 for u in form.U[0]]  # every solution read off it is wrong
            return form

        monkeypatch.setattr(solver, "smith_normal_form", wrong)
        code, _, err = run(capsys, "solve", str(corpus_dir / "ex45.json"))
        assert code == 6 and "internal check failed" in err


class TestDissect:
    def test_svg_written(self, corpus_dir, tmp_path, capsys):
        out_svg = tmp_path / "out.svg"
        code, out, _ = run(
            capsys, "dissect", str(corpus_dir / "ex45.json"),
            "--pivot", "r0,c0,s4", "--svg", str(out_svg),
        )
        assert code == 0
        assert "12 triangles" in out
        text = out_svg.read_text()
        assert text.startswith("<svg") and text.count("<polygon") == 13

    def test_collision_exit_5(self, corpus_dir, capsys):
        code, _, err = run(
            capsys, "dissect", str(corpus_dir / "nested.json"), "--pivot", "r1,c1,s0"
        )
        assert code == 5 and "separate" in err

    def test_not_a_dissection_exit_6(self, corpus_dir, capsys, monkeypatch):
        report = geometry._report
        monkeypatch.setattr(geometry, "_report", lambda *args: dataclasses.replace(
            report(*args), pairwise_disjoint=False, is_dissection=False))
        code, _, err = run(capsys, "dissect", str(corpus_dir / "ex45.json"))
        assert code == 6 and "did not produce a dissection" in err


class TestEmbed:
    def test_intercalate(self, corpus_dir, capsys):
        code, out, _ = run(capsys, "embed", str(corpus_dir / "intercalate.json"))
        assert code == 0
        assert "G = Z + Z + Z2" in out and "H = Z2" in out
        assert "abelian-embeddable: yes" in out

    def test_toroidal_delta_side(self, corpus_dir, capsys):
        code, out, _ = run(capsys, "embed", str(corpus_dir / "toroidal_swapped.json"))
        assert code == 0 and "H = Z10" in out

    def test_toroidal_star_side(self, corpus_dir, capsys):
        code, out, _ = run(capsys, "embed", str(corpus_dir / "toroidal.json"))
        assert code == 0 and "abelian-embeddable: no" in out


    def test_group_check_exit_6(self, corpus_dir, capsys, monkeypatch):
        # a spherical input whose G has free rank 3 fails the check that H is
        # G's torsion, an InternalCheckFailed: B's kept form has its last d_k set to 0
        def one_rank_short(M):
            form = exact.smith_normal_form(M)
            return exact.SmithForm([*form.diagonal[:-1], 0], form.U, form.V)

        monkeypatch.setattr(solver, "smith_normal_form", one_rank_short)
        code, _, err = run(capsys, "embed", str(corpus_dir / "ex45.json"))
        assert code == 6 and "G must have free rank 2" in err and "torsion" in err


class TestSphereBesideTorus:
    """The intercalate beside the toroidal bitrade: m = size + 2, yet decomposable,
    so it is not spherical, has no genus, and no spherical-only check applies."""

    @pytest.fixture
    def path(self, sphere_and_torus, tmp_path):
        path = tmp_path / "sphere_and_torus.json"
        jsonio.dump(sphere_and_torus, path)
        return path

    def test_validate(self, path, capsys):
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 0 and "size 22, m 24" in out
        assert "indecomposable: False" in out
        assert "non-spherical (euler characteristic 2)\n" in out
        code, out, _ = run(capsys, "validate", "--json", str(path))
        doc = json.loads(out)
        assert (code, doc["indecomposable"], doc["spherical"], doc["genus"]) == (0, False, False, None)

    def test_embed(self, path, capsys):
        code, out, _ = run(capsys, "embed", str(path))
        assert code == 0
        assert "G = Z + Z + Z + Z + Z2\n" in out and "H = Z + Z + Z2\n" in out
        assert "deleted-column determinants" not in out

    def test_report(self, path, capsys):
        code, out, _ = run(capsys, "report", str(path.parent))
        rows = list(csv.DictReader(io.StringIO(out)))
        assert code == 0 and len(rows) == 22
        # nullity B is 4, so every pointed system is singular
        assert {(row["status"], row["genus"], row["H"], row["det_B"]) for row in rows} == {
            ("singular", "", "Z + Z + Z2", "")}


class TestSeparateAndTrigons:
    def test_ex45_pair(self, corpus_dir, capsys):
        code, out, _ = run(
            capsys, "separate", str(corpus_dir / "ex45.json"),
            "--pair", "r0", "r2", "--coord", "1",
        )
        assert code == 0
        assert "modulus: 14" in out and "recursion depth: 0" in out

    def test_nested_recursion(self, corpus_dir, capsys):
        code, out, _ = run(
            capsys, "separate", str(corpus_dir / "nested.json"),
            "--pair", "r0", "r2", "--coord", "1", "--pivot", "r2,c1,s1",
        )
        assert code == 0
        assert "modulus: 4" in out and "recursion depth: 1" in out

    def test_same_label_exit_3(self, corpus_dir, capsys):
        code, _, err = run(
            capsys, "separate", str(corpus_dir / "ex45.json"),
            "--pair", "r0", "r0", "--coord", "1",
        )
        assert code == 3 and "agree at coordinate" in err

    @pytest.mark.parametrize("error", [
        trigons.LemmaViolation, trigons.SplitInvalid, trigons.SpliceIdentityFailure])
    def test_trigon_check_exit_6(self, corpus_dir, capsys, monkeypatch, error):
        def failing(*args):  # split(T, tg[, flood])
            raise error("injected")

        monkeypatch.setattr(trigons, "split", failing)
        code, _, err = run(
            capsys, "separate", str(corpus_dir / "nested.json"),
            "--pair", "r0", "r2", "--coord", "1", "--pivot", "r2,c1,s1",
        )
        assert code == 6 and "internal check failed: injected" in err

    def test_trigons_none(self, corpus_dir, capsys):
        code, out, _ = run(capsys, "trigons", str(corpus_dir / "intercalate.json"))
        assert code == 0 and out.strip() == "none"

    def test_trigons_nested(self, corpus_dir, capsys):
        code, out, _ = run(capsys, "trigons", str(corpus_dir / "nested.json"))
        assert code == 0 and "(r2,c2,s0)" in out


class TestReport:
    def test_csv(self, corpus_dir, tmp_path, capsys):
        out_csv = tmp_path / "report.csv"
        code, _, _ = run(capsys, "report", str(corpus_dir), "-o", str(out_csv))
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0].startswith("path,pivot,size,m,genus,status")
        # one row per pivot of each instance: 4 + 12 + 18 + 18 + 7
        assert len(lines) == 1 + 4 + 12 + 18 + 18 + 7
        assert any("singular" in line for line in lines)
        ex45_rows = [ln for ln in lines if ln.startswith("ex45")]
        assert len(ex45_rows) == 12
        assert any(",14," in ln for ln in ex45_rows)

    def test_rows_match_single_pivot_solves(self, corpus_dir, capsys):
        code, out, _ = run(capsys, "report", str(corpus_dir))
        assert code == 0
        for row in csv.DictReader(io.StringIO(out)):
            T = jsonio.load(corpus_dir / row["path"])
            pivot = next(p for p in T.star if ",".join(p.names()) == row["pivot"])
            try:
                sol = solver.solve_pointed(solver.PointedBitrade(T, pivot))
            except solver.SingularSystem:
                assert (row["status"], row["width"]) == ("singular", "")
            else:
                assert (row["status"], row["width"]) == ("ok", str(sol.width()))

    def test_one_job_by_default(self):
        # --jobs is still parsed and checked, though it no longer changes anything
        assert cli.build_parser().parse_args(["report", "d"]).jobs == 1

    def test_files_are_analysed_in_the_calling_thread(self, corpus_dir, capsys,
                                                      monkeypatch):
        # the per-file work holds the GIL, so a thread pool only adds its hand-off
        pools = []

        def no_pool(*args, **kwargs):
            pools.append(args or kwargs)
            raise RuntimeError("report must start no thread pool")

        report_file = cli._report_file
        analysed = []

        def recording(path):
            analysed.append((path.name, threading.get_ident()))
            return report_file(path)

        monkeypatch.setattr(cli, "ThreadPoolExecutor", no_pool)
        monkeypatch.setattr(cli, "_report_file", recording)
        here = threading.get_ident()
        names = sorted(path.name for path in corpus_dir.glob("*.json"))
        for jobs in ([], ["--jobs", "1"], ["--jobs", "4"]):
            analysed.clear()
            code, _, _ = run(capsys, "report", str(corpus_dir), *jobs)
            assert (code, pools) == (0, [])
            assert analysed == [(name, here) for name in names]

    def test_deterministic(self, corpus_dir, capsys):
        code1, out1, _ = run(capsys, "report", str(corpus_dir), "--jobs", "1")
        code2, out2, _ = run(capsys, "report", str(corpus_dir), "--jobs", "8")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_same_csv_under_any_hash_seed(self, corpus_dir, seeded_spherical, tmp_path):
        # label hashes include a string hash, so set order differs between processes
        d = tmp_path / "inputs"
        d.mkdir()
        for path in corpus_dir.glob("*.json"):
            (d / path.name).write_text(path.read_text())
        for i, T in enumerate(seeded_spherical):
            jsonio.dump(T, d / f"spherical{i}.json")
        src = str(Path(cli.__file__).parents[1])
        outputs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            done = subprocess.run([sys.executable, "-m", "bitrades.cli", "report", str(d)],
                                  env=env, capture_output=True, text=True, check=True)
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]
        pivots = 4 + 12 + 18 + 18 + 7 + sum(T.size for T in seeded_spherical)
        assert len(outputs[0].splitlines()) == 1 + pivots


    @pytest.mark.parametrize("error", [AssertionError, core.InternalCheckFailed])
    def test_bad_file_keeps_the_others(self, corpus_dir, tmp_path, capsys, monkeypatch,
                                       error):
        d = tmp_path / "two"
        d.mkdir()
        for name in ("ex45.json", "intercalate.json"):
            (d / name).write_text((corpus_dir / name).read_text())
        subgroup_H = groups.subgroup_H

        def failing(T):
            if T.size == 12:
                raise error("injected")
            return subgroup_H(T)

        monkeypatch.setattr(groups, "subgroup_H", failing)
        code, out, _ = run(capsys, "report", str(d), "--jobs", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == f"ex45.json,,,,,error {error.__name__},,,,,"
        assert len(lines) == 2 + 4
        assert all(ln.startswith("intercalate.json,") and ",ok," in ln for ln in lines[2:])

    def test_one_elimination_per_spherical_file(self, tmp_path, capsys, monkeypatch,
                                                 seeded_spherical):
        # H, the minors and every pivot of a file read one Smith form of its B,
        # and no other Smith form is made
        smith = exact.smith_normal_form
        forms = []  # per form made: is it of B?

        def counting(M):
            forms.append(M == B)
            return smith(M)

        for module in (exact, solver, groups):
            monkeypatch.setattr(module, "smith_normal_form", counting)
        for i, T in enumerate(seeded_spherical):
            d = tmp_path / str(i)
            d.mkdir()
            jsonio.dump(T, d / "one.json")
            B, _ = solver.relation_matrix(T)
            forms.clear()
            code, out, _ = run(capsys, "report", str(d))
            assert (code, forms) == (0, [True])
            det_B = {row["det_B"] for row in csv.DictReader(io.StringIO(out))}
            assert det_B == {str(groups.check_det_invariance(T).common_value)}
            assert det_B == {str(pivot_oracle.check_det_invariance(T).report.common_value)}


class TestUsageErrors:
    """Each ends in exit 3 and one "error:" line, with no traceback and no output."""

    @staticmethod
    def usage_error(capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        return err

    def test_report_on_a_missing_directory_or_a_file(self, corpus_dir, tmp_path, capsys):
        for path in (tmp_path / "absent", corpus_dir / "ex45.json"):
            assert "is not a directory" in self.usage_error(capsys, "report", str(path))

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_report_jobs_below_1(self, corpus_dir, capsys, jobs):
        err = self.usage_error(capsys, "report", str(corpus_dir), "--jobs", jobs)
        assert "--jobs must be at least 1" in err

    def test_report_output_in_a_missing_directory(self, corpus_dir, tmp_path, capsys,
                                                  monkeypatch):
        analysed = []
        monkeypatch.setattr(cli, "_report_file", analysed.append)
        self.usage_error(capsys, "report", str(corpus_dir), "-o", str(tmp_path / "no" / "r.csv"))
        assert analysed == []  # it fails before any file is analysed

    def test_dissect_svg_in_a_missing_directory(self, corpus_dir, tmp_path, capsys):
        code, _, err = run(capsys, "dissect", str(corpus_dir / "ex45.json"),
                           "--svg", str(tmp_path / "no" / "out.svg"))
        assert code == 3 and err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        [], ["validate"], ["solve", "--pivot"], ["report", "x", "--jobs", "two"],
        ["separate", "f.json", "--pair", "r0", "r1", "--coord", "x"],
    ])
    def test_argparse_errors(self, capsys, argv):
        self.usage_error(capsys, *argv)

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["--help"])
        assert exit_.value.code == 0 and "usage: bitrades" in capsys.readouterr().out


class TestRoundTrip:
    def test_json_round_trip(self, corpus_dir):
        for path in corpus_dir.glob("*.json"):
            T = jsonio.load(path)
            again = jsonio.loads(jsonio.dumps(T))
            assert jsonio.dumps(again) == jsonio.dumps(T)
