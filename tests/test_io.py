import hashlib
import json
import random
import re
import sys
from xml.dom import minidom

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calsched import (
    Schedule,
    ValidationError,
    build_instance,
    emit_plot,
    format_temperature,
    generate_instance,
    parse_instance,
    pareto_sweep,
    serialize_instance,
    shortest_schedule,
    total_temperature_change,
    verify_schedule,
)
from calsched import brute_force_optimal, cli, formats, oracle, solver
from calsched.cli import EXIT_INTERNAL, main
from calsched.core import MAGNITUDE_LIMIT
from calsched.formats import detect_format, plot_svg, plot_tsv, plot_tsv_bytes
from conftest import TEN_JOB_THREE_COLOR, job_records, make_two_color, two_color_instances


class TestParsing:
    def test_basic_csv(self):
        inst = parse_instance("a,1.0,0\nb,4.0,0\nc,2.0,1\nd,3.0,1", "csv")
        assert inst.count(0) == 2 and inst.count(1) == 2

    def test_header_detected(self):
        inst = parse_instance("id,temperature,color\na,1.5,0\nb,2,1\n", "csv")
        assert len(inst.jobs) == 2
        assert inst.job_by_id("a").temperature == 1500

    def test_negative_temperature_rejected(self):
        with pytest.raises(ValidationError):
            parse_instance("x,-1,0", "csv")

    def test_malformed_row_reports_line(self):
        with pytest.raises(ValidationError, match="line 2"):
            parse_instance("a,1,0\nb,2\n", "csv")

    @pytest.mark.parametrize("text", ["a,1x,0\nb,2,1\n", "a,1\nb,2,1\n", "a,1,x\nb,2,1\n"])
    def test_malformed_first_line_is_not_a_header(self, text):
        # Only a three-field line 1 whose temperature and color both fail
        # to parse is a header; any other bad line 1 is a bad data row.
        with pytest.raises(ValidationError, match="^line 1: "):
            parse_instance(text, "csv")

    def test_three_color_csv(self):
        text = "\n".join(f"c{c}t{t},{t},{c}" for t, c in TEN_JOB_THREE_COLOR)
        inst = parse_instance(text, "csv")
        assert inst.colors == (0, 1, 2)
        assert len(inst.jobs) == 10

    def test_json_input(self):
        text = json.dumps(
            [
                {"id": "a", "temperature": "1.5", "color": 0},
                {"id": "b", "temperature": 3, "color": 1},
            ]
        )
        inst = parse_instance(text, "json")
        assert inst.job_by_id("a").temperature == 1500
        assert inst.job_by_id("b").temperature == 3000

    def test_json_missing_field(self):
        with pytest.raises(ValidationError, match="missing"):
            parse_instance('[{"id": "a", "color": 0}]', "json")

    @pytest.mark.parametrize("color", [1.7, True, False, "1.0", None, float("inf")])
    def test_json_color_must_be_an_integer(self, color):
        text = json.dumps([{"id": "a", "temperature": 1, "color": 0}, {"id": "b", "temperature": 2, "color": color}])
        with pytest.raises(ValidationError, match="job b: invalid color"):
            parse_instance(text, "json")

    @pytest.mark.parametrize("color", [1, "1", 1.0])
    def test_json_integer_colors_accepted(self, color):
        text = json.dumps([{"id": "a", "temperature": 1, "color": 0}, {"id": "b", "temperature": 2, "color": color}])
        assert parse_instance(text, "json").job_by_id("b").color == 1

    @pytest.mark.parametrize("record_id", [None, True, False, 1.5, 1.0, [1], {"a": 1}])
    def test_json_id_must_be_a_string_or_integer(self, record_id):
        text = json.dumps([{"id": "a", "temperature": 1, "color": 0}, {"id": record_id, "temperature": 2, "color": 1}])
        with pytest.raises(ValidationError, match=re.escape(f"job {record_id!r}: invalid id {record_id!r}")):
            parse_instance(text, "json")

    def test_json_string_and_integer_ids_accepted(self):
        text = json.dumps([{"id": 7, "temperature": 1, "color": 0}, {"id": "7x", "temperature": 2, "color": 1}])
        inst = parse_instance(text, "json")
        assert [job.id for job in inst.jobs] == ["7", "7x"]

    def test_detect_format(self):
        assert detect_format('[{"id": "a"}]') == "json"
        assert detect_format("a,1,0") == "csv"

    @given(two_color_instances())
    @settings(max_examples=30)
    def test_roundtrip_both_formats(self, instance):
        for fmt in ("csv", "json"):
            again = parse_instance(serialize_instance(instance, fmt), fmt)
            assert again == instance

    def test_roundtrip_with_merged_duplicates(self):
        inst = build_instance([("a", 2, 0), ("x", 5, 1), ("b", 2, 0)])
        again = parse_instance(serialize_instance(inst, "csv"), "csv")
        assert again == inst
        assert again.job_by_id("a").members == ("a", "b")


class TestPlot:
    def test_single_job(self):
        inst = build_instance([("a", 5, 1)])
        rows = emit_plot(Schedule(instance=inst, order=("a",)))
        assert len(rows) == 1
        assert (rows[0].cumulative, rows[0].temperature, rows[0].color, rows[0].job_id) == (
            0, 5000, 1, "a"
        )

    def test_cumulative_prefix_sums(self):
        inst = make_two_color([1, 4], [2, 3])
        schedule = Schedule(instance=inst, order=("w1", "b1", "b2", "w2"))
        rows = emit_plot(schedule)
        assert [r.cumulative for r in rows] == [0, 1000, 2000, 3000]
        assert rows[-1].cumulative == total_temperature_change(schedule)

    def test_merged_duplicates_expand(self):
        inst = build_instance([("a", 2, 0), ("b", 2, 0), ("c", 4, 1)])
        schedule = Schedule(instance=inst, order=("a", "c"))
        rows = emit_plot(schedule)
        assert [r.job_id for r in rows] == ["a", "b", "c"]
        assert [r.cumulative for r in rows] == [0, 0, 2000]

    def test_tsv_and_svg_render(self):
        inst = make_two_color([1, 4], [2, 3])
        schedule = Schedule(instance=inst, order=("w1", "b1", "b2", "w2"))
        tsv = plot_tsv(schedule)
        assert tsv.splitlines()[0] == "cumulative_T\ttemperature\tcolor\tid"
        assert tsv.splitlines()[1] == "0\t1\t0\tw1"
        svg = plot_svg(emit_plot(schedule))
        assert svg.startswith("<svg") and svg.count("<circle") == 4

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_tsv_lines_are_the_formatted_rows(self, data):
        # Eighths give fractional temperatures; few values, so duplicates merge.
        records = data.draw(job_records(max_colors=3, max_jobs=9, max_temp=12))
        instance = build_instance([(i, t / 8, c) for i, t, c in records])
        schedules = [
            Schedule.from_jobs(instance, data.draw(st.permutations(instance.jobs))) for _ in range(3)
        ]
        for schedule, text in zip(schedules, plot_tsv_bytes(schedules)):
            expected, total = [], 0
            for before, job in zip((None, *schedule.jobs), schedule.jobs):
                total += 0 if before is None else abs(job.temperature - before.temperature)
                expected += [(total, job.temperature, job.color, member) for member in job.members]
            rows = emit_plot(schedule)
            assert [(r.cumulative, r.temperature, r.color, r.job_id) for r in rows] == expected
            lines = [
                f"{format_temperature(x)}\t{format_temperature(t)}\t{c}\t{i}" for x, t, c, i in expected
            ]
            assert plot_tsv(schedule).splitlines() == ["cumulative_T\ttemperature\tcolor\tid", *lines]
            assert text == plot_tsv(schedule).encode()

    @pytest.mark.parametrize("chunk_rows", [1, 5, 7, 40])
    def test_chunks_do_not_change_the_bytes(self, monkeypatch, chunk_rows):
        rng = random.Random(chunk_rows)
        instance = build_instance([(f"j{i}", rng.randint(0, 9) / 4, i % 2) for i in range(12)])
        assert len(instance.jobs) < instance.total_jobs
        schedules = [Schedule.from_jobs(instance, rng.sample(instance.jobs, len(instance.jobs))) for _ in range(9)]
        whole = [plot_tsv(schedule).encode() for schedule in schedules]
        monkeypatch.setattr(formats, "_CHUNK_ROWS", chunk_rows)
        assert list(plot_tsv_bytes(schedules)) == whole
        assert list(plot_tsv_bytes([])) == []

    def test_cumulative_text_is_format_temperature(self):
        # Every fraction with whole parts of 1 to 7 digits, in one plot that
        # climbs from 0, so each cumulative value is the job's temperature.
        scaled = [whole * 1000 + fraction for whole in (0, 1, 9, 10, 999, 10**6) for fraction in range(1000)]
        instance = build_instance([(f"j{t}", format_temperature(t), 0) for t in scaled])
        schedule = Schedule.from_jobs(instance, instance.sorted_jobs(0))
        lines = plot_tsv(schedule).splitlines()[1:]
        assert [line.split("\t")[:2] for line in lines] == [[format_temperature(t)] * 2 for t in scaled]
        # The widest whole part the magnitude bound admits.
        hot = MAGNITUDE_LIMIT // 2 // 1000 * 1000 + 5
        pair = build_instance([("a", 0, 0), ("b", format_temperature(hot), 1)])
        lines = plot_tsv(Schedule(instance=pair, order=("a", "b"))).splitlines()
        assert lines[-1] == f"{format_temperature(hot)}\t{format_temperature(hot)}\t1\tb"
        assert len(format_temperature(hot).split(".")[0]) == 15


class TestGenerator:
    def test_deterministic(self):
        a = generate_instance(seed=1, n0=3, n1=3)
        b = generate_instance(seed=1, n0=3, n1=3)
        assert a == b

    def test_single_color_allowed(self):
        inst = generate_instance(seed=2, n0=0, n1=4)
        assert inst.colors == (1,)

    def test_range_and_distinctness(self):
        inst = generate_instance(seed=3, n0=5, n1=5, t_min=1, t_max=1000)
        for color in (0, 1):
            temps = [j.temperature for j in inst.sorted_jobs(color)]
            assert len(temps) == len(set(temps)) == 5
            assert all(1000 <= t <= 1000 * 1000 for t in temps)

    def test_range_too_small(self):
        with pytest.raises(ValidationError):
            generate_instance(seed=1, n0=5, n1=0, t_min=1, t_max=4)


class TestVerify:
    def test_reports_match_solver(self):
        inst = make_two_color([1, 4, 9], [2, 3])
        result = shortest_schedule(inst, 2)
        report = verify_schedule(inst, list(result.schedule.expanded_ids()))
        assert report["T"] == "8"
        assert report["C"] == result.changes
        assert report["canonical"] is True

    def test_rejects_incomplete_cover(self):
        inst = make_two_color([1, 4], [2])
        with pytest.raises(ValidationError):
            verify_schedule(inst, ["w1", "w2"])


class TestCli:
    @pytest.fixture
    def instance_file(self, tmp_path):
        path = tmp_path / "jobs.csv"
        path.write_text("w1,1,0\nw2,4,0\nb1,2,1\nb2,3,1\n", encoding="utf-8")
        return path

    def test_solve_budget_one(self, instance_file, capsys):
        code = main(["solve", "--input", str(instance_file), "--max-color-changes", "1"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["T"] == "5" and doc["C"] == 1 and doc["feasible"]

    def test_solve_zero_budget_exits_2(self, instance_file, capsys):
        code = main(["solve", "--input", str(instance_file), "--max-color-changes", "0"])
        assert code == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["feasible"] is False

    def test_solve_bad_input_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("x,-1,0\n", encoding="utf-8")
        code = main(["solve", "--input", str(path), "--max-color-changes", "1"])
        assert code == 1

    def test_solve_with_plot_and_oracle_check(self, instance_file, tmp_path, capsys):
        plot = tmp_path / "out.tsv"
        code = main(
            [
                "solve", "--input", str(instance_file),
                "--max-color-changes", "2",
                "--emit-plot", str(plot), "--oracle-check",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        lines = plot.read_text(encoding="utf-8").splitlines()
        assert lines[-1].split("\t")[0] == doc["T"]

    def test_solve_three_colors_routes_to_oracle(self, tmp_path, capsys):
        path = tmp_path / "three.csv"
        path.write_text(
            "\n".join(f"c{c}t{t},{t},{c}" for t, c in TEN_JOB_THREE_COLOR),
            encoding="utf-8",
        )
        code = main(["solve", "--input", str(path), "--max-color-changes", "4"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["T"] == "7"

    def test_three_color_oracle_check_builds_one_table(self, tmp_path, capsys, monkeypatch):
        rows = [f"j{i},{t},{c}" for i, (t, c) in enumerate(TEN_JOB_THREE_COLOR[:8])]
        path = tmp_path / "three.csv"
        path.write_text("\n".join(rows), encoding="utf-8")
        builds = []
        real_table = oracle._subset_dp_table
        monkeypatch.setattr(
            oracle, "_subset_dp_table", lambda *a: builds.append(a) or real_table(*a)
        )
        argv = ["solve", "--input", str(path), "--max-color-changes", "3"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        builds.clear()
        assert main([*argv, "--oracle-check"]) == 0
        assert len(builds) == 1
        assert capsys.readouterr().out == plain

    def test_solve_three_colors_too_large_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CALSCHED_ORACLE_MAX_N", "5")
        rows = [f"j{i},{t},{c}" for i, (t, c) in enumerate(TEN_JOB_THREE_COLOR)]
        path = tmp_path / "big.csv"
        path.write_text("\n".join(rows), encoding="utf-8")
        code = main(["solve", "--input", str(path), "--max-color-changes", "4"])
        assert code == 3

    def test_sweep(self, instance_file, capsys):
        code = main(["sweep", "--input", str(instance_file)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["pareto"] == [[0, None], [1, "5"], [2, "3"], [3, "3"]]

    @pytest.mark.parametrize("seed", [None, 5, 6])
    def test_sweep_builds_one_graph_and_plots_match_solves(
        self, seed, tmp_path, capsys, monkeypatch
    ):
        if seed is None:
            records = [("w", 1, 0), ("b", 2, 1)]
        else:  # few distinct temperatures, so duplicates merge
            rng = random.Random(seed)
            records = [(f"j{i}", rng.randint(1, 6), i % 2) for i in range(14)]
        instance = build_instance(records)
        path = tmp_path / "jobs.csv"
        path.write_text(serialize_instance(instance, "csv"), encoding="utf-8")
        builds = []
        real_build = solver.build_search_graph
        monkeypatch.setattr(
            solver, "build_search_graph", lambda *a: builds.append(a) or real_build(*a)
        )
        plots = tmp_path / "plots"
        for extra in ([], ["--emit-plot-dir", str(plots)]):
            builds.clear()
            assert main(["sweep", "--input", str(path), *extra]) == 0
            assert len(builds) == 1
            doc = json.loads(capsys.readouterr().out)
        top = shortest_schedule(instance, doc["pareto"][-1][0]).schedule
        assert doc["schedule"] == list(top.expanded_ids())
        expected = {}
        for k, value in pareto_sweep(instance):
            if value is not None:
                schedule = shortest_schedule(instance, k).schedule
                expected[f"pareto_k{k}.tsv"] = plot_tsv(schedule)
        written = {f.name: f.read_text(encoding="utf-8") for f in plots.iterdir()}
        assert written == expected

    @pytest.mark.parametrize("seed", [7, 8])
    def test_multicolor_sweep_builds_one_table_and_plots_match_solves(
        self, seed, tmp_path, capsys, monkeypatch
    ):
        rng = random.Random(seed)  # few distinct temperatures, so duplicates merge
        records = [(f"j{i}", rng.randint(1, 4), i % 3) for i in range(14)]
        instance = build_instance(records)
        assert 8 <= len(instance.jobs) < 14
        path = tmp_path / "jobs.csv"
        path.write_text(serialize_instance(instance, "csv"), encoding="utf-8")
        builds = []
        real_table = oracle._subset_dp_table
        monkeypatch.setattr(
            oracle, "_subset_dp_table", lambda *a: builds.append(a) or real_table(*a)
        )
        plots = tmp_path / "plots"
        for extra in ([], ["--emit-plot-dir", str(plots)]):
            builds.clear()
            assert main(["sweep", "--input", str(path), *extra]) == 0
            assert len(builds) == 1
            doc = json.loads(capsys.readouterr().out)
        top = brute_force_optimal(instance, doc["pareto"][-1][0]).optimal_schedules[0]
        assert doc["schedule"] == list(top.expanded_ids())
        expected = {}
        for k, value in doc["pareto"]:
            if value is not None:
                schedule = brute_force_optimal(instance, k).optimal_schedules[0]
                expected[f"pareto_k{k}.tsv"] = plot_tsv(schedule)
        written = {f.name: f.read_text(encoding="utf-8") for f in plots.iterdir()}
        assert written == expected

    @pytest.mark.parametrize("colors,seed", [(2, 5), (2, 9), (3, 7)])
    def test_sweep_formats_each_distinct_plot_once(
        self, colors, seed, tmp_path, capsys, monkeypatch
    ):
        rng = random.Random(seed)  # few distinct temperatures, so the curve has flats
        records = [(f"j{i}", rng.randint(1, 5), i % colors) for i in range(4 * colors + 6)]
        instance = build_instance(records)
        path = tmp_path / "jobs.csv"
        path.write_text(serialize_instance(instance, "csv"), encoding="utf-8")
        formatted, labelled = [], []
        real_bytes = cli.plot_tsv_bytes
        monkeypatch.setattr(
            cli, "plot_tsv_bytes", lambda s: formatted.extend(x.order for x in s) or real_bytes(s)
        )
        monkeypatch.setattr(
            formats, "format_temperature", lambda v: labelled.append(v) or format_temperature(v)
        )
        plots = tmp_path / "plots"
        assert main(["sweep", "--input", str(path), "--emit-plot-dir", str(plots)]) == 0
        monkeypatch.undo()
        doc = json.loads(capsys.readouterr().out)
        budgets = [k for k, value in doc["pareto"] if value is not None]
        schedules = [shortest_schedule(instance, k).schedule for k in budgets]
        distinct = {schedule.order for schedule in schedules}
        assert sorted(formatted) == sorted(distinct)
        assert len(distinct) < len(budgets) == len(list(plots.iterdir()))
        # At most one call per distinct job temperature, and none per row.
        assert len(labelled) == len(set(labelled))
        assert set(labelled) <= {job.temperature for job in instance.jobs}
        for k, schedule in zip(budgets, schedules):
            written = (plots / f"pareto_k{k}.tsv").read_bytes()
            lines = [
                f"{format_temperature(r.cumulative)}\t{format_temperature(r.temperature)}\t{r.color}\t{r.job_id}\n"
                for r in emit_plot(schedule)
            ]
            assert written == "".join(["cumulative_T\ttemperature\tcolor\tid\n", *lines]).encode()

    def test_failed_self_check_is_an_internal_error(self, instance_file, capsys, monkeypatch):
        def broken(self, budgets):
            raise AssertionError("backtrack mismatch on color-0 grid")

        monkeypatch.setattr(solver.SearchGraph, "solve_many", broken)
        code = main(["solve", "--input", str(instance_file), "--max-color-changes", "2"])
        assert code == EXIT_INTERNAL == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "internal error: backtrack mismatch on color-0 grid\n"

    @pytest.mark.parametrize(
        "command",
        [["solve", "--max-color-changes", "2", "--emit-plot"], ["sweep", "--emit-plot-dir"]],
    )
    def test_unwritable_plot_prints_no_result(self, instance_file, tmp_path, capsys, command):
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("", encoding="utf-8")
        argv = [command[0], "--input", str(instance_file), *command[1:]]
        assert main([*argv, str(blocker / "out.tsv")]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:")

    @pytest.mark.parametrize(
        "temperature,command",
        [
            ("2400000000000000", ["solve", "--max-color-changes", "2"]),
            ("2400000000000000", ["solve", "--max-color-changes", "3"]),
            ("9300000000000000", ["sweep"]),
        ],
    )
    def test_huge_temperature_is_a_validation_error(self, tmp_path, capsys, temperature, command):
        path = tmp_path / "hot.csv"
        path.write_text(f"w1,1,0\nw2,{temperature},0\nb1,2,1\nb2,3,1\n", encoding="utf-8")
        code = main([command[0], "--input", str(path), *command[1:]])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: temperatures too large")

    def test_solve_fractional_json_color_exits_1(self, tmp_path, capsys):
        path = tmp_path / "jobs.json"
        path.write_text('[{"id": "a", "temperature": 1, "color": 0}, {"id": "b", "temperature": 2, "color": 1.7}]')
        assert main(["solve", "--input", str(path), "--max-color-changes", "1"]) == 1
        assert "invalid color 1.7" in capsys.readouterr().err

    @pytest.mark.parametrize("raw_id", ["null", "true", "1.5", "[1]"])
    def test_solve_non_string_json_id_exits_1(self, tmp_path, capsys, raw_id):
        path = tmp_path / "jobs.json"
        path.write_text(f'[{{"id": "a", "temperature": 1, "color": 0}}, {{"id": {raw_id}, "temperature": 2, "color": 1}}]')
        assert main(["solve", "--input", str(path), "--max-color-changes", "1"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "invalid id" in err

    @pytest.mark.parametrize("command", ["solve", "sweep", "verify"])
    def test_non_utf8_input_names_the_byte(self, instance_file, tmp_path, capsys, command):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"w1,1,0\nw2,4,0\nb1,2,1\nb\xff,3,1\n")
        extra = {"solve": ["--max-color-changes", "1"], "sweep": [], "verify": ["--schedule", str(instance_file)]}
        assert main([command, "--input", str(path), *extra[command]]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {path}: not UTF-8: byte 0xff at offset 22\n"

    def test_non_utf8_schedule_names_the_byte(self, instance_file, tmp_path, capsys):
        path = tmp_path / "schedule.json"
        path.write_bytes(b'["w1", "w2", "b1", "b2\xc3"]')
        assert main(["verify", "--input", str(instance_file), "--schedule", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {path}: not UTF-8: byte 0xc3 at offset 22\n"

    @pytest.mark.parametrize("command", ["solve", "sweep", "verify"])
    def test_deeply_nested_json_is_a_validation_error(self, instance_file, tmp_path, capsys, command):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        if command == "verify":
            argv = ["verify", "--input", str(instance_file), "--schedule", str(deep)]
        else:
            argv = [command, "--input", str(deep), *(["--max-color-changes", "1"] * (command == "solve"))]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "error: invalid JSON: nested too deeply\n"

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="Python without an integer digit limit"
    )
    def test_long_json_integer_names_the_digit_limit(self, tmp_path, capsys):
        limit = sys.get_int_max_str_digits()
        path = tmp_path / "digits.json"
        path.write_text(
            '[{"id": "w1", "temperature": 1' + "0" * (limit + 700) + ', "color": 0}]', encoding="utf-8"
        )
        assert main(["solve", "--input", str(path), "--max-color-changes", "1"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: invalid JSON: integer with more than {limit:,} digits\n"

    def test_svg_plot_escapes_job_ids(self, tmp_path, capsys):
        ids = ["a&b", "c<d", 'e"f', "g>h"]
        path = tmp_path / "ids.json"
        path.write_text(
            json.dumps([{"id": job_id, "temperature": t, "color": t % 2} for t, job_id in enumerate(ids, 1)]),
            encoding="utf-8",
        )
        svg = tmp_path / "x.svg"
        assert main(["solve", "--input", str(path), "--max-color-changes", "3", "--emit-plot", str(svg)]) == 0
        capsys.readouterr()
        titles = minidom.parse(str(svg)).getElementsByTagName("title")
        assert sorted(title.firstChild.data for title in titles) == sorted(ids)

    @pytest.mark.parametrize(
        "name,text,message",
        [
            ("overflow.csv", "w1,1e1000000,0\nb1,2,1\n", "line 1: temperature 1e+1000000 too large"),
            ("digits.csv", "w1,1,0\nb1,1e5000,1\n", "line 2: temperature 1e+5000 too large"),
            (
                "digits.json",
                '[{"id": "w1", "temperature": 1' + "0" * 5000 + ', "color": 0}]',
                "invalid JSON: ",
            ),
            ("wide.csv", "w1,1,0\nb1," + "1" * 200_000 + ",1\n", "line 2: field larger than field limit"),
        ],
        ids=["decimal-overflow", "long-integer-text", "long-json-integer", "wide-csv-field"],
    )
    @pytest.mark.parametrize("command", ["solve", "sweep", "verify"])
    def test_extreme_input_is_a_validation_error(
        self, instance_file, tmp_path, capsys, command, name, text, message
    ):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        extra = {"solve": ["--max-color-changes", "1"], "sweep": [], "verify": ["--schedule", str(instance_file)]}
        assert main([command, "--input", str(path), *extra[command]]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize("claimed", ['"1e1000000"', "1" + "0" * 5000])
    def test_extreme_claimed_total_is_a_validation_error(self, instance_file, tmp_path, capsys, claimed):
        path = tmp_path / "schedule.json"
        path.write_text(f'{{"schedule": ["w1", "w2", "b1", "b2"], "T": {claimed}, "C": 1}}', encoding="utf-8")
        assert main(["verify", "--input", str(instance_file), "--schedule", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "claim, code",
        [
            ({"T": "5.0", "C": 1}, 0),
            ({"T": 5, "C": 1}, 0),
            ({"T": "5.000", "C": 1}, 0),
            ({"T": "5.001", "C": 1}, 1),
            ({"T": "5", "C": True}, 1),
            ({"T": "5", "C": 1.0}, 1),
            ({"T": "5", "C": 2}, 1),
        ],
    )
    def test_verify_compares_claims_by_value(self, instance_file, tmp_path, capsys, claim, code):
        assert main(["solve", "--input", str(instance_file), "--max-color-changes", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["T"], doc["C"]) == ("5", 1)
        result_path = tmp_path / "result.json"
        result_path.write_text(json.dumps({**doc, **claim}), encoding="utf-8")
        assert main(["verify", "--input", str(instance_file), "--schedule", str(result_path)]) == code
        assert json.loads(capsys.readouterr().out)["matches_claimed"] is (code == 0)

    def test_gen_solve_verify_pipeline(self, tmp_path, capsys):
        instance_path = tmp_path / "gen.csv"
        assert main(["gen", "--seed", "11", "--n0", "4", "--n1", "3", "--out", str(instance_path)]) == 0
        capsys.readouterr()
        assert main(["solve", "--input", str(instance_path), "--max-color-changes", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        result_path = tmp_path / "result.json"
        result_path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["verify", "--input", str(instance_path), "--schedule", str(result_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["matches_claimed"] is True
        assert report["canonical"] is True


PLOT_GOLDEN_COUNT = 40
# Recorded before plot text was built from numpy columns; any change to a
# plot byte, a file name or the printed result changes it.
PLOT_GOLDEN_DIGEST = "e42c7a4c651128f69b4798462218218607b8a28b7264a4f833e8ab20930d588a"


def golden_plot_csvs(count, seed=1609):
    """CSV texts of seeded instances: three in four have two colors, the
    rest three.  Temperatures are few multiples of a step in thousandths,
    so optima tie, the curve has flats and equal temperatures merge; the
    steps give whole, eighth and odd fractions, and every eighth instance
    sits near a million degrees."""
    rng = random.Random(seed)
    for index in range(count):
        colors = 3 if index % 4 == 3 else 2
        n = rng.randint(4, 9) if colors == 3 else rng.randint(2, 24)
        step = rng.choice((1000, 500, 125, 37, 1))
        base = 999_000_000 if index % 8 == 5 else rng.choice((0, 7))
        lines = []
        for i in range(n):
            milli = base + step * rng.randint(0, rng.choice((3, 6, n)))
            lines.append(f"j{i},{milli // 1000}.{milli % 1000:03d},{i % colors}\n")
        yield "".join(lines)


def test_plot_golden_digest(tmp_path, capsys):
    sha = hashlib.sha256()
    flats = 0
    for index, text in enumerate(golden_plot_csvs(PLOT_GOLDEN_COUNT)):
        work = tmp_path / f"i{index}"
        work.mkdir()
        path = work / "jobs.csv"
        path.write_text(text, encoding="utf-8")
        runs = [["sweep", "--emit-plot-dir", str(work / "plots")]]
        runs += [
            ["solve", "--max-color-changes", str(k), "--emit-plot", str(work / f"k{k}.{suffix}")]
            for k, suffix in ((0, "tsv"), (1, "tsv"), (3, "tsv"), (2, "svg"))
        ]
        for command, *extra in runs:
            code = main([command, "--input", str(path), *extra])
            sha.update(f"{command} {code}\n".encode() + capsys.readouterr().out.encode())
        for file in sorted(work.rglob("*")):
            if file.is_file() and file != path:
                sha.update(file.relative_to(work).as_posix().encode() + b"\0" + file.read_bytes())
        plots = [file.read_bytes() for file in (work / "plots").iterdir()]
        flats += len(set(plots)) < len(plots)
    # Budgets that share an optimum must be common, so merged plots are pinned.
    assert flats >= PLOT_GOLDEN_COUNT // 2, flats
    assert sha.hexdigest() == PLOT_GOLDEN_DIGEST
