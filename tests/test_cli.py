"""End-to-end command-line flows, run in process."""

import json
import math
import struct

import numpy as np
import pytest

from latcompress import cli, compression, index_sets, verify
from latcompress.cli import (
    _coprime_generator,
    load_dataset,
    main,
    parse_gamma,
    save_dataset,
)
from latcompress.compression import Dataset, WeightSet
from latcompress.lattice import LatticeRule, ProductWeights, cbc_construct


@pytest.fixture()
def dataset_file(tmp_path):
    rng = np.random.default_rng(40)
    data = Dataset(rng.random((60, 2)), rng.standard_normal(60))
    path = str(tmp_path / "data.bin")
    save_dataset(data, path)
    return path, data


class TestParseGamma:
    def test_grammar(self) -> None:
        assert parse_gamma("one", 3) == ProductWeights.ones(3)
        assert parse_gamma("ones", 2) == ProductWeights.ones(2)
        assert parse_gamma("geo:0.5", 3) == ProductWeights.geometric(0.5, 3)
        assert parse_gamma("poly:2", 3) == ProductWeights.polynomial(2.0, 3)
        assert parse_gamma("1.0,0.5,0.25", 3) == ProductWeights(
            (1.0, 0.5, 0.25)
        )

    def test_list_length_checked(self) -> None:
        with pytest.raises(ValueError, match="2 entries, need 3"):
            parse_gamma("1.0,0.5", 3)


class TestDatasetIO:
    def test_binary_round_trip_bitwise(self, tmp_path) -> None:
        rng = np.random.default_rng(41)
        data = Dataset(rng.random((25, 3)), rng.standard_normal(25))
        path = str(tmp_path / "d.bin")
        save_dataset(data, path)
        back = load_dataset(path)
        np.testing.assert_array_equal(back.X, data.X)
        np.testing.assert_array_equal(back.Y, data.Y)

    def test_binary_truncation(self, tmp_path) -> None:
        rng = np.random.default_rng(42)
        data = Dataset(rng.random((10, 2)), rng.standard_normal(10))
        path = str(tmp_path / "d.bin")
        save_dataset(data, path)
        raw = open(path, "rb").read()
        open(path, "wb").write(raw[:-8])
        with pytest.raises(ValueError, match="truncated"):
            load_dataset(path)

    def test_binary_trailing_bytes(self, tmp_path) -> None:
        # a header whose row count is too small leaves rows after the
        # payload: refused, not dropped
        rng = np.random.default_rng(43)
        data = Dataset(rng.random((10, 2)), rng.standard_normal(10))
        path = str(tmp_path / "d.bin")
        save_dataset(data, path)
        raw = bytearray(open(path, "rb").read())
        raw[4:8] = struct.pack("<I", 9)
        open(path, "wb").write(bytes(raw))
        with pytest.raises(ValueError, match="bytes after"):
            load_dataset(path)

    def test_csv_with_header(self, tmp_path) -> None:
        path = tmp_path / "d.csv"
        path.write_text("x1,x2,y\n0.1,0.2,1.5\n0.3,0.4,-2.0\n")
        data = load_dataset(str(path))
        assert data.N == 2 and data.d == 2
        np.testing.assert_allclose(data.X, [[0.1, 0.2], [0.3, 0.4]])
        np.testing.assert_allclose(data.Y, [1.5, -2.0])

    def test_csv_without_header(self, tmp_path) -> None:
        path = tmp_path / "d.csv"
        path.write_text("0.1,0.2,1.5\n\n0.3,0.4,-2.0\n")
        data = load_dataset(str(path))
        assert data.N == 2

    def test_csv_field_count_names_line(self, tmp_path) -> None:
        path = tmp_path / "d.csv"
        path.write_text("x,y\n0.1,1.0\n0.2,2.0,3.0\n")
        with pytest.raises(ValueError, match="line 3: 3 fields, expected 2"):
            load_dataset(str(path))

    def test_csv_bad_number_names_line_and_field(self, tmp_path) -> None:
        path = tmp_path / "d.csv"
        path.write_text("x,y\n0.1,1.0\n0.2,oops\n")
        with pytest.raises(ValueError, match="line 3: field 2"):
            load_dataset(str(path))

    def test_csv_range_names_line_and_coordinate(self, tmp_path) -> None:
        path = tmp_path / "d.csv"
        path.write_text("x1,x2,y\n0.1,0.2,1.0\n0.3,1.2,2.0\n")
        with pytest.raises(
            ValueError, match=r"line 3: coordinate 2 .*outside"
        ):
            load_dataset(str(path))

    def test_csv_nonfinite_response(self, tmp_path) -> None:
        path = tmp_path / "d.csv"
        path.write_text("0.1,nan\n")
        with pytest.raises(ValueError, match="line 1: response"):
            load_dataset(str(path))

    def test_csv_empty_and_narrow(self, tmp_path) -> None:
        empty = tmp_path / "e.csv"
        empty.write_text("header\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_dataset(str(empty))
        narrow = tmp_path / "n.csv"
        narrow.write_text("1.0\n2.0\n")
        with pytest.raises(ValueError, match="at least one coordinate"):
            load_dataset(str(narrow))


class TestCbcCommand:
    def test_writes_constructed_rule(self, tmp_path) -> None:
        out = str(tmp_path / "rule.json")
        rc = main([
            "cbc", "--modulus", "31", "--dim", "3", "--alpha", "1.5",
            "--gamma", "poly:2", "--out", out,
        ])
        assert rc == 0
        rule = LatticeRule.load(out)
        want = cbc_construct(31, 3, 1.5, ProductWeights.polynomial(2.0, 3))
        assert rule == want

    def test_standard_scan_identical(self, tmp_path) -> None:
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        argv = ["cbc", "--modulus", "61", "--dim", "3", "--alpha", "1.0",
                "--gamma", "geo:0.5"]
        assert main(argv + ["--out", a]) == 0
        assert main(argv + ["--standard-scan", "--out", b]) == 0
        assert open(a).read() == open(b).read()

    def test_nonprime_rejected(self, capsys) -> None:
        rc = main(["cbc", "--modulus", "9", "--dim", "2", "--alpha", "1.0"])
        assert rc == 2
        assert "prime" in capsys.readouterr().err


class TestIndexSetCommand:
    def test_count_and_rows(self, tmp_path) -> None:
        out = str(tmp_path / "set.json")
        rc = main([
            "index-set", "--family", "cross", "--alpha", "1.0",
            "--gamma", "one", "--dim", "2", "--level", "6",
            "--frequencies", "--out", out,
        ])
        assert rc == 0
        obj = json.load(open(out))
        assert obj["family"] == "cross"
        assert obj["count"] == len(obj["frequencies"])

    def test_auto_level_uses_modulus_hint(self, tmp_path, capsys) -> None:
        rc = main([
            "index-set", "--family", "cross", "--alpha", "1.5",
            "--gamma", "one", "--dim", "1", "--level", "auto",
            "--sigma", "0.5", "--modulus-hint", "100",
        ])
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        # rate alpha - 1/2 - sigma = 0.5, so the level is sqrt(100).
        assert obj["param"] == pytest.approx(10.0)

    def test_cap_exit_code(self, capsys) -> None:
        rc = main([
            "index-set", "--family", "cross", "--alpha", "1.0",
            "--gamma", "one", "--dim", "2", "--level", "1000",
            "--cap-frequencies", "5",
        ])
        assert rc == 4
        assert "cap" in capsys.readouterr().err


class TestCompressCommand:
    def _compress(self, dataset_file, tmp_path, *extra, name="w.json"):
        path, _ = dataset_file
        out = str(tmp_path / name)
        argv = [
            "compress", "--data", path, "--generator", "1,12",
            "--modulus", "31", "--family", "cross", "--alpha", "1.0",
            "--gamma", "one", "--level", "8", "--out", out,
        ]
        rc = main(argv + list(extra))
        return rc, out

    def test_round_trip_and_summary(self, dataset_file, tmp_path, capsys) -> None:
        rc, out = self._compress(dataset_file, tmp_path)
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["algorithm"] == "general-fft"
        assert summary["L"] == 31 and summary["N"] == 60
        ws = WeightSet.load(out)
        assert ws.rule == LatticeRule(31, (1, 12))
        assert ws.index_set.count == summary["count"]

    def test_algorithms_agree(self, dataset_file, tmp_path, capsys) -> None:
        _, a = self._compress(dataset_file, tmp_path, name="a.json")
        _, b = self._compress(
            dataset_file, tmp_path, "--algorithm", "naive", name="b.json"
        )
        capsys.readouterr()
        wa, wb = WeightSet.load(a), WeightSet.load(b)
        assert float(np.max(np.abs(wa.w_xz - wb.w_xz))) < 1e-9
        assert float(np.max(np.abs(wa.w_xyz - wb.w_xyz))) < 1e-9

    def test_threads_byte_identical(self, dataset_file, tmp_path, capsys) -> None:
        _, a = self._compress(
            dataset_file, tmp_path, "--sidecar", "--threads", "1",
            name="t1.json",
        )
        _, b = self._compress(
            dataset_file, tmp_path, "--sidecar", "--threads", "4",
            name="t4.json",
        )
        capsys.readouterr()
        assert open(a + ".w64", "rb").read() == open(b + ".w64", "rb").read()

    def test_cbc_route(
        self, dataset_file, tmp_path, capsys, monkeypatch
    ) -> None:
        path, _ = dataset_file
        want = cbc_construct(31, 2, 1.5, ProductWeights.ones(2))
        # The command prices the routes once and compresses by the choice.
        priced = []
        real = compression._route_choice

        def counted(*args, **kwargs):
            priced.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "_route_choice", counted)
        monkeypatch.setattr(compression, "_route_choice", counted)
        cases = [
            # 21 frequencies against 31 nodes times the sweep's passes:
            # the split is cheaper.  278,529 frequencies: the sweep is.
            ("1.0", "3", "general-fft"),
            ("0.5", "13", "step-cross"),
        ]
        for alpha, order, route in cases:
            out = str(tmp_path / f"w{order}.json")
            rc = main([
                "compress", "--data", path, "--cbc", "--modulus", "31",
                "--cbc-alpha", "1.5", "--family", "step-cross", "--alpha",
                alpha, "--gamma", "one", "--order", order, "--out", out,
            ])
            assert rc == 0
            summary = json.loads(capsys.readouterr().out)
            ws = WeightSet.load(out)
            assert ws.rule == want
            assert ws.algorithm == summary["algorithm"] == route
            choice = summary["route_choice"]
            assert choice["route"] == route
            assert set(choice["costs"]) == {"general-fft", "step-cross"}
            assert min(choice["costs"], key=choice["costs"].get) == route
            assert len(priced) == 1
            priced.clear()

    def test_split_priced_once(
        self, dataset_file, tmp_path, capsys, monkeypatch
    ) -> None:
        # general-FFT runs the split the command priced: one pricing of
        # the step cross's splits per command, and the split it expands
        # into a plan is the very object it priced, with the route choice
        # printed as choose_route gives it.
        path, data = dataset_file
        priced, expanded = [], []
        cheapest, table_plan = (compression._cheapest_split,
                                compression._table_plan)

        def price(index_set):
            priced.append(cheapest(index_set))
            return priced[-1]

        def expand(split):
            expanded.append(split)
            return table_plan(split)

        monkeypatch.setattr(compression, "_cheapest_split", price)
        monkeypatch.setattr(compression, "_table_plan", expand)
        argv = [
            "compress", "--data", path, "--generator", "1,12",
            "--modulus", "31", "--family", "step-cross", "--alpha", "1.0",
            "--gamma", "one", "--order", "3",
        ]
        for extra in ([], ["--algorithm", "general-fft"]):
            out = str(tmp_path / f"s{len(extra)}.json")
            assert main(argv + extra + ["--out", out]) == 0
            summary = json.loads(capsys.readouterr().out)
            assert summary["algorithm"] == "general-fft"
            assert len(priced) == 1, extra
            assert len(expanded) == 1 and expanded[0] is priced[0], extra
            spec = WeightSet.load(out).index_set
            want = compression.choose_route(
                data.N, LatticeRule(31, (1, 12)), spec
            )
            assert summary["route_choice"] == want
            del priced[:], expanded[:]

    def test_named_set_never_built(
        self, dataset_file, tmp_path, capsys, monkeypatch
    ) -> None:
        # the command prices and runs general-FFT on a lazy named set from
        # its run tables alone: no row of the set is built
        path, _ = dataset_file

        def refuse(*args):
            raise AssertionError("a set's rows were built")

        for module in (index_sets, compression):
            monkeypatch.setattr(module, "_capped_rows", refuse,
                                raising=False)
        for family in (["step-cross", "--order", "3"],
                       ["cross", "--level", "8"]):
            out = str(tmp_path / f"{family[0]}.json")
            assert main([
                "compress", "--data", path, "--generator", "1,12",
                "--modulus", "31", "--alpha", "1.0", "--gamma", "one",
                "--algorithm", "general-fft", "--family", *family,
                "--out", out,
            ]) == 0
            summary = json.loads(capsys.readouterr().out)
            assert summary["algorithm"] == "general-fft"

    def test_missing_out_is_usage_error(self, dataset_file) -> None:
        path, _ = dataset_file
        with pytest.raises(SystemExit) as exc:
            main([
                "compress", "--data", path, "--generator", "1,12",
                "--modulus", "31", "--family", "cross", "--alpha", "1.0",
                "--level", "8",
            ])
        assert exc.value.code == 2

    def test_missing_data_file(self, tmp_path, capsys) -> None:
        rc = main([
            "compress", "--data", str(tmp_path / "nope.bin"),
            "--generator", "1", "--modulus", "7", "--family", "cross",
            "--alpha", "1.0", "--level", "4",
            "--out", str(tmp_path / "w.json"),
        ])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_no_rule_given(self, dataset_file, tmp_path, capsys) -> None:
        path, _ = dataset_file
        rc = main([
            "compress", "--data", path, "--family", "cross", "--alpha",
            "1.0", "--level", "8", "--out", str(tmp_path / "w.json"),
        ])
        assert rc == 2
        assert "no lattice specified" in capsys.readouterr().err


class TestEvalCommand:
    def test_gap_for_constant_model(self, dataset_file, tmp_path, capsys) -> None:
        path, data = dataset_file
        wout = str(tmp_path / "w.json")
        main([
            "compress", "--data", path, "--generator", "1,12",
            "--modulus", "31", "--family", "cross", "--alpha", "1.0",
            "--gamma", "one", "--level", "8", "--out", wout,
        ])
        capsys.readouterr()
        from latcompress.model import TrigModel

        model = TrigModel(np.array([[0, 0]]), np.array([1.5 + 0j]))
        mpath = str(tmp_path / "m.json")
        model.save(mpath)
        out = str(tmp_path / "loss.json")
        rc = main([
            "eval", "--model", mpath, "--weights", wout, "--data", path,
            "--reg", "ridge", "--lam", "0.5", "--out", out,
        ])
        assert rc == 0
        rep = json.load(open(out))
        assert rep["gap"] < 1e-10
        assert rep["compressed"]["reg"] == pytest.approx(2.25)
        want = float(np.mean((1.5 - data.Y) ** 2)) + 0.5 * 2.25
        assert rep["exact"]["value"] == pytest.approx(want, rel=1e-12)


    @pytest.mark.parametrize("lam", ["-1", "nan", "inf"])
    def test_bad_lam_exits_2(
        self, lam, dataset_file, tmp_path, capsys
    ) -> None:
        path, data = dataset_file
        wout = str(tmp_path / "w.json")
        main([
            "compress", "--data", path, "--generator", "1,12",
            "--modulus", "31", "--family", "cross", "--alpha", "1.0",
            "--gamma", "one", "--level", "8", "--out", wout,
        ])
        from latcompress.model import TrigModel

        mpath = str(tmp_path / "m.json")
        TrigModel(np.array([[0, 0]]), np.array([1.5 + 0j])).save(mpath)
        capsys.readouterr()
        out = tmp_path / "loss.json"
        rc = main([
            "eval", "--model", mpath, "--weights", wout, "--data", path,
            "--reg", "ridge", "--lam", lam, "--out", str(out),
        ])
        assert rc == 2
        assert "lam" in capsys.readouterr().err
        assert not out.exists()


class TestVerifyCommand:
    def test_single_suite_passes(self, tmp_path) -> None:
        out = str(tmp_path / "v.json")
        rc = main(["verify", "--suite", "aliasing", "--out", out])
        assert rc == 0
        obj = json.load(open(out))
        assert obj["passed"] is True
        assert obj["suites"][0]["name"] == "aliasing-identity"
        assert obj["suites"][0]["checks"] > 0

    def test_inject_fault_detected(self, tmp_path) -> None:
        out = str(tmp_path / "vf.json")
        rc = main([
            "verify", "--suite", "oracle", "--inject-fault", "--out", out,
        ])
        assert rc == 3
        obj = json.load(open(out))
        assert obj["passed"] is False
        failures = obj["suites"][0]["failures"]
        assert failures and "node" in failures[0]

    @pytest.mark.parametrize("suite", ["aliasing", "inclusion", "envelope"])
    def test_inject_fault_refused_where_ignored(
        self, suite, tmp_path, capsys
    ) -> None:
        # Only the oracle suite perturbs a weight; any other suite would
        # pass unperturbed, so the flag is refused as bad input, before a
        # suite runs or a report is written.
        out = tmp_path / "v.json"
        rc = main(["verify", "--suite", suite, "--inject-fault",
                   "--out", str(out)])
        assert rc == 2
        assert "--inject-fault" in capsys.readouterr().err
        assert not out.exists()

    def test_oracle_checks_both_vectors(
        self, tmp_path, monkeypatch
    ) -> None:
        # Every route's w_xz and w_xyz are each checked against the direct
        # sums, with the same report at 1 and 2 threads; a fault in w_xyz
        # alone is caught and named.
        reports = []
        for threads in ("1", "2"):
            out = str(tmp_path / f"o{threads}.json")
            assert main([
                "verify", "--suite", "oracle", "--threads", threads,
                "--out", out,
            ]) == 0
            reports.append(json.load(open(out)))
        assert reports[0] == reports[1]
        suite = reports[0]["suites"][0]
        weight_checks = suite["checks"] - suite["loss"]["checks"]
        assert suite["passed"] and weight_checks % 2 == 0
        assert suite["collapsed"]["checks"] % 2 == 0
        compress = verify.compress

        def faulty(*args, **kwargs):
            ws = compress(*args, **kwargs)
            ws.w_xyz = ws.w_xyz.copy()
            ws.w_xyz[0] += 1e-3
            return ws

        monkeypatch.setattr(verify, "compress", faulty)
        report = verify.oracle_suite(instances=2)
        assert not report["passed"]
        assert all("w_xyz at node 0" in f for f in report["failures"])
        # the collapsed pass's weights are made apart from compress
        weight_checks = (report["checks"] - report["loss"]["checks"]
                         - report["collapsed"]["checks"])
        assert len(report["failures"]) == weight_checks // 2


    def test_oracle_checks_the_loss(self, monkeypatch) -> None:
        # three compressed losses against the node values: one on the
        # loss matrix, one on the class sums, one decided by the nodes;
        # a loss off by 1e-6 is caught and named
        from latcompress import model as model_mod

        paths, nodes = [], []
        loss_matrix = model_mod._loss_matrix
        node_values = model_mod._node_values

        def matrix(*args):
            matrix = loss_matrix(*args)
            paths.append(matrix is not None)
            return matrix

        def values(*args):
            nodes.append(args[1].L)
            return node_values(*args)

        monkeypatch.setattr(model_mod, "_loss_matrix", matrix)
        monkeypatch.setattr(model_mod, "_node_values", values)
        failures = []
        checks, worst = verify._loss_checks(0, failures)
        assert (checks, failures) == (3, [])
        assert worst <= 1e-12
        assert paths == [True, False, True] and nodes == [61]
        compressed = verify.compressed_loss

        def off(model, ws):
            rep = compressed(model, ws)
            return rep.assemble(rep.quadratic + 1e-6, rep.cross,
                                rep.constant, rep.reg, rep.lam)

        monkeypatch.setattr(verify, "compressed_loss", off)
        report = verify.oracle_suite(instances=1)
        assert not report["passed"] and report["loss"]["checks"] == 3
        assert len(report["failures"]) == 3
        assert all("compressed loss on the" in f for f in report["failures"])

    def test_all_suites_pass(self, tmp_path) -> None:
        out = str(tmp_path / "all.json")
        assert main(["verify", "--suite", "all", "--out", out]) == 0
        obj = json.load(open(out))
        assert obj["passed"] is True
        suites = obj["suites"]
        assert [s["name"] for s in suites] == [
            "oracle-equivalence", "set-inclusions", "aliasing-identity",
            "loss-gap-envelope",
        ]
        assert [s["checks"] for s in suites] == [57, 127, 10, 2]
        assert suites[0]["loss"]["checks"] == 3
        assert suites[0]["collapsed"]["checks"] == 18
        assert all(s["passed"] and not s["failures"] for s in suites)

    def test_threads_reach_the_envelope_suite(
        self, tmp_path, monkeypatch
    ) -> None:
        seen = []
        compress = verify.compress

        def spy(*args, **kwargs):
            seen.append(kwargs["threads"])
            return compress(*args, **kwargs)

        monkeypatch.setattr(verify, "compress", spy)
        out = str(tmp_path / "env.json")
        assert main([
            "verify", "--suite", "envelope", "--threads", "2", "--out", out,
        ]) == 0
        assert seen and set(seen) == {2}


class TestMainErrors:
    @pytest.mark.parametrize(
        "command", ["compress", "verify", "bench", "cbc", "aliasing"]
    )
    def test_threads_below_one_exit_2(
        self, command, dataset_file, tmp_path, capsys
    ) -> None:
        # the parser refuses the value for every subcommand, also where
        # the command never reaches a weight route (cbc, the aliasing
        # suite), before any work is done
        path, _ = dataset_file
        out = str(tmp_path / "out.json")
        argv = {
            "compress": [
                "compress", "--data", path, "--generator", "1,12",
                "--modulus", "31", "--family", "cross", "--alpha", "1.0",
                "--gamma", "one", "--level", "8",
            ],
            "verify": ["verify", "--suite", "oracle"],
            "bench": ["bench"],
            "cbc": ["cbc", "--modulus", "31", "--dim", "2", "--alpha", "1.0",
                    "--gamma", "one"],
            "aliasing": ["verify", "--suite", "aliasing"],
        }[command]
        for bad in ("0", "-3"):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--threads", bad, "--out", out])
            assert exc.value.code == 2
            assert "--threads: must be a positive integer" in (
                capsys.readouterr().err)
        assert not (tmp_path / "out.json").exists()

    def test_bad_input_exits_2(self, monkeypatch, capsys) -> None:
        def bad(*args, **kwargs):
            raise ValueError("no such thing")

        monkeypatch.setattr(cli, "run_all", bad)
        assert main(["verify"]) == 2
        assert "no such thing" in capsys.readouterr().err

    def test_assertion_error_propagates(self, monkeypatch) -> None:
        # an AssertionError is a fault of the program, never bad input
        def broken(*args, **kwargs):
            raise AssertionError("internal invariant")

        monkeypatch.setattr(cli, "run_all", broken)
        with pytest.raises(AssertionError, match="internal invariant"):
            main(["verify"])


class TestCoprimeGenerator:
    def test_properties(self) -> None:
        rng = np.random.default_rng(43)
        g = _coprime_generator(rng, 32, 4)
        assert len(g) == len(set(g)) == 4
        assert all(math.gcd(v, 32) == 1 for v in g)

    def test_deterministic(self) -> None:
        a = _coprime_generator(np.random.default_rng(7), 64, 5)
        b = _coprime_generator(np.random.default_rng(7), 64, 5)
        assert a == b

    def test_pool_too_small(self) -> None:
        with pytest.raises(ValueError, match="coprime"):
            _coprime_generator(np.random.default_rng(0), 4, 3)
