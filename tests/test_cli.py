"""Command line front end: config parsing, CSV ingestion, reports, exit codes."""

import csv
import hashlib
import json
import math
import os
import re
import tracemalloc
import types
import typing
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specnorm as sn
from conftest import chunk_rows
from specnorm import cli, estimator, inference
from specnorm.cli import (
    RunConfig,
    build_process_spec,
    dumps_report,
    ingest_csv,
    main,
    parse_config,
    run_pipeline,
)
from specnorm.errors import ConfigError, DataError, NumericalError


def write_cfg(tmp_path, name="run.cfg", **keys):
    lines = [f"{k} = {v}" for k, v in keys.items()]
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def write_csv(tmp_path, data, name="data.csv", header=None, newline="\n", cell="{}"):
    lines = []
    if header is not None:
        lines.append(",".join(header))
    for row in np.atleast_2d(data):
        lines.append(",".join(cell.format(format(float(x), ".17g")) for x in row))
    path = tmp_path / name
    path.write_bytes((newline.join(lines) + newline).encode())
    return str(path)


INFER_KEYS = dict(
    process="iid",
    T=1024,
    p=2,
    measure="tvdfpca",
    d=1,
    quantile_r=10_000,
    quantile_n=500,
)


def run_main(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


# ---------------------------------------------------------------- parse_config


def test_parse_config_types_comments_and_defaults():
    text = """
    # simulation block
    process = iid        # inline comment
    T = 256
    sigma_diag = 3, 1.5  # list value

    measure = tvdfpca
    """
    cfg = parse_config(text)
    assert cfg.process == "iid"
    assert cfg.T == 256
    assert cfg.sigma_diag == (3.0, 1.5)
    assert cfg.measure == "tvdfpca"
    assert cfg.kappa == 0.4
    assert cfg.level_alpha == 0.05 and cfg.threads == 1


def test_parse_config_unknown_keys_listed_sorted():
    with pytest.raises(ConfigError, match="unknown configuration keys: apple, banana"):
        parse_config("banana = 1\napple = 2\nprocess = iid\nT = 256\n")


def test_parse_config_line_shape_and_value_errors():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("just some words\n")
    with pytest.raises(ConfigError, match="empty value"):
        parse_config("T =\n")
    with pytest.raises(ConfigError, match="expected an integer"):
        parse_config("T = many\n")
    with pytest.raises(ConfigError, match=re.escape("alpha = inf must lie in (-inf, inf)")):
        parse_config("alpha = inf\n")
    with pytest.raises(ConfigError, match="comma-separated"):
        parse_config("sigma_diag = ,\n")
    with pytest.raises(ConfigError, match="key 'T' set twice, on lines 1 and 4"):
        parse_config("T = 256\nprocess = iid\n# T = 64\nT = 128\n")


def test_parse_config_kappa_range_is_parzens_and_kernel_is_no_key(tmp_path, capsys):
    # the Parzen lag window admits kappa in (1/5, 1) only, and no config chooses a kernel
    for kappa in ("0.1", "0.2"):
        cfg = write_cfg(tmp_path, **INFER_KEYS, kappa=kappa)
        code, out = run_main(capsys, "infer", "--config", cfg)
        err = json.loads(out)["error"]
        assert code == 2 and (err["stage"], err["type"]) == ("config", "ConfigError")
        assert f"kappa = {kappa} must lie in (0.2, 1)" in err["message"]
    assert parse_config("process = iid\nT = 256\nkappa = 0.2001\n").kappa == 0.2001
    for kernel in ("parzen", "flat_top"):
        with pytest.raises(ConfigError, match="unknown configuration keys: kernel"):
            parse_config(f"process = iid\nT = 256\nkernel = {kernel}\n")


@pytest.mark.parametrize("kernel", ["parzen", "flat_top"])
def test_a_kernel_key_exits_2_at_stage_config(tmp_path, capsys, kernel):
    # no config chooses the lag window, so the key is unknown whichever kernel it names
    cfg = write_cfg(tmp_path, **INFER_KEYS, kernel=kernel)
    code, out = run_main(capsys, "infer", "--config", cfg)
    err = json.loads(out)["error"]
    assert code == 2 and (err["stage"], err["type"]) == ("config", "ConfigError")
    assert "unknown configuration keys: kernel" in err["message"]


@pytest.mark.parametrize("command", ["estimate", "measure", "infer", "select-d"])
def test_config_echo_is_every_config_field_and_no_kernel(tmp_path, capsys, command):
    cfg = write_cfg(tmp_path, **INFER_KEYS, nu=0.5, d_max=2)
    code, out = run_main(capsys, command, "--config", cfg)
    assert code == 0, out
    echo = json.loads(out)["config_echo"]
    assert list(echo) == [f.name for f in fields(RunConfig)] and "kernel" not in echo


def test_parse_config_cross_field_rules():
    with pytest.raises(ConfigError, match="not both"):
        parse_config("input = x.csv\nprocess = iid\nT = 256\n")
    for half in ("f_exp = 2", "g_exp = 1"):
        with pytest.raises(ConfigError, match="'f_exp' and 'g_exp' must be set together"):
            parse_config(f"measure = tvdfpca\n{half}\n")
    with pytest.raises(ConfigError, match="required key 'T'"):
        parse_config("process = iid\n")
    with pytest.raises(ConfigError, match="process must be one of"):
        parse_config("process = garch\nT = 256\n")
    with pytest.raises(ConfigError, match="measure must be one of"):
        parse_config("measure = entropy\n")
    with pytest.raises(ConfigError, match="product structure required"):
        parse_config("measure = tvdpsca\n")
    with pytest.raises(ConfigError, match="product structure required"):
        parse_config("measure = coherence\n")


def test_parse_config_product_structure_inferred_from_factor_diagonals():
    cfg = parse_config(
        "process = separable\nT = 256\nmeasure = tvdpsca\n"
        "sigma_x_diag = 2, 1\nsigma_y_diag = 1, 1, 1\n"
    )
    assert cfg.p1 is None and cfg.p2 is None
    assert cfg.sigma_x_diag == (2.0, 1.0)


def field_type(name):
    """The annotated type of a RunConfig field, without its Optional part."""
    hint = typing.get_type_hints(RunConfig)[name]
    if isinstance(hint, types.UnionType):
        (hint,) = [a for a in typing.get_args(hint) if a is not type(None)]
    return typing.get_origin(hint) or hint


# A value of each type that passes validation whichever key carries it, but
# for the keys that admit only a few values or have a lower bound above it.
GOOD_VALUE = {int: ("3", 3), float: ("0.5", 0.5), tuple: ("0.5, 0.25", (0.5, 0.25))}
GOOD_BY_KEY = {"coupling": ("1.0", 1.0), "quantile_r": ("10000", 10_000), "quantile_n": ("500", 500)}
GOOD_STR = {"process": "iid", "measure": "tvdfpca"}
BAD_VALUE = {
    int: ("2.5", "expected an integer"),
    float: ("x", "expected a number"),
    tuple: ("1, x", "expected a number"),
    str: ("", "empty value"),
}


@pytest.mark.parametrize("name", [f.name for f in fields(RunConfig)])
def test_parse_config_parses_each_key_to_its_annotated_type(name):
    kind = field_type(name)
    if kind is str:
        raw = GOOD_STR.get(name, "some/path")
        expected = raw
    else:
        raw, expected = GOOD_BY_KEY.get(name, GOOD_VALUE[kind])
    # the partner key a key needs to be valid on its own line
    extra = {"process": "T = 256\n", "f_exp": "g_exp = 1\n", "g_exp": "f_exp = 1\n"}.get(name, "")
    value = getattr(parse_config(f"{name} = {raw}\n{extra}"), name)
    assert type(value) is kind and value == expected
    if kind is tuple:
        assert all(type(x) is float for x in value)
    bad, frag = BAD_VALUE[kind]
    with pytest.raises(ConfigError, match=frag) as err:
        parse_config(f"{name} = {bad}\n")
    assert repr(name) in str(err.value)


def test_parse_config_numeric_ranges():
    for line, frag in [
        ("alpha = 1.5", "alpha = 1.5 must lie in (0, 1)"),
        ("band_lo = 2\nband_hi = 1", "band must satisfy 0 <= a < b <= pi, got (2.0, 1.0)"),
        ("d = 0", "d = 0 must be at least 1"),
        ("p = 0", "p = 0 must be at least 1"),
        ("p = -1", "p = -1 must be at least 1"),
        ("d_max = 0", "d_max = 0"),
        ("level_alpha = 0.6", "level_alpha = 0.6 must lie in [0.002, 0.5]"),
        ("level_alpha = 0.001", "level_alpha = 0.001 must lie in [0.002, 0.5]"),
        ("delta = -0.1", "delta = -0.1 must lie in [0, inf)"),
        ("nu = 1.2", "nu = 1.2 must lie in (0, 1)"),
        ("d0 = 0", "d0 = 0"),
        ("seed = -3", "seed = -3 must be at least 0"),
        ("quantile_seed = -3", "seed = -3 must be at least 0"),
        ("threads = 0", "threads = 0"),
        ("m = 0", "m = 0"),
        ("k_omega = 0", "k_omega = 0"),
        ("quantile_r = 5000", "replications = 5000 must be at least 10000"),
        ("quantile_n = 499", "bm_steps = 499 must be at least 500"),
    ]:
        with pytest.raises(ConfigError) as err:
            parse_config(line + "\n")
        assert frag in str(err.value), f"{line!r} raised {err.value}"


# ------------------------------------------------------------------ ingest_csv


def test_ingest_csv_header_autodetect(tmp_path):
    rng = np.random.default_rng(0)
    data = rng.normal(size=(64, 2))
    with_header = write_csv(tmp_path, data, "h.csv", header=("x1", "x2"))
    without = write_csv(tmp_path, data, "n.csv")
    a = ingest_csv(with_header)
    b = ingest_csv(without)
    assert a.data.shape == (64, 2)
    assert a.data.dtype == data.dtype
    assert a.data.tobytes() == data.tobytes()  # 17 digits parse back bit for bit
    assert a.data.tobytes() == b.data.tobytes()
    # a leading UTF-8 byte-order mark neither hides the header nor makes row 1 one
    for name, header in (("bom-h.csv", ("x1", "x2")), ("bom-n.csv", None)):
        path = tmp_path / name
        write_csv(tmp_path, data, name, header)
        path.write_text(path.read_text(), encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        assert ingest_csv(str(path)).data.tobytes() == data.tobytes()


def test_ingest_csv_ragged_row_reports_coordinates(tmp_path):
    rows = ["1,2"] * 70
    rows[9] = "1,2,3"
    path = tmp_path / "ragged.csv"
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(DataError, match="ragged row 10"):
        ingest_csv(str(path))
    rows[9:11] = ["1", "1,2,3"]  # as many cells as two rows of 2
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(DataError, match="ragged row 10 has 1 cells, expected 2"):
        ingest_csv(str(path))


def test_ingest_csv_bad_cells_report_coordinates(tmp_path):
    rows = ["1,2"] * 70
    rows[9] = "1,oops"
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(DataError, match="row 10, column 2"):
        ingest_csv(str(path))

    rows[9] = "1,nan"
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(DataError, match="non-finite value at row 10, column 2"):
        ingest_csv(str(path))

    rows[19] = "oops,2"  # the non-finite cell comes first, so it is the one reported
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(DataError, match="non-finite value at row 10, column 2"):
        ingest_csv(str(path))


def test_ingest_csv_reads_17_digits_as_float_does(tmp_path):
    rng = np.random.default_rng(5)
    data = rng.choice([-1.0, 1.0], (4096, 4)) * 10.0 ** rng.uniform(-323.5, 308.2, (4096, 4))
    data[:3, 0] = [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    data[:2, 1] = [0.0, -0.0]
    path = write_csv(tmp_path, data, header=("a", "b", "c", "d"))
    with open(path, newline="") as fh:
        by_float = [[float(c) for c in row] for row in list(csv.reader(fh))[1:]]
    assert ingest_csv(path).data.tobytes() == np.array(by_float).tobytes() == data.tobytes()


def test_ingest_csv_accepts_and_refuses_cells_as_float_does(tmp_path):
    path = tmp_path / "cells.csv"

    def ingest(row10):
        rows = ["1,2"] * 70
        rows[9] = row10
        path.write_text("\n".join(rows) + "\n")
        return ingest_csv(str(path)).data

    assert np.array_equal(ingest('"1.5"," 2"')[9], [1.5, 2.0])  # quoted cells are numbers
    assert np.array_equal(ingest("1_000,2")[9], [1000.0, 2.0])  # as float() reads it
    for row10, message in [
        ("1,2#3", "non-numeric cell at row 10, column 2: '2#3'"),  # '#' is no comment
        ("#1,2", "non-numeric cell at row 10, column 1: '#1'"),
        ("1,\x1c2", "non-numeric cell at row 10, column 2: '\\x1c2'"),
        ("1,1E999", "non-finite value at row 10, column 2: '1E999'"),
        ("1, -Infinity ", "non-finite value at row 10, column 2: ' -Infinity '"),
    ]:
        with pytest.raises(DataError) as err:
            ingest(row10)
        assert message in str(err.value), (row10, str(err.value))
    # float() would read a 200,000-digit cell; the csv module refuses it, as a DataError
    for row10 in ("1," + "0" * 200_000 + "1", "1," + "0" * 200_000 + "1,3"):
        with pytest.raises(DataError, match="cannot read .*field larger than field limit"):
            ingest(row10)


def test_ingest_csv_length_and_existence_checks(tmp_path):
    short = write_csv(tmp_path, np.ones((63, 2)), "short.csv")
    with pytest.raises(DataError, match="at least 64 rows"):
        ingest_csv(short)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(DataError, match="empty file"):
        ingest_csv(str(empty))
    with pytest.raises(DataError, match="cannot read"):
        ingest_csv(str(tmp_path / "missing.csv"))
    header_only = tmp_path / "header.csv"
    for text in ("x1,x2\n", "\nx1,x2\n\n\r\n"):
        header_only.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no warning, only the DataError
            with pytest.raises(DataError, match="no data rows"):
                ingest_csv(str(header_only))


# ------------------------------------------------------------ the sample cache


def sample_entries(cache):
    return sorted(cache.glob("sample_v2_*.npy"))


def counted_parses(monkeypatch):
    """Count the calls of the CSV parser."""
    calls = {"_parse_csv": 0}
    original = cli._parse_csv

    def counted(path):
        calls["_parse_csv"] += 1
        return original(path)

    monkeypatch.setattr(cli, "_parse_csv", counted)
    return calls


@pytest.mark.parametrize(
    "variant", ["header", "no-header", "bom", "crlf", "quoted", "underscore"],
)
def test_ingest_csv_gives_the_same_bits_cold_and_warm(tmp_path, monkeypatch, variant):
    cache = tmp_path / "cache"
    monkeypatch.setenv("SPECNORM_CACHE_DIR", str(cache))
    data = np.random.default_rng(1).normal(size=(80, 3))
    path = Path(write_csv(tmp_path, data, header=None if variant == "no-header" else ("a", "b", "c"),
                          newline="\r\n" if variant == "crlf" else "\n",
                          cell='"{}"' if variant == "quoted" else "{}"))
    if variant == "bom":
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    if variant == "underscore":  # float() reads '1_000'
        path.write_text(path.read_text().replace(format(float(data[5, 1]), ".17g"), "1_000"))
        data[5, 1] = 1000.0
    calls = counted_parses(monkeypatch)
    cold = ingest_csv(str(path)).data
    assert calls["_parse_csv"] == 1
    (entry,) = sample_entries(cache)
    assert entry.name == f"sample_v2_{hashlib.sha256(path.read_bytes()).hexdigest()}.npy"
    warm = ingest_csv(str(path)).data
    assert calls["_parse_csv"] == 1  # the warm read parsed nothing
    assert cold.tobytes() == warm.tobytes() == data.tobytes()
    assert warm.dtype == np.float64 and warm.shape == data.shape and warm.flags.c_contiguous


CSV_REPORTS = {
    "infer": dict(measure="tvdfpca", nu=0.6, d_max=2),
    "select-d": dict(measure="tvdpsca", p1=2, p2=2, nu=0.6, d_max=2),
    "measure": dict(measure="coherence", p1=2, p2=2),
    "estimate": dict(),
}


@pytest.mark.parametrize("command", list(CSV_REPORTS))
def test_csv_reports_are_the_same_cold_or_warm_at_any_thread_count(
    tmp_path, capsys, monkeypatch, command
):
    cache = tmp_path / "cache"
    monkeypatch.setenv("SPECNORM_CACHE_DIR", str(cache))
    data = sn.simulate(sn.IidSpec(T=512, sigma=np.diag([4.0, 2.0, 1.0, 0.5]), seed=2)).data
    cfg = write_cfg(tmp_path, input=write_csv(tmp_path, data, header=("a", "b", "c", "d")),
                    **QUICK, **CSV_REPORTS[command])
    outs = []
    for threads in ("1", "2"):
        for entry in sample_entries(cache):
            entry.unlink()
        for _ in ("cold", "warm"):
            code, out = run_main(capsys, command, "--config", cfg, "--threads", threads)
            assert code == 0, out
            assert len(sample_entries(cache)) == 1
            outs.append(out.replace(f'"threads": {threads}', '"threads": 1'))
    assert outs[1:] == outs[:1] * 3


def test_a_same_size_rewrite_with_its_mtime_restored_is_parsed_again(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("SPECNORM_CACHE_DIR", str(cache))
    old = np.full((64, 2), 1.5)
    new = old.copy()
    new[40, 1] = 2.5  # the same number of bytes
    path = write_csv(tmp_path, old)
    st = os.stat(path)
    assert ingest_csv(path).data.tobytes() == old.tobytes()
    write_csv(tmp_path, new)
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))
    after = os.stat(path)
    assert (after.st_size, after.st_mtime_ns) == (st.st_size, st.st_mtime_ns)
    assert ingest_csv(path).data.tobytes() == new.tobytes()
    assert len(sample_entries(cache)) == 2  # one entry per content, the old one never served


def test_an_entry_of_the_first_parser_is_never_served(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("SPECNORM_CACHE_DIR", str(cache))
    data = np.random.default_rng(7).normal(size=(64, 2))
    path = write_csv(tmp_path, data)
    digest = hashlib.sha256(open(path, "rb").read()).hexdigest()
    cache.mkdir()
    planted = cache / f"sample_v1_{digest}.npy"
    np.save(planted, np.zeros((64, 2)))  # a valid entry, with the wrong values
    assert ingest_csv(path).data.tobytes() == data.tobytes()
    assert [e.name for e in sample_entries(cache)] == [f"sample_v2_{digest}.npy"]
    assert np.load(planted).tobytes() == np.zeros((64, 2)).tobytes()  # left on disk unused


def test_an_empty_cache_dir_variable_means_the_default(tmp_path, capsys, monkeypatch):
    home, work = tmp_path / "home", tmp_path / "work"
    work.mkdir()
    monkeypatch.setenv("SPECNORM_CACHE_DIR", "")
    monkeypatch.setenv("HOME", str(home))
    monkeypatch.chdir(work)
    data = sn.simulate(sn.IidSpec(T=256, sigma=np.eye(2), seed=8)).data
    quantiles = write_cfg(tmp_path, name="q.cfg", f_exp=3, g_exp=2, **QUICK)
    infer = write_cfg(tmp_path, input=write_csv(tmp_path, data), measure="tvdfpca", **QUICK)
    for argv in (["quantiles", "--config", quantiles], ["infer", "--config", infer]):
        code, out = run_main(capsys, *argv)
        assert code == 0, out
    default = home / ".cache" / "specnorm"
    assert (default / "pivot_exact_v2_f3_g2_n500.npy").is_file()
    assert list(default.glob("*.txt")) == []
    assert len(sample_entries(default)) == 1
    assert list(work.iterdir()) == []


def test_infer_on_a_device_is_an_empty_file_and_stores_nothing(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("SPECNORM_CACHE_DIR", str(cache))
    assert not Path(os.devnull).is_file()  # a character device: it is never hashed
    cfg = write_cfg(tmp_path, input=os.devnull, measure="tvdfpca", **QUICK)
    code, out = run_main(capsys, "infer", "--config", cfg)
    assert code == 3
    assert json.loads(out)["error"] == {
        "stage": "data", "type": "DataError", "message": f"{os.devnull}: empty file",
    }
    assert list(cache.glob("sample_v*")) == []


def test_main_missing_csv_is_the_same_data_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SPECNORM_CACHE_DIR", str(tmp_path / "cache"))
    missing = tmp_path / "missing.csv"
    cfg = write_cfg(tmp_path, input=str(missing), measure="tvdfpca", **QUICK)
    code, out = run_main(capsys, "infer", "--config", cfg)
    assert code == 3
    assert json.loads(out)["error"] == {
        "stage": "data", "type": "DataError",
        "message": f"cannot read {missing}: [Errno 2] No such file or directory: '{missing}'",
    }


def test_a_byte_that_is_not_utf8_is_named_by_its_offset_in_the_file(tmp_path, capsys, monkeypatch):
    # the decoder counts from the start of its 8 KiB chunk: this byte is at 3616 in the third
    monkeypatch.setenv("SPECNORM_CACHE_DIR", str(tmp_path / "cache"))
    raw = bytearray("".join(f"{i}.5,{i}.25\n" for i in range(3000)).encode())
    raw[20000] = 0xFF
    path = tmp_path / "latin.csv"
    path.write_bytes(raw)
    cfg = write_cfg(tmp_path, input=str(path), measure="tvdfpca", **QUICK)
    code, out = run_main(capsys, "infer", "--config", cfg)
    assert code == 3
    assert json.loads(out)["error"] == {
        "stage": "data", "type": "DataError",
        "message": f"cannot read {path}: byte 0xff at offset 20000 (line 1482) is not UTF-8: "
                   "invalid start byte",
    }


@pytest.mark.parametrize("later", [12, 2500], ids=["same-decoder-chunk", "later-chunk"])
def test_the_first_fault_in_file_order_is_named(tmp_path, later):
    # row 10 starts at byte 36; row 12 is in the decoder's first 8 KiB chunk, row 2500 is not
    path = tmp_path / "faults.csv"

    def first_fault(faults):
        rows = [b"1,2"] * 3000
        for i, row in faults.items():
            rows[i - 1] = row
        path.write_bytes(b"\n".join(rows) + b"\n")
        with pytest.raises(DataError) as err:
            ingest_csv(str(path))
        return str(err.value)

    for row10 in (b"1,2,3", b"1,oops", b"1,inf"):
        for row in (b"1,\xff", b"\xe9,2", b"1," + b"0" * 200_000):  # a bad byte, an over-limit cell
            message = first_fault({10: row10, later: row})
            assert "row 10" in message and "UTF-8" not in message, (row10, row, message)
    offset = 4 * 4 + 2  # row 5 is b"1,\xff" after four rows of b"1,2\n"
    assert first_fault({5: b"1,\xff", 10: b"1,2,3"}) == (
        f"cannot read {path}: byte 0xff at offset {offset} (line 5) is not UTF-8: invalid start byte"
    )
    # a row's bad byte comes before its length and its other cells
    for row10 in (b"1,\xff,3", b"x,\xff", b"inf,\xff"):
        offset = 9 * 4 + row10.index(b"\xff")
        assert f"offset {offset} (line 10)" in first_fault({10: row10, later: b"oops,2"}), row10
    # a bad byte in the header is a fault too; a header of text is not
    assert "offset 1 (line 1)" in first_fault({1: b"x\xff,y", 20: b"1,2,3"})
    assert "ragged row 20" in first_fault({1: b"x,y", 20: b"1,2,3"})


def test_a_refused_file_holds_no_more_than_a_parsed_one(tmp_path, monkeypatch):
    # a fault in the last row is found in the pass that parses the others, so refusing the
    # file holds what parsing it does
    monkeypatch.setenv("SPECNORM_CACHE_DIR", str(tmp_path / "cache"))
    data = np.random.default_rng(7).normal(size=(8192, 16))
    clean = Path(write_csv(tmp_path, data, header=[f"x{j}" for j in range(16)]))
    text = clean.read_bytes()
    assert len(text) > 2_500_000
    last = text.rstrip(b"\n").rsplit(b"\n", 1)[1]
    faults = {
        "non-numeric": (last.rsplit(b",", 1)[0] + b",oops", "non-numeric cell at row 8193"),
        "non-finite": (last.rsplit(b",", 1)[0] + b",1E999", "non-finite value at row 8193"),
        "ragged": (last + b",1", "ragged row 8193 has 17 cells"),
        "not-utf8": (last.rsplit(b",", 1)[0] + b",\xff", "(line 8193) is not UTF-8"),
    }

    def peak(path, message=None):
        tracemalloc.start()
        try:
            if message is None:
                ingest_csv(str(path))
            else:
                with pytest.raises(DataError, match=re.escape(message)):
                    ingest_csv(str(path))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    parsed = peak(clean)
    for name, (row, message) in faults.items():
        path = tmp_path / f"{name}.csv"
        path.write_bytes(text[: text.rindex(last)] + row + b"\n")
        assert peak(path, message) < 1.25 * parsed, name


@pytest.mark.parametrize(
    "row, rows, message",
    [("1,2,3", 70, "ragged row 10"), ("1,nan", 70, "non-finite value at row 10, column 2"),
     ("1,2", 63, "at least 64 rows")],
    ids=["ragged", "nan", "63-rows"],
)
def test_a_file_that_fails_to_parse_leaves_no_entry(tmp_path, monkeypatch, row, rows, message):
    cache = tmp_path / "cache"
    monkeypatch.setenv("SPECNORM_CACHE_DIR", str(cache))
    lines = ["1,2"] * rows
    lines[9] = row
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n")
    errors = []
    for _ in range(2):
        with pytest.raises(DataError, match=message) as err:
            ingest_csv(str(path))
        errors.append(str(err.value))
    assert errors[0] == errors[1]
    assert sample_entries(cache) == []


BAD_ENTRIES = {
    "truncated": lambda entry: entry.write_bytes(entry.read_bytes()[:-8]),
    "float32": lambda entry: np.save(entry, np.ones((64, 2), dtype=np.float32)),
    "non-finite": lambda entry: np.save(entry, np.where(np.eye(64, 2), np.inf, 1.0)),
}


@pytest.mark.parametrize("damage", list(BAD_ENTRIES))
def test_a_bad_entry_warns_and_is_parsed_again(tmp_path, monkeypatch, damage):
    cache = tmp_path / "cache"
    monkeypatch.setenv("SPECNORM_CACHE_DIR", str(cache))
    data = np.random.default_rng(3).normal(size=(64, 2))
    path = write_csv(tmp_path, data)
    ingest_csv(path)
    (entry,) = sample_entries(cache)
    BAD_ENTRIES[damage](entry)
    calls = counted_parses(monkeypatch)
    with pytest.warns(UserWarning, match="unreadable sample cache .*; parsing .* again"):
        again = ingest_csv(path).data
    assert again.tobytes() == data.tobytes() and calls["_parse_csv"] == 1
    assert ingest_csv(path).data.tobytes() == data.tobytes()  # the entry was written afresh
    assert calls["_parse_csv"] == 1


def test_infer_with_an_unusable_cache_dir_warns_and_reports_the_same(tmp_path, capsys, monkeypatch):
    data = sn.simulate(sn.IidSpec(T=256, sigma=np.eye(2), seed=4)).data
    cfg = write_cfg(tmp_path, input=write_csv(tmp_path, data), measure="tvdfpca", **QUICK)
    monkeypatch.setenv("SPECNORM_CACHE_DIR", str(tmp_path / "cache"))
    code, expected = run_main(capsys, "infer", "--config", cfg)
    assert code == 0, expected
    not_a_dir = tmp_path / "not-a-dir"
    not_a_dir.write_text("")
    monkeypatch.setenv("SPECNORM_CACHE_DIR", str(not_a_dir))
    with pytest.warns(UserWarning) as record:
        code, out = run_main(capsys, "infer", "--config", cfg)
    assert code == 0 and out == expected
    messages = [str(w.message) for w in record]
    assert any(m.startswith(f"could not write sample cache {not_a_dir}") for m in messages)
    assert not_a_dir.read_text() == ""


def test_a_write_that_fails_midway_leaves_no_entry(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("SPECNORM_CACHE_DIR", str(cache))
    data = np.random.default_rng(6).normal(size=(64, 2))
    path = write_csv(tmp_path, data)

    def write_part_then_fail(fh, values, allow_pickle):
        fh.write(b"\x93NUMPY")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(np, "save", write_part_then_fail)
    with pytest.warns(UserWarning, match="could not write sample cache .*No space left"):
        assert ingest_csv(path).data.tobytes() == data.tobytes()
    assert list(cache.iterdir()) == []  # neither an entry nor its temporary file


def test_a_file_changed_while_it_is_parsed_is_not_stored(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("SPECNORM_CACHE_DIR", str(cache))
    old, new = np.zeros((64, 2)), np.ones((65, 2))
    path = write_csv(tmp_path, old)
    parse_csv = cli._parse_csv

    def rewrite_then_parse(path):
        write_csv(tmp_path, new)  # after the file was hashed, before it is read
        return parse_csv(path)

    monkeypatch.setattr(cli, "_parse_csv", rewrite_then_parse)
    assert ingest_csv(path).data.tobytes() == new.tobytes()
    assert sample_entries(cache) == []  # the parsed bytes are not the hashed ones
    monkeypatch.setattr(cli, "_parse_csv", parse_csv)
    assert ingest_csv(path).data.tobytes() == new.tobytes()
    (entry,) = sample_entries(cache)
    assert entry.name == f"sample_v2_{hashlib.sha256(open(path, 'rb').read()).hexdigest()}.npy"


# ----------------------------------------------------------- build_process_spec


def test_build_process_spec_iid_variants():
    spec = build_process_spec(RunConfig(process="iid", T=256, sigma_diag=(3.0, 1.0)))
    assert isinstance(spec, sn.IidSpec)
    assert np.array_equal(spec.sigma, np.diag([3.0, 1.0]))
    spec = build_process_spec(RunConfig(process="iid", T=256, p=3, seed=7, burn_in=150))
    assert np.array_equal(spec.sigma, np.eye(3))
    assert spec.seed == 7 and spec.burn_in == 150
    with pytest.raises(ConfigError, match="diagonal or the dimension"):
        build_process_spec(RunConfig(process="iid", T=256))
    assert build_process_spec(RunConfig(process="iid", T=256, p=2, sigma_diag=(3.0, 1.0))).p == 2
    with pytest.raises(ConfigError, match="p = 3 does not match the data dimension 4"):
        cli._sample(RunConfig(process="iid", T=256, p=3, sigma_diag=(4.0, 2.0, 1.0, 0.5)))


def test_build_process_spec_tvfar1():
    cfg = RunConfig(process="tvfar1", T=512, ar_coeff=0.5, sigma_eps_diag=(4.0, 1.0))
    spec = build_process_spec(cfg)
    assert isinstance(spec, sn.TvFar1Spec)
    assert np.array_equal(spec.a, 0.5 * np.eye(2))
    assert np.array_equal(spec.sigma_eps, np.diag([4.0, 1.0]))
    with pytest.raises(ConfigError, match="ar_coeff"):
        build_process_spec(RunConfig(process="tvfar1", T=512, p=2))
    with pytest.raises(ConfigError, match="p = 3 does not match the data dimension 2"):
        cli._sample(replace(cfg, p=3))


def test_build_process_spec_separable_and_pair():
    with pytest.raises(ConfigError, match="separable requires"):
        build_process_spec(RunConfig(process="separable", T=256, sigma_x_diag=(1.0,)))
    spec = build_process_spec(
        RunConfig(process="coherent_pair", T=256, p1=2, p2=2, coupling=0.0)
    )
    assert spec.coupling is None
    spec = build_process_spec(
        RunConfig(process="coherent_pair", T=256, p1=2, p2=2, coupling=1.0)
    )
    assert np.array_equal(spec.coupling, np.eye(2))
    with pytest.raises(ConfigError, match="p1 = p2"):
        build_process_spec(
            RunConfig(process="coherent_pair", T=256, p1=2, p2=3, coupling=1.0)
        )
    with pytest.raises(ConfigError, match="'process' and 'T'"):
        build_process_spec(RunConfig())
    sep = RunConfig(process="separable", T=256, sigma_x_diag=(1.0, 2.0), sigma_y_diag=(1.0, 3.0))
    assert build_process_spec(replace(sep, p=4)).p == 4
    for cfg in (replace(sep, p=3), RunConfig(process="coherent_pair", T=256, p=7, p1=2, p2=2)):
        with pytest.raises(ConfigError, match=f"p = {cfg.p} does not match the data dimension 4"):
            cli._sample(cfg)


# ---------------------------------------------------------------- dumps_report


def test_dumps_report_floats_and_special_values():
    text = dumps_report(
        {
            "a": 1.0 / 3.0,
            "zero": 0.0,
            "negzero": -0.0,
            "inf": math.inf,
            "ninf": -math.inf,
            "nan": math.nan,
            "flag": True,
            "n": 7,
            "arr": np.array([1.5, 2.5]),
            "none": None,
            "nested": {"b": [np.float64(0.1), np.int64(3), np.bool_(False)]},
        }
    )
    parsed = json.loads(text)
    assert parsed["a"] == 1.0 / 3.0  # the shortest round-trip text reads back exactly
    assert type(parsed["zero"]) is float and type(parsed["negzero"]) is float
    assert parsed["zero"] == 0.0 and math.copysign(1.0, parsed["negzero"]) == -1.0
    assert parsed["inf"] == "Infinity" and parsed["ninf"] == "-Infinity"
    assert parsed["nan"] == "NaN"
    assert parsed["flag"] is True and parsed["n"] == 7
    assert parsed["arr"] == [1.5, 2.5] and parsed["none"] is None
    assert parsed["nested"]["b"] == [0.1, 3, False]
    assert '"flag": true' in text  # bools must not degrade to integers
    with pytest.raises(TypeError, match="cannot serialize"):
        dumps_report({"bad": {1, 2}})


def test_dumps_report_is_deterministic_for_equal_inputs():
    report = {"x": 0.1 + 0.2, "y": [1e-300, 1e300]}
    assert dumps_report(report) == dumps_report(dict(report))


# ---------------------------------------------------------------- run_pipeline


def test_run_pipeline_report_schema():
    cfg = RunConfig(**INFER_KEYS)
    report = run_pipeline(cfg)
    for key in ("config_echo", "estimate", "V", "pivot", "ci", "relevant_test",
                "order", "diagnostics", "seed", "version"):
        assert key in report
    assert 0.0 <= report["estimate"] <= 1.0
    assert report["V"] > 0.0
    assert report["ci"]["lo"] <= report["estimate"] <= report["ci"]["hi"]
    assert report["order"] == {"nu": None, "d_hat": None, "stats": []}
    assert report["diagnostics"]["N"] == 32
    assert report["config_echo"]["measure"] == "tvdfpca"
    json.loads(dumps_report(report))


def test_run_pipeline_order_selection_block():
    cfg = RunConfig(**{**INFER_KEYS, "nu": 0.5, "d_max": 2})
    report = run_pipeline(cfg)
    assert report["order"]["nu"] == 0.5
    assert [st["d"] for st in report["order"]["stats"]]  # at least one tested order
    assert report["order"]["d_hat"] is None or 1 <= report["order"]["d_hat"] <= 2
    with pytest.raises(ConfigError, match="order selection"):
        RunConfig(**{**INFER_KEYS, "measure": "stationarity", "nu": 0.5, "d_max": 2})


@pytest.mark.parametrize(
    "delta, pivot, reject", [(0.5, "Infinity", True), (1.0, "NaN", False), (1.5, "-Infinity", False)]
)
def test_infer_report_on_a_path_with_zero_v(tmp_path, capsys, delta, pivot, reject):
    # at d = p1^2 the separable share is 1 at every fraction, so V = 0 exactly
    cfg = write_cfg(tmp_path, process="iid", T=1024, p=4, sigma_diag="1, 1, 1, 1",
                    measure="tvdpsca", p1=2, p2=2, d=4, quantile_n=500, delta=delta)
    code, out = run_main(capsys, "infer", "--config", cfg)
    assert code == 0, out
    report = json.loads(out)
    assert (report["estimate"], report["V"], report["pivot"]) == (1.0, 0.0, pivot)
    assert report["relevant_test"]["reject"] is reject
    assert report["ci"]["lo"] == report["ci"]["hi"] == 1.0
    # integral floats stay floats in the JSON
    floats = [report["estimate"], report["V"], report["ci"]["lo"], report["ci"]["hi"],
              report["diagnostics"]["psd_clip_max"], *report["config_echo"]["sigma_diag"]]
    assert all(type(x) is float for x in floats)


# ------------------------------------------------------------------- main exits


def test_main_missing_config_file_exits_2(tmp_path, capsys):
    code, out = run_main(capsys, "infer", "--config", str(tmp_path / "nope.cfg"))
    assert code == 2
    report = json.loads(out)
    err = report["error"]
    assert err["stage"] == "config" and err["type"] == "ConfigError"
    assert "nope.cfg" in err["message"] and report["version"] == sn.__version__
    binary = tmp_path / "binary.cfg"
    binary.write_bytes(b"\xff\xfe T = 256")
    code, out = run_main(capsys, "infer", "--config", str(binary))
    assert code == 2 and json.loads(out)["error"]["type"] == "ConfigError"


def test_main_unknown_key_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, wibble=1, **INFER_KEYS)
    code, out = run_main(capsys, "infer", "--config", cfg)
    assert code == 2
    assert json.loads(out)["error"]["stage"] == "config"


def test_main_bad_csv_exits_3_with_data_stage(tmp_path, capsys):
    rows = ["1,2"] * 70
    rows[3] = "nan,2"
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(rows) + "\n")
    cfg = write_cfg(tmp_path, input=str(path), measure="tvdfpca",
                    quantile_r=10_000, quantile_n=500)
    code, out = run_main(capsys, "infer", "--config", cfg)
    assert code == 3
    err = json.loads(out)["error"]
    assert err["stage"] == "data" and err["type"] == "DataError"
    assert "row 4" in err["message"]


@pytest.mark.parametrize("command", ["estimate", "infer"])
def test_main_checks_p_against_csv_data(tmp_path, capsys, command):
    data = sn.simulate(sn.IidSpec(T=256, sigma=np.eye(4), seed=1)).data
    cfg = write_cfg(tmp_path, input=write_csv(tmp_path, data), p=3, measure="tvdfpca", **QUICK)
    code, out = run_main(capsys, command, "--config", cfg)
    assert code == 2, out
    assert json.loads(out)["error"] == {
        "stage": "data", "type": "ConfigError", "message": "p = 3 does not match the data dimension 4",
    }


@pytest.mark.parametrize("command", ["infer", "select-d"])
def test_order_selection_paths_fail_at_stage_measure(tmp_path, capsys, command):
    cfg = write_cfg(tmp_path, process="tvfar1", T=512, p=2, ar_coeff=0.5, measure="tvdfpca",
                    nu=0.5, d_max=5, **QUICK)
    code, out = run_main(capsys, command, "--config", cfg)
    assert code == 2, out
    err = json.loads(out)["error"]
    assert (err["stage"], err["message"]) == ("measure", "d = 3 must lie in [1, 2]")


def test_main_degenerate_spectrum_exits_4_with_measure_stage(tmp_path, capsys):
    cfg = write_cfg(tmp_path, process="iid", T=256, sigma_diag="0, 0",
                    measure="tvdfpca", quantile_r=10_000, quantile_n=500)
    code, out = run_main(capsys, "infer", "--config", cfg)
    assert code == 4
    err = json.loads(out)["error"]
    assert err["stage"] == "measure" and err["type"] == "NumericalError"


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_main_lapack_failure_exits_4(tmp_path, capsys, monkeypatch):
    def failing_eigh(a, *args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    # the estimator's PSD projection decomposes only indefinite slices: fail both calls
    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    monkeypatch.setattr(np.linalg, "eigvalsh", failing_eigh)
    cfg = write_cfg(tmp_path, **INFER_KEYS)
    code, out = run_main(capsys, "infer", "--config", cfg)
    assert code == 4
    err = json.loads(out)["error"]
    assert err["stage"] == "estimate" and err["type"] == "NumericalError"
    assert err["message"] == "LAPACK failure in frequency cell 1: Eigenvalues did not converge"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "scale, p, keys, stage",
    [
        (1e160, 2, dict(measure="stationarity"), "estimate"),
        (1e100, 4, dict(measure="tvdpsca", p1=2, p2=2), "measure"),
        (1e-100, 4, dict(measure="coherence", p1=2, p2=2), "measure"),
    ],
    ids=["x1e160-stationarity", "x1e100-tvdpsca", "x1e-100-coherence"],
)
def test_main_out_of_range_scale_exits_4(tmp_path, capsys, scale, p, keys, stage):
    # Finite data whose spectral products leave the floating-point range must
    # fail as a numerical error, never report NaN or Infinity with exit 0.
    sigma = np.diag(np.arange(p, 0, -1.0))
    data = sn.simulate(sn.IidSpec(T=256, sigma=sigma, seed=3)).data * scale
    cfg = write_cfg(tmp_path, input=write_csv(tmp_path, data), quantile_r=10_000,
                    quantile_n=500, **keys)
    code, out = run_main(capsys, "infer", "--config", cfg)
    assert code == 4, out
    err = json.loads(out)["error"]
    assert err["stage"] == stage and err["type"] == "NumericalError"


IID_256 = dict(process="iid", T=256, p=2)
QUICK = dict(quantile_r=10_000, quantile_n=500)


CONFIG_ERROR = (2, "ConfigError")


@pytest.mark.parametrize(
    "command, keys, stage, error",
    [
        ("infer", dict(**IID_256, **QUICK), "measure", CONFIG_ERROR),
        ("infer", dict(**IID_256, **QUICK, measure="stationarity", nu=0.5, d_max=2), "config",
         CONFIG_ERROR),
        ("infer", dict(**IID_256, measure="tvdfpca", quantile_r=50), "config", CONFIG_ERROR),
        ("infer", dict(**IID_256, **QUICK, m=40, measure="tvdfpca"), "estimate", CONFIG_ERROR),
        ("infer", dict(process="iid", T=256, measure="tvdfpca", **QUICK), "data", CONFIG_ERROR),
        ("estimate", dict(**IID_256, m=40), "estimate", CONFIG_ERROR),
        ("measure", dict(**IID_256), "measure", CONFIG_ERROR),
        ("quantiles", dict(T=256), "inference", CONFIG_ERROR),
        ("simulate", dict(T=256), "data", CONFIG_ERROR),
        ("estimate", dict(process="iid", T=256, p=3, sigma_diag="4, 2, 1, 0.5"), "data",
         CONFIG_ERROR),
        ("select-d", dict(**IID_256, **QUICK, measure="stationarity", nu=0.5, d_max=2), "config",
         CONFIG_ERROR),
        ("estimate", dict(measure="tvdfpca"), "data", CONFIG_ERROR),
        ("estimate", dict(process="coherent_pair", T=256), "data", CONFIG_ERROR),
        ("measure", dict(**IID_256, measure="tvdpsca", p1=0, p2=2), "config", CONFIG_ERROR),
        ("infer", dict(input="binary.csv", measure="tvdfpca"), "data", (3, "DataError")),
        ("simulate", dict(process="separable", T=256, sigma_x_diag="1e200, 1",
                          sigma_y_diag="1e200, 1"), "data", CONFIG_ERROR),
    ],
    ids=[
        "infer-no-measure", "infer-order-stationarity", "infer-quantile-r-50", "infer-m-40",
        "iid-without-p", "estimate-m-40", "measure-no-measure", "quantiles-no-exponents",
        "simulate-without-process", "estimate-p-mismatch", "select-d-stationarity",
        "estimate-no-source", "pair-without-factors", "tvdpsca-p1-0", "input-not-utf8",
        "separable-kron-overflow",
    ],
)
def test_main_error_stage_table(tmp_path, capsys, monkeypatch, command, keys, stage, error):
    monkeypatch.chdir(tmp_path)  # relative paths in ``keys`` name files here
    (tmp_path / "binary.csv").write_bytes(b"\xff\xfe\x00\x81" * 64)
    cfg = write_cfg(tmp_path, **keys)
    code, out = run_main(capsys, command, "--config", cfg)
    err = json.loads(out)["error"]
    assert (code, err["type"]) == error, out
    assert err["stage"] == stage


@pytest.mark.parametrize(
    "command, owner, name, stage",
    [("simulate", sn.IidSpec, "_draw", "data"),
     ("estimate", estimator._BlockKernel, "_partial_sums", "estimate")],
    ids=["draw", "block"],
)
def test_main_memory_error_exits_2(tmp_path, capsys, monkeypatch, command, owner, name, stage):
    class ArrayMemoryError(MemoryError):  # numpy's private subclass, raised before allocating
        pass

    def allocate(*args):
        raise ArrayMemoryError("Unable to allocate 745. GiB for an array")

    monkeypatch.setattr(owner, name, allocate)
    code, out = run_main(capsys, command, "--config", write_cfg(tmp_path, **IID_256))
    assert code == 2, out
    assert json.loads(out)["error"] == {
        "stage": stage, "type": "MemoryError", "message": "Unable to allocate 745. GiB for an array",
    }


@pytest.mark.parametrize("target", ["missing/report.json", "."], ids=["missing-dir", "a-dir"])
@pytest.mark.parametrize("via", ["flag", "key"])
def test_main_unwritable_out_exits_2(tmp_path, capsys, monkeypatch, target, via):
    monkeypatch.chdir(tmp_path)
    built = []
    build = estimator._BlockKernel.__call__

    def counted(self, j):
        built.append(j)
        return build(self, j)

    monkeypatch.setattr(estimator._BlockKernel, "__call__", counted)
    keys = dict(process="iid", T=256, p=2)
    if via == "key":
        cfg = write_cfg(tmp_path, out=target, **keys)
        code, out = run_main(capsys, "estimate", "--config", cfg)
    else:
        code, out = run_main(capsys, "estimate", "--config", write_cfg(tmp_path, **keys),
                             "--out", target)
    assert code == 2, out
    err = json.loads(out)["error"]
    assert (err["stage"], err["type"]) == ("config", "ConfigError")
    assert err["message"].startswith(f"cannot write {target}: ")
    assert built == []  # refused before any stage ran


def test_main_out_vanishing_during_the_run_exits_2(tmp_path, capsys, monkeypatch):
    # the target passes the check before the stages, then its directory goes
    target = tmp_path / "gone" / "report.json"
    target.parent.mkdir()
    sample = cli._sample

    def sample_then_remove(cfg):
        target.parent.rmdir()
        return sample(cfg)

    monkeypatch.setattr(cli, "_sample", sample_then_remove)
    cfg = write_cfg(tmp_path, process="iid", T=256, p=2)
    code, out = run_main(capsys, "estimate", "--config", cfg, "--out", str(target))
    assert code == 2, out
    err = json.loads(out)["error"]
    assert (err["stage"], err["type"]) == ("config", "ConfigError")
    assert err["message"].startswith(f"cannot write {target}: [Errno 2]")


def count_block_decompositions(monkeypatch, ndim=4):
    """Count numpy.linalg decompositions whose input is a whole (M, N, ., .) frequency block."""
    counts = {"eigh": 0, "eigvalsh": 0, "svd": 0}
    for name in counts:
        original = getattr(np.linalg, name)

        def counted(a, *args, _name=name, _original=original, **kwargs):
            if np.ndim(a) == ndim:
                counts[_name] += 1
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts


def test_order_selection_decomposes_the_tensor_once(tmp_path, capsys, monkeypatch):
    # once means one decomposition per frequency block, shared by every order
    counts = count_block_decompositions(monkeypatch)
    cfg = write_cfg(tmp_path, **{**INFER_KEYS, "p": 4, "nu": 0.6, "d_max": 4})
    code, out = run_main(capsys, "infer", "--config", cfg)
    report = json.loads(out)
    assert code == 0 and len(report["order"]["stats"]) >= 1
    assert counts["eigh"] + counts["eigvalsh"] == report["diagnostics"]["k_omega"]
    counts = count_block_decompositions(monkeypatch)
    cfg = write_cfg(tmp_path, process="iid", T=1024, p=4, measure="tvdpsca", p1=2, p2=2,
                    nu=0.6, d_max=4, quantile_r=10_000, quantile_n=500)
    code, out = run_main(capsys, "select-d", "--config", cfg)
    report = json.loads(out)
    assert code == 0 and len(report["stats"]) >= 1
    # tvdpsca reads its squared scores from one eigvalsh of each block's Gram matrices
    assert counts == {"eigh": 0, "eigvalsh": report["diagnostics"]["k_omega"], "svd": 0}


def test_select_d_share_is_exactly_one_at_the_order_cap(tmp_path, capsys):
    # At d = min(p1^2, p2^2) the separable scores carry all the mass, so the
    # path is 1 and V = 0 exactly, not roundoff divided by roundoff.
    cfg = write_cfg(tmp_path, process="iid", T=1024, p=4, measure="tvdpsca", p1=2, p2=2,
                    nu=0.6, d_max=4, quantile_r=10_000, quantile_n=500)
    code, out = run_main(capsys, "select-d", "--config", cfg)
    assert code == 0, out
    report = json.loads(out)
    assert report["d_hat"] == 1
    last = report["stats"][-1]
    assert last["d"] == 4 and last["estimate"] == 1.0 and last["v"] == 0.0
    assert last["statistic"] == "Infinity"


def test_main_select_d_requires_nu_and_d_max(tmp_path, capsys):
    cfg = write_cfg(tmp_path, **INFER_KEYS)
    code, out = run_main(capsys, "select-d", "--config", cfg)
    assert code == 2 and "nu" in json.loads(out)["error"]["message"]
    cfg = write_cfg(tmp_path, nu=0.5, **INFER_KEYS)
    code, out = run_main(capsys, "select-d", "--config", cfg)
    assert code == 2 and "d_max" in json.loads(out)["error"]["message"]


def test_main_cli_seed_and_threads_validation(tmp_path, capsys):
    cfg = write_cfg(tmp_path, **INFER_KEYS)
    code, out = run_main(capsys, "infer", "--config", cfg, "--seed", "-1")
    assert code == 2 and "seed = -1 must be at least 0" in json.loads(out)["error"]["message"]
    code, out = run_main(capsys, "infer", "--config", cfg, "--threads", "0")
    assert code == 2 and "threads = 0 must be at least 1" in json.loads(out)["error"]["message"]


def test_main_rejects_unknown_subcommand(tmp_path, capsys):
    code, out = run_main(capsys, "transmogrify", "--config", "x")
    assert code == 2
    err = json.loads(out)["error"]
    assert (err["stage"], err["type"]) == ("config", "ConfigError")
    assert "invalid choice: 'transmogrify'" in err["message"]


@pytest.mark.parametrize("argv, message", [
    (["infer", "--config", "x", "--seed", "abc"], "argument --seed: invalid int value: 'abc'"),
    (["infer", "--seed", "1"], "the following arguments are required: --config"),
    ([], "the following arguments are required: command"),
], ids=["bad-flag", "no-config", "no-command"])
def test_main_argument_errors_are_error_json(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.err == ""
    (line,) = captured.out.splitlines()
    err = json.loads(line)["error"]
    assert (err["stage"], err["type"]) == ("config", "ConfigError")
    assert message in err["message"]


def test_main_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["infer", "--help"])
    assert exc.value.code == 0
    assert "--config" in capsys.readouterr().out


def test_the_shared_parser_keeps_no_state_between_calls(tmp_path, capsys):
    quantiles = write_cfg(tmp_path, "q.cfg", measure="tvdfpca", quantile_n=500)
    infer = write_cfg(tmp_path, "i.cfg", **INFER_KEYS)
    bad_flag = ["infer", "--config", infer, "--seed", "abc"]
    calls = [bad_flag, ["transmogrify", "--config", infer], ["infer", "--help"],
             ["quantiles", "--config", quantiles], ["infer", "--config", infer], bad_flag]

    def call(argv):
        try:
            code = main(argv)
        except SystemExit as exc:  # --help
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    parser = cli._build_parser()
    shared = [call(argv) for argv in calls]
    assert cli._build_parser() is parser
    for argv, got in zip(calls, shared):
        cli._build_parser.cache_clear()
        assert got == call(argv), argv
    assert [code for code, _, _ in shared] == [2, 2, 0, 0, 0, 2]


def test_main_internal_error_exits_1_with_error_json(tmp_path, capsys, monkeypatch):
    # an exception outside the error taxonomy is a bug: still an error JSON, at exit 1
    def broken(*args, **kwargs):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(cli, "estimate_sequential_sdo", broken)
    code = main(["infer", "--config", write_cfg(tmp_path, **INFER_KEYS)])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.out)["error"] == {
        "stage": "estimate", "type": "TypeError", "message": "unsupported operand",
    }
    assert "Traceback" in captured.err and "in broken" in captured.err


def test_plan_notes_are_in_the_report_not_on_stderr(tmp_path, capsys):
    # the README study config: its plan is outside the asymptotic regime
    cfg = write_cfg(tmp_path, process="tvfar1", T=1024, ar_coeff=0.5, sigma_eps_diag="4, 1",
                    alpha=0.6, kappa=0.25, measure="tvdfpca", d=1, level_alpha=0.05)
    assert main(["infer", "--config", cfg]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    notes = json.loads(captured.out)["diagnostics"]["plan_warnings"]
    assert notes == ["M = 4 > N^((2 iota + 1) kappa - 1)"]


# ----------------------------------------------------------------- main happy


def test_main_infer_deterministic_byte_output(tmp_path, capsys):
    cfg = write_cfg(tmp_path, **INFER_KEYS)
    code1, out1 = run_main(capsys, "infer", "--config", cfg)
    code2, out2 = run_main(capsys, "infer", "--config", cfg)
    # the same config saved with a UTF-8 byte-order mark
    bom = tmp_path / "bom.cfg"
    bom.write_bytes(b"\xef\xbb\xbf" + (tmp_path / "run.cfg").read_bytes())
    code3, out3 = run_main(capsys, "infer", "--config", str(bom))
    assert code1 == code2 == code3 == 0
    assert out1 == out2 == out3
    report = json.loads(out1)
    assert report["seed"] == 0
    assert report["relevant_test"]["delta"] == 0.0


def test_main_seed_override_changes_data_not_schema(tmp_path, capsys):
    cfg = write_cfg(tmp_path, **INFER_KEYS)
    _, base = run_main(capsys, "infer", "--config", cfg)
    code, out = run_main(capsys, "infer", "--config", cfg, "--seed", "9")
    assert code == 0
    report = json.loads(out)
    assert report["seed"] == 9 and report["config_echo"]["seed"] == 9
    assert report["estimate"] != json.loads(base)["estimate"]


def test_main_threads_override_does_not_change_quantiles(tmp_path, capsys):
    cfg = write_cfg(tmp_path, measure="tvdfpca", quantile_r=10_000, quantile_n=500)
    _, out1 = run_main(capsys, "quantiles", "--config", cfg, "--threads", "1")
    _, out2 = run_main(capsys, "quantiles", "--config", cfg, "--threads", "3")
    q1, q2 = json.loads(out1), json.loads(out2)
    assert q1["quantiles"] == q2["quantiles"]


def test_infer_report_is_the_same_cold_or_warm_at_any_thread_count(tmp_path, capsys, monkeypatch):
    # the scalar table is exact, so neither the thread count nor the cache state enters it
    monkeypatch.setenv("SPECNORM_CACHE_DIR", str(tmp_path / "cache"))
    cfg = write_cfg(tmp_path, **{**INFER_KEYS, "nu": 0.6, "d_max": 2})
    table = sn.exact_cache_path(3, 2, INFER_KEYS["quantile_n"])
    outs = []
    for threads, cold in (("1", True), ("2", False), ("3", True), ("1", False)):
        if cold:
            table.unlink(missing_ok=True)
        code, out = run_main(capsys, "infer", "--config", cfg, "--threads", threads)
        assert code == 0, out
        assert table.is_file()
        outs.append(out.replace(f'"threads": {threads}', '"threads": 1'))
    assert outs[1:] == outs[:1] * 3


# One config per measure.
THREADED_KEYS = {
    "tvdfpca": dict(measure="tvdfpca", nu=0.6, d_max=3),
    "tvdpsca": dict(measure="tvdpsca", p1=2, p2=2),
    "coherence": dict(measure="coherence", p1=2, p2=2),
    "stationarity": dict(measure="stationarity", d=2),
}


@pytest.mark.parametrize("measure", list(THREADED_KEYS))
def test_infer_report_does_not_depend_on_the_thread_count(tmp_path, capsys, measure):
    keys = {**INFER_KEYS, "p": 4, **THREADED_KEYS[measure]}
    cfg = write_cfg(tmp_path, **keys)
    code1, out1 = run_main(capsys, "infer", "--config", cfg, "--threads", "1")
    code2, out2 = run_main(capsys, "infer", "--config", cfg, "--threads", "2")
    assert code1 == code2 == 0
    assert out1.count('"threads": 1') == out2.count('"threads": 2') == 1
    assert out2.replace('"threads": 2', '"threads": 1') == out1


@pytest.mark.parametrize("keys", [dict(T=1024, alpha=0.6), dict(T=256)], ids=["T1024", "T256"])
def test_psd_clip_max_is_the_estimators_in_every_report(tmp_path, capsys, keys):
    # one figure: the largest eigenvalue clipped by the eta = 1 projection of the
    # estimate, whichever measure reads it; a rank-3 sample in p = 4 makes it fire
    rng = np.random.default_rng(5)
    data = rng.standard_normal((keys["T"], 3)) @ rng.standard_normal((3, 4))
    base = {"input": write_csv(tmp_path, data), "quantile_n": 500, "p1": 2, "p2": 2,
            "alpha": keys.get("alpha", 0.5)}
    sample = cli.ingest_csv(base["input"])
    plan = sn.default_bandwidth_plan(sample.T, alpha=base["alpha"])
    sdo = sn.estimate_sequential_sdo(sample, plan)
    sdo.tensor  # the first read records psd_clip_max
    clip = sdo.diagnostics["psd_clip_max"]
    # Parzen's slices are PSD up to roundoff, so the clip is roundoff of the largest eigenvalue
    assert 0 < clip <= 8 * sample.p * np.finfo(float).eps * np.linalg.eigvalsh(sdo.tensor).max()
    for command, measure in [("estimate", "tvdfpca"), *(("infer", m) for m in cli._MEASURES)]:
        cfg = write_cfg(tmp_path, **{**base, "measure": measure})
        code, out = run_main(capsys, command, "--config", cfg)
        assert code == 0, out
        assert json.loads(out)["diagnostics"]["psd_clip_max"] == clip, (command, measure)


def test_lapack_failure_reports_the_first_failing_block(tmp_path, capsys, monkeypatch):
    # The CLI streams its blocks in chunks of 7 rows, so a chunk is told apart by its
    # content: it equals rows k0.. of one frequency block of the tensor, bit for bit.
    chunk_rows(monkeypatch, 7)
    cfg = write_cfg(tmp_path, **{**INFER_KEYS, "p": 4, "measure": "stationarity"})
    with open(cfg) as fh:
        sample = sn.simulate(build_process_spec(parse_config(fh.read())))
    tensor = sn.estimate_sequential_sdo(sample, sn.default_bandwidth_plan(sample.T)).tensor
    assert tensor.shape[2] > 7
    eigh = np.linalg.eigh

    def failing_eigh(a, *args, **kwargs):
        if np.ndim(a) == 4:  # a chunk of a frequency block
            (j,) = [j for j in range(tensor.shape[1]) for k0 in range(0, tensor.shape[2], 7)
                    if np.array_equal(a, tensor[:, j, k0 : k0 + 7])]
            if j >= 2:
                raise np.linalg.LinAlgError(f"eigh did not converge in block {j}")
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    errors = []
    for threads in ("1", "2"):
        code, out = run_main(capsys, "infer", "--config", cfg, "--threads", threads)
        assert code == 4
        errors.append(json.loads(out)["error"])
    assert tensor.shape[1] > 3  # later blocks fail too; the lowest one is reported
    assert errors[0] == errors[1] == {
        "stage": "measure", "type": "NumericalError",
        "message": "LAPACK failure in frequency cell 3: eigh did not converge in block 2",
    }


def test_infer_never_holds_the_whole_tensor(tmp_path, capsys, small_law):
    # the estimate is streamed in eta chunks into the measure, never a whole block on
    # any of its threads, let alone the stacked tensor
    keys = dict(process="iid", T=16384, p=32, alpha=0.6, measure="tvdfpca", threads=2,
                quantile_r=small_law.replications, quantile_n=small_law.bm_steps)
    plan = sn.default_bandwidth_plan(16384, alpha=0.6)
    block_bytes = plan.M * plan.N * 32 * 32 * 16
    assert block_bytes >= 30e6
    cfg = write_cfg(tmp_path, **keys)
    tracemalloc.start()
    try:
        code, out = run_main(capsys, "infer", "--config", cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0, out
    assert peak < block_bytes


@pytest.mark.parametrize(
    "command, keys",
    [
        ("infer", dict(measure="tvdfpca", nu=0.6, d_max=4)),
        ("select-d", dict(measure="tvdpsca", p1=2, p2=2, nu=0.6, d_max=4)),
        ("measure", dict(measure="coherence", p1=2, p2=2)),
        ("estimate", dict()),
    ],
    ids=["infer-order-selection", "select-d-tvdpsca", "measure-coherence", "estimate"],
)
def test_every_block_is_built_once_per_report(tmp_path, capsys, monkeypatch, command, keys):
    built = []
    build = estimator._BlockKernel._partial_sums

    def counted(self, j, k0, k1, carry):
        built.append((j, k0))
        return build(self, j, k0, k1, carry)

    monkeypatch.setattr(estimator._BlockKernel, "_partial_sums", counted)
    chunk_rows(monkeypatch, 7)
    cfg = write_cfg(tmp_path, **{**INFER_KEYS, "p": 4, "threads": 2, **keys})
    code, out = run_main(capsys, command, "--config", cfg)
    assert code == 0, out
    diagnostics = json.loads(out)["diagnostics"]
    chunks = [(j, k0) for j in range(diagnostics["k_omega"])
              for k0 in range(0, diagnostics["N"], 7)]
    assert len(chunks) > 2 * diagnostics["k_omega"]
    assert sorted(built) == chunks


def test_cli_namespace_holds_the_library_functions_the_bench_harness_calls():
    # bench/tracing.py collects the specnorm functions this module imports;
    # bench/workloads.py calls these through that collection
    for name in ("simulate", "default_bandwidth_plan", "estimate_sequential_sdo",
                 "tvdfpca_sequential", "stationarity_sequential", "self_norm_V"):
        fn = getattr(cli, name)
        assert fn.__module__.startswith("specnorm.") and fn.__module__ != cli.__name__


def test_main_out_flag_writes_file_identical_to_stdout(tmp_path, capsys):
    cfg = write_cfg(tmp_path, **INFER_KEYS)
    _, streamed = run_main(capsys, "infer", "--config", cfg)
    out_path = tmp_path / "report.json"
    code, stdout = run_main(capsys, "infer", "--config", cfg, "--out", str(out_path))
    assert code == 0 and stdout == ""
    assert out_path.read_text() == streamed


def test_main_estimate_report_shape(tmp_path, capsys):
    cfg = write_cfg(tmp_path, process="iid", T=1024, p=2)
    code, out = run_main(capsys, "estimate", "--config", cfg)
    assert code == 0
    report = json.loads(out)
    shape = report["shape"]
    assert shape["p"] == 2 and shape["n_window"] == 32
    assert len(report["u_points"]) == shape["m"]
    assert len(report["omega_points"]) == shape["k_omega"]
    assert len(report["eta_points"]) == shape["n_window"]
    assert len(report["trace_eta1"]) == shape["m"]
    assert all(len(row) == shape["k_omega"] for row in report["trace_eta1"])
    assert all(all(v > 0 for v in row) for row in report["trace_eta1"])


def test_main_measure_report_carries_path(tmp_path, capsys):
    cfg = write_cfg(tmp_path, process="iid", T=1024, p=2, measure="stationarity")
    code, out = run_main(capsys, "measure", "--config", cfg)
    assert code == 0
    report = json.loads(out)
    assert report["kind"] == "stationarity"
    assert report["f_exponent"] == 2 and report["g_exponent"] == 1
    assert len(report["values"]) == len(report["eta"]) == 32
    assert report["estimate"] == report["values"][-1]


def test_main_quantiles_report_and_cache_file(tmp_path, capsys):
    cfg = write_cfg(tmp_path, f_exp=3, g_exp=2, quantile_r=10_000, quantile_n=500)
    code, out = run_main(capsys, "quantiles", "--config", cfg)
    assert code == 0
    report = json.loads(out)
    assert report["f_exponent"] == 3 and report["g_exponent"] == 2
    # the table is exact: no replications, no seed
    assert report["replications"] == 0 and report["quantile_seed"] == 0
    assert report["bm_steps"] == 500
    assert len(report["alphas"]) == 999
    qs = report["quantiles"]
    assert all(a <= b for a, b in zip(qs, qs[1:]))
    assert os.path.exists(report["cache_file"])
    assert report["cache_file"] == str(sn.exact_cache_path(3, 2, 500))
    code, out = run_main(capsys, "quantiles")  # --config is required
    assert code == 2 and "required: --config" in json.loads(out)["error"]["message"]
    bare = write_cfg(tmp_path, name="bare.cfg", T=256)
    code, out = run_main(capsys, "quantiles", "--config", bare)
    assert code == 2 and "f_exp" in json.loads(out)["error"]["message"]


def test_an_exact_law_beyond_its_grid_is_a_numerical_error(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("SPECNORM_CACHE_DIR", str(cache))
    monkeypatch.setattr(inference, "_X_MAX", 1.0)
    message = "exact pivot law (3, 2) reaches beyond its x grid"
    with pytest.raises(NumericalError, match=re.escape(message)):
        sn.exact_quantiles(3, 2, bm_steps=500, use_cache=False)
    cfg = write_cfg(tmp_path, f_exp=3, g_exp=2, **QUICK)
    code, out = run_main(capsys, "quantiles", "--config", cfg)
    assert code == 4
    assert json.loads(out)["error"] == {
        "stage": "inference", "type": "NumericalError", "message": message,
    }
    assert not cache.exists() or list(cache.iterdir()) == []


def test_main_simulate_round_trips_through_csv(tmp_path, capsys):
    sim_cfg = write_cfg(tmp_path, name="sim.cfg", process="iid", T=256, p=2, seed=5)
    data_path = tmp_path / "series.csv"
    code, _ = run_main(capsys, "simulate", "--config", sim_cfg, "--out", str(data_path))
    assert code == 0
    text = data_path.read_text()
    assert text.splitlines()[0] == "x1,x2"
    assert len(text.splitlines()) == 257

    proc_cfg = write_cfg(tmp_path, name="proc.cfg", process="iid", T=256, p=2, seed=5,
                         measure="tvdfpca")
    file_cfg = write_cfg(tmp_path, name="file.cfg", input=str(data_path),
                         measure="tvdfpca")
    _, out_proc = run_main(capsys, "measure", "--config", proc_cfg)
    _, out_file = run_main(capsys, "measure", "--config", file_cfg)
    rp, rf = json.loads(out_proc), json.loads(out_file)
    # 17 significant digits make the CSV round trip exact
    assert rp["estimate"] == rf["estimate"]
    assert rp["values"] == rf["values"]


@pytest.mark.parametrize("coupling, code", [(0.5, 2), (0.0, 0), (1.0, 0)])
def test_main_coupling_is_checked_at_parse_time(tmp_path, capsys, coupling, code):
    cfg = write_cfg(tmp_path, process="coherent_pair", T=256, p1=2, p2=2, coupling=coupling)
    rc, out = run_main(capsys, "simulate", "--config", cfg)
    assert rc == code, out
    if code:
        err = json.loads(out)["error"]
        assert (err["stage"], err["type"]) == ("config", "ConfigError")
        assert "neither zero nor column-orthonormal" in err["message"]
    else:
        assert len(out.splitlines()) == 257


def test_main_select_d_separates_strong_directions(tmp_path, capsys):
    cfg = write_cfg(tmp_path, process="iid", T=1024, sigma_diag="16, 1, 1",
                    nu=0.5, d_max=3, quantile_r=10_000, quantile_n=500)
    code, out = run_main(capsys, "select-d", "--config", cfg)
    assert code == 0
    report = json.loads(out)
    assert report["config_echo"]["measure"] == "tvdfpca"  # default for select-d
    assert report["d_hat"] == 1  # one dominant direction carries 16/18 of the mass
    stats = report["stats"]
    assert [st["d"] for st in stats] == list(range(1, len(stats) + 1))
    assert all(st["v"] >= 0 for st in stats)


# ---------------------------------------------------------------- config fuzzer


@st.composite
def simulated_infer_configs(draw):
    """A valid simulated ``infer`` config: each process, a measure whose p1/p2 fit its p."""
    measure = draw(st.sampled_from(cli._MEASURES))
    process = draw(st.sampled_from(cli._PROCESSES))
    keys = dict(
        process=process, T=draw(st.integers(64, 1024)), measure=measure,
        alpha=draw(st.floats(0.4, 0.6)),
        kappa=draw(st.floats(0.2, 1.0, exclude_min=True, exclude_max=True)),
        quantile_n=500, seed=draw(st.integers(0, 2**31 - 1)),
    )
    dims = st.integers(1, 3)
    scales = lambda n: ", ".join(map(repr, draw(st.lists(st.floats(0.25, 4.0), min_size=n,
                                                         max_size=n))))
    if process in ("iid", "tvfar1"):
        p = keys["p"] = draw(st.integers(2 if measure == "coherence" else 1, 4))
        if process == "tvfar1":
            keys.update(ar_coeff=draw(st.floats(-0.95, 0.95)), sigma_eps_diag=scales(p))
        else:
            keys.update(sigma_diag=scales(p))
    elif process == "separable":
        a, b = draw(st.integers(2 if measure == "coherence" else 1, 3)), draw(dims)
        keys.update(sigma_x_diag=scales(a), sigma_y_diag=scales(b))
        p = a * b
    else:  # coherent_pair: its block sizes are the measure's p1/p2
        a, b = (2, 2) if measure == "tvdpsca" else (draw(dims), draw(dims))
        keys.update(p1=a, p2=b)
        if a == b:
            keys["coupling"] = draw(st.sampled_from([0.0, 1.0, -1.0]))
        p = a + b
    if measure == "tvdpsca" and process != "coherent_pair":
        p1 = draw(st.sampled_from([k for k in range(1, p + 1) if p % k == 0]))
        keys.update(p1=p1, p2=p // p1)
    elif measure == "coherence" and process != "coherent_pair":
        p1 = draw(st.integers(1, p - 1))
        keys.update(p1=p1, p2=p - p1)
    return keys


def test_config_fuzzer_exits_are_classified_and_reports_finite(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SPECNORM_CACHE_DIR", str(tmp_path))
    codes = []

    @settings(max_examples=250, deadline=None)
    @given(keys=simulated_infer_configs())
    def run(keys):
        code = main(["infer", "--config", write_cfg(tmp_path, **keys)])
        report = json.loads(capsys.readouterr().out)
        codes.append(code)
        assert code in (0, 2, 3, 4), report
        if code == 0:
            values = (report["estimate"], report["V"], report["ci"]["lo"], report["ci"]["hi"])
            assert all(isinstance(x, float) and math.isfinite(x) for x in values), report

    run()
    # aimed at valid configs, so most runs must reach a report (an exit 2 is a p > N or M N > T)
    assert codes.count(0) >= 0.8 * len(codes), f"exit 0 in {codes.count(0)} of {len(codes)}"
