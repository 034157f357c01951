"""Command-line interface smoke tests, run in-process."""

import argparse
import importlib
import json

import pytest
from mpmath import mp, mpf

from divisorlab import cli, perron, series, sieve, zeros
from divisorlab import zeta as zeta_engine

from conftest import ZEROS_PATH, perron_reference


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured


def run_json(capsys, *argv):
    code, captured = run(capsys, *argv)
    assert code == 0, captured.err
    return json.loads(captured.out)


def test_sum(capsys):
    payload = run_json(capsys, "sum", "d_square", "1000")
    assert payload == {"function": "d_square", "x": 1000, "value": "22502"}


def test_sum_all_functions(capsys):
    for function, expected in [("two_omega", "3"), ("mu_squared", "2"),
                               ("d", "3"), ("d_squared", "5")]:
        payload = run_json(capsys, "sum", function, "2")
        assert payload["value"] == expected


def test_constants(capsys):
    payload = run_json(capsys, "constants")
    assert payload["zeta_2"].startswith("1.6449340668")
    assert payload["zeta_0_squared"] == "0.25"
    assert payload["gamma"]["0"].startswith("0.5772156649")
    assert payload["main_terms"]["paper"]["A1"].startswith("0.30396355")
    assert payload["main_terms"]["A2_mode_shift"].startswith("0.69298946")
    assert payload["companion"]["A1_prime"].startswith("0.60792710")


def test_constants_engine_calls(capsys):
    """On fresh caches one constants run makes 3 engine calls: the jets at
    s = 1 to order 4, at s = 2 to order 2 and at s = 0, which every printed
    value reads.  Each gamma_m prints as stieltjes(m) does."""
    series._main_term_coefficients.cache_clear()
    series.constant_jets.cache_clear()
    zeta_engine.reset_call_count()
    payload = run_json(capsys, "constants", "--precision-bits", "64")
    assert zeta_engine.call_count() == 3
    with mp.workprec(80):
        for m in range(5):
            assert payload["gamma"][str(m)] == cli._num(zeta_engine.stieltjes(m, 64)), m


def test_module_attribute_sees_every_engine_call(capsys, monkeypatch, zero_table):
    """A wrapper at the module attribute zeta.zeta_with_derivatives, where
    the benchmark's tracer installs its own, sees every call that
    call_count() counts."""
    seen = []
    engine = zeta_engine.zeta_with_derivatives

    def wrapper(*args, **kwargs):
        seen.append(args[0])
        return engine(*args, **kwargs)

    monkeypatch.setattr(zeta_engine, "zeta_with_derivatives", wrapper)
    gamma = zero_table.ordinates[0]
    runs = {
        "real-centre circle": lambda: perron.residue_by_circle(
            1.0, 0.2, 1000.5, verify_radius=True),
        "zero-pole circle": lambda: perron.residue_by_circle(
            complex(0.25, float(gamma) / 2), 0.2, 1000.5),
        "coefficient_for": lambda: zeros.coefficient_for(gamma),
        "dirichlet-verify": lambda: run_json(capsys, "dirichlet-verify", "3", "10000"),
    }
    for name, run_once in runs.items():
        seen.clear()
        zeta_engine.reset_call_count()
        run_once()
        assert len(seen) == zeta_engine.call_count() > 0, name


def test_benchmark_tracer_sees_every_engine_call(capsys, monkeypatch, tmp_path):
    """The benchmark's tracer, imported unedited from perfbench/, installs
    its wrappers on the names it targets and, around the CLI runs the
    benchmark makes, traces as many mp engine calls as call_count() counts.
    A refactor that drops a name or parameter it binds fails here."""
    monkeypatch.syspath_prepend(str(ZEROS_PATH.parent.parent / "perfbench"))
    tracing = importlib.import_module("tracing")
    zeros_args = ["--zeros", "5", "--zeros-path", str(ZEROS_PATH),
                  "--output-dir", str(tmp_path)]
    runs = [
        ["sum", "d_square", "1000"],
        ["constants", "--precision-bits", "64"],
        ["perron", "residue", "--center-re", "1", "--radius", "0.2",
         "--x", "1000.5"],
        ["formula", "compare", "--grid-stop", "1e4", *zeros_args],
        ["formula", "conjecture", "--grid-stop", "1e4", *zeros_args],
    ]
    tracer = tracing.Tracer()
    with tracer.installed():
        codes = [cli.main(argv) for argv in runs]
    capsys.readouterr()
    assert codes == [0] * len(runs)
    traced = sum(1 for span in tracer.spans if span.name == "zeta.mp")
    assert traced == tracer.mp_calls > 0


def test_zeros_import(capsys):
    payload = run_json(capsys, "zeros", "import", str(ZEROS_PATH), "--count", "5")
    assert payload["count"] == 5
    assert payload["first"].startswith("14.134725141")


def test_zeros_coeffs_with_cache(capsys, tmp_path):
    cache = tmp_path / "cache.txt"
    payload = run_json(capsys, "zeros", "coeffs", "--count", "3",
                       "--zeros-path", str(ZEROS_PATH),
                       "--cache-path", str(cache))
    assert payload["count"] == 3
    assert cache.exists()
    assert payload["first_coefficient"]["re"].startswith("0.1145348962")
    # second run must hit the cache and agree
    again = run_json(capsys, "zeros", "coeffs", "--count", "3",
                     "--zeros-path", str(ZEROS_PATH),
                     "--cache-path", str(cache))
    assert again["first_coefficient"] == payload["first_coefficient"]


def test_zeros_coeffs_serves_the_requested_count(capsys, tmp_path, zero_table,
                                                 zero_coefficients):
    """A warm 100-zero cache serves its first 5 rows to --count 5; a 5-row
    cache cannot serve 100 zeros."""
    warm = tmp_path / "warm.txt"
    zeros.persist_cache(zero_table, zero_coefficients, warm)
    argv = ["zeros", "coeffs", "--zeros-path", str(ZEROS_PATH)]
    cached = run_json(capsys, *argv, "--count", "5", "--cache-path", str(warm))
    fresh = run_json(capsys, *argv, "--count", "5")
    assert cached["count"] == 5
    assert cached["first_coefficient"] == fresh["first_coefficient"]
    assert abs(float(cached["sum_2_abs"]) - float(fresh["sum_2_abs"])) < 1e-15
    short = tmp_path / "short.txt"
    run_json(capsys, *argv, "--count", "5", "--cache-path", str(short))
    code, captured = run(capsys, *argv, "--count", "100", "--cache-path", str(short))
    assert code == 2
    assert json.loads(captured.err)["error"] == "StaleCacheError"


def test_zeros_coeffs_cache_below_requested_precision(capsys, tmp_path):
    """A cache written at 128 bits exits 2 for a 192-bit request and still
    serves 128 bits."""
    cache = tmp_path / "coeffs.txt"
    argv = ["zeros", "coeffs", "--count", "3", "--zeros-path", str(ZEROS_PATH),
            "--cache-path", str(cache)]
    written = run_json(capsys, *argv)
    code, captured = run(capsys, *argv, "--precision-bits", "192")
    assert code == 2
    assert json.loads(captured.err)["error"] == "StaleCacheError"
    assert run_json(capsys, *argv)["first_coefficient"] == written["first_coefficient"]


@pytest.mark.parametrize("argv", [
    ["zeros", "import", str(ZEROS_PATH), "--count", "0"],
    ["zeros", "coeffs", "--count", "0"],
    ["formula", "compare", "--zeros", "0"],
    ["formula", "compare", "--zeros", "2", "--ordinate-cutoff", "0"],
    ["formula", "conjecture", "--zeros", "0"],
], ids=["import", "coeffs", "compare", "compare_ordinate", "conjecture"])
def test_zero_count_below_one_rejected(capsys, tmp_path, argv):
    out = tmp_path / "out"
    writes = ["--output-dir", str(out)] if argv[0] == "formula" else []
    code, captured = run(capsys, *argv, "--zeros-path", str(ZEROS_PATH), *writes)
    assert code == 2
    assert json.loads(captured.err)["error"] == "DomainError"
    assert not out.exists()


def test_output_dir_only_when_written(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("DIVISORLAB_ZEROS", raising=False)
    out = tmp_path / "out"
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("mode = bogus\n")
    code, captured = run(capsys, "formula", "compare",
                         "--grid-start", "100", "--grid-stop", "1000",
                         "--grid-count", "2", "--config", str(cfg),
                         "--output-dir", str(out))
    assert code == 2
    assert json.loads(captured.err)["error"] == "DomainError"
    assert not out.exists()


def test_env_var_supplies_zeros_path(capsys, monkeypatch):
    monkeypatch.setenv("DIVISORLAB_ZEROS", str(ZEROS_PATH))
    payload = run_json(capsys, "zeros", "coeffs", "--count", "2")
    assert payload["count"] == 2


def test_zeros_import_path_wins_over_env_var(capsys, monkeypatch, tmp_path):
    five = tmp_path / "five.txt"
    rows = [line for line in ZEROS_PATH.read_text().splitlines() if line[:1].isdigit()]
    five.write_text("\n".join(rows[:5]) + "\n")
    monkeypatch.setenv("DIVISORLAB_ZEROS", str(ZEROS_PATH))
    assert run_json(capsys, "zeros", "import", str(five))["count"] == 5
    assert run_json(capsys, "zeros", "import")["count"] == 100


def test_zeros_import_without_path(capsys, monkeypatch):
    monkeypatch.delenv("DIVISORLAB_ZEROS", raising=False)
    code, captured = run(capsys, "zeros", "import")
    assert code == 2
    assert json.loads(captured.err)["error"] == "DomainError"


def test_bad_env_zeros_path_only_where_read(capsys, monkeypatch, tmp_path):
    """A missing DIVISORLAB_ZEROS file fails only the subcommands that read
    the zeros path."""
    missing = tmp_path / "missing.txt"
    monkeypatch.setenv("DIVISORLAB_ZEROS", str(missing))
    for argv in (["sum", "d_square", "10"],
                 ["constants", "--precision-bits", "64"],
                 ["perron", "integral", "10.5", "--T", "50"],
                 ["perron", "decay", "100.5", "--T", "50", "100",
                  "--output-dir", str(tmp_path)],
                 ["perron", "residue", "--center-re", "0", "--radius", "0.15",
                  "--x", "100.0", "--nodes", "64"]):
        run_json(capsys, *argv)
    code, captured = run(capsys, "zeros", "coeffs", "--count", "2")
    assert code == 2
    err = json.loads(captured.err)
    assert err["error"] == "DomainError"
    assert err["message"] == f"zeros path {missing} does not exist"


def _subcommands(parser, path=()):
    """(command words, parser) for every leaf subcommand."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from _subcommands(child, path + (name,))
            return
    yield " ".join(path), parser


def test_each_subcommand_takes_only_the_settings_it_reads():
    zeros_settings = {"config", "precision_bits", "zeros_path", "cache_path", "workers"}
    expected = {
        "sum": set(),
        "constants": {"config", "precision_bits"},
        "zeros import": {"config", "precision_bits", "zeros_path", "count", "refine"},
        "zeros coeffs": zeros_settings | {"count", "refine"},
        "formula compare": zeros_settings | {
            "output_dir", "mode", "function", "grid_start", "grid_stop",
            "grid_count", "zeros", "ordinate_cutoff", "no_half_integers",
            "no_constant"},
        "formula conjecture": zeros_settings | {
            "output_dir", "grid_start", "grid_stop", "grid_count", "zeros",
            "epsilon"},
        "perron integral": {"c", "T", "nodes"},
        "perron decay": {"config", "output_dir", "c", "T", "nodes"},
        "perron residue": {"config", "precision_bits", "center_re", "center_im",
                           "radius", "x", "nodes", "verify_radius"},
        "dirichlet-verify": {"config", "precision_bits"},
    }
    found = {name: {a.dest for a in p._actions if a.option_strings and a.dest != "help"}
             for name, p in _subcommands(cli.build_parser())}
    assert found == expected
    assert sum(map(len, found.values())) == 58


def test_every_float_argument_is_finite_checked():
    floats = [a for _, p in _subcommands(cli.build_parser()) for a in p._actions
              if a.type in (float, cli.finite_float)]
    assert len(floats) == 17
    assert all(a.type is cli.finite_float for a in floats)


@pytest.mark.parametrize("argv", [
    ["dirichlet-verify", "nan", "100"],
    ["perron", "residue", "--center-re", "1", "--radius", "0.2", "--x", "nan"],
    ["perron", "residue", "--center-re", "1", "--radius", "nan", "--x", "1000.5"],
    ["formula", "conjecture", "--epsilon", "nan"],
    ["perron", "integral", "inf"],
    ["perron", "decay", "100.5", "--T", "50", "inf"],
    ["formula", "compare", "--grid-stop", "inf"],
], ids=["dirichlet_s", "residue_x", "residue_radius", "conjecture_epsilon",
        "integral_x", "decay_T", "compare_grid_stop"])
def test_non_finite_float_rejected_by_parser(capsys, argv):
    """Rejected as argparse rejects a bad --mode choice, before any handler
    runs: unchecked, dirichlet-verify never returns from s = nan."""
    with pytest.raises(SystemExit) as exit_info:
        cli.build_parser().parse_args(argv)
    assert exit_info.value.code == 2
    assert "invalid finite_float value" in capsys.readouterr().err


def test_formula_compare(capsys, tmp_path):
    payload = run_json(capsys, "formula", "compare",
                       "--grid-start", "100", "--grid-stop", "10000",
                       "--grid-count", "5", "--zeros", "20",
                       "--zeros-path", str(ZEROS_PATH),
                       "--output-dir", str(tmp_path))
    assert payload["rows"] == 5
    assert (tmp_path / "compare_d_square.csv").exists()
    assert (tmp_path / "compare_d_square.json").exists()
    summary = json.loads((tmp_path / "compare_d_square.json").read_text())
    assert summary["cutoff"] == {"kind": "count", "value": 20}


def test_formula_compare_companion(capsys, tmp_path):
    payload = run_json(capsys, "formula", "compare", "--function", "mu_squared",
                       "--grid-start", "100", "--grid-stop", "10000",
                       "--grid-count", "4", "--output-dir", str(tmp_path))
    assert payload["function"] == "mu_squared"


def test_formula_conjecture(capsys, tmp_path):
    payload = run_json(capsys, "formula", "conjecture",
                       "--grid-start", "100", "--grid-stop", "10000",
                       "--grid-count", "4", "--zeros", "10",
                       "--zeros-path", str(ZEROS_PATH),
                       "--output-dir", str(tmp_path))
    assert payload["zeros_used"] == 20
    assert payload["sup_ratio"] > 0
    trace = json.loads((tmp_path / "conjecture_scan.json").read_text())
    assert len(trace["trace"]) == 4


def test_perron_integral(capsys):
    payload = run_json(capsys, "perron", "integral", "10.5",
                       "--c", "2.0", "--T", "100")
    assert abs(float(payload["real"]) - 48.0) < 25.0
    assert payload["imag"] == "0.0"  # real by conjugate symmetry; the key stays
    values, gaps, bounds = perron.perron_sweep(10.5, 2.0, [100.0])
    assert payload["quadrature_gap"] == float(gaps[0])
    assert 0 <= payload["quadrature_gap"] <= 1e-6 * float(payload["real"])
    assert payload["error_bound"] == float(bounds[0])
    assert payload["error_bound"] >= abs(values[0] - perron_reference(10.5, 2.0, 100.0))


def test_perron_residue(capsys):
    payload = run_json(capsys, "perron", "residue", "--center-re", "0.0",
                       "--radius", "0.15", "--x", "100.0")
    assert abs(float(payload["real"]) - 0.25) < 1e-8


def test_perron_residue_prints_computed_digits(capsys):
    """All 20 printed digits are the computed value's, also at mpmath's
    default 53-bit ambient precision, the one a fresh process runs at."""
    with mp.workprec(53):
        payload = run_json(capsys, "perron", "residue", "--center-re", "1",
                           "--radius", "0.2", "--x", "1000.5", "--nodes", "64")
    value = perron.residue_by_circle(1.0, 0.2, 1000.5, nodes=64).real
    assert abs(mpf(payload["real"]) - value) / value < mpf("1e-19")


@pytest.mark.parametrize("argv", [
    ["perron", "residue", "--center-re", "1", "--radius", "0.2", "--x", "1000.5"],
    ["zeros", "coeffs", "--count", "2", "--zeros-path", str(ZEROS_PATH)],
    ["constants"],
], ids=["perron_residue", "zeros_coeffs", "constants"])
def test_precision_floor(capsys, argv):
    code, captured = run(capsys, *argv, "--precision-bits", "8")
    assert code == 2
    assert json.loads(captured.err)["error"] == "PrecisionError"


def test_perron_decay(capsys, tmp_path):
    payload = run_json(capsys, "perron", "decay", "100.5",
                       "--c", "2.0", "--T", "50", "100",
                       "--output-dir", str(tmp_path))
    assert len(payload["rows"]) == 2
    rows, _ = perron.truncation_decay(100.5, 2.0, [50, 100],
                                      sieve.prefix_sum(sieve.ArithmeticFunction.D_SQUARE, 100))
    assert payload["rows"] == [{"T": T, "abs_error": err, "quadrature_gap": gap,
                                "error_bound": bound}
                               for T, err, gap, bound in rows]
    lines = (tmp_path / "perron_decay.csv").read_text().splitlines()
    assert lines[0] == "T,abs_error,quadrature_gap,error_bound"
    assert [tuple(map(float, line.split(","))) for line in lines[1:]] == rows


@pytest.mark.parametrize("heights", [["100"], ["50", "50"], ["100", "50"]])
def test_perron_decay_degenerate_heights(capsys, tmp_path, heights):
    code, captured = run(capsys, "perron", "decay", "100.5", "--T", *heights,
                         "--output-dir", str(tmp_path))
    assert code == 2
    assert json.loads(captured.err)["error"] == "DomainError"
    assert not (tmp_path / "perron_decay.csv").exists()


def test_dirichlet_verify(capsys):
    payload = run_json(capsys, "dirichlet-verify", "3", "2000")
    assert payload["pass"] is True
    assert float(payload["difference"]) <= float(payload["tail_bound"])
    # the printed partial sum is the plain one, term by term, to its digits
    values = sieve.build_sieve(2000, sieve.ArithmeticFunction.D_SQUARE)
    with mp.workprec(200):
        direct = mp.fsum(int(values[n]) * mp.power(n, -3) for n in range(1, 2001))
        assert abs(mpf(payload["partial_sum"]) - direct) < mpf("1e-24")


@pytest.mark.parametrize("s", ["1.5", "1.9"])
def test_dirichlet_verify_below_s_2(capsys, s):
    """The tail past N stays a finite positive bound for every s > 1."""
    payload = run_json(capsys, "dirichlet-verify", s, "2000")
    assert payload["pass"] is True
    assert 0 < float(payload["difference"]) <= float(payload["tail_bound"])
    assert mp.isfinite(mpf(payload["tail_bound"]))


def test_dirichlet_verify_degenerate(capsys):
    payload = run_json(capsys, "dirichlet-verify", "3", "1")
    assert "pass" not in payload
    assert "degenerate" in payload["note"]
    code, captured = run(capsys, "dirichlet-verify", "3", "0")
    assert code == 2
    assert json.loads(captured.err)["error"] == "DomainError"


def test_config_file(capsys, tmp_path):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text(
        "workers = 1  # one coefficient process\n"
        f"zeros_path = {ZEROS_PATH}\n"
    )
    payload = run_json(capsys, "zeros", "coeffs", "--count", "2",
                       "--config", str(cfg))
    assert payload["count"] == 2


def test_unknown_config_key(capsys, tmp_path):
    cfg = tmp_path / "lab.cfg"
    for line in ("segmnt_size = 4096\n", "sieve_cap = 1000\n",
                 "segment_size = 4096\n"):
        cfg.write_text(line)
        code, captured = run(capsys, "constants", "--config", str(cfg))
        assert code == 2
        err = json.loads(captured.err)
        assert err["error"] == "DomainError"


def test_malformed_config_value(capsys, tmp_path):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("# lab defaults\nprecision_bits = 12x\n")
    code, captured = run(capsys, "constants", "--config", str(cfg))
    assert code == 2
    err = json.loads(captured.err)
    assert err["error"] == "DomainError"
    assert f"{cfg}:2" in err["message"]


def test_bad_config_mode_rejected(capsys, tmp_path):
    """mu_squared has no mode-dependent main term, so only the config check
    stands between a bad mode and the written report."""
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("# lab defaults\nmode = bogus\n")
    out = tmp_path / "out"
    code, captured = run(capsys, "formula", "compare", "--function", "mu_squared",
                         "--grid-start", "100", "--grid-stop", "1000",
                         "--grid-count", "2", "--config", str(cfg),
                         "--output-dir", str(out))
    assert code == 2
    err = json.loads(captured.err)
    assert err["error"] == "DomainError"
    assert err["message"] == f"{cfg}:2: mode must be 'paper' or 'exact'"
    assert not out.exists()


def test_error_exit_code_and_payload(capsys):
    code, captured = run(capsys, "perron", "integral", "10.0")
    assert code == 2
    err = json.loads(captured.err)
    assert err["error"] == "ConventionError"
    assert "half-integer" in err["message"]


def test_missing_zeros_path(capsys, monkeypatch):
    monkeypatch.delenv("DIVISORLAB_ZEROS", raising=False)
    code, captured = run(capsys, "zeros", "coeffs", "--count", "2")
    assert code == 2
    assert json.loads(captured.err)["error"] == "DomainError"
