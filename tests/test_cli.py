"""Command-line interface smoke tests, run in-process."""

import json

import pytest

from divisorlab import cli

from conftest import ZEROS_PATH


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


def test_env_var_supplies_zeros_path(capsys, monkeypatch):
    monkeypatch.setenv("DIVISORLAB_ZEROS", str(ZEROS_PATH))
    payload = run_json(capsys, "zeros", "coeffs", "--count", "2")
    assert payload["count"] == 2


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
    assert abs(float(payload["imag"])) < 1e-4


def test_perron_residue(capsys):
    payload = run_json(capsys, "perron", "residue", "--center-re", "0.0",
                       "--radius", "0.15", "--x", "100.0")
    assert abs(float(payload["real"]) - 0.25) < 1e-8


def test_perron_decay(capsys, tmp_path):
    payload = run_json(capsys, "perron", "decay", "100.5",
                       "--c", "2.0", "--T", "50", "100",
                       "--output-dir", str(tmp_path))
    assert len(payload["rows"]) == 2
    assert (tmp_path / "perron_decay.csv").exists()


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


def test_dirichlet_verify_degenerate(capsys):
    payload = run_json(capsys, "dirichlet-verify", "3", "1")
    assert "pass" not in payload
    assert "degenerate" in payload["note"]


def test_config_file(capsys, tmp_path):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text(
        "segment_size = 4096  # small segments\n"
        f"zeros_path = {ZEROS_PATH}\n"
    )
    payload = run_json(capsys, "zeros", "coeffs", "--count", "2",
                       "--config", str(cfg))
    assert payload["count"] == 2


def test_unknown_config_key(capsys, tmp_path):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("segmnt_size = 4096\n")
    code, captured = run(capsys, "sum", "d_square", "10", "--config", str(cfg))
    assert code == 2
    err = json.loads(captured.err)
    assert err["error"] == "DomainError"


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
