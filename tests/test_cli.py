"""Command-line interface smoke tests, run in-process except where a test
needs a fresh interpreter or a timeout."""

import argparse
import csv
import importlib
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from mpmath import mp, mpf

from divisorlab import cli, perron, series, sieve, zeros
from divisorlab import zeta as zeta_engine
from divisorlab.errors import PrecisionError

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
    benchmark makes, traces as many mp engine calls as call_count() counts,
    and sees one main-term residue call under each formula compare, for
    every function.  The runs include a circle with --verify-radius, whose
    inner circle is a traced call under the outer one, and zeros coeffs
    twice on one cache path, a cold write and then a load.  A refactor that
    drops a name or parameter it binds fails here."""
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
        ["formula", "compare", "--grid-stop", "1e4", "--function", "two_omega",
         "--output-dir", str(tmp_path)],
        ["formula", "compare", "--grid-stop", "1e4", "--function", "mu_squared",
         "--output-dir", str(tmp_path)],
        ["formula", "conjecture", "--grid-stop", "1e4", *zeros_args],
        ["perron", "decay", "100.5", "--T", "50", "100", "--output-dir", str(tmp_path)],
        ["perron", "residue", "--center-re", "1", "--radius", "0.2",
         "--x", "1000.5", "--verify-radius"],
        *[["zeros", "coeffs", "--count", "3", "--zeros-path", str(ZEROS_PATH),
           "--cache-path", str(tmp_path / "coeffs.txt")]] * 2,
    ]
    tracer = tracing.Tracer()
    with tracer.installed():
        codes = [cli.main(argv) for argv in runs]
    capsys.readouterr()
    assert codes == [0] * len(runs)
    traced = sum(1 for span in tracer.spans if span.name == "zeta.mp")
    assert traced == tracer.mp_calls > 0
    compares = [i for i, span in enumerate(tracer.spans)
                if span.name == "formula.compare"]
    residues = [span.parent for span in tracer.spans
                if span.name == "series.main_term_coefficients"]
    assert len(compares) == 3
    assert all(residues.count(i) == 1 for i in compares)
    circles = [span for span in tracer.spans if span.name == "perron.residue_by_circle"]
    assert len(circles) == 3 and tracer.spans[circles[2].parent] is circles[1]
    assert [sum(span.name == name for span in tracer.spans)
            for name in ("zeros.coefficient_for", "zeros.persist_cache",
                         "zeros.load_cache")] == [2 * 5 + 3, 1, 1]


def test_benchmark_argv_parse(monkeypatch, tmp_path):
    """Every command line the benchmark's three workloads, imported unedited
    from perfbench/, hand to the CLI parses with this parser.  run_cli is
    replaced by a recorder, so no command runs; the rectangle op, which
    calls perron directly, runs as it is."""
    monkeypatch.syspath_prepend(str(ZEROS_PATH.parent.parent / "perfbench"))
    workloads = importlib.import_module("workloads")
    recorded = []
    monkeypatch.setattr(workloads, "run_cli",
                        lambda argv: recorded.append(argv) or (0, "{}"))
    root = ZEROS_PATH.parent.parent
    for build in workloads.WORKLOADS.values():
        workload = build(3, root, tmp_path)
        for op in ([workload.setup] if workload.setup else []) + workload.ops:
            op.run()
    assert len(recorded) == 14
    parser = cli.build_parser()
    for argv in recorded:
        assert callable(parser.parse_args(argv).handler), argv


def test_zeros_import(capsys):
    payload = run_json(capsys, "zeros", "import", "--zeros-path", str(ZEROS_PATH),
                       "--count", "5")
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


@pytest.mark.parametrize("bad", ["nan", "inf", "+inf"])
@pytest.mark.parametrize("command", [["zeros", "import"], ["formula", "compare"]],
                         ids=["import", "compare"])
def test_non_finite_ordinate_exits_2(capsys, tmp_path, command, bad):
    """A zero file whose third ordinate is not finite exits 2 naming that
    line, before any coefficient or output is made."""
    path, out = tmp_path / "zeros.txt", tmp_path / "out"
    path.write_text(f"14.13472514173469379\n21.022039638771554993\n{bad}\n")
    writes = ["--output-dir", str(out)] if command[0] == "formula" else []
    code, captured = run(capsys, *command, "--zeros-path", str(path), *writes)
    assert code == 2 and captured.out == ""
    assert json.loads(captured.err) == {
        "error": "ZeroFileParseError",
        "message": f"line 3: not a finite decimal: {bad!r}"}
    assert not out.exists()


@pytest.mark.parametrize("bad", ["abc", "nan"])
def test_corrupt_cache_field_exits_2(capsys, tmp_path, bad):
    """A cache row whose re_coeff reads abc or nan exits 2 naming its line;
    unchecked, abc ended in a traceback and nan in a NaN zero sum on every
    row."""
    cache, out = tmp_path / "coeffs.txt", tmp_path / "out"
    zero_args = ["--zeros-path", str(ZEROS_PATH), "--cache-path", str(cache)]
    run_json(capsys, "zeros", "coeffs", "--count", "3", *zero_args)
    lines = cache.read_text().splitlines()
    fields = lines[4].split()
    fields[1] = bad
    lines[4] = " ".join(fields)
    cache.write_text("\n".join(lines) + "\n")
    code, captured = run(capsys, "formula", "compare", "--zeros", "3", "--grid-count",
                         "2", "--grid-stop", "1e4", "--output-dir", str(out), *zero_args)
    assert code == 2 and captured.out == ""
    assert json.loads(captured.err) == {
        "error": "ZeroFileParseError",
        "message": f"line 5: not a finite decimal: {bad!r}"}
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["zeros", "import", "--count", "0"],
    ["zeros", "coeffs", "--count", "0"],
    ["formula", "compare", "--zeros", "0"],
    ["formula", "conjecture", "--zeros", "0"],
], ids=["import", "coeffs", "compare", "conjecture"])
def test_zero_count_below_one_rejected(capsys, tmp_path, argv):
    out = tmp_path / "out"
    writes = ["--output-dir", str(out)] if argv[0] == "formula" else []
    code, captured = run(capsys, *argv, "--zeros-path", str(ZEROS_PATH), *writes)
    assert code == 2
    assert json.loads(captured.err)["error"] == "DomainError"
    assert not out.exists()


def test_output_dir_only_when_written(capsys, tmp_path):
    """A run that fails before its first write leaves no output directory."""
    out = tmp_path / "out"
    code, captured = run(capsys, "formula", "compare",
                         "--grid-start", "1000", "--grid-stop", "100",
                         "--output-dir", str(out))
    assert code == 2
    assert json.loads(captured.err)["error"] == "DomainError"
    assert not out.exists()


def test_zeros_import_without_path(capsys, monkeypatch, tmp_path):
    """The zeros path comes from --zeros-path alone: DIVISORLAB_ZEROS is not
    read, even when it names a missing file."""
    monkeypatch.setenv("DIVISORLAB_ZEROS", str(tmp_path / "missing.txt"))
    code, captured = run(capsys, "zeros", "import")
    assert code == 2
    err = json.loads(captured.err)
    assert err["error"] == "DomainError" and err["message"].startswith("no zeros path")


@pytest.mark.parametrize("command", [["zeros", "import"], ["zeros", "coeffs"],
                                     ["formula", "compare"], ["formula", "conjecture"]],
                         ids=["import", "coeffs", "compare", "conjecture"])
def test_zeros_path_must_exist(capsys, tmp_path, command):
    """A missing --zeros-path exits 2 in each subcommand that takes it, before
    any output directory is made."""
    missing, out = tmp_path / "missing.txt", tmp_path / "out"
    writes = ["--output-dir", str(out)] if command[0] == "formula" else []
    code, captured = run(capsys, *command, "--zeros-path", str(missing), *writes)
    assert code == 2 and captured.out == ""
    assert json.loads(captured.err) == {"error": "DomainError",
                                        "message": f"zeros path {missing} does not exist"}
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["constants"],
    ["zeros", "import"],
    ["zeros", "coeffs"],
    ["formula", "compare"],
    ["formula", "conjecture"],
    ["perron", "decay", "100.5"],
    ["perron", "residue", "--center-re", "1", "--radius", "0.2", "--x", "100.5"],
    ["dirichlet-verify", "3", "100"],
], ids=["constants", "zeros_import", "zeros_coeffs", "formula_compare",
        "formula_conjecture", "perron_decay", "perron_residue", "dirichlet_verify"])
def test_config_flag_rejected(capsys, tmp_path, argv):
    """Run settings come from flags alone; there is no --config file."""
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("precision_bits = 128\n")
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--config", str(cfg)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: --config {cfg}" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [[str(ZEROS_PATH)], ["--precision-bits", "64"]],
                         ids=["positional_path", "precision_bits"])
def test_zeros_import_removed_inputs_rejected(capsys, extra):
    """zeros import takes its file by --zeros-path only, and parses it at the
    default precision."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["zeros", "import", "--zeros-path", str(ZEROS_PATH), *extra])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(extra)}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, error", [
    (["zeros", "import", "--zeros-path", "{tmp}/latin1.txt"], "UnicodeDecodeError"),
    (["zeros", "import", "--zeros-path", "{tmp}"], "IsADirectoryError"),
    (["zeros", "coeffs", "--count", "1", "--zeros-path", str(ZEROS_PATH),
      "--cache-path", "{tmp}"], "IsADirectoryError"),
    (["perron", "decay", "100.5", "--T", "50", "100", "--output-dir", "{tmp}/file.txt"],
     "FileExistsError"),
], ids=["not_utf8", "zeros_path_dir", "cache_path_dir", "output_dir_file"])
def test_file_errors_exit_2(capsys, tmp_path, argv, error):
    """A file that cannot be read or written ends in the JSON error and exit
    2, not a traceback."""
    (tmp_path / "latin1.txt").write_bytes(b"14.13\xff\n")
    (tmp_path / "file.txt").write_text("")
    code, captured = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == 2 and captured.out == ""
    err = json.loads(captured.err)
    assert set(err) == {"error", "message"}
    assert err["error"] == error and err["message"]


def _subcommands(parser, path=()):
    """(command words, parser) for every leaf subcommand."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from _subcommands(child, path + (name,))
            return
    yield " ".join(path), parser


def test_each_subcommand_takes_only_the_settings_it_reads():
    zeros_settings = {"zeros_path", "cache_path"}
    expected = {
        "sum": set(),
        "constants": {"precision_bits"},
        "zeros import": {"zeros_path", "count"},
        "zeros coeffs": zeros_settings | {"count"},
        "formula compare": zeros_settings | {
            "output_dir", "mode", "function", "grid_start", "grid_stop",
            "grid_count", "zeros"},
        "formula conjecture": zeros_settings | {
            "output_dir", "grid_start", "grid_stop", "grid_count", "zeros",
            "epsilon"},
        "perron integral": {"c", "T"},
        "perron decay": {"output_dir", "c", "T"},
        "perron residue": {"center_re", "center_im", "radius", "x", "nodes",
                           "verify_radius"},
        "dirichlet-verify": set(),
    }
    found = {name: {a.dest for a in p._actions if a.option_strings and a.dest != "help"}
             for name, p in _subcommands(cli.build_parser())}
    assert found == expected
    assert sum(map(len, found.values())) == 34


@pytest.mark.parametrize("command", [
    ["zeros", "coeffs"],
    ["formula", "compare"],
    ["formula", "conjecture"],
    ["perron", "residue", "--center-re", "1", "--radius", "0.2", "--x", "1000.5"],
], ids=["zeros_coeffs", "formula_compare", "formula_conjecture", "perron_residue"])
def test_precision_bits_only_on_constants(capsys, command):
    """These subcommands work at the default 128 bits; their output does not
    change at higher precision, so none takes --precision-bits."""
    with pytest.raises(SystemExit) as exc:
        cli.main([*command, "--precision-bits", "128"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --precision-bits 128" in capsys.readouterr().err


def test_readme_flag_table_matches_parser():
    """Each row of README's CLI table lists, in backticks, exactly the
    option flags the parser gives that subcommand."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = line.split("|")[1:-1]
        if len(cells) == 3 and cells[0].strip().startswith("`"):
            flags = re.findall(r"`(--[A-Za-z][\w-]*)`", "|".join(cells[1:]))
            rows[cells[0].strip().strip("`")] = set(flags)
    found = {name: {o for a in p._actions for o in a.option_strings if a.dest != "help"}
             for name, p in _subcommands(cli.build_parser())}
    assert rows == found


def test_readme_cli_examples_parse():
    """Every command in README's CLI code block parses with this parser."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = block.replace("\\\n", " ").splitlines()
    assert len(commands) == 10
    for line in commands:
        words = shlex.split(line)
        assert words[0] == "divisorlab", line
        cli.build_parser().parse_args(words[1:])


@pytest.mark.parametrize("command", [["zeros", "coeffs"], ["formula", "compare"],
                                     ["formula", "conjecture"]])
def test_workers_flag_rejected(capsys, command):
    """Zero coefficients are computed in one process; there is no --workers."""
    with pytest.raises(SystemExit) as exc:
        cli.main([*command, "--workers", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--no-half-integers", "--no-constant",
                                  "--ordinate-cutoff 25"])
def test_compare_convention_flags_rejected(capsys, flag):
    """formula compare always evaluates at half-integers, always includes
    the residue 1/4 at s = 0, and sums every zero it imports."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["formula", "compare", *flag.split()])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["zeros", "import"], ["zeros", "coeffs"]])
def test_refine_flag_rejected(capsys, command):
    """A zero table's ordinates are used as the file writes them; there is
    no --refine."""
    with pytest.raises(SystemExit) as exc:
        cli.main([*command, "--refine"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --refine" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["perron", "integral"], ["perron", "decay"]])
def test_line_nodes_flag_rejected(capsys, command):
    """Perron lines lay out their panels from x and the heights alone; only
    the circle takes --nodes."""
    with pytest.raises(SystemExit) as exc:
        cli.main([*command, "1000.5", "--nodes", "1024"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --nodes 1024" in capsys.readouterr().err
    args = cli.build_parser().parse_args(["perron", "residue", "--center-re", "1",
                                          "--radius", "0.2", "--x", "1000.5",
                                          "--nodes", "64"])
    assert args.nodes == 64


def _python(*args, timeout: float = 60):
    """A fresh interpreter with this checkout's divisorlab, killed (and the
    test failed) after timeout seconds."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=timeout)


def test_cli_import_loads_no_process_pool():
    probe = ("import sys, divisorlab.cli; "
             "print([m for m in ('multiprocessing', 'concurrent.futures') "
             "if m in sys.modules])")
    assert _python("-c", probe).stdout.strip() == "[]"


def test_lazily_bound_module_is_its_package_attribute():
    """lazy_import binds a submodule on its package as an import does, so
    `import divisorlab.zeros` after the CLI's import reaches it."""
    probe = "import divisorlab.cli, divisorlab.zeros; print(divisorlab.zeros.CACHE_DIGITS)"
    result = _python("-c", probe)
    assert result.stdout.strip() == "42", result.stderr


#: Runs each JSON argv through cli.main in one fresh interpreter and prints,
#: after the import and after each run, the exit code and what has run so
#: far: "numpy" or "mpmath" once one of its submodules has, and each of the
#: computation modules once its body has defined its names.  lazy_import
#: leaves an unrun placeholder under a module's own sys.modules key, and any
#: attribute access through the placeholder runs it, so its dict is read with
#: object.__getattribute__.
_LOAD_PROBE = """
import contextlib, io, json, sys
from divisorlab import cli
BODIES = {"perron": "residue_by_circle", "zeta": "zeta_pair", "series": "main_term",
          "zeros": "import_zeros", "formula": "compare"}
def loaded():
    ran = sorted({m.split(".")[0] for m in sys.modules
                  if m.startswith(("mpmath.", "numpy."))})
    for name, defined in BODIES.items():
        module = sys.modules.get("divisorlab." + name)
        if module is not None and defined in object.__getattribute__(module, "__dict__"):
            ran.append(name)
    return ran
report = [[0, loaded()]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    report.append([code, loaded()])
print(json.dumps(report))
"""


def _load_report(*argvs) -> list:
    result = _python("-c", _LOAD_PROBE, json.dumps(argvs))
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_start_up_loads_no_engine():
    """Importing the CLI and building its parser run neither mpmath nor a
    computation module, and an exact sum runs only numpy besides the sieve."""
    assert _load_report(["--help"], ["sum", "d_square", "1000000"]) == [
        [0, []], [0, []], [0, ["numpy"]]]


def test_multiprecision_subcommands_never_load_numpy(tmp_path):
    """numpy is bound lazily, so importing the CLI and running the
    subcommands that never compute with it load no numpy submodule."""
    argvs = [["--help"], ["constants", "--precision-bits", "128"],
             ["zeros", "import", "--zeros-path", str(ZEROS_PATH)],
             ["zeros", "coeffs", "--count", "5", "--zeros-path", str(ZEROS_PATH),
              "--cache-path", str(tmp_path / "cache.txt")],
             ["perron", "residue", "--center-re", "1", "--radius", "0.2", "--x", "1000.5"]]
    report = _load_report(*argvs)
    assert len(report) == len(argvs) + 1
    assert all(code == 0 and "numpy" not in ran for code, ran in report), report
    assert (tmp_path / "cache.txt").exists()


@pytest.mark.parametrize("argv", [
    "sum d_square 1000000",
    "perron integral 950.5 --c 1.5 --T 100",
    "constants --precision-bits 128",
    "zeros import --zeros-path {zeros}",
    "zeros coeffs --count 5 --zeros-path {zeros} --cache-path {tmp}/cache.txt",
    "formula compare --zeros 10 --zeros-path {zeros} --output-dir {tmp}",
    "formula compare --function mu_squared --output-dir {tmp}",
    "formula conjecture --zeros 10 --zeros-path {zeros} --output-dir {tmp}",
    "perron decay 1000.5 --output-dir {tmp}",
    "perron residue --center-re 1 --radius 0.2 --x 1000.5",
    "perron residue --center-re 0.25 --center-im 7.0673625708673469 --radius 0.05 "
    "--x 1000.5",
    "dirichlet-verify 3 10000",
])
def test_lazy_numpy_output_matches_in_process(capsys, tmp_path, argv):
    """A fresh interpreter loads mpmath, numpy and the computation modules
    at their first use and prints and writes what the same run does here,
    where all are loaded and the ambient precision is the tests' 220 bits.
    Both runs start from an empty output directory, so neither reads a
    cache the other wrote."""
    args = argv.format(zeros=ZEROS_PATH, tmp=tmp_path).split()

    def written() -> dict:
        """The files the run wrote, removed so that the next run starts empty."""
        files = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        for p in tmp_path.iterdir():
            p.unlink()
        return files

    code, captured = run(capsys, *args)
    assert code == 0, captured.err
    files = written()
    result = _python("-m", "divisorlab.cli", *args)
    assert result.returncode == 0, result.stderr
    assert result.stdout == captured.out
    assert written() == files


def test_every_float_argument_is_finite_checked():
    floats = [a for _, p in _subcommands(cli.build_parser()) for a in p._actions
              if a.type in (float, cli.finite_float)]
    assert len(floats) == 16
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
    assert payload["warnings"] == summary["warnings"] == []
    assert _zeros_used(tmp_path) == [40] * 5


def _zeros_used(out: Path) -> list[int]:
    with open(out / "compare_d_square.csv") as fh:
        return [int(row["zeros_used"]) for row in csv.DictReader(fh)]


def test_zeros_selects_prefix(capsys, tmp_path):
    """--zeros 10 takes the file's first ten zeros, so every row sums 10
    conjugate pairs, and nothing is warned."""
    payload = run_json(capsys, "formula", "compare", "--grid-start", "100",
                       "--grid-stop", "10000", "--grid-count", "3", "--zeros", "10",
                       "--zeros-path", str(ZEROS_PATH), "--output-dir", str(tmp_path))
    assert payload["warnings"] == []
    assert _zeros_used(tmp_path) == [20] * 3


@pytest.mark.parametrize("argv", [
    ["zeros", "import", "--count", "101"],
    ["zeros", "coeffs", "--count", "101"],
    ["formula", "compare", "--zeros", "101"],
    ["formula", "conjecture", "--zeros", "101"],
], ids=["import", "coeffs", "compare", "conjecture"])
def test_zero_shortfall_rejected(capsys, tmp_path, argv):
    """Asking for more zeros than the 100-zero file holds exits 2 before
    any coefficient is computed: no cache, no output directory."""
    cache, out = tmp_path / "cache.txt", tmp_path / "out"
    writes = [] if argv[1] == "import" else ["--cache-path", str(cache)]
    if argv[0] == "formula":
        writes += ["--output-dir", str(out)]
    code, captured = run(capsys, *argv, "--zeros-path", str(ZEROS_PATH), *writes)
    assert code == 2
    err = json.loads(captured.err)
    assert err["error"] == "ZeroDataError"
    assert "101 zeros requested" in err["message"] and "holds 100" in err["message"]
    assert not cache.exists() and not out.exists()


@pytest.mark.parametrize("function", ["two_omega", "mu_squared"])
@pytest.mark.parametrize("argv", [["--zeros", "5"]], ids=["zeros"])
def test_companion_zero_options_rejected(capsys, tmp_path, function, argv):
    """compare sums zeros for d_square only, so a companion's --zeros
    exits 2; a zeros path or cache path is accepted and unused."""
    base = ["formula", "compare", "--function", function, "--grid-count", "2",
            "--grid-stop", "1e4", "--zeros-path", str(ZEROS_PATH),
            "--cache-path", str(tmp_path / "cache.txt"),
            "--output-dir", str(tmp_path / "out")]
    code, captured = run(capsys, *base, *argv)
    assert code == 2
    err = json.loads(captured.err)
    assert err["error"] == "DomainError"
    assert err["message"] == (f"compare sums zeros for d_square only; "
                              f"{function}'s zero sum stays in E")
    assert not (tmp_path / "out").exists()
    assert run_json(capsys, *base)["warnings"] == []
    assert not (tmp_path / "cache.txt").exists()


def test_formula_compare_without_zeros_warns(capsys, monkeypatch, tmp_path):
    """From an empty directory, with no zeros flag, d_square's E keeps the
    whole zero sum, and the report says so; DIVISORLAB_ZEROS, even naming a
    missing file, is not read.  A companion function, whose zero sum
    compare leaves in E, does not warn."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("DIVISORLAB_ZEROS", str(tmp_path / "missing.txt"))
    payload = run_json(capsys, "formula", "compare", "--grid-count", "2",
                       "--grid-stop", "1e4")
    assert len(payload["warnings"]) == 1
    assert "whole zero sum" in payload["warnings"][0]
    payload = run_json(capsys, "formula", "compare", "--function", "two_omega",
                       "--grid-count", "2", "--grid-stop", "1e4")
    assert payload["warnings"] == []


@pytest.mark.parametrize("argv", [["--zeros", "5"]], ids=["zeros"])
def test_zero_options_need_a_zeros_path(capsys, tmp_path, argv):
    """With no zeros path, --zeros exits 2 instead of being dropped."""
    code, captured = run(capsys, "formula", "compare", "--grid-count", "2",
                         "--grid-stop", "1e4", "--output-dir", str(tmp_path / "out"),
                         *argv)
    assert code == 2
    err = json.loads(captured.err)
    assert err["error"] == "DomainError" and err["message"].startswith("no zeros path")
    assert not (tmp_path / "out").exists()


def test_formula_compare_companion(capsys, tmp_path):
    payload = run_json(capsys, "formula", "compare", "--function", "mu_squared",
                       "--grid-start", "100", "--grid-stop", "10000",
                       "--grid-count", "4", "--output-dir", str(tmp_path))
    assert payload["function"] == "mu_squared"
    assert payload["warnings"] == []


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


def test_perron_residue_unsettled_circle_exits_2(capsys):
    """About 0.6 with radius 0.5 the circle passes 0.1 from the poles at 0
    and 1; its 128-node levels never meet the stop rule, so no value is
    printed."""
    code, captured = run(capsys, "perron", "residue", "--center-re", "0.6",
                         "--radius", "0.5", "--x", "500")
    assert code == 2 and captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "QuadratureError" and "nodes = 128" in err["message"]


@pytest.mark.slow
def test_perron_residue_far_left_of_zero(capsys):
    """About -155.5 with radius 0.3 the circle encloses no pole of F, so the
    residue is 0.  zeta(2s) near Re 2s = -311 takes an (N, J) whose least J
    has an N_J past the float range; the command prints a value within the
    circle's 2^-128 tolerance of 0, not a traceback."""
    payload = run_json(capsys, "perron", "residue", "--center-re=-155.5",
                       "--radius", "0.3", "--x", "10.5")
    assert payload["imag"] == "0.0"
    assert abs(float(payload["real"])) < 2.0 ** -128


@pytest.mark.parametrize("argv", [
    ["perron", "integral", "10.5", "--c", "1e308"],
    ["perron", "residue", "--center-re", "1e308", "--radius", "1", "--x", "10.5"],
    ["dirichlet-verify", "1e308", "10"],
    ["perron", "residue", "--center-re=-1000.5", "--radius", "0.3", "--x", "10.5"],
    ["perron", "residue", "--center-re=-1e6", "--radius", "0.3", "--x", "10.5"],
    ["perron", "residue", "--center-re=-1e308", "--radius", "0.3", "--x", "10.5"],
])
def test_real_part_outside_the_engines_range_exits_2(capsys, argv):
    """Re s or Re 2s past the float range, or far left of the engines'
    floor, is refused as a JSON error before any engine call: at 1e308 the
    (N, J) rule met an infinite Re 2s, and at -1000.5 it ran past 20 s."""
    zeta_engine.reset_call_count()
    start = time.perf_counter()
    code, captured = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "DomainError" and "evaluation range" in err["message"]
    assert zeta_engine.call_count() == 0


@pytest.mark.parametrize("case", ["constants", "main_term_coefficients"])
def test_precision_floor(capsys, case):
    """8 bits is below the engine's floor.  constants, the one path that
    takes a precision, takes it by its flag and exits 2, and by the library
    parameter of main_term_coefficients, which it calls."""
    if case == "constants":
        code, captured = run(capsys, "constants", "--precision-bits", "8")
        assert code == 2
        assert json.loads(captured.err)["error"] == "PrecisionError"
        return
    with pytest.raises(PrecisionError):
        series.main_term_coefficients(3, "exact", 8)


def test_perron_decay(capsys, tmp_path):
    payload = run_json(capsys, "perron", "decay", "100.5",
                       "--c", "2.0", "--T", "50", "100",
                       "--output-dir", str(tmp_path))
    assert len(payload["rows"]) == 2
    rows, _ = perron.truncation_decay(100.5, 2.0, [50, 100])
    assert payload["rows"] == [{"T": T, "abs_error": err, "quadrature_gap": gap,
                                "error_bound": bound}
                               for T, err, gap, bound in rows]
    lines = (tmp_path / "perron_decay.csv").read_text().splitlines()
    assert lines[0] == "T,abs_error,quadrature_gap,error_bound"
    assert [tuple(map(float, line.split(","))) for line in lines[1:]] == rows


def test_perron_decay_below_one(capsys, tmp_path):
    """S(x) = 0 for 0 < x < 1, so each row's error is the Perron value."""
    payload = run_json(capsys, "perron", "decay", "0.5", "--T", "50", "100",
                       "--output-dir", str(tmp_path))
    values = perron.perron_sweep(0.5, 2.0, [50, 100])[0]
    assert [row["abs_error"] for row in payload["rows"]] == [float(abs(v)) for v in values]


@pytest.mark.parametrize("heights", [["100"], ["50", "50"], ["100", "50"]])
def test_perron_decay_degenerate_heights(capsys, tmp_path, heights):
    code, captured = run(capsys, "perron", "decay", "100.5", "--T", *heights,
                         "--output-dir", str(tmp_path))
    assert code == 2
    assert json.loads(captured.err)["error"] == "DomainError"
    assert not (tmp_path / "perron_decay.csv").exists()


@pytest.mark.parametrize("argv, error", [
    (["integral", "--", "-5.5"], "DomainError"),
    (["residue", "--center-re", "1", "--radius", "0.2", "--x", "-3"], "DomainError"),
    (["integral", "1000.5", "--T", "1e9"], "HeightRangeError"),
    (["integral", "1000.5", "--c", "110"], "QuadratureError"),
    (["integral", "1000.5", "--c", "60"], "QuadratureError"),
    (["decay", "1000.5", "--c", "110", "--T", "50", "100"], "QuadratureError"),
], ids=["integral_negative_x", "residue_negative_x", "integral_height_cap",
        "integral_nan_gap", "integral_infinite_bound", "decay_nan_gap"])
def test_perron_bad_input_exits_2(capsys, tmp_path, monkeypatch, argv, error):
    """x <= 0, a height above the cap and an overflowing x^c print an error,
    not a traceback or a NaN or infinite result, and write no CSV."""
    monkeypatch.chdir(tmp_path)
    code, captured = run(capsys, "perron", *argv)
    assert code == 2
    assert json.loads(captured.err)["error"] == error
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, error, message", [
    (["--", "-5.5"], "DomainError", "x = -5.5 must be positive and finite"),
    (["1000000000000.5", "--T", "50", "20000"], "HeightRangeError",
     "T = 20000.0 exceeds the cap 10000.0"),
], ids=["negative_x", "height_cap"])
def test_perron_decay_checks_arguments_before_sieving(tmp_path, argv, error, message):
    """perron decay sieves S(x) only once the sweep has accepted x, c and
    the heights: at x = 1e12 the sieve alone would take seconds."""
    start = time.perf_counter()
    result = _python("-m", "divisorlab.cli", "perron", "decay",
                     "--output-dir", str(tmp_path), *argv, timeout=10)
    assert time.perf_counter() - start < 1.0
    assert result.returncode == 2
    assert json.loads(result.stderr) == {"error": error, "message": message}
    assert list(tmp_path.iterdir()) == []


def test_dirichlet_verify(capsys):
    payload = run_json(capsys, "dirichlet-verify", "3", "2000")
    assert payload["pass"] is True
    assert float(payload["difference"]) <= float(payload["tail_bound"])
    # the printed partial sum is the plain one, term by term, to its digits
    values = sieve.build_sieve(2000, sieve.ArithmeticFunction.D_SQUARE)
    with mp.workprec(200):
        direct = mp.fsum(int(values[n]) * mp.power(n, -3) for n in range(1, 2001))
        assert abs(mpf(payload["partial_sum"]) - direct) < mpf("1e-24")


@pytest.mark.parametrize("s", ["1.0001", "1.000825", "1.1", "1.3", "1.5", "1.9", "2.5"])
def test_dirichlet_verify_below_s_2(capsys, s):
    """Below s = 2.8 the tail past N is Rankin's bound plus the exact terms
    to 1e4: it covers the difference and stays within 50x of it (39x at
    worst), so the check is not vacuous near s = 1."""
    for N in ("1", "2000", "10000"):
        payload = run_json(capsys, "dirichlet-verify", s, N)
        assert payload["pass"] is True
        difference, tail = float(payload["difference"]), float(payload["tail_bound"])
        assert 0 < difference <= tail <= 50 * difference, (N, difference, tail)


@pytest.mark.parametrize("s, n, extra", [("2", 4, 1), ("3", 4, 1), ("1.1", 1, 1400)],
                         ids=["s2_d4", "s3_d4", "s1.1_d1"])
def test_dirichlet_verify_fails_on_corrupt_values(capsys, monkeypatch, s, n, extra):
    """A partial sum that is too large fails, however loose the tail bound:
    the terms are positive, so closed - partial may not fall below the
    rounding slack.  At s = 1.1, 1400 too many reads difference = -694,
    whose size the tail bound 1331 would cover."""
    build = sieve.build_sieve

    def corrupt(limit, rule):
        values = build(limit, rule)
        values[n] += extra
        return values

    monkeypatch.setattr(sieve, "build_sieve", corrupt)
    code, captured = run(capsys, "dirichlet-verify", s, "10000")
    payload = json.loads(captured.out)
    assert code == 1 and payload["pass"] is False
    assert float(payload["difference"]) < 0


def test_dirichlet_verify_degenerate(capsys):
    """N = 1 gets a pass claim like any other N; N = 0 exits 2."""
    payload = run_json(capsys, "dirichlet-verify", "3", "1")
    assert payload["pass"] is True and payload["partial_sum"] == "1.0"
    code, captured = run(capsys, "dirichlet-verify", "3", "0")
    assert code == 2
    assert json.loads(captured.err)["error"] == "DomainError"


@pytest.mark.parametrize("s", ["1.0001", "1.00001"])
def test_dirichlet_verify_near_s_1(capsys, s):
    """s close to 1 passes in well under a second: past 1e4 the tail is
    (s / (s - 1))^3, 1e12 at s = 1.0001."""
    start = time.perf_counter()
    payload = run_json(capsys, "dirichlet-verify", s, "10")
    assert time.perf_counter() - start < 1.0
    assert payload["pass"] is True
    assert 0 < float(payload["difference"]) <= float(payload["tail_bound"])
    assert float(payload["tail_bound"]) < 2 * (float(s) / (float(s) - 1)) ** 3


def test_dirichlet_verify_rejects_large_n_before_sieving(capsys, monkeypatch):
    """N past 1e7 exits 2 before the sieve runs: the n^-s table holds about
    175 bytes per n."""
    def no_sieve(*args):
        raise AssertionError("sieved")

    monkeypatch.setattr(sieve, "build_sieve", no_sieve)
    start = time.perf_counter()
    code, captured = run(capsys, "dirichlet-verify", "3", str(10**7 + 1))
    assert time.perf_counter() - start < 1.0
    assert code == 2 and captured.out == ""
    assert json.loads(captured.err) == {"error": "DomainError",
                                        "message": "N must be between 1 and 10000000"}


def test_error_exit_code_and_payload(capsys):
    code, captured = run(capsys, "perron", "integral", "10.0")
    assert code == 2
    err = json.loads(captured.err)
    assert err["error"] == "ConventionError"
    assert "half-integer" in err["message"]


def test_missing_zeros_path(capsys):
    code, captured = run(capsys, "zeros", "coeffs", "--count", "2")
    assert code == 2
    assert json.loads(captured.err)["error"] == "DomainError"
