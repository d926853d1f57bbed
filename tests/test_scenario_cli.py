import csv
import dataclasses
import errno
import hashlib
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import oracles
import sqkdsim
from sqkdsim import cli, kernels, protocol, verify
from sqkdsim.attacks import ProbeChannelMap, constrained_random_attack
from sqkdsim.fock import TruncationError
from sqkdsim.joint import ChannelBasis
from sqkdsim.protocol import TWO_WAY, VARIANTS, ProtocolConfig
from sqkdsim.report import ROUND_LOG_LIMIT, Expectation, evaluate_expectations
from sqkdsim.scenario import (
    ATTACKS,
    ScenarioError,
    build_attack,
    describe_attack,
    list_attacks,
    load_scenario,
)

SCENARIOS = resources.files("sqkdsim") / "scenarios"
BUNDLED = sorted(p.name for p in SCENARIOS.iterdir()
                 if p.name.endswith(".scn"))


def scenario_path(name: str) -> str:
    return str(SCENARIOS / name)


def write(tmp_path, text, name="case.scn"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def run_fresh(args, env=(), code=None):
    """``python -c code args`` (``-m sqkdsim.cli args`` without ``code``)
    in a fresh process with extra environment ``env``; stdout and stderr
    are captured as bytes."""
    src = str(Path(sqkdsim.__file__).resolve().parents[1])
    path = [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    head = ["-c", code] if code else ["-m", "sqkdsim.cli"]
    return subprocess.run(
        [sys.executable, *head, *args],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path), **dict(env)),
        capture_output=True, timeout=300)


#: a locale whose encoding is ASCII, with Python's UTF-8 mode off
C_LOCALE = {"PYTHONUTF8": "0", "LC_ALL": "C"}
UTF8_MODE = {"PYTHONUTF8": "1"}


class TestScenarioParsing:
    def test_bundled_scenario_loads(self):
        sc = load_scenario(scenario_path("tagging-reflect.scn"))
        assert sc.name == "tagging-reflect"
        assert sc.config.rounds == 100_000
        assert sc.attack_name == "tagging"
        assert any(e.metric == "eve_fidelity" for e in sc.expectations)

    def test_all_bundled_scenarios_parse(self):
        names = [p.name for p in SCENARIOS.iterdir() if p.name.endswith(".scn")]
        assert len(names) == 11
        for name in names:
            sc = load_scenario(scenario_path(name))
            sc.build_attack()

    def test_unknown_section(self, tmp_path):
        path = write(tmp_path, "[prtcl]\nrounds = 10\n")
        with pytest.raises(ScenarioError, match="unknown section"):
            load_scenario(path)

    def test_unknown_key(self, tmp_path):
        # a misspelt key in any config section is an error, not a default
        for text in ("[protocol]\nround_count = 10\n",
                     "[scenario]\nsed = 5\n",
                     "[source]\np_2 = 0.3\n",
                     "[strengthening]\ncross_tests = true\n"):
            path = write(tmp_path, text)
            with pytest.raises(ScenarioError, match="unknown key"):
                load_scenario(path)

    def test_bad_expectation_syntax(self, tmp_path):
        path = write(tmp_path, "[expectations]\nctrl_errors = 0 within 3\n")
        with pytest.raises(ScenarioError, match="abs|sigma"):
            load_scenario(path)
        # a band must be finite and non-negative, an analytic value finite
        for value in ("0.01 sigma -1", "0.0 abs nan", "0.0 abs inf",
                      "nan sigma 1", "-inf abs 0.1"):
            path = write(tmp_path, f"[expectations]\nloss_fraction = {value}\n")
            with pytest.raises(ScenarioError, match="loss_fraction"):
                load_scenario(path)

    def test_bad_number(self, tmp_path):
        path = write(tmp_path, "[protocol]\nrounds = many\n")
        with pytest.raises(ScenarioError):
            load_scenario(path)

    def test_invalid_config_caught(self, tmp_path):
        path = write(tmp_path, "[protocol]\ntransmission = 1.5\n")
        with pytest.raises(ScenarioError, match="transmission"):
            load_scenario(path)

    def test_strengthening_takes_only_the_fractions(self, tmp_path):
        path = write(tmp_path, "[strengthening]\ncross_basis_fraction = 0.3\n"
                               "extra_state_fraction = 0.2\n")
        cfg = load_scenario(path).config
        assert cfg.cross_basis_fraction == 0.3
        assert cfg.extra_state_fraction == 0.2
        # the detector model is set in [protocol] alone, and a fraction
        # above 0 is what turns its test on
        for key in ("counters", "cross_basis_tests", "extra_bob_states"):
            path = write(tmp_path, f"[strengthening]\n{key} = true\n")
            with pytest.raises(ScenarioError, match=f"{key}: unknown key"):
                load_scenario(path)

    def test_missing_file(self):
        with pytest.raises(ScenarioError):
            load_scenario("/nonexistent/nowhere.scn")

    def test_seed_must_fit_philox_key(self, tmp_path):
        # Philox keys its stream with one 64-bit word, so a seed outside
        # [0, 2**64) would walk as another seed
        for seed in (0, 2 ** 64 - 1):
            path = write(tmp_path, f"[scenario]\nseed = {seed}\n")
            assert load_scenario(path).config.rng_seed == seed
        for seed in (-1, 2 ** 64, 2 ** 70):
            path = write(tmp_path, f"[scenario]\nseed = {seed}\n")
            with pytest.raises(ScenarioError) as info:
                load_scenario(path)
            assert str(info.value) == (
                f"{path}: seed must lie in [0, 2**64), not {seed}")


class TestScenarioEncoding:
    """Scenario files are UTF-8 whatever the locale says."""

    def test_utf8_scenario_in_the_c_locale(self, tmp_path):
        # the locale must not read UTF-8, or this test shows nothing
        proc = run_fresh([], C_LOCALE, "import locale; print(locale."
                         "getpreferredencoding(False), end='')")
        assert proc.stdout.decode().replace("-", "").lower() != "utf8"
        path = write(tmp_path, "\n".join([
            "# Überprüfung — a comment that is not ASCII",
            "[protocol]", "rounds = 300", "n_max = 2", ""]))
        reports = []
        for sub, env in (("c", C_LOCALE), ("utf8", UTF8_MODE)):
            out = tmp_path / sub
            proc = run_fresh(["run", path, "--out-dir", str(out)], env)
            assert proc.returncode == 0, proc.stderr.decode()
            reports.append((out / "case.report.txt").read_bytes())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("env", [C_LOCALE, UTF8_MODE],
                             ids=["c-locale", "utf8-mode"])
    def test_undecodable_scenario_exits_two(self, tmp_path, env):
        path = tmp_path / "case.scn"
        path.write_bytes(b"[protocol]\n# \xff\xfe\nrounds = 300\n")
        out = tmp_path / "out"
        proc = run_fresh(["run", str(path), "--out-dir", str(out)], env)
        assert proc.returncode == 2
        assert proc.stderr.decode().startswith(f"error: {path}: ")
        assert b"Traceback" not in proc.stderr
        assert not out.exists()

    def test_unencodable_name_exits_two(self, tmp_path):
        """A name that the file-system encoding cannot hold is refused
        before the run, not when its report files are opened."""
        path = write(tmp_path, "\n".join([
            "[scenario]", "name = α-test",
            "[protocol]", "rounds = 300", "n_max = 2", ""]))
        out = tmp_path / "out"
        proc = run_fresh(["run", path, "--out-dir", str(out)], C_LOCALE)
        assert proc.returncode == 2
        assert proc.stderr.decode().startswith("error: scenario name ")
        assert b"Traceback" not in proc.stderr
        assert not out.exists()

    def test_undecodable_scenario_is_refused_in_process(self, tmp_path,
                                                        capsys):
        path = tmp_path / "case.scn"
        path.write_bytes(b"[protocol]\n# \xff\xfe\nrounds = 300\n")
        message = (f"{path}: 'utf-8' codec can't decode byte 0xff in "
                   "position 13: invalid start byte")
        with pytest.raises(ScenarioError) as info:
            load_scenario(str(path))
        assert str(info.value) == message
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_unencodable_name_is_refused_in_process(self, tmp_path, capsys,
                                                    monkeypatch):
        def fsencode(name):
            raise UnicodeEncodeError("ascii", name, 0, 1, "not ascii")

        path = write(tmp_path, "\n".join([
            "[scenario]", "name = α-test",
            "[protocol]", "rounds = 300", "n_max = 2", ""]))
        monkeypatch.setattr(os, "fsencode", fsencode)
        out = tmp_path / "out"
        assert cli.main(["run", path, "--out-dir", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: scenario name 'α-test' cannot name a file in the "
            f"file-system encoding {sys.getfilesystemencoding()!r}\n")
        assert captured.out == ""
        assert not out.exists()


class TestAttackRegistry:
    def test_list(self):
        assert list_attacks() == ["identity", "pns", "usd-b92", "tagging",
                                  "constrained-random", "general"]

    def test_describe_known(self):
        text = describe_attack("pns")
        assert "two-photon" in text

    def test_describe_unknown_suggests(self):
        with pytest.raises(ScenarioError, match="did you mean"):
            describe_attack("taging")

    def test_describe_names_every_key_and_default(self):
        keys = {
            "identity": "none",
            "pns": "none",
            "usd-b92": "none",
            "tagging": "none",
            "constrained-random": (
                "seed (default: the scenario's seed + 1), probe_dim "
                "(default 4), violation (single-photon-mismatch or "
                "multi-photon-return; default none), violation_level "
                "(default 2)"),
            "general": ("probe_dim (required), outbound_file (required), "
                        "return_file (required)"),
        }
        assert list(keys) == list(ATTACKS)
        for name in ATTACKS:
            assert describe_attack(name).endswith(f"  Keys: {keys[name]}.")

    def test_readme_states_the_described_keys(self):
        # each row of the README's [attack] table reads, without its
        # backticks, what `attacks describe` prints after "Keys: "
        readme = Path(__file__).resolve().parents[1] / "README.md"
        rows = {line.split("|")[1].strip(" `"): line.replace("`", "")
                for line in readme.read_text("utf-8").splitlines()
                if line.startswith("| `")}
        for name in ATTACKS:
            keys = describe_attack(name).split("  Keys: ", 1)[1][:-1]
            assert f"| {keys}" in rows[name]

    @pytest.mark.parametrize("name,key", [
        ("identity", "seed"), ("pns", "probe_dim"), ("usd-b92", "overlap"),
        ("tagging", "probe_dim"), ("constrained-random", "probe_dims"),
        ("general", "outbound")])
    def test_attack_takes_only_its_keys(self, name, key):
        with pytest.raises(ScenarioError, match=(
                rf"^\[attack\] {key}: unknown key; the {name} attack takes ")):
            build_attack(name, {key: "1"}, ProtocolConfig(n_max=2))

    def test_general_requires_files(self, tmp_path):
        # a missing key is refused when the file loads, by name
        path = write(tmp_path, "[attack]\nname = general\nprobe_dim = 1\n")
        with pytest.raises(ScenarioError) as exc:
            load_scenario(path)
        assert str(exc.value) == (
            f"{path}: [attack] outbound_file: required by the general attack")

    def test_constrained_random_keys_reach_the_factory(self, tmp_path):
        path = write(tmp_path, "\n".join([
            "[protocol]", "n_max = 3",
            "[attack]", "name = constrained-random", "seed = 7",
            "probe_dim = 3", "violation = multi-photon-return",
            "violation_level = 3", ""]))
        built = load_scenario(path).build_attack()
        direct = constrained_random_attack(
            seed=7, probe_dim=3, n_max=3, violation="multi-photon-return",
            violation_level=3)
        assert built.name == direct.name == "violating-multi-photon-return"
        assert built.probe_dim == direct.probe_dim == 3
        for leg in ("outbound", "returning"):
            got, want = getattr(built, leg), getattr(direct, leg)
            assert np.array_equal(got.D, want.D)
            assert np.array_equal(got.M, want.M)

    def test_constrained_random_seed_follows_the_run_seed(self, tmp_path):
        path = write(tmp_path, "\n".join([
            "[scenario]", "seed = 40", "[protocol]", "n_max = 3",
            "[attack]", "name = constrained-random", ""]))
        sc = load_scenario(path)
        sc.config.rng_seed = 41   # as `run --seed 41` sets it after loading
        built = sc.build_attack()
        direct = constrained_random_attack(seed=42, n_max=3)
        assert np.array_equal(built.returning.M, direct.returning.M)


class TestExpectations:
    def test_unknown_metric_raises(self):
        from sqkdsim.protocol import ProtocolConfig, run
        from sqkdsim.attacks import identity_attack
        rep = run(ProtocolConfig(rounds=100, n_max=2), identity_attack())
        with pytest.raises(KeyError, match="unknown metric"):
            evaluate_expectations(rep, [Expectation("nope", 0, "abs", 0)])

    def test_sigma_band(self):
        from sqkdsim.protocol import ProtocolConfig, run
        from sqkdsim.attacks import identity_attack
        rep = run(ProtocolConfig(rounds=100, n_max=2), identity_attack())
        rows = evaluate_expectations(
            rep, [Expectation("sifted_agreement", 1.0, "sigma", 0.01)])
        assert rows[0].passed and rows[0].deviation_sigmas == 0.0


#: (variant, photon cap) per case: every variant at a cap of 2, and the
#: paper's loss-only setting, the two-way variant at a cap of 1
CASES = [pytest.param(variant, 2, id=variant) for variant in VARIANTS] + [
    pytest.param("classical-alice-full", 1, id="loss-only")]

#: the variants each attack runs on; the two-photon tag also needs a
#: photon cap of 2, so the loss-only setting refuses it
RUNS_ON = {
    "identity": VARIANTS,
    "pns": ("bb84",),
    "usd-b92": ("b92",),
    "tagging": ("classical-alice-full",),
    "constrained-random": TWO_WAY,
    "general": TWO_WAY,
}


#: rounds of the unlogged BB84-PNS runs checked against logged ones: one,
#: a block but one, a block and one, and three blocks and five
TAIL_ROUNDS = [1, kernels.BLOCK - 1, kernels.BLOCK + 1, 3 * kernels.BLOCK + 5]

#: the splitter's quota in each such run, from its two-photon pulses up to
#: each round ``two`` and the last round of its first span ``edge``: none,
#: met mid-span, met at the span's last two-photon pulse, at the next
#: span's first, and never met
TAIL_QUOTAS = {
    "zero": lambda two, edge: 0,
    "mid-span": lambda two, edge: int(two[edge // 2]),
    "span-end": lambda two, edge: int(two[edge]),
    "next-span": lambda two, edge: int(two[edge]) + 1,
    "never": lambda two, edge: int(two[-1]) + 1,
}


class TestCli:
    @pytest.mark.parametrize("variant,n_max", CASES)
    @pytest.mark.parametrize("name", list(ATTACKS))
    def test_every_attack_on_every_variant(self, tmp_path, capsys, name,
                                           variant, n_max):
        lines = ["[protocol]", f"variant = {variant}", "rounds = 200",
                 f"n_max = {n_max}", "[attack]", f"name = {name}"]
        if name == "general":
            rng = np.random.default_rng(1)
            lines.append("probe_dim = 1")
            for leg in ("outbound", "return"):
                mat = tmp_path / f"{leg}.mat"
                oracles.write_matrix(
                    mat, oracles.haar_unitary(rng, ChannelBasis(n_max).dim))
                lines.append(f"{leg}_file = {mat}")
        path = write(tmp_path, "\n".join(lines) + "\n")
        code = cli.main(["run", path, "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        if variant in RUNS_ON[name] and (name, n_max) != ("tagging", 1):
            assert (code, err) == (0, "")
        else:
            # one line that names the file, and no traceback
            assert code == 2
            assert err.startswith(f"error: {path}: [attack]: ")
            assert err.count("\n") == 1

    def test_removed_variant_is_unknown(self, tmp_path, capsys):
        # the loss-only setting is classical-alice-full at n_max = 1
        path = write(tmp_path, "[protocol]\nvariant = classical-alice-limited"
                               "\nrounds = 200\n")
        out = tmp_path / "out"
        assert cli.main(["run", path, "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: unknown protocol variant "
            "'classical-alice-limited'; choose from classical-alice-full, "
            "bb84, b92\n")
        assert not out.exists()

    def test_every_variant_has_a_bundled_scenario(self):
        shipped = {load_scenario(scenario_path(name)).config.variant
                   for name in BUNDLED}
        assert set(VARIANTS) <= shipped

    def test_run_writes_reports_and_passes(self, tmp_path):
        code = cli.main(["run", scenario_path("classical-alice-ideal.scn"),
                         "--out-dir", str(tmp_path)])
        assert code == 0
        report = tmp_path / "classical-alice-ideal.report.txt"
        assert report.exists()
        assert (tmp_path / "classical-alice-ideal.summary.txt").exists()
        text = report.read_text()
        assert "[metrics]" in text and "[rounds]" in text

    def test_reports_are_byte_identical_across_runs_and_jobs(
            self, tmp_path, monkeypatch):
        # 4 jobs start 4 threads whatever the machine's CPUs
        monkeypatch.setattr(protocol, "_cpus", lambda: 8)
        blobs = []
        for sub, jobs in (("a", "1"), ("b", "1"), ("c", "4")):
            out = tmp_path / sub
            code = cli.main(["run", scenario_path("classical-alice-ideal.scn"),
                             "--out-dir", str(out), "--jobs", jobs])
            assert code == 0
            blobs.append((out / "classical-alice-ideal.report.txt").read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]

    @pytest.mark.parametrize("name,seed", [(name, None) for name in BUNDLED]
                             + [("bb84-pns.scn", s) for s in range(2, 7)])
    def test_runs_alike_at_any_jobs_and_round_log(self, tmp_path, monkeypatch,
                                                  name, seed):
        """Each bundled scenario at its own seed, and ``bb84-pns`` at seeds
        2-6, each of which puts the splitter's quota at another round of a
        span, meets its expectations at every ``--jobs``, ``--format`` and
        ``--round-log``.  Each logged run writes the files of the one-job
        logged run byte for byte, the summary among them.  Each run without
        a round log writes the same files but ``rounds.csv``, its text
        report a byte prefix of the logged one: BB84 under the splitter
        then walks only up to the span that meets its quota."""
        # 2, 3 and 64 jobs start 2, 3 and 8 threads whatever the machine's
        # CPUs; the extra seeds run at 1, 2 and 3 jobs as text only
        monkeypatch.setattr(protocol, "_cpus", lambda: 8)
        jobs, formats = ((1, 2, 3, 64), ("text", "csv")) if seed is None \
            else ((1, 2, 3), ("text",))
        seeded = [] if seed is None else ["--seed", str(seed)]

        def files(fmt, n, log):
            out = tmp_path / f"{fmt}-{n}-{log}"
            assert cli.main(["run", scenario_path(name), *seeded, "--jobs",
                             str(n), "--format", fmt, "--round-log", log,
                             "--out-dir", str(out)]) == 0, (fmt, n, log)
            return {p.name: p.read_bytes() for p in out.iterdir()}

        def digests(blobs):
            return {key: hashlib.sha256(blob).hexdigest()
                    for key, blob in blobs.items()}

        for fmt in formats:
            logged = files(fmt, 1, "always")
            for n in jobs[1:]:
                assert digests(files(fmt, n, "always")) == digests(logged), \
                    (fmt, n)
            for n in jobs:
                bare = files(fmt, n, "never")
                assert sorted(bare) == sorted(
                    key for key in logged if not key.endswith(".rounds.csv"))
                # the logged files, the report cut to the unlogged one's size
                cut = {key: logged[key][:len(blob)]
                       if key.endswith(".report.txt") else logged[key]
                       for key, blob in bare.items()}
                assert digests(bare) == digests(cut), (fmt, n)

    def test_seed_override_changes_rounds(self, tmp_path):
        cli.main(["run", scenario_path("classical-alice-ideal.scn"),
                  "--out-dir", str(tmp_path / "x")])
        cli.main(["run", scenario_path("classical-alice-ideal.scn"),
                  "--seed", "4242", "--out-dir", str(tmp_path / "y")])
        a = (tmp_path / "x" / "classical-alice-ideal.report.txt").read_bytes()
        b = (tmp_path / "y" / "classical-alice-ideal.report.txt").read_bytes()
        assert a != b

    def test_seed_override_outside_philox_key_exits_two(self, tmp_path,
                                                         capsys):
        # both ends of [0, 2**64) run and walk differently; past them the
        # run is refused before a report is written
        path = scenario_path("classical-alice-ideal.scn")
        blobs = []
        for seed in (0, 2 ** 64 - 1):
            out = tmp_path / str(seed)
            assert cli.main(["run", path, "--seed", str(seed), "--rounds",
                             "100", "--out-dir", str(out)]) == 0
            lines = (out / "classical-alice-ideal.report.txt").read_text(
                "utf-8").splitlines()
            assert f"seed = {seed}" in lines
            blobs.append([line for line in lines if line != f"seed = {seed}"])
        assert blobs[0] != blobs[1]
        capsys.readouterr()
        for seed in (-1, 2 ** 64, 2 ** 70):
            out = tmp_path / "refused"
            assert cli.main(["run", path, "--seed", str(seed),
                             "--out-dir", str(out)]) == 2
            assert capsys.readouterr() == (
                "", f"error: seed must lie in [0, 2**64), not {seed}\n")
            assert not out.exists()

    def test_rounds_override(self, tmp_path):
        code = cli.main(["run", scenario_path("classical-alice-ideal.scn"),
                         "--rounds", "500", "--out-dir", str(tmp_path)])
        assert code == 0
        text = (tmp_path / "classical-alice-ideal.report.txt").read_text()
        assert "rounds = 500" in text

    def test_csv_format(self, tmp_path):
        code = cli.main(["run", scenario_path("classical-alice-ideal.scn"),
                         "--format", "csv", "--out-dir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "classical-alice-ideal.metrics.csv").exists()
        assert (tmp_path / "classical-alice-ideal.comparison.csv").exists()
        assert (tmp_path / "classical-alice-ideal.rounds.csv").exists()

    def test_round_log_never(self, tmp_path):
        cli.main(["run", scenario_path("classical-alice-ideal.scn"),
                  "--round-log", "never", "--out-dir", str(tmp_path)])
        text = (tmp_path / "classical-alice-ideal.report.txt").read_text()
        assert "[rounds]" not in text

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    @pytest.mark.parametrize("rounds,logged", [(ROUND_LOG_LIMIT, True),
                                               (ROUND_LOG_LIMIT + 1, False)])
    def test_round_log_auto_at_the_limit(self, tmp_path, monkeypatch, fmt,
                                         rounds, logged):
        kept = []
        run = cli.run_any

        def run_any(*args, **kwargs):
            report = run(*args, **kwargs)
            kept.append(report.codes is not None)
            return report

        monkeypatch.setattr(cli, "run_any", run_any)
        cli.main(["run", scenario_path("classical-alice-ideal.scn"),
                  "--rounds", str(rounds), "--format", fmt,
                  "--round-log", "auto", "--out-dir", str(tmp_path)])
        # the run keeps per-round codes exactly when it writes the log
        assert kept == [logged]
        if fmt == "csv":
            assert (tmp_path / "classical-alice-ideal.metrics.csv").exists()
            assert ((tmp_path / "classical-alice-ideal.rounds.csv").exists()
                    == logged)
        else:
            text = (tmp_path / "classical-alice-ideal.report.txt").read_text()
            assert ("[rounds]" in text) == logged
            if logged:
                assert text.splitlines()[-1].startswith(f"{rounds - 1} ")

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    def test_non_ascii_name_is_written_as_utf8(self, tmp_path, capsys, fmt):
        """Every file of a run named ``α-test`` is byte for byte that of a
        run named ``ascii-test`` with the name's UTF-8 bytes put in."""
        files = {}
        for name in ("α-test", "ascii-test"):
            path = write(tmp_path, "\n".join([
                "[scenario]", f"name = {name}",
                "[protocol]", "rounds = 300", "n_max = 2",
                "[expectations]", "losses = 0 abs 0", ""]))
            out = tmp_path / name
            assert cli.main(["run", path, "--format", fmt, "--round-log",
                             "always", "--out-dir", str(out)]) == 0
            files[name] = {p.name.replace(name, "NAME"): p.read_bytes()
                           for p in out.iterdir()}
        assert "α-test" in capsys.readouterr().out
        named = {"text": ["NAME.report.txt"], "csv": ["NAME.metrics.csv"]}
        for suffix in named[fmt] + ["NAME.summary.txt"]:
            assert "α-test".encode("utf-8") in files["α-test"][suffix]
        assert files["α-test"] == {
            suffix: blob.replace(b"ascii-test", "α-test".encode("utf-8"))
            for suffix, blob in files["ascii-test"].items()}
        if fmt == "csv":
            assert set(files["α-test"]) == {
                "NAME.metrics.csv", "NAME.comparison.csv", "NAME.rounds.csv",
                "NAME.summary.txt"}

    def test_csv_name_is_one_field(self, tmp_path, capsys):
        """A name that holds a comma and quotes is one field of
        ``metrics.csv``, quoted as RFC 4180 has it."""
        name = 'a,b "c"'
        path = write(tmp_path, "\n".join([
            "[scenario]", f"name = {name}",
            "[protocol]", "rounds = 300", "n_max = 2", ""]))
        out = tmp_path / "out"
        assert cli.main(["run", path, "--format", "csv",
                         "--out-dir", str(out)]) == 0
        assert name in capsys.readouterr().out
        with open(out / f"{name}.metrics.csv", newline="",
                  encoding="utf-8") as f:
            rows = list(csv.reader(f))
        assert rows[:2] == [["metric", "value"], ["scenario", name]]
        assert {len(row) for row in rows} == {2}

    def test_runs_leave_numpy_ma_unimported(self, tmp_path):
        """``numpy.ma`` costs 15-19 ms to import (``np.unique`` does), and
        ``concurrent.futures`` ~5 ms with the ``logging`` it imports; a
        one-job run needs neither."""
        code = "\n".join([
            "import sys",
            "from sqkdsim import cli",
            "for path in sys.argv[2:]:",
            "    cli.main(['run', path, '--rounds', '1', '--jobs', '1',",
            "              '--out-dir', sys.argv[1]])",
            "print(sorted(m for m in sys.modules",
            "             if m.split('.')[:2] in (['numpy', 'ma'],",
            "                                     ['concurrent', 'futures'])),",
            "      file=sys.stderr, end='')"])
        paths = [scenario_path(name) for name in BUNDLED]
        proc = run_fresh([str(tmp_path)] + paths, code=code)
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stderr == b"[]"
        assert len(list(tmp_path.glob("*.report.txt"))) == len(paths) == 11

    def test_failed_expectation_exits_one(self, tmp_path):
        path = write(tmp_path, "\n".join([
            "[protocol]", "rounds = 200", "n_max = 2",
            "[attack]", "name = identity",
            "[expectations]", "losses = 100 abs 0", ""]))
        code = cli.main(["run", path, "--out-dir", str(tmp_path)])
        assert code == 1

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_nonpositive_jobs_exits_two(self, tmp_path, capsys, jobs):
        # every variant walks through kernels._walk, which rejects the
        # value before a report is written; a command-line value names no
        # scenario file
        code = cli.main(["run", scenario_path("bb84-pns.scn"),
                         "--out-dir", str(tmp_path), "--jobs", jobs])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: jobs must be at least 1, not {jobs}\n")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("broken", ["missing", "bad-token", "binary"])
    def test_unreadable_matrix_file_exits_two(self, tmp_path, capsys, broken):
        good = tmp_path / "good.mat"
        good.write_text("1 0 0 0 0 0\n0 0 1 0 0 0\n0 0 0 0 1 0\n",
                        encoding="utf-8")
        bad = tmp_path / "bad.mat"
        if broken == "bad-token":
            bad.write_text("1 0 0 0\n0 0 1 abc\n", encoding="utf-8")
        elif broken == "binary":
            bad.write_bytes(b"\xff\xfe1 0\n")
        path = write(tmp_path, "\n".join([
            "[protocol]", "rounds = 100", "n_max = 1",
            "[attack]", "name = general", "probe_dim = 1",
            f"outbound_file = {good}", f"return_file = {bad}", ""]))
        assert cli.main(["run", path, "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {path}: [attack]: {bad}: ")
        assert not (tmp_path / "out").exists()

    def test_general_run_checks_each_map_once(self, tmp_path, monkeypatch):
        checked = []
        defect = ProbeChannelMap.isometry_defect
        monkeypatch.setattr(ProbeChannelMap, "isometry_defect",
                            lambda m: checked.append(id(m)) or defect(m))
        rng = np.random.default_rng(4)
        files = [tmp_path / f"{leg}.mat" for leg in ("outbound", "return")]
        for mat in files:
            oracles.write_matrix(mat, oracles.haar_unitary(rng, 2 * 6))
        path = write(tmp_path, "\n".join([
            "[protocol]", "variant = classical-alice-full", "rounds = 200",
            "n_max = 2",
            "[attack]", "name = general", "probe_dim = 2",
            f"outbound_file = {files[0]}", f"return_file = {files[1]}", ""]))
        assert cli.main(["run", path, "--out-dir", str(tmp_path / "out")]) == 0
        assert len(checked) == len(set(checked)) == 2

    def test_attack_outside_domain_exits_two(self, tmp_path, capsys):
        # measure-resend returns fresh z pulses outside the constrained
        # return map's domain
        path = write(tmp_path, "\n".join([
            "[protocol]", "variant = classical-alice-full", "rounds = 200",
            "residual_policy = measure-resend", "n_max = 3",
            "[attack]", "name = constrained-random", "seed = 12345",
            "probe_dim = 4", ""]))
        assert cli.main(["run", path, "--out-dir", str(tmp_path / "out")]) == 2
        assert "outside the attack map's domain" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unknown_attack_key_exits_two(self, tmp_path, capsys):
        # a misspelt attack key is an error, not a silent default
        path = write(tmp_path, "\n".join([
            "[protocol]", "rounds = 200", "n_max = 3",
            "[attack]", "name = constrained-random", "sed = 5",
            "probe_dims = 2", ""]))
        assert cli.main(["run", path, "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: [attack] sed: unknown key; the constrained-random "
            "attack takes seed, probe_dim, violation, violation_level\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name,line,message", [
        ("constrained-random", "probe_dim = four",
         "probe_dim: invalid literal for int() with base 10: 'four'"),
        ("general", "probe_dim = -2", "probe_dim: must be at least 1, got -2"),
        ("constrained-random", "violation = rotate",
         "violation: 'rotate' is not one of single-photon-mismatch, "
         "multi-photon-return"),
    ])
    def test_bad_attack_value_exits_two(self, tmp_path, capsys, name, line,
                                        message):
        path = write(tmp_path, "\n".join([
            "[protocol]", "rounds = 200", "n_max = 3",
            "[attack]", f"name = {name}", line, ""]))
        assert cli.main(["run", path, "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {path}: [attack] {message}\n"
        assert not (tmp_path / "out").exists()

    def test_factory_error_names_the_file(self, tmp_path, capsys):
        # the level is checked against n_max only when the attack is built
        path = write(tmp_path, "\n".join([
            "[protocol]", "rounds = 200", "n_max = 3",
            "[attack]", "name = constrained-random",
            "violation = multi-photon-return", "violation_level = 7", ""]))
        assert cli.main(["run", path, "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: [attack]: violation level must lie in "
            "[2, n_max]\n")
        assert not (tmp_path / "out").exists()

    def test_matrix_shape_error_names_the_file(self, tmp_path, capsys):
        # maps of probe dimension 2 at n_max 2, read with probe_dim 3
        rng = np.random.default_rng(5)
        files = [tmp_path / f"{leg}.mat" for leg in ("outbound", "return")]
        for mat in files:
            oracles.write_matrix(mat, oracles.haar_unitary(rng, 2 * 6))
        path = write(tmp_path, "\n".join([
            "[protocol]", "rounds = 200", "n_max = 2",
            "[attack]", "name = general", "probe_dim = 3",
            f"outbound_file = {files[0]}", f"return_file = {files[1]}", ""]))
        assert cli.main(["run", path, "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: [attack]: matrix shape (12, 12) does not match "
            "probe_dim x channel dim = 3 x 6 = 18\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section,line,message", [
        ("protocol", "detector_model = foo", "unknown detector model 'foo'"),
        ("protocol", "residual_policy = foo",
         "unknown residual policy 'foo'"),
        ("protocol", "test_fraction = 1.5", "test fraction must lie in [0, 1]"),
        ("protocol", "n_max = 0", "photon cap must be at least 1"),
        ("strengthening", "cross_basis_fraction = 1",
         "cross-basis fraction must lie in [0, 1)"),
        ("strengthening", "extra_state_fraction = 1",
         "extra-state fraction must lie in [0, 1)"),
        ("expectations", "loss_fraction = abc abs 0.1",
         "[expectations] loss_fraction: could not convert string to float: "
         "'abc'"),
        ("attack", "return_file = {odd}",
         "[attack]: {odd}: odd float count, expected re/im pairs"),
    ])
    def test_bad_scenario_value_exits_two(self, tmp_path, capsys, section,
                                          line, message):
        # each refusal names the file, on one line, before anything is run
        odd = tmp_path / "odd.mat"
        odd.write_text("1 0 0\n", encoding="utf-8")
        header = [] if section == "protocol" else [f"[{section}]"]
        attack = (["name = general", "probe_dim = 1",
                   f"outbound_file = {odd}"] if section == "attack" else [])
        path = write(tmp_path, "\n".join([
            "[protocol]", "rounds = 300", *header, *attack,
            line.format(odd=odd), ""]))
        out = tmp_path / "out"
        assert cli.main(["run", path, "--out-dir", str(out)]) == 2
        assert capsys.readouterr() == (
            "", f"error: {path}: {message.format(odd=odd)}\n")
        assert not out.exists()

    def test_bb84_pns_report_does_not_depend_on_jobs(self, tmp_path,
                                                     monkeypatch):
        # the quota is met in the run's eighth block, so the fold crosses it
        # in the middle of the walk; the bundled expectations are left out,
        # and 7 jobs walk spans of 7 blocks whatever the machine's CPUs
        monkeypatch.setattr(protocol, "_cpus", lambda: 8)
        text = (SCENARIOS / "bb84-pns.scn").read_text("utf-8")
        path = write(tmp_path, text.split("[expectations]", 1)[0])
        blobs = []
        for jobs in ("1", "2", "7"):
            out = tmp_path / jobs
            assert cli.main(["run", path, "--out-dir", str(out),
                             "--jobs", jobs]) == 0
            blobs.append((out / "bb84-pns.report.txt").read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]

    @pytest.mark.parametrize("quota", TAIL_QUOTAS)
    @pytest.mark.parametrize("rounds", TAIL_ROUNDS)
    def test_unlogged_bb84_pns_run_reports_the_logged_one(
            self, tmp_path, monkeypatch, rounds, quota):
        # a run without a round log stops walking after the span of jobs
        # blocks that meets the splitter's quota and counts the rest; it
        # writes the logged run's files but the round log, and its text
        # report is the logged one up to the round log
        monkeypatch.setattr(protocol, "_cpus", lambda: 8)
        path = scenario_path("bb84-pns.scn")
        scenario = load_scenario(path)
        cfg = dataclasses.replace(scenario.config, rounds=rounds)
        build = protocol.build_bb84_tables
        tables, _meta = build(cfg, scenario.build_attack())
        plan, leaves = protocol._bb84_chain(tables)
        free = kernels._walk(plan, leaves, cfg.rng_seed, rounds, 1, True)[0]
        two = np.cumsum(leaves["forwarded"][free] == 1)
        for jobs in (1, 2, 3):
            pinned = TAIL_QUOTAS[quota](
                two, min(rounds, jobs * kernels.BLOCK) - 1)

            def build_pinned(config, attack):
                tables, meta = build(config, attack)
                return (dataclasses.replace(tables, quota=pinned),
                        {**meta, "pns_quota": pinned})

            monkeypatch.setattr(protocol, "build_bb84_tables", build_pinned)
            files, codes = {}, {}
            for log in ("always", "never"):
                out = tmp_path / f"{jobs}-{log}"
                for fmt in ("text", "csv"):
                    codes[log, fmt] = cli.main([
                        "run", path, "--rounds", str(rounds), "--jobs",
                        str(jobs), "--round-log", log, "--format", fmt,
                        "--out-dir", str(out)])
                files[log] = {f.name: f.read_bytes() for f in out.iterdir()}
            assert codes["always", "text"] == codes["never", "text"] \
                == codes["always", "csv"] == codes["never", "csv"]
            logged, bare = files["always"], files["never"]
            assert sorted(bare) == sorted(
                name for name in logged if name != "bb84-pns.rounds.csv")
            assert "bb84-pns.comparison.csv" in bare
            for name, blob in bare.items():
                if name == "bb84-pns.report.txt":
                    assert logged[name].startswith(blob), (jobs, name)
                    assert b"[rounds]" in logged[name][len(blob):]
                else:
                    assert logged[name] == blob, (jobs, name)

    def test_readme_scenario_example_runs(self, tmp_path):
        # the README's example keeps to the keys the loader takes
        readme = Path(__file__).resolve().parents[1] / "README.md"
        text = readme.read_text("utf-8").split("```ini\n", 1)[1]
        path = write(tmp_path, text.split("```", 1)[0])
        assert load_scenario(path).name == "tagging-reflect"
        out = tmp_path / "out"
        assert cli.main(["run", path, "--rounds", "100",
                         "--out-dir", str(out)]) == 0
        assert (out / "tagging-reflect.report.txt").exists()

    def test_constrained_random_with_counters_exits_two(self, tmp_path,
                                                        capsys):
        text = (SCENARIOS / "constrained-random.scn").read_text("utf-8")
        path = write(tmp_path, text.replace(
            "[protocol]\n", "[protocol]\ndetector_model = counter\n"))
        assert cli.main(["run", path, "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        # refused as the run builds its tables, and named after the file
        assert err.startswith(
            f"error: {path}: the constrained-random attack cannot run with "
            f"counter detectors")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_truncation_found_in_the_run_names_the_file(self, tmp_path,
                                                        capsys, monkeypatch):
        def truncated(*args, **kwargs):
            raise TruncationError("attack map image exceeds the channel cap 1")

        monkeypatch.setattr(cli, "run_any", truncated)
        path = scenario_path("classical-alice-ideal.scn")
        assert cli.main(["run", path, "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: attack map image exceeds the channel cap 1\n")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("variant", ["classical-alice-full", "bb84"])
    def test_two_photon_pulses_past_the_photon_cap_exit_two(
            self, tmp_path, capsys, variant):
        path = write(tmp_path, "\n".join([
            "[protocol]", f"variant = {variant}", "rounds = 100", "n_max = 1",
            "[source]", "p0 = 0.3", "p1 = 0.5", "p2 = 0.2", ""]))
        assert cli.main(["run", path, "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: two-photon pulses need a photon cap of at "
            f"least 2\n")
        assert not (tmp_path / "out").exists()

    def test_parse_error_exits_two(self, tmp_path):
        path = write(tmp_path, "[protocol]\nrounds = banana\n")
        assert cli.main(["run", path, "--out-dir", str(tmp_path)]) == 2

    def test_unknown_attack_exits_two(self, tmp_path, capsys):
        path = write(tmp_path, "[attack]\nname = warp-drive\n")
        assert cli.main(["run", path, "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: [attack] name: unknown attack 'warp-drive'\n")

    def test_unknown_expected_metric_exits_two(self, tmp_path):
        path = write(tmp_path, "\n".join([
            "[protocol]", "rounds = 100", "n_max = 2",
            "[expectations]", "warp_factor = 9 abs 0", ""]))
        assert cli.main(["run", path, "--out-dir", str(tmp_path)]) == 2

    def test_out_dir_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path / "env-out"))
        code = cli.main(["run", scenario_path("classical-alice-ideal.scn"),
                         "--rounds", "200"])
        assert code == 0
        assert (tmp_path / "env-out" / "classical-alice-ideal.report.txt").exists()

    @pytest.mark.parametrize("under", [False, True])
    def test_out_dir_that_is_a_file_exits_two(self, tmp_path, capsys, under):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory\n", encoding="utf-8")
        out_dir = blocker / "sub" if under else blocker
        code = cli.main(["run", scenario_path("classical-alice-ideal.scn"),
                         "--rounds", "200", "--out-dir", str(out_dir)])
        assert code == 2
        captured = capsys.readouterr()
        strerror = os.strerror(errno.ENOTDIR if under else errno.EEXIST)
        assert captured.err == f"error: {out_dir}: {strerror}\n"
        assert "Traceback" not in captured.err + captured.out
        assert blocker.read_text(encoding="utf-8") == "not a directory\n"

    @pytest.mark.parametrize("name", [
        "../escaped", "sub/x", "absolute",
        pytest.param("evil\n  [metrics]", id="newline"),
        pytest.param("a\0b", id="nul"),
        pytest.param("del\x7f", id="del")])
    def test_name_with_a_path_exits_two(self, tmp_path, capsys, name):
        """The report files are named after the scenario inside
        ``--out-dir``, so a name that is a path, or holds a control
        character, is refused before the run."""
        if name == "absolute":
            name = str(tmp_path / "elsewhere")
        path = write(tmp_path, "\n".join([
            "[scenario]", f"name = {name}",
            "[protocol]", "rounds = 300", "n_max = 2", ""]))
        # configparser reads an indented line as the value's next line
        name = name.replace("\n  ", "\n")
        out = tmp_path / "out"
        assert cli.main(["run", path, "--out-dir", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: {path}: scenario name {name!r} "
                                "must be a plain file name\n")
        assert captured.out == ""
        assert not out.exists()
        assert not list(tmp_path.rglob("*.report.txt"))

    @pytest.mark.parametrize("text,message", [
        ("[protocol]\nrounds = 300\nrounds = 400\n",
         "option 'rounds' in section 'protocol' already exists"),
        ("[protocol]\nrounds = 300\n[protocol]\nn_max = 2\n",
         "section 'protocol' already exists"),
        ("rounds = 300\n[protocol]\n", "File contains no section headers."),
        ("[protocol]\nrounds = 300\nrounds\n",
         "Source contains parsing errors"),
        ("[DEFAULT]\nrounds = 300\n[protocol]\nn_max = 2\n",
         "unknown section [DEFAULT]"),
        ("[DEFAULT]\nrounds = 300\n", "unknown section [DEFAULT]"),
    ], ids=["repeated-key", "repeated-section", "no-section-header",
            "not-a-key", "default-above-protocol", "default-alone"])
    def test_malformed_file_exits_two(self, tmp_path, capsys, text, message):
        path = write(tmp_path, text)
        out = tmp_path / "out"
        assert cli.main(["run", path, "--out-dir", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {path}: ")
        assert message in captured.err
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
        assert captured.out == ""
        assert not out.exists()

    def test_percent_is_read_as_written(self, tmp_path, capsys):
        path = write(tmp_path, "\n".join([
            "[scenario]", "name = pct%x%%y",
            "[protocol]", "rounds = 300", "n_max = 2", ""]))
        assert load_scenario(path).name == "pct%x%%y"
        path = write(tmp_path, "\n".join([
            "[protocol]", "rounds = 300", "n_max = 2",
            "[expectations]", "losses = 1% abs 0", ""]))
        assert cli.main(["run", path, "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: [expectations] losses: could not convert "
            "string to float: '1%'\n")
        assert not (tmp_path / "out").exists()

    def test_attacks_list_and_describe(self, capsys):
        # every listed attack is described
        assert cli.main(["attacks", "list"]) == 0
        names = capsys.readouterr().out.split()
        assert names == list(ATTACKS)
        for name in names:
            assert cli.main(["attacks", "describe", name]) == 0
            assert capsys.readouterr().out == describe_attack(name) + "\n"
        assert cli.main(["attacks", "describe", "unknown"]) == 2

    def test_verify_thresholds(self, capsys):
        # every number here is pure-Python float arithmetic, so the text
        # is the same on every platform
        assert cli.main(["verify", "thresholds"]) == 0
        assert capsys.readouterr().out == (
            "[pass] thresholds:pulsed-source-expected-count       "
            "expected count 1199.0000000000005\n"
            "[pass] thresholds:splitting-threshold-ratio          "
            "ratio 0.01020304050607081, feasible True\n"
            "[pass] thresholds:splitting-flips-at-equality        "
            "at ratio 2.0: True; just below: False\n"
            "[pass] thresholds:two-state-conclusive-probability   "
            "checked overlaps 0, 0.5, 0.8\n"
            "[pass] thresholds:two-state-loss-threshold           "
            "breakable iff lossrate >= (1+overlap^2)/2\n"
            "[pass] thresholds:generalized-measurement-threshold  "
            "breakable iff lossrate >= overlap\n"
            "6/6 checks passed\n")

    def test_verify_fock(self, capsys):
        assert cli.main(["verify", "fock", "--seed", "3"]) == 0

    def test_verify_all(self, capsys):
        # the lemma suite drives attack maps and joint states hardest; each
        # residual of a few ulps prints against its bound, so the text is
        # the same whatever the BLAS kernel or the Python version
        assert cli.main(["verify", "all"]) == 0
        rows = [
            ("fock:expansion-rows-vs-corpus",
             "56 rows, max deviation <= 1e-12"),
            ("fock:basis-change-vs-corpus",
             "max deviation <= 1e-12"),
            ("fock:double-transform-involution",
             "50 random states, max residual <= 1e-10"),
            ("lemma:forward-no-minus-clicks",
             "200 attacks, max prob <= 1e-10"),
            ("lemma:forward-zero-leakage",
             "min fidelity 1.000000000000"),
            ("lemma:converse-always-visible",
             "200 attacks, min prob 5.28e-05"),
            ("lemma:single-photon-click-magnitude",
             "max |observed - mismatch^2/2| <= 1e-09"),
            ("lemma:parity-decomposition",
             "max residual <= 1e-12"),
            ("thresholds:pulsed-source-expected-count",
             "expected count 1199.0000000000005"),
            ("thresholds:splitting-threshold-ratio",
             "ratio 0.01020304050607081, feasible True"),
            ("thresholds:splitting-flips-at-equality",
             "at ratio 2.0: True; just below: False"),
            ("thresholds:two-state-conclusive-probability",
             "checked overlaps 0, 0.5, 0.8"),
            ("thresholds:two-state-loss-threshold",
             "breakable iff lossrate >= (1+overlap^2)/2"),
            ("thresholds:generalized-measurement-threshold",
             "breakable iff lossrate >= overlap"),
        ]
        width = max(len(label) for label, _detail in rows)
        assert capsys.readouterr().out.splitlines() == [
            f"[pass] {label:<{width}}  {detail}" for label, detail in rows
        ] + ["14/14 checks passed"]

    def test_verify_prints_a_residual_past_its_bound(self):
        assert verify._bounded("s", "n", "max residual", 1e-10, 1e-10) \
            == verify.CheckResult("s", "n", True, "max residual <= 1e-10")
        for residual, shown in ((3e-9, "3.00e-09"), (math.nan, "nan")):
            assert verify._bounded("s", "n", "max residual", residual,
                                   1e-10) == verify.CheckResult(
                "s", "n", False, f"max residual {shown} > 1e-10")

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_verify_lemma_without_trials_exits_two(self, capsys, trials):
        # a lemma suite of no trials would check nothing and pass; the
        # suites that draw no trials refuse the count too
        for suite in verify.SUITES:
            assert cli.main(["verify", suite, "--trials", trials]) == 2, suite
            captured = capsys.readouterr()
            assert captured.err == (
                f"error: trials must be at least 1, not {trials}\n")
            assert captured.out == ""

    @pytest.mark.parametrize("suite", verify.SUITES)
    def test_verify_negative_seed_exits_two(self, capsys, suite):
        # the thresholds suite draws nothing, yet refuses the seed too
        assert cli.main(["verify", suite, "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: seed must be non-negative, not -1\n"
        assert captured.out == ""

    def test_unknown_suite_is_refused(self):
        with pytest.raises(ValueError) as info:
            verify.run_suite("nope", 0)
        assert str(info.value) == (
            "unknown suite 'nope'; choose from "
            "('fock', 'lemma', 'thresholds', 'all')")

    def test_verify_lemma_fails_on_undefined_leakage(self, monkeypatch,
                                                     capsys):
        # an undefined leakage leaves the forward fidelity at 1.0, so only
        # the note of its first trial fails the row
        from sqkdsim import analysis

        def rows():
            return {row.name: row for row in verify.run_lemma(0, trials=4)}

        undefined = analysis.LeakageReport(None, None,
                                           detail="no pure probe states")
        monkeypatch.setattr(analysis, "eve_leakage",
                            lambda attack, n_max: undefined)
        failed = {name: row for name, row in rows().items() if not row.passed}
        assert list(failed) == ["forward-zero-leakage"]
        assert failed["forward-zero-leakage"].detail.endswith(
            "; forward trial 0: leakage no pure probe states")
        assert cli.main(["verify", "lemma", "--trials", "4"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] lemma:forward-zero-leakage" in out

        # a forward attack that shows a minus click fails its own row only
        monkeypatch.undo()
        exact = analysis.check_constraints

        def clicking(attack, n_max):
            report = exact(attack, n_max=n_max)
            if report.bob_minus_click_prob > analysis.EXACT_TOL:
                return report
            return dataclasses.replace(report, bob_minus_click_prob=0.25)

        monkeypatch.setattr(analysis, "check_constraints", clicking)
        assert [name for name, row in rows().items() if not row.passed] == [
            "forward-no-minus-clicks"]
        assert cli.main(["verify", "lemma", "--trials", "4"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] lemma:forward-no-minus-clicks" in out
