"""Golden hashes of the machine reports of every bundled scenario.

Each scenario runs at its own seed and round count through the command
line, once with the text report and once with the CSV reports (the CSV run
walks on two threads, which must not change a byte).  The SHA-256 of
each report is pinned below.  A change that moves a hash changes what the
simulator outputs and is a bug until explained.

A seeded Haar `general` attack, written to matrix files, is pinned the same
way (text report only).

Bundled scenarios embed a round log only up to 20000 rounds, so one scenario
of each protocol is also pinned with ``--round-log always`` at 131073
rounds: past eight walk blocks and round-log steps of 16384 rounds (the
last edge at 131072) and across the step from five- to six-digit round
indices.

To print the current hashes (after an intended, explained change):

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from oracles import haar_unitary, write_matrix
from sqkdsim import cli

SCENARIOS = resources.files("sqkdsim") / "scenarios"

#: scenario -> (text report hash, CSV reports hash)
GOLDEN = {
    "b92-usd-c00": (
        "72d6f0679ea1351ff0493ba5b3c4ba4d9a43a3703218d96da67998813a964205",
        "f3790320ee603dcc150930e78ccf6b5f94402dcd6a225ea2d86a5b5c678ebd76"),
    "b92-usd-c05": (
        "2ae20888e208935b4b4f1102cb3e8c6e38dd1e31eaa9aa916b89594c0e57936d",
        "c2895c22e9e5ea6153c44989e699651eb1261c508d8bcbd4b996bc5862f2868f"),
    "b92-usd-c08": (
        "c7adcb4d6d0cbfe2847fb7999325ea07d5db9520052a9736aef2b4a322405f4c",
        "9148bfd9a2e242b756203eb0797dd0cbdab9edcdc000870c1b72b3a229b23ae8"),
    "bb84-baseline": (
        "9783c4aaef5ab65ba8ec58b2c4fc17098fb9a52c3242a2987193dfc77254cd21",
        "82673f496613bdd5da8c6619892ea2dd6dd04dc82e9b7be81593945dc996be0a"),
    "bb84-pns": (
        "c0299ca719ae53a44c10382d260279768f584ebb297ea4aee1d08f416f12de42",
        "4c402c67d2c69b0c1111420ae210929998342e9462ab35878e5ec49b89cf985b"),
    "classical-alice-ideal": (
        "53b5d5ed59bfc8ced77cd565a521d940ef87c69be015fff67575539e1e6fe2e9",
        "c684e9b8790910d33be2d9ecad0e3880a408db48c4e201ea78e5cea41cbe857b"),
    "classical-alice-lossy": (
        "c832e20735c17acaec8f2499fc44d7779f9160be4f9f9b658b8ea56e26bf32c4",
        "7f348da2dbea3e1393495fa3a67b90c855a1317d03918d4147ddf72a18489319"),
    "constrained-random": (
        "58c3f6d0f55c7225e6bf558fcb7ef9c7d8e95cfdfb445a1c24c6d339e7ea52d8",
        "6c31b0ed6ab646885afaad3914e26f6e20f522b6f4c5732e34416f730e159fcb"),
    "tagging-measure-resend": (
        "2b1597dc8b447850ee8b985634ca5e8642cbb720012aee5c843c6faccd79649f",
        "d21c24454c7d4a19a863f9e3c2830a1f6bc2655d565e52c055988114eaf303cd"),
    "tagging-reflect": (
        "d9ed25ddfd5be907d8a33649267c2174ec30045ce8c0233440952aa7a653d519",
        "dfba3d80d1bda5a94d5b6a6069be2ca9d61267207136d8a3c08793b984260211"),
    "two-photon-bob": (
        "ebcce6559ebe6194dcf9e81037940b1758b987c13689f0ae12656af88d5639aa",
        "d0594a65c64de27176cc7e7171dd003e73b72fd667bd554d0b98e47e3dea0ab5"),
}


def report_hashes(name: str, out_dir: Path, extra=(), status=cli.EXIT_OK):
    """(text, csv) SHA-256 of scenario ``name``'s machine reports, run with
    the extra command-line arguments ``extra``; both runs must exit with
    ``status``."""
    scn = str(SCENARIOS / f"{name}.scn")
    text_dir, csv_dir = out_dir / "text", out_dir / "csv"
    with contextlib.redirect_stdout(io.StringIO()):
        codes = (cli.main(["run", scn, "--out-dir", str(text_dir), *extra]),
                 cli.main(["run", scn, "--out-dir", str(csv_dir),
                           "--format", "csv", "--jobs", "2", *extra]))
    assert codes == (status, status), codes
    text = hashlib.sha256(
        (text_dir / f"{name}.report.txt").read_bytes()).hexdigest()
    csv = hashlib.sha256()
    for path in sorted(csv_dir.glob(f"{name}.*.csv")):
        csv.update(path.name.encode() + b"\n" + path.read_bytes())
    return text, csv.hexdigest()


def bundled_names():
    return sorted(p.name[:-4] for p in SCENARIOS.iterdir()
                  if p.name.endswith(".scn"))


def test_every_bundled_scenario_is_pinned():
    assert bundled_names() == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_machine_reports_match_golden_hashes(name, tmp_path):
    assert report_hashes(name, tmp_path) == GOLDEN[name]


#: rounds of the round-log goldens
LOGGED_ROUNDS = 131073

LOGGED_ARGS = ("--rounds", str(LOGGED_ROUNDS), "--round-log", "always")

#: bb84-pns expects the received pulse count of its own 1e6 rounds, so its
#: shortened runs fail that expectation (and still write their reports)
LOGGED_STATUS = {"bb84-pns": cli.EXIT_FAILED}

#: scenario -> (text report hash, CSV reports hash) with a round log of
#: LOGGED_ROUNDS rounds
LOGGED_GOLDEN = {
    "b92-usd-c05": (
        "4d22b0152a30a1630d0c0de7305f4bc8f9caab2995e1b0e99dd22f88c63cc79d",
        "dc9682b8b86a59fad3212b52299ef64ad257bd527854264702d9422254432cd5"),
    "bb84-pns": (
        "313ade7be6105ba41c1a0f5ca0a0c4a1f8cba64b8d94df80b7a89d8ad6c12a35",
        "53914af726fc70c307682edd3baa897b9d4324dc0d854d1e77f855d0ccadc126"),
    "classical-alice-lossy": (
        "5f4e40734849aabcc2c67bbb5cd2181cdf7da8a105ee552644973032f0214026",
        "ac3b0b99672791c567bcae68f66299bae2bb1a5fe78e22ae460f0184e7dc772e"),
}


@pytest.mark.parametrize("name", sorted(LOGGED_GOLDEN))
def test_round_log_reports_match_golden_hashes(name, tmp_path):
    status = LOGGED_STATUS.get(name, cli.EXIT_OK)
    assert (report_hashes(name, tmp_path, LOGGED_ARGS, status)
            == LOGGED_GOLDEN[name])


#: text report hash of a seeded Haar `general` attack (no bundled scenario
#: uses one, so this is the only pin on the dense-map loaders)
GENERAL_GOLDEN = (
    "0ea4df70468c254b7b1a97440f24fd7856b88219818a5116def6fd8924e63bd8")

GENERAL_SCENARIO = """\
[scenario]
name = general-haar
seed = 20261018

[protocol]
variant = classical-alice-full
rounds = 20000
transmission = 0.8
n_max = 2

[attack]
name = general
probe_dim = 2
outbound_file = {outbound}
return_file = {returning}
"""


def general_report_hash(out_dir: Path) -> str:
    """SHA-256 of the text report of a dim-12 Haar `general` attack run."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(4)
    files = {}
    for leg in ("outbound", "returning"):
        files[leg] = out_dir / f"{leg}.mat"
        write_matrix(files[leg], haar_unitary(rng, 2 * 6), header=leg)
    scn = out_dir / "general-haar.scn"
    scn.write_text(GENERAL_SCENARIO.format(**files), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["run", str(scn), "--out-dir", str(out_dir)])
    assert code == cli.EXIT_OK, code
    return hashlib.sha256(
        (out_dir / "general-haar.report.txt").read_bytes()).hexdigest()


def test_general_attack_report_matches_golden_hash(tmp_path):
    assert general_report_hash(tmp_path) == GENERAL_GOLDEN


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name in bundled_names():
            text, csv = report_hashes(name, Path(tmp) / name)
            sys.stdout.write(f'    "{name}": (\n        "{text}",\n'
                             f'        "{csv}"),\n')
        sys.stdout.write(f'general: "{general_report_hash(Path(tmp) / "g")}"\n')
        sys.stdout.write(f"logged at {LOGGED_ROUNDS} rounds:\n")
        for name in sorted(LOGGED_GOLDEN):
            text, csv = report_hashes(name, Path(tmp) / f"log-{name}",
                                      LOGGED_ARGS,
                                      LOGGED_STATUS.get(name, cli.EXIT_OK))
            sys.stdout.write(f'    "{name}": (\n        "{text}",\n'
                             f'        "{csv}"),\n')
