"""CLI surface tests: ``mao discover``, ``mao profiles``, profile errors.

A malformed or wrong-version ``--core file.json`` must always die with
a clean one-line ``mao ...: <reason>`` on stderr and exit code 1 —
never a traceback (ISSUE 10 satellite: the error path is part of the
user interface).
"""

import json

import pytest

from repro.cli import main
from repro.uarch import tables
from repro.uarch.profiles import core2

SOURCE = """
.text
.globl f
.type f, @function
f:
.L0:
    addq $1, %rax
    subq $1, %rdi
    jne .L0
    ret
"""


@pytest.fixture
def asm_file(tmp_path):
    path = tmp_path / "in.s"
    path.write_text(SOURCE)
    return str(path)


@pytest.fixture
def corrupt_profiles(tmp_path):
    """A zoo of broken profile files, each with its failure reason."""
    wrong_version = tmp_path / "wrong_version.json"
    wrong_version.write_text('{"schema": "pymao.uarch/99", "name": "x"}\n')
    not_json = tmp_path / "not_json.json"
    not_json.write_text("decode_line_bytes = 16\n")
    missing = tmp_path / "missing_sections.json"
    missing.write_text('{"schema": "pymao.uarch/1", "name": "x"}\n')
    return [str(wrong_version), str(not_json), str(missing)]


class TestProfilesVerb:
    def test_list_names_every_registry_profile(self, capsys):
        assert main(["profiles", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("core2", "opteron", "pentium4", "skylake", "zen"):
            assert name in out

    def test_show_round_trips(self, capsys):
        assert main(["profiles", "show", "core2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert tables.doc_to_model(doc) == core2()

    def test_show_unknown_is_clean_error(self, capsys):
        assert main(["profiles", "show", "i486"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("mao profiles:")
        assert "Traceback" not in err


class TestCorruptProfileErrors:
    def test_predict_core_file(self, asm_file, corrupt_profiles, capsys):
        for bad in corrupt_profiles:
            assert main(["predict", asm_file, "--core", bad]) == 1
            err = capsys.readouterr().err
            assert err.startswith("mao predict:"), (bad, err)
            assert "Traceback" not in err

    def test_driver_sim_core_file(self, asm_file, corrupt_profiles, capsys):
        for bad in corrupt_profiles:
            assert main(["--sim", bad, asm_file]) == 1
            err = capsys.readouterr().err
            assert err.startswith("mao:"), (bad, err)
            assert "Traceback" not in err

    def test_driver_predict_core_file(self, asm_file, corrupt_profiles,
                                      capsys):
        for bad in corrupt_profiles:
            assert main(["--predict", bad, asm_file]) == 1
            err = capsys.readouterr().err
            assert err.startswith("mao:"), (bad, err)
            assert "Traceback" not in err

    def test_discover_needs_exactly_one_target(self, capsys):
        assert main(["discover"]) == 2
        assert "exactly one of --seed or --core" in capsys.readouterr().err
        assert main(["discover", "--seed", "3", "--core", "core2"]) == 2
        assert "exactly one of --seed or --core" in capsys.readouterr().err


class TestGoodProfilePaths:
    def test_predict_accepts_profile_file(self, asm_file, tmp_path, capsys):
        path = str(tmp_path / "core2.json")
        tables.save_profile(core2(), path)
        assert main(["predict", asm_file, "--core", path, "--json"]) == 0
        by_path = json.loads(capsys.readouterr().out)
        assert main(["predict", asm_file, "--core", "core2", "--json"]) == 0
        by_name = json.loads(capsys.readouterr().out)
        assert by_path["cycles"] == by_name["cycles"]

    def test_version_lists_uarch_schemas(self, capsys):
        main(["--version"])
        out = capsys.readouterr().out
        assert "pymao.uarch/1" in out
        assert "pymao.discover/1" in out
