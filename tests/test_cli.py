"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main

SOURCE = """
int kernel(int gain, int data[4], int out[4]) {
  for (int i = 0; i < 4; i++) {
    if (data[i] > 10) out[i] = data[i] * gain;
    else out[i] = data[i] + 3;
  }
  return gain;
}
"""


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "kernel.c"
    path.write_text(SOURCE)
    return path


class TestAnalyze:
    def test_prints_apportionment(self, source_file, capsys):
        code = main(["analyze", str(source_file), "--top", "kernel"])
        out = capsys.readouterr().out
        assert code == 0
        assert "working key W" in out
        assert "cond. branches" in out

    def test_parameter_flags(self, source_file, capsys):
        main(
            [
                "analyze",
                str(source_file),
                "--top",
                "kernel",
                "--constant-width",
                "16",
                "--block-bits",
                "2",
            ]
        )
        out = capsys.readouterr().out
        assert "x 16" in out
        assert "x 2" in out


class TestObfuscate:
    def test_writes_artifacts(self, source_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = main(
            [
                "obfuscate",
                str(source_file),
                "--top",
                "kernel",
                "-o",
                str(out_dir),
            ]
        )
        assert code == 0
        rtl = (out_dir / "kernel_obfuscated.v").read_text()
        assert "module kernel (" in rtl
        assert "working_key" in rtl
        key_text = (out_dir / "kernel.lockingkey").read_text().strip()
        assert len(key_text) == 64  # 256 bits in hex
        manifest = json.loads((out_dir / "kernel_manifest.json").read_text())
        assert manifest["top"] == "kernel"
        assert manifest["working_key_bits"] > 0
        assert manifest["key_scheme"] == "replication"

    def test_explicit_locking_key(self, source_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        key_hex = "ab" * 32
        main(
            [
                "obfuscate",
                str(source_file),
                "--top",
                "kernel",
                "-o",
                str(out_dir),
                "--locking-key",
                key_hex,
            ]
        )
        stored = (out_dir / "kernel.lockingkey").read_text().strip()
        assert int(stored, 16) == int(key_hex, 16)

    def test_disable_flags(self, source_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        main(
            [
                "obfuscate",
                str(source_file),
                "--top",
                "kernel",
                "-o",
                str(out_dir),
                "--no-dfg",
                "--no-branches",
            ]
        )
        manifest = json.loads((out_dir / "kernel_manifest.json").read_text())
        assert manifest["variant_blocks"] == 0
        assert manifest["masked_branches"] == 0
        assert manifest["obfuscated_constants"] > 0

    def test_aes_scheme(self, source_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        main(
            [
                "obfuscate",
                str(source_file),
                "--top",
                "kernel",
                "-o",
                str(out_dir),
                "--key-scheme",
                "aes",
            ]
        )
        manifest = json.loads((out_dir / "kernel_manifest.json").read_text())
        assert manifest["key_scheme"] == "aes"


class TestBaseline:
    def test_writes_rtl(self, source_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = main(
            ["baseline", str(source_file), "--top", "kernel", "-o", str(out_dir)]
        )
        assert code == 0
        rtl = (out_dir / "kernel_baseline.v").read_text()
        assert "module kernel (" in rtl
        assert "working_key" not in rtl


class TestEvaluationCommands:
    def test_validate_exit_code(self, capsys):
        code = main(["validate", "--benchmark", "sobel", "--keys", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "sobel" in out

    def test_bad_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["not-a-command"])

    def test_missing_top_rejected(self, source_file):
        with pytest.raises(SystemExit):
            main(["analyze", str(source_file)])


class TestCampaignKeySchemeFlag:
    def test_unknown_scheme_gets_registry_error(self, capsys):
        code = main(
            ["campaign", "--benchmarks", "sobel", "--keys", "2",
             "--key-scheme", "bogus"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown key-management scheme 'bogus'" in err
        assert "replication, aes" in err

    def test_registered_scheme_passes_validation(
        self, isolated_registry, tmp_path, capsys
    ):
        isolated_registry.register(
            "key-scheme",
            "plugin-replication",
            isolated_registry.get("key-scheme", "replication"),
        )
        out = tmp_path / "plugin.json"
        code = main(
            ["campaign", "--benchmarks", "sobel", "--keys", "2", "--jobs", "1",
             "--key-scheme", "plugin-replication", "-o", str(out)]
        )
        assert code == 0
        unit = json.loads(out.read_text())["units"][0]
        assert unit["key_scheme"] == "plugin-replication"
        assert unit["report"]["correct_key_ok"]
