import pytest

from realtori import cli


@pytest.fixture
def run_cli(tmp_path, capsys):
    """Run ``cli.main`` on ``text`` through input/output files; returns (exit code, output)."""

    def run(text: str, *args: str) -> tuple[int, str]:
        src = tmp_path / "in.json"
        dst = tmp_path / "out.json"
        src.write_text(text, encoding="utf-8")
        dst.unlink(missing_ok=True)
        code = cli.main([*args, "--input", str(src), "--output", str(dst)])
        capsys.readouterr()
        return code, dst.read_text(encoding="utf-8") if dst.exists() else ""

    return run
