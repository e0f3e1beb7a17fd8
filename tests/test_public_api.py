"""The package's public surface: __all__ is sorted, has no duplicates, and
every name in it resolves; and the package and its CLI need no third-party
HTTP client."""

import os
import subprocess
import sys
from pathlib import Path

import promptor

# requests is set to None in sys.modules, so any import of it fails loudly
NO_HTTP_CLIENT_PROBE = """
import contextlib, io, sys
sys.modules["requests"] = None
import promptor, promptor.cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        promptor.cli.main(["--help"])
    except SystemExit as exc:
        assert exc.code == 0, exc.code
assert sys.modules.pop("requests") is None, "requests was imported"
assert "urllib3" not in sys.modules, "urllib3 was imported"
"""


def test_all_is_sorted_unique_and_resolvable():
    names = promptor.__all__
    assert names == sorted(names)
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(promptor, name), name


def test_package_and_cli_load_without_requests_or_urllib3():
    src = str(Path(promptor.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", NO_HTTP_CLIENT_PROBE],
                            env={**os.environ, "PYTHONPATH": path},
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
