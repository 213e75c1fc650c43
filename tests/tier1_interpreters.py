"""Run tier-1 under several interpreters that have no test dependencies.

    python tests/tier1_interpreters.py SITE_PACKAGES PYTHON [PYTHON ...]

SITE_PACKAGES is a site-packages directory that holds pytest, hypothesis
and sympy with their pure-Python dependencies, such as the one of the
interpreter that runs the suite normally. Those packages are linked, not
copied, into a temporary directory, and each PYTHON (a path or a command
on PATH) then runs

    python -m pytest -q --continue-on-collection-errors -p no:cacheprovider

from the repository root with PYTHONPATH=src:<that directory>. Nothing is
installed or downloaded. The script prints each interpreter's version
and pytest's last line, and exits 1 when any run fails. pytest 9 needs
Python 3.10's missing `exceptiongroup` and `tomli`; run `tests/smoke.py`
there instead.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Import names of the test dependencies and of what they import in turn;
# each is linked with its .py module or package and its dist-info, which
# carries the pytest plugin entry points.
PACKAGES = ("pytest", "_pytest", "py", "pluggy", "iniconfig", "packaging", "pygments",
            "hypothesis", "_hypothesis_*", "sortedcontainers", "attr", "attrs",
            "sympy", "mpmath")


def link_dependencies(site: Path, into: Path) -> list[str]:
    """Symlink the PACKAGES found in site into the directory into."""
    paths = {path for name in PACKAGES
             for pattern in (name, f"{name}.py", f"{name}-*.dist-info")
             for path in site.glob(pattern)}
    for path in paths:
        (into / path.name).symlink_to(path)
    return sorted(path.name for path in paths)


def run(python: str, deps: Path) -> bool:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(deps)])}
    try:
        version = subprocess.run([python, "-VV"], capture_output=True, text=True).stdout.strip()
    except FileNotFoundError:
        print(f"{python}: no such interpreter", flush=True)
        return False
    proc = subprocess.run(
        [python, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"],
        cwd=ROOT, env=env, capture_output=True, text=True)
    lines = (proc.stdout + proc.stderr).strip().splitlines()
    print(f"{python} ({version}): exit {proc.returncode}: {lines[-1] if lines else 'no output'}",
          flush=True)
    return proc.returncode == 0


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    site = Path(argv[0])
    if not site.is_dir():
        print(f"not a directory: {site}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="tier1-deps-") as tmp:
        if "pytest" not in link_dependencies(site, Path(tmp)):
            print(f"no pytest in {site}", file=sys.stderr)
            return 2
        results = [run(python, Path(tmp)) for python in argv[1:]]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
