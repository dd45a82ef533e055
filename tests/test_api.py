import os
import re
import subprocess
import sys
from pathlib import Path

import curvepath

README = (Path(__file__).parents[1] / "README.md").read_text()


def test_every_exported_name_resolves():
    missing = [name for name in curvepath.__all__ if not hasattr(curvepath, name)]
    assert not missing


def test_readme_library_example_uses_only_exported_names():
    """The example is matched, not run: its mc_boltzmann draws 10^5 samples."""
    section = README.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    used = set(re.findall(r"\bcp\.(\w+)", block))
    assert "boltzmann" in used
    assert used <= set(curvepath.__all__), sorted(used - set(curvepath.__all__))


def test_importing_the_cli_leaves_concurrent_futures_unloaded():
    """The Monte Carlo pipeline imports concurrent.futures inside its call, so
    a command that draws no sample does not pay for that import at startup."""
    env = dict(os.environ, PYTHONPATH=str(Path(curvepath.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", "import sys, curvepath.cli; "
                           "print(sorted(m for m in sys.modules if m.startswith('concurrent')))"],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout == "[]\n"
