"""Fresh-process import hygiene: scipy loads only where a command uses it."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CONFIG = ROOT / "configs" / "fig_flow.json"

PROBE = """
import json, sys
import repgame, repgame.cli
if len(sys.argv) > 1:
    rc = repgame.cli.main(["--experiment", sys.argv[1], "--config", sys.argv[2],
                           "--out", sys.argv[3]])
    assert rc == 0, rc
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""

# the hull check of validate_assumptions on a 2-user game, then the scipy modules loaded
ASSUMPTIONS_PROBE = """
import json, sys
from repgame import FlowControlGame, validate_assumptions
validate_assumptions(FlowControlGame(mu=5.0, beta=[1.0, 2.0], a_max=[2.0, 2.0], a0_max=[1.0]))
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def scipy_modules(*args, probe=PROBE) -> set:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", probe, *args], env=env, check=True,
                         capture_output=True, text=True).stdout
    return set(json.loads(out.splitlines()[-1]))


def test_import_loads_no_scipy():
    assert scipy_modules() == set()


@pytest.mark.parametrize("experiment,loaded,absent", [
    ("tradeoff", set(), {"scipy"}),   # any scipy submodule loads "scipy" too
    ("fig3", set(), {"scipy"}),
    ("table2", {"scipy.optimize"}, {"scipy.signal"}),
    # scipy.signal's own package init loads scipy.optimize and scipy.spatial,
    # so this case cannot assert that they stay out
    ("verify", {"scipy.signal"}, set()),
], ids=["tradeoff", "fig3", "table2", "verify"])
def test_command_loads_only_its_scipy(tmp_path, experiment, loaded, absent):
    mods = scipy_modules(experiment, str(CONFIG), str(tmp_path))
    assert loaded <= mods
    assert not absent & mods


def test_validate_assumptions_loads_no_scipy_spatial():
    assert "scipy.spatial" not in scipy_modules(probe=ASSUMPTIONS_PROBE)
