"""Golden CLI outputs: every call of tests/golden/regenerate.py prints what digests.json recorded."""

import importlib.util
import json
from pathlib import Path

_SCRIPT = Path(__file__).with_name("golden") / "regenerate.py"
_spec = importlib.util.spec_from_file_location("golden_regenerate", _SCRIPT)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def test_cli_outputs_match_golden_digests(tmp_path):
    recorded = json.loads(golden.DIGESTS.read_text(encoding="utf-8"))
    current = golden.digests(golden.run_calls(tmp_path))
    changed = [f"{call}\n  recorded {recorded['calls'].get(call)}\n  current  {digest}"
               for call, digest in current.items() if recorded["calls"].get(call) != digest]
    assert not changed and list(recorded["calls"]) == list(current), (
        f"recorded with {recorded['versions']}, running {golden.versions()}; "
        f"after an intended change, rerun {_SCRIPT.name} and name each changed call in CHANGES.md:\n"
        + "\n".join(changed or ["the call list differs from the recorded one"]))
