"""Golden CLI outputs: every call of tests/golden/regenerate.py prints what digests.json recorded."""

import importlib.util
import json
import re
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).with_name("golden") / "regenerate.py"
_spec = importlib.util.spec_from_file_location("golden_regenerate", _SCRIPT)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    return golden.run_calls(tmp_path_factory.mktemp("golden"))


def test_cli_outputs_match_golden_digests(results):
    recorded = json.loads(golden.DIGESTS.read_text(encoding="utf-8"))
    current = golden.digests(results)
    changed = [f"{call}\n  recorded {recorded['calls'].get(call)}\n  current  {digest}"
               for call, digest in current.items() if recorded["calls"].get(call) != digest]
    assert not changed and list(recorded["calls"]) == list(current), (
        f"recorded with {recorded['versions']}, running {golden.versions()}; "
        f"after an intended change, rerun {_SCRIPT.name} and name each changed call in CHANGES.md:\n"
        + "\n".join(changed or ["the call list differs from the recorded one"]))


def test_every_json_report_is_what_json_dumps_writes(results):
    # the report writer renders each payload in one walk; json re-renders its text unchanged
    texts = {f"{call} > {name}": data.decode("utf-8") for call, (_, _, _, files) in results.items()
             for name, data in files.items() if name.endswith(".json") and data is not None}
    texts |= {f"{call} > stdout": stdout for call, (_, stdout, _, _) in results.items() if stdout.startswith("{")}
    assert len(texts) > 30
    changed = [name for name, text in texts.items()
               if json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n" != text]
    assert not changed


# one error line; argparse's usage errors print the usage (wrapped lines indented) and prefix the prog name
_REFUSAL = re.compile(r"error: [^\n]+\n|usage: fdl [^\n]+\n(?: [^\n]*\n)*fdl: error: [^\n]+\n")


def test_successes_write_no_stderr_and_refusals_end_in_one_error_line(results):
    loud = [call for call, (code, _, stderr, _) in results.items() if code == 0 and stderr]
    unclear = [f"{call}\n  {stderr!r}" for call, (code, _, stderr, _) in results.items()
               if code == 1 and not _REFUSAL.fullmatch(stderr)]
    assert not loud and not unclear, "\n".join(loud + unclear)
    assert sum(stderr.startswith("usage: ") for _, _, stderr, _ in results.values()) == 4  # both forms occur
