"""The rule inventory must not go stale (ISSUE 10 satellite).

PR 4 hard-coded "RP1xx protocol rules, RP3xx harness rules" in the
package docstring and it rotted the moment RP2xx landed in the listing.
The fix is structural: the registry is the source of truth, the CLI
``--list-rules`` table is generated from it, and these tests assert
that every human-facing inventory (README's rule table, the package
docstring's family overview) covers every registered code.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import repro.lint
from repro.lint import AST_RULES, FLOW_RULES, all_rules, rule_table

README = Path(__file__).resolve().parents[2] / "README.md"


class TestRegistryIsSourceOfTruth:
    def test_list_rules_table_is_generated_from_registry(self):
        rows = rule_table()
        assert [code for code, _, _ in rows] == sorted(all_rules())
        kinds = {kind for _, kind, _ in rows}
        assert kinds == {"ast", "contract", "flow"}

    def test_registered_families_are_complete(self):
        codes = set(all_rules())
        assert set(AST_RULES) <= codes
        assert set(FLOW_RULES) <= codes
        assert {
            "RP201", "RP202", "RP203", "RP204", "RP205"
        } <= codes

    def test_every_registered_code_appears_in_readme(self):
        readme = README.read_text(encoding="utf-8")
        documented = set(re.findall(r"\bRP\d{3}\b", readme))
        missing = set(all_rules()) - documented
        assert not missing, (
            f"README rule table is missing {sorted(missing)}: update the "
            "'Rule inventory' section"
        )

    def test_docstring_mentions_every_family(self):
        doc = repro.lint.__doc__ or ""
        families = {code[:3] + "xx" for code in all_rules()}
        missing = {f for f in families if f not in doc}
        assert not missing, (
            f"repro.lint docstring does not mention {sorted(missing)}"
        )

    def test_the_engine_alone_registers_every_rule(self):
        """A fresh interpreter that imports only ``repro.lint.engine``
        (the package ``__init__`` imports no rule module) still lists
        every rule: ``all_rules()`` imports the rule modules itself."""
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        done = subprocess.run(
            [sys.executable, "-c",
             "from repro.lint.engine import all_rules; print(*all_rules())"],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        assert done.stdout.split() == [
            "RP101", "RP102", "RP103", "RP104", "RP105",
            "RP201", "RP202", "RP203", "RP204", "RP205",
            "RP301", "RP302", "RP303",
            "RP401", "RP402", "RP403",
            "RP501", "RP502",
        ]
