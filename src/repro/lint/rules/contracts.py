"""REP2xx — registry and spec contract rules (project-level).

These rules cross-check *live* metadata against the code that consumes
it: registration metadata vs. factory signatures
(:meth:`repro.registry.Registry.contract_problems`) and the golden spec
files vs. the registered component set.  They run once per lint
invocation, not per file.  (The spec validator reads its schema off the
spec dataclasses themselves, so it has no field tables to drift.)
"""

from __future__ import annotations

import glob
import os
from typing import List

from repro.lint.findings import Finding


class ProjectRule:
    """Base class for repo-level rules: ``check(root)`` → findings."""

    id: str = ""
    title: str = ""
    rationale: str = ""

    def check(self, root: str) -> List[Finding]:
        raise NotImplementedError

    def _finding(self, path: str, message: str, line: int = 1) -> Finding:
        return Finding(
            rule=self.id, path=path, line=line, col=0, message=message
        )


class RegistryKwargContract(ProjectRule):
    """REP201: registration metadata consistent with factory signatures."""

    id = "REP201"
    title = "registry metadata disagrees with the factory signature"
    rationale = (
        "Registry.create filters kwargs to ComponentInfo.accepts before "
        "calling the factory: a default or extra_kwargs name the factory "
        "cannot actually take turns into a TypeError (or a silently "
        "dropped knob) at sweep time instead of at registration."
    )

    def check(self, root: str) -> List[Finding]:
        from repro.registry import registry

        path = os.path.join("src", "repro", "registry.py")
        return [
            self._finding(path, problem)
            for problem in registry.contract_problems()
        ]


class GoldenSpecsValid(ProjectRule):
    """REP203: golden specs validate against the live registry/schema."""

    id = "REP203"
    title = "golden spec fails schema or registry validation"
    rationale = (
        "the golden specs are CI's drift gate for the spec format: one "
        "naming an unregistered component or a retired field means the "
        "published artefact plans no longer run on this build."
    )

    def check(self, root: str) -> List[Finding]:
        from repro.experiments.specio import SpecValidationError, load_payload

        pattern = os.path.join(root, "tests", "golden_specs", "*.json")
        findings: List[Finding] = []
        for path in sorted(glob.glob(pattern)):
            rel = os.path.relpath(path, root)
            try:
                load_payload(path)
            except SpecValidationError as error:
                for problem in error.errors:
                    findings.append(self._finding(rel, problem))
        return findings


CONTRACT_RULES = (
    RegistryKwargContract(),
    GoldenSpecsValid(),
)
