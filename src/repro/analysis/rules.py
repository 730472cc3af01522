"""The rule framework of the static analyzer.

A rule is one class: subclass :class:`SpecRule` (checks the problem
inputs — template, requirements, library — before encoding) or
:class:`ModelRule` (checks a built :class:`~repro.milp.model.Model`
before solving), fill in the class metadata (``rule_id``, severity,
trigger example and fix hint — the same strings ``docs/diagnostics.md``
catalogs), implement ``check`` (``check_scan`` for model rules, over the
shared array pass) as a generator of
:class:`~repro.analysis.diagnostics.Diagnostic`, and register it with the
``@spec_rule`` / ``@model_rule`` decorator.  The analyzer entry points in
:mod:`repro.analysis.analyzer` run every registered rule.
"""

from __future__ import annotations

import abc
from collections.abc import Iterator
from dataclasses import dataclass
from typing import ClassVar

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.model_scan import ModelScan
from repro.library.catalog import Library
from repro.milp.model import Model
from repro.network.requirements import (
    LifetimeRequirement,
    LinkQualityRequirement,
    ReachabilityRequirement,
    RequirementSet,
    RouteRequirement,
)
from repro.network.template import Template


@dataclass
class SpecContext:
    """Everything a spec-level rule may inspect."""

    template: Template
    library: Library | None = None
    routes: tuple[RouteRequirement, ...] = ()
    link_quality: LinkQualityRequirement | None = None
    lifetime: LifetimeRequirement | None = None
    reachability: ReachabilityRequirement | None = None

    @classmethod
    def build(
        cls,
        template: Template,
        requirements: RequirementSet | ReachabilityRequirement | None = None,
        library: Library | None = None,
    ) -> SpecContext:
        """Normalize the explorer inputs into a context.

        Accepts a full :class:`RequirementSet` (data-collection problems),
        a bare :class:`ReachabilityRequirement` (anchor placement), or
        ``None`` (template-only checks).
        """
        if isinstance(requirements, ReachabilityRequirement):
            return cls(template, library, reachability=requirements)
        if requirements is None:
            return cls(template, library)
        return cls(
            template,
            library,
            routes=tuple(requirements.routes),
            link_quality=requirements.link_quality,
            lifetime=requirements.lifetime,
            reachability=requirements.reachability,
        )


class Rule(abc.ABC):
    """Shared metadata of every analysis rule (see ``docs/diagnostics.md``)."""

    #: Stable identifier, ``spec.*`` or ``model.*`` namespaced.
    rule_id: ClassVar[str]
    #: Default severity of this rule's findings.
    default_severity: ClassVar[Severity]
    #: One-line description of what the rule checks.
    title: ClassVar[str]
    #: Example of a spec/model that triggers the rule (for the docs).
    example: ClassVar[str]
    #: Default fix hint attached to findings.
    hint: ClassVar[str]

    def diagnostic(
        self,
        message: str,
        *,
        location: str = "",
        severity: Severity | None = None,
        hint: str | None = None,
        **data: object,
    ) -> Diagnostic:
        """A finding of this rule, defaulting severity and hint."""
        return Diagnostic(
            rule_id=self.rule_id,
            severity=self.default_severity if severity is None else severity,
            message=message,
            location=location,
            hint=self.hint if hint is None else hint,
            data=dict(data),
        )


class SpecRule(Rule):
    """A rule over the problem inputs (template/requirements/library)."""

    @abc.abstractmethod
    def check(self, ctx: SpecContext) -> Iterator[Diagnostic]:
        """Yield findings for the given problem inputs."""


class ModelRule(Rule):
    """A rule over a built MILP model.

    Model rules read the model through one shared array pass
    (:class:`~repro.analysis.model_scan.ModelScan`) that
    :func:`~repro.analysis.analyzer.analyze_model` builds once for all
    of them; ``check`` builds a scan for a single rule.
    """

    @abc.abstractmethod
    def check_scan(self, scan: ModelScan) -> Iterator[Diagnostic]:
        """Yield findings from the model's array pass."""

    def check(self, model: Model) -> Iterator[Diagnostic]:
        """Yield findings for the given model."""
        return self.check_scan(ModelScan(model))


_SPEC_RULES: dict[str, SpecRule] = {}
_MODEL_RULES: dict[str, ModelRule] = {}


def spec_rule(cls: type[SpecRule]) -> type[SpecRule]:
    """Class decorator registering a :class:`SpecRule`."""
    rule = cls()
    if rule.rule_id in _SPEC_RULES:
        raise ValueError(f"duplicate rule id {rule.rule_id!r}")
    _SPEC_RULES[rule.rule_id] = rule
    return cls


def model_rule(cls: type[ModelRule]) -> type[ModelRule]:
    """Class decorator registering a :class:`ModelRule`."""
    rule = cls()
    if rule.rule_id in _MODEL_RULES:
        raise ValueError(f"duplicate rule id {rule.rule_id!r}")
    _MODEL_RULES[rule.rule_id] = rule
    return cls


def spec_rules() -> tuple[SpecRule, ...]:
    """All registered spec-level rules, in registration order."""
    return tuple(_SPEC_RULES.values())


def model_rules() -> tuple[ModelRule, ...]:
    """All registered model-level rules, in registration order."""
    return tuple(_MODEL_RULES.values())


def rule_catalog() -> tuple[Rule, ...]:
    """Every registered rule (spec first); drives the docs catalog."""
    return tuple(_SPEC_RULES.values()) + tuple(_MODEL_RULES.values())
