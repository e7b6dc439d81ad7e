"""The public surface: every exported name resolves, and removed ones stay gone."""

import ast
import importlib
import pkgutil
from pathlib import Path

import stochmech

SUBMODULES = [
    importlib.import_module(f"stochmech.{info.name}")
    for info in pkgutil.iter_modules(stochmech.__path__)
]

# deleted because no subcommand, criterion or caller tells them apart; each
# exception class became ParameterError or NumericError (README, "Removed public names");
# chsh_report_from_dict read back a report the package only writes;
# dirichlet_restricted_eigensystem rebuilt, on the global grid, the
# node-restricted spectrum that nodal_interval_modes gives; is_product and
# CompositeState.indices re-derived the shared-energy rule's one-term
# products, quadrature restated Grid.simpson @ (...), and
# chsh_report_to_dict restated ChshReport's fields; RegularizationError was
# handled as ParameterError, stationarity_distance is one entry of
# stationarity_distances, and the other dotted names were fields no code
# read or accessors only tests read; TrigDecomposition bucketed a QM
# series by rounded frequency, which qm_multitime_correlation's own double
# sum gives without the rounding
REMOVED = (
    "ArrangementDistribution",
    "ProductModel",
    "product_classical_model",
    "CompatibilityError",
    "DomainError",
    "EnvelopeError",
    "GridMismatchError",
    "InconsistentStateError",
    "NodeDetectionError",
    "chsh_report_from_dict",
    "dirichlet_restricted_eigensystem",
    "is_product",
    "CompositeState.indices",
    "quadrature",
    "chsh_report_to_dict",
    "RegularizationError",
    "stationarity_distance",
    "Ensemble.seed",
    "Ensemble.epsilon",
    "RegularizedDrift.epsilon",
    "RegularizedDrift.state",
    "ChannelDecomposition.state",
    "CorrelationSeries.method",
    "RegularizedDrift.patches",
    "CompositeState.coefficients",
    "NodePatch.curvature",
    "TrigDecomposition",
)


def _package_imports():
    tree = ast.parse(Path(stochmech.__file__).read_text())
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def _has(obj, dotted: str) -> bool:
    # a dataclass field without a default is no class attribute, so look in the fields too
    for part in dotted.split("."):
        if not (hasattr(obj, part) or part in getattr(obj, "__dataclass_fields__", ())):
            return False
        obj = getattr(obj, part, None)
    return True


def test_public_names_resolve_and_removed_names_are_gone():
    exported = [(stochmech, name) for name in _package_imports()]
    exported += [(mod, name) for mod in SUBMODULES for name in getattr(mod, "__all__", ())]
    assert len(exported) > 100
    unresolved = [f"{mod.__name__}.{name}" for mod, name in exported if not hasattr(mod, name)]
    assert unresolved == []
    present = [
        f"{mod.__name__}.{name}" for mod in (stochmech, *SUBMODULES) for name in REMOVED
        if _has(mod, name)
    ]
    assert present == []
