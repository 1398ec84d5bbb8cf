"""deteval: dataset preparation, detection metrics, reference losses,
fixed-effect statistics, and desirability-based model selection for
object-detection studies.

Importing the package loads none of its modules: each public name is
imported from its module on first access (PEP 562)."""

import importlib

__version__ = "0.1.0"

# The public names of each module that the package exports.
_EXPORTS = {
    "annotations": """AnnotationError BoundingBox ClassLabel ClassRegistry RegistryError
        format_yolo_rows giou iou yolo_rows""".split(),
    "desirability": """Candidate DesirabilityProfile RankedCandidate ResponseGoal desirability_of
        overall_desirability select_best""".split(),
    "losses": """CellPrediction CellTarget LossConfig classification_loss giou_loss hard_swish
        objectness_loss swish""".split(),
    "metrics": """ConfusionMatrix EvalSample EvaluationReport HeightRecord MetricValue PRCurve
        average_precision bag_based_accuracy evaluate_detections load_height_records
        mean_average_precision pr_curve""".split(),
    "prep": """AugmentOp AugmentPipeline SplitRatio SplitResult TileRect TileSpec augment plan_tiles
        retile_annotations sample_ids split_dataset""".split(),
    "stats": """AnovaResult ObservationTable SampleStats SWResult TTestResult anova_oneway describe
        f_sf reg_inc_beta shapiro_wilk t_test_pairwise""".split(),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

# The modules themselves are public too.
__all__ = sorted([*_EXPORTS, *_MODULE_OF])


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
