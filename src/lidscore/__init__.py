"""Design-storm generation, simplified runoff/quality simulation and
multi-criteria benefit ranking of LID stormwater scenarios."""

__version__ = "0.1.0"

from lidscore.ahp import (ConsistencyReport, PairwiseMatrix, WeightVector,
                          consistency, derive_weights)
from lidscore.errors import ConfigError, LidscoreError, ValidationError
from lidscore.evaluator import (BenefitReport, IndicatorTable, StormSummary,
                                TreeNode, WeightTree, check_normalized,
                                evaluate_environmental, facility_scores,
                                normalize, rollup)
from lidscore.hydrology import (HortonParams, LandUse, Link, Subcatchment,
                                composite_runoff_coefficient, horton_rate,
                                runoff_volume, simulate_subcatchment)
from lidscore.lid import (LidKind, LidPlacement, LidSpec, Scenario, area_proportions,
                          control_capacity, default_catalog, existing_capacity,
                          required_volume, simulate_lid_unit)
from lidscore.metrics import FitReport, nse, peak_stats
from lidscore.quality import PollutantSpec, buildup
from lidscore.storms import (Hyetograph, IdfParams, RainRecord, atrcr_curve,
                             chicago_hyetograph, design_storm_suite,
                             invert_atrcr)
