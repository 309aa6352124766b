"""Transfer-matrix simulation and bandwidth optimization of multi-chamber
micro-perforated-panel sound absorbers."""

from .acoustics import (
    AIR,
    AreaChange,
    ElementChain,
    Medium,
    Mpp,
    MppPanel,
    SingularConfigurationError,
    StraightPipe,
    TransferMatrix,
    absorption_at,
    absorption_spectrum,
    chain_matrix,
    element_matrix,
    mpp_normalized_impedance,
    perforate_constant,
)
from .annealing import (
    AnnealingSchedule,
    OptimizationResult,
    accept,
    anneal,
    anneal_multi,
    neighbor,
    objective,
)
from .configio import (
    ConfigError,
    RunConfig,
    SingleChamberStructure,
    ThreeChamberStructure,
    dump_config,
    load_config,
)
from .spectrum import (
    DEFAULT_GRID,
    AbsorptionSpectrum,
    EffectiveBand,
    FrequencyGrid,
    effective_band,
    effective_bands,
    octave_bands,
)
from .structure import (
    BASELINE_DESIGN,
    BOUNDS_MM,
    DEFAULT_MPPS,
    OPTIMIZED_DESIGN,
    BoundViolation,
    DesignVector,
    MppSet,
    MppSpec,
    build_chain,
    single_chamber_chain,
    validate_bounds,
)

__version__ = "0.1.0"
