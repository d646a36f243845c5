"""Eigen-inference CSI cleaning and coarsely quantized precoding for
massive MU-MIMO downlinks.

Layers (bottom-up): spectral transforms (:mod:`eiprecode.rmt`), channel
generation and corruption (:mod:`eiprecode.channel`), blind CSI-error
estimation (:mod:`eiprecode.eta`), rotation-invariant cleaning
(:mod:`eiprecode.rie`), quantized precoding (:mod:`eiprecode.precoding`),
the link-level Monte-Carlo engine (:mod:`eiprecode.linksim`), experiment
drivers (:mod:`eiprecode.experiments`) and the command-line front end
(:mod:`eiprecode.cli`).
"""

from .channel import (
    CorruptionModel,
    GramEig,
    SystemDims,
    build_bsca,
    corrupt,
    gen_channel,
    gen_error,
    gram_eig,
)
from .eta import (
    EstimatorConfig,
    EtaEstimate,
    empirical_moments,
    estimate_eta,
)
from .experiments import (
    ExperimentResult,
    run_experiment,
    threshold_crossing,
)
from .linksim import (
    Aggregate,
    SimConfig,
    TrialMetrics,
    demodulate,
    downlink_trial,
    modulate,
    monte_carlo,
    wilson_interval,
)
from .precoding import (
    PrecodeOutput,
    QuantizerSpec,
    bussgang_gain,
    optimal_step,
    precode,
    quantize,
    transmit,
    wf_precode,
    wfq_precode,
)
from .rie import (
    clean_channel,
    eig_bsca,
    linear_mmse_baseline,
    local_stieltjes,
    mse,
    reconstruct,
    shrink_eigenvalue,
)
from .rmt import (
    bsca_density,
    bsca_stieltjes,
    bsca_support,
    empirical_stieltjes,
    free_cumulants,
    moments_from_cumulants,
    mp_stieltjes,
    noisy_gram_cumulants_theory,
    noisy_gram_stieltjes,
    r_transform_aux,
    r_transform_noisy_aux,
)

__version__ = "0.1.0"
