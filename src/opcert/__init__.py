"""Contraction-certified operator networks and supporting numerics.

Modules by theme:

* ``linalg``         -- validated matrices, certified SVD spectral norm,
                        Cholesky proof that a norm is under a bound
* ``transforms``     -- radix-2 FFT, circular convolution, orthonormal DWT;
                        the only home of the wavelet filter bank and of the
                        flattened coefficient layout (``WaveletDecomp``)
* ``multiscale``     -- budgeted Fourier/wavelet approximation and decay fits
* ``operator_net``   -- layers, forward evaluation, Lipschitz certification
* ``fixed_point``    -- Banach iteration with exponential-rate verification
* ``capacity``       -- linear-region counting against capacity lower bounds
* ``training``       -- gradient descent with weight decay and dropout
* ``parallel_bench`` -- Amdahl model plus a measured worker-pool benchmark
* ``cli``            -- the ``opcert`` command-line entry point
"""

__version__ = "0.1.0"

from .errors import (
    FixedPointDivergence,
    RegionBudgetExceeded,
    TrainingDiverged,
    WorkerResultMismatch,
)
from .linalg import spectral_norm
from .transforms import (
    WaveletDecomp,
    circular_conv_direct,
    circular_conv_fft,
    dft_naive,
    dwt,
    fft,
    idwt,
    inverse_fft,
)
from .multiscale import (
    ApproxReport,
    MultiScalePlan,
    approximate,
    decay_exponent,
    error_vs_budget_curve,
)
from .operator_net import (
    Activation,
    ContractionCertificate,
    DenseLayer,
    OperatorNet,
    SpectralLayer,
    WaveletGainLayer,
    certify_lipschitz,
    forward,
    forward_batch,
    load_net,
    net_from_json,
    net_to_json,
    normalize_to_contraction,
    save_net,
    stability_envelope,
)
from .fixed_point import (
    FixedPointReport,
    iterate_to_fixed_point,
    predict_iterations,
    verify_exponential_bound,
)
from .capacity import (
    RegionCount,
    count_regions_1d,
    count_regions_grid,
    montufar_lower_bound,
    sawtooth_net_1d,
)
from .training import (
    GenBoundInput,
    OperatorDataset,
    TrainConfig,
    TrainReport,
    apply_dropout,
    generalization_bound,
    grad,
    loss_total,
    make_antiderivative_dataset,
    run_experiment,
)
from .parallel_bench import (
    AmdahlModel,
    SpeedupRecord,
    amdahl_limit,
    amdahl_speedup,
    bench_batched_conv,
    scaling_study,
)
