"""rateconv: feedforward value networks as rate-coded spiking networks.

Build or load a network, collect activation statistics, rescale the
parameters, simulate the integrate-and-fire conversion, and measure how
often it picks the same action as the original.
"""

from .network import (LayerSpec, NetworkSpec, ValidationResult, conv2d, dense, flatten,
                      forward_batch, greedy_action, validate_network)
from .modelio import (BlobError, EpisodeTrace, FormatError, ManifestError, ReportRow,
                      TraceError, TraceReader, load_frames, load_model, read_blob,
                      read_trace, save_model, step_dtype, write_blob, write_report,
                      write_trace)
from .normalize import (NormConfig, NormStats, apply_normalization, collect_stats,
                        load_stats, percentile, save_stats)
from .simulate import (SimConfig, SimResult, diagnostics, layer_identity_residual, readout,
                       robust_readout, run, run_batch)
from .lincatch import LineCatchEnv, optimal_network
from .evaluate import (ActionAgreement, AnalogAgent, ConversionReport, EvalConfig,
                       PlayRecord, SpikingAgent, collect_frames_by_play,
                       conversion_rate, derive_seed, evaluate, mean_std, pearson,
                       replay_trace, sweep_percentile, sweep_time)

__version__ = "0.1.0"
