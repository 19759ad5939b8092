"""Cyclic-prefix-free frequency-domain equalization for coarsely quantized
massive MIMO uplinks: channel synthesis, quantizer design and Bussgang
linearization, overlap-save block equalization, complexity-optimal block
length selection, and a Monte-Carlo MSE/BER engine.
"""

from .blockopt import ComplexityParams, OptResult, optimal_block_length, per_symbol_cost
from .channel import (
    ChannelTaps,
    PowerDelayProfile,
    build_block_circulant,
    build_block_toeplitz,
    convolve_transmit,
    freq_channel,
    generate_channel,
)
from .fde import (
    FdeConfig,
    FilterBank,
    build_filter_bank,
    equalize_block,
    overlap_save_stream,
    time_domain_wf,
)
from .quant import (
    BussgangModel,
    QuantizerSpec,
    bussgang_model,
    design_quantizer,
    per_antenna_agc,
    quantize,
)
from .simulate import (
    SimConfig,
    SimReport,
    demap_symbols,
    ebn0_to_sigma_x2,
    map_symbols,
    per_position_error_profile,
    run_experiment,
)

__all__ = [
    "ChannelTaps",
    "PowerDelayProfile",
    "generate_channel",
    "build_block_toeplitz",
    "build_block_circulant",
    "freq_channel",
    "convolve_transmit",
    "QuantizerSpec",
    "BussgangModel",
    "design_quantizer",
    "quantize",
    "bussgang_model",
    "per_antenna_agc",
    "FdeConfig",
    "FilterBank",
    "build_filter_bank",
    "equalize_block",
    "overlap_save_stream",
    "time_domain_wf",
    "ComplexityParams",
    "OptResult",
    "per_symbol_cost",
    "optimal_block_length",
    "SimConfig",
    "SimReport",
    "map_symbols",
    "demap_symbols",
    "ebn0_to_sigma_x2",
    "run_experiment",
    "per_position_error_profile",
]

__version__ = "0.1.0"
