"""Analog fountain code library.

Rateless real-valued coding over AWGN: weighted sparse encoding of BPSK
symbols, belief-propagation decoding, high-rate LDPC precoding, weight-set
design analysis, and a reproducible Monte Carlo experiment harness.
"""

from .channel import ChannelParams, capacity_bits, pair_complex, snr_to_sigma, transmit
from .core import (
    DegreeDistribution,
    EncoderPolicy,
    FactorGraph,
    InvalidConfigurationError,
    Selection,
    WeightAssignment,
    WeightSet,
    bits_to_bpsk,
    build_graph,
    encode,
    power_scale,
    reciprocal_prime_weights,
    reciprocal_weights,
    weight_second_moment,
    zero_sum_row_template,
)

__version__ = "0.1.0"
