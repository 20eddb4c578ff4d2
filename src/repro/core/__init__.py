"""The paper's primary contribution: bounded-footprint, compact, *uniform*
samplers (Algorithms HB and HR), the SB baseline, the concise/counting
baselines they are contrasted with, and the merge procedures HBMerge and
HRMerge."""

from repro.core.concise import ConciseSampler
from repro.core.counting import CountingSampler
from repro.core.footprint import FootprintModel
from repro.core.histogram import CompactHistogram
from repro.core.hybrid_bernoulli import AlgorithmHB
from repro.core.hybrid_reservoir import AlgorithmHR
from repro.core.merge import hb_merge, hr_merge, merge_samples, merge_tree
from repro.core.multi_purge import MultiPurgeBernoulli
from repro.core.phases import SampleKind
from repro.core.sample import WarehouseSample
from repro.core.stratified_bernoulli import AlgorithmSB

__all__ = [
    "AlgorithmHB",
    "AlgorithmHR",
    "AlgorithmSB",
    "MultiPurgeBernoulli",
    "ConciseSampler",
    "CountingSampler",
    "CompactHistogram",
    "FootprintModel",
    "SampleKind",
    "WarehouseSample",
    "hb_merge",
    "hr_merge",
    "merge_samples",
    "merge_tree",
]
