"""Pipelined archival encoding: a RapidRAID-style transition strategy.

Instead of downloading ``k`` replicated blocks to one encoder node (the
paper's Section II-A operation), the pipeline visits a replica holder of
each block in turn, folds that block into a running partial GF(2^8)
combination, and forwards the partial to the next hop — so parity
materialises *en route* and the only whole-stripe transfer left is the
final parity delivery.  Hops are grouped by rack so partial-combination
traffic stays on top-of-rack links; under EAR placement the whole
pipeline collapses into the core rack and crosses the core zero times.

Layers (each importable on its own):

* :mod:`repro.pipeline.gfstream` — :func:`pipelined_parity`, the streaming
  plane's block-view encoder run in hop order with per-hop billing,
  byte-identical to :meth:`~repro.erasure.codec.ErasureCodec.encode` by
  construction.
* :mod:`repro.pipeline.planner` — :func:`plan_pipeline`, the
  topology-aware hop ordering over the replica placement.
* :mod:`repro.pipeline.encoder` — :class:`PipelinedEncoder`, a
  :class:`~repro.hdfs.encoder.StripeEncoder` whose attempts stream
  chunked hop transfers; the abort → retry → re-plan ladder and the
  journalled parity commit are the inherited ones, the last rung falls
  back to the inherited download-and-encode.
* :mod:`repro.pipeline.metrics` — :class:`PipelineMetrics`, per-hop
  traffic and GF-work attribution.
* :mod:`repro.pipeline.headtohead` — RR vs EAR vs pipelined comparison
  grids over the sweep executor.
"""

from repro.pipeline.encoder import PipelinedEncoder, PipelinedStripe
from repro.pipeline.gfstream import pipelined_parity
from repro.pipeline.headtohead import (
    CONTENDER_CONFIGS,
    CONTENDERS,
    head_to_head,
    head_to_head_rows,
    pipeline_trial,
)
from repro.pipeline.metrics import PipelineMetrics
from repro.pipeline.planner import (
    PipelineHop,
    PipelinePlan,
    plan_pipeline,
)

__all__ = [
    "CONTENDER_CONFIGS",
    "CONTENDERS",
    "PipelineHop",
    "PipelineMetrics",
    "PipelinePlan",
    "PipelinedEncoder",
    "PipelinedStripe",
    "head_to_head",
    "head_to_head_rows",
    "pipeline_trial",
    "pipelined_parity",
    "plan_pipeline",
]
