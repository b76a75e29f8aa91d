"""HDFS-style control path: NameNode, clients, RaidNode, MapReduce.

Models Facebook's HDFS + HDFS-RAID stack (Section IV) at the level the
paper's experiments need:

* :mod:`repro.hdfs.namenode` — block metadata, the pluggable placement
  policy, and the pre-encoding store.
* :mod:`repro.hdfs.client` — the replication write pipeline and reads.
* :mod:`repro.hdfs.encoder` — the per-stripe encoding operation (download
  k blocks, upload n-k parity, trim replicas) as a simulation process.
* :mod:`repro.hdfs.mapreduce` — JobTracker/TaskTracker with map slots and
  locality scheduling, including the paper's core-rack pinning of encoding
  jobs.
* :mod:`repro.hdfs.raidnode` — groups sealed stripes into encoding jobs
  (with preferred nodes per map task) and drives recovery planning.
"""

from repro.hdfs.client import CFSClient, WriteResult
from repro.hdfs.encoder import StripeEncoder
from repro.hdfs.files import FileMetadata, FileNamespace, read_file, write_file
from repro.hdfs.mapreduce import JobTracker, MapReduceJob, MapTask, TaskTracker
from repro.hdfs.namenode import NameNode
from repro.hdfs.raidnode import EncodingJobSpec, RaidNode

__all__ = [
    "CFSClient",
    "EncodingJobSpec",
    "FileMetadata",
    "FileNamespace",
    "JobTracker",
    "MapReduceJob",
    "MapTask",
    "NameNode",
    "RaidNode",
    "StripeEncoder",
    "TaskTracker",
    "WriteResult",
    "read_file",
    "write_file",
]
