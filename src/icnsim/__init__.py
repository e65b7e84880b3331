"""Deterministic desk-scale simulator for integrated ICN/CDN slices.

An NDN forwarding engine (content store, pending interest table,
name-prefix FIB), a CDN-to-ICN gateway that fetches content over an
emulated IP side and publishes it chunk by chunk, slice orchestration
with per-domain resource quotas, and a seeded discrete-event network
that reproduces the delivery-time, throughput, load and resource-usage
measurements of the integrated architecture.
"""

from .forwarder import Counters, DuplicateFace, Forwarder, UnknownFace
from .gateway import EmptyCandidates, Gateway, OriginRef, PendingFetch, select_gateway
from .harness import SimRun, build_and_run, publish_bench, run_scenario
from .ndn import (Data, Interest, MalformedUri, Name, chunk_content, compute_digest,
                  data_wire_len, hash_stream, make_data)
from .orchestration import (DomainSpec, Flavor, Knobs, Orchestrator, QuotaExceeded,
                            SliceSpec, UnknownSlice, Vim, VnfSpec, slice_faults)
from .origin import (CdnOrigin, ContentObject, DuplicateContent, DuplicateVariant,
                     ResolutionProfile, UnknownContent, synthesize_payload)
from .scenario import Scenario, ScenarioError, load_scenario
from .simnet import (Host, HorizonExceeded, IpPopulation, Network, Population,
                     RequestRecord)

__version__ = "0.1.0"
