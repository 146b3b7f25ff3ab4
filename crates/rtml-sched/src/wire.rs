//! Scheduler messages that cross node boundaries (over the fabric).

use rtml_common::codec::{Codec, Reader, Writer};
use rtml_common::error::{Error, Result};
use rtml_common::ids::NodeId;
use rtml_common::task::TaskSpec;

use crate::msg::LoadReport;

/// Fabric-borne scheduler protocol. Tasks travel in batches only — one
/// task is a batch of one — and only from a local scheduler to a global
/// one and back: nothing moves work between two local schedulers. Tags 0
/// and 1 were the single-task `Spill` and `Place`, tags 2 and 5 the
/// `Load` and `SpillBatch` that carried no ingest count, tags 7 and 8
/// the work-stealing request and grant; they are retired, not reused, so
/// an old frame fails to decode. Tags 0–2 are the object plane's too: a
/// node reads both protocols from one mailbox and tells them apart by
/// the first byte (`rtml_store::PlaneCore::takes`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SchedWire {
    /// Local → global: periodic load report, addressed to one shard.
    Load {
        /// The node's load as measured.
        report: LoadReport,
        /// `PlaceBatch` tasks the node has ingested from the shard this
        /// frame is addressed to, ever — measured in the same turn as
        /// `report`, so every one of them is in it.
        ingested: u64,
    },
    /// A node joined or recovered; `sched_address` is the raw fabric
    /// address of its local scheduler.
    NodeUp {
        /// The node.
        node: NodeId,
        /// Raw fabric address ([`rtml_net::NetAddress::as_u64`]).
        sched_address: u64,
    },
    /// A node left the cluster (failure injection or shutdown).
    NodeDown {
        /// The node.
        node: NodeId,
    },
    /// Local → global: "these tasks exceed my capacity or backlog" —
    /// a whole batch forwarded as one length-prefixed frame, so a burst
    /// pays one fabric hop instead of one per task. The frame carries
    /// its sender's load as measured when it spilled, so the batch is
    /// never placed back against an older report of the sender.
    SpillBatch {
        /// The spilled tasks.
        specs: Vec<TaskSpec>,
        /// The sender's load, the spilled tasks already gone from it.
        load: LoadReport,
        /// As in [`SchedWire::Load`], for the shard addressed.
        ingested: u64,
    },
    /// Global → local: "run these tasks on your node" — the placements
    /// onto one node coalesced into a single frame. `hops` counts global
    /// placements for every task in the batch (they travelled together),
    /// bounding spill/place ping-pong.
    PlaceBatch {
        /// The tasks being placed.
        specs: Vec<TaskSpec>,
        /// Number of global placements so far.
        hops: u32,
    },
}

impl Codec for SchedWire {
    fn encode(&self, w: &mut Writer) {
        match self {
            SchedWire::Load { report, ingested } => {
                w.put_u8(9);
                report.encode(w);
                w.put_varint(*ingested);
            }
            SchedWire::NodeUp {
                node,
                sched_address,
            } => {
                w.put_u8(3);
                node.encode(w);
                w.put_u64(*sched_address);
            }
            SchedWire::NodeDown { node } => {
                w.put_u8(4);
                node.encode(w);
            }
            SchedWire::SpillBatch {
                specs,
                load,
                ingested,
            } => {
                w.put_u8(10);
                specs.encode(w);
                load.encode(w);
                w.put_varint(*ingested);
            }
            SchedWire::PlaceBatch { specs, hops } => {
                w.put_u8(6);
                specs.encode(w);
                w.put_u32(*hops);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(match r.take_u8()? {
            3 => SchedWire::NodeUp {
                node: NodeId::decode(r)?,
                sched_address: r.take_u64()?,
            },
            4 => SchedWire::NodeDown {
                node: NodeId::decode(r)?,
            },
            6 => SchedWire::PlaceBatch {
                specs: Vec::<TaskSpec>::decode(r)?,
                hops: r.take_u32()?,
            },
            9 => SchedWire::Load {
                report: LoadReport::decode(r)?,
                ingested: r.take_varint()?,
            },
            10 => SchedWire::SpillBatch {
                specs: Vec::<TaskSpec>::decode(r)?,
                load: LoadReport::decode(r)?,
                ingested: r.take_varint()?,
            },
            other => return Err(Error::Codec(format!("invalid SchedWire tag {other}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtml_common::codec::{decode_from_slice, encode_to_bytes};
    use rtml_common::ids::{DriverId, FunctionId, ObjectId, TaskId};
    use rtml_common::resources::Resources;

    fn spec() -> TaskSpec {
        let root = TaskId::driver_root(DriverId::from_index(0));
        TaskSpec::simple(root.child(0), FunctionId::from_name("f"), vec![])
    }

    #[test]
    fn all_variants_round_trip() {
        let report = LoadReport {
            node: NodeId(1),
            sched_address: 9,
            ready: 1,
            waiting: 0,
            running: 2,
            idle_workers: 3,
            available: Resources::cpu(2.0),
            total: Resources::cpu(4.0),
            at_nanos: 7,
        };
        for msg in [
            SchedWire::Load {
                report: report.clone(),
                ingested: 300,
            },
            SchedWire::NodeUp {
                node: NodeId(5),
                sched_address: 99,
            },
            SchedWire::NodeDown { node: NodeId(5) },
            SchedWire::SpillBatch {
                specs: vec![spec(), spec()],
                load: report.clone(),
                ingested: 4,
            },
            SchedWire::SpillBatch {
                specs: vec![],
                load: report.clone(),
                ingested: 0,
            },
            SchedWire::PlaceBatch {
                specs: vec![spec(), spec(), spec()],
                hops: 3,
            },
        ] {
            let bytes = encode_to_bytes(&msg);
            // A node's mailbox carries this protocol and the object plane's.
            assert!(!rtml_store::PlaneCore::takes(&bytes), "{msg:?}");
            let back: SchedWire = decode_from_slice(&bytes).unwrap();
            assert_eq!(msg, back);
        }
        // The single-task frames' tags stay retired.
        for tag in [0u8, 1] {
            let mut w = Writer::with_capacity(64);
            w.put_u8(tag);
            spec().encode(&mut w);
            w.put_u32(2);
            assert!(decode_from_slice::<SchedWire>(&w.into_bytes()).is_err());
        }
        // So do the load and spill frames that carried no ingest count:
        // each old frame, byte for byte, is an error, not a misdecode.
        let mut load = Writer::with_capacity(64);
        load.put_u8(2);
        report.encode(&mut load);
        let mut spill = Writer::with_capacity(64);
        spill.put_u8(5);
        vec![spec(), spec()].encode(&mut spill);
        // And so do the steal request and grant, as they were encoded.
        let mut request = Writer::with_capacity(64);
        request.put_u8(7);
        NodeId(2).encode(&mut request);
        request.put_u64(77);
        Resources::new(3.0, 1.0).encode(&mut request);
        request.put_u32(8);
        Vec::<ObjectId>::new().encode(&mut request);
        let mut grant = Writer::with_capacity(64);
        grant.put_u8(8);
        NodeId(3).encode(&mut grant);
        vec![spec(), spec()].encode(&mut grant);
        let old = [load, spill, request, grant];
        for old in old.map(Writer::into_bytes) {
            assert!(decode_from_slice::<SchedWire>(&old).is_err());
        }
    }
}
