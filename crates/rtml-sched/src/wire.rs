//! Scheduler messages that cross node boundaries (over the fabric):
//! work and load. Membership is not among them — it is the node table
//! (`rtml_store::TransferDirectory`), which the global scheduler reads.

use rtml_common::task::TaskSpec;

use crate::msg::LoadReport;

/// Fabric-borne scheduler protocol. Tasks travel in batches only — one
/// task is a batch of one — and only from a local scheduler to a global
/// one and back: nothing moves work between two local schedulers. There
/// is no membership message: the global scheduler reads who is alive,
/// and at which address, from the node table, and a node's first
/// `Load` announces it. Tags 0–8 are retired, not reused. Tags 0–2 are
/// the object plane's too: a node reads both protocols from one mailbox
/// and tells them apart by the first byte
/// (`rtml_store::PlaneCore::takes`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SchedWire {
    /// Local → global: periodic load report.
    Load {
        /// The node's load as measured.
        report: LoadReport,
        /// `PlaceBatch` tasks the node has ingested from the global
        /// scheduler, ever — measured in the same turn as `report`, so
        /// every one of them is in it.
        ingested: u64,
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
        /// As in [`SchedWire::Load`].
        ingested: u64,
    },
    /// Global → local: "run these tasks on your node" — the placements
    /// onto one node coalesced into a single frame.
    PlaceBatch {
        /// The tasks being placed.
        specs: Vec<TaskSpec>,
    },
}

rtml_common::impl_codec_enum!(SchedWire {
    9 => Load { report, ingested },
    10 => SpillBatch { specs, load, ingested },
    11 => PlaceBatch { specs },
});

#[cfg(test)]
mod tests {
    use super::*;
    use rtml_common::codec::{decode_from_slice, encode_to_bytes, Codec, Writer};
    use rtml_common::event::EventKind;
    use rtml_common::ids::{DriverId, FunctionId, NodeId, ObjectId, TaskId, WorkerId};
    use rtml_common::resources::Resources;
    use rtml_common::task::TaskState;

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
        // And so does the placement that carried a hop count.
        let mut place = Writer::with_capacity(64);
        place.put_u8(6);
        vec![spec(), spec()].encode(&mut place);
        place.put_u32(3);
        // And so do the membership frames: the node table says who is
        // alive.
        let mut up = Writer::with_capacity(64);
        up.put_u8(3);
        NodeId(5).encode(&mut up);
        99u64.encode(&mut up);
        let mut down = Writer::with_capacity(64);
        down.put_u8(4);
        NodeId(5).encode(&mut down);
        let old = [load, spill, request, grant, place, up, down];
        for old in old.map(Writer::into_bytes) {
            assert!(decode_from_slice::<SchedWire>(&old).is_err());
        }
    }

    /// Every strict prefix of `value`'s frame fails to decode — none is
    /// read as a shorter value — and so does the frame under tag 255,
    /// which no variant has, with an error naming the type.
    fn assert_frame_is_strict<T: Codec + std::fmt::Debug>(value: &T) {
        let frame = encode_to_bytes(value);
        for end in 0..frame.len() {
            assert!(
                decode_from_slice::<T>(&frame[..end]).is_err(),
                "{value:?} cut to {end} bytes decoded"
            );
        }
        let mut renamed = frame.to_vec();
        renamed[0] = u8::MAX;
        let name = std::any::type_name::<T>().rsplit("::").next().unwrap();
        let err = decode_from_slice::<T>(&renamed).unwrap_err().to_string();
        let want = format!("invalid {name} tag 255");
        assert!(err.contains(&want), "{err:?} does not say {want:?}");
    }

    #[test]
    fn every_strict_prefix_of_a_frame_and_an_unknown_tag_fail_to_decode() {
        let report = LoadReport {
            node: NodeId(1),
            sched_address: 1 << 40,
            ready: 300,
            waiting: 0,
            running: 2,
            idle_workers: 3,
            available: Resources::cpu(2.0).with_custom("tpu", 1.0),
            total: Resources::cpu(4.0),
            at_nanos: 7,
        };
        for msg in [
            SchedWire::Load {
                report: report.clone(),
                ingested: 300,
            },
            SchedWire::SpillBatch {
                specs: vec![spec(), spec()],
                load: report,
                ingested: 4,
            },
            SchedWire::PlaceBatch {
                specs: vec![spec()],
            },
        ] {
            assert_frame_is_strict(&msg);
        }

        let t = spec().task_id;
        let (o, n, w) = (t.return_object(0), NodeId(1), WorkerId::new(NodeId(1), 200));
        for kind in [
            EventKind::TaskSubmitted { task: t },
            EventKind::TaskQueuedLocal { task: t, node: n },
            EventKind::TaskSpilled { task: t, from: n },
            EventKind::TaskPlaced { task: t, node: n },
            EventKind::TaskStarted { task: t, worker: w },
            EventKind::TaskFinished {
                task: t,
                worker: w,
                micros: 1 << 20,
            },
            EventKind::TaskFailed {
                task: t,
                message: "boom".into(),
            },
            EventKind::TaskReconstructed {
                task: t,
                attempt: 2,
            },
            EventKind::ObjectSealed {
                object: o,
                node: n,
                size: 1 << 30,
            },
            EventKind::ObjectEvicted { object: o, node: n },
            EventKind::TransferStarted {
                object: o,
                from: n,
                to: NodeId(2),
            },
            EventKind::TransferFinished {
                object: o,
                to: n,
                micros: 300,
            },
            EventKind::WorkerLost { worker: w },
            EventKind::NodeLost { node: n },
            EventKind::NodeRestarted { node: n },
            EventKind::PrefetchIssued { object: o, node: n },
            EventKind::SpecSegmentCommitted {
                node: n,
                seq: 7,
                tasks: 4096,
                micros: 88,
            },
            EventKind::PlacementBatch {
                node: n,
                tasks: 256,
                micros: 9,
            },
            EventKind::BatchIngested {
                node: n,
                tasks: 256,
                micros: 42,
            },
        ] {
            assert_frame_is_strict(&kind);
        }

        for state in [
            TaskState::Submitted,
            TaskState::Queued(n),
            TaskState::Spilled,
            TaskState::Running(w),
            TaskState::Finished,
            TaskState::Failed("boom".into()),
            TaskState::Lost,
        ] {
            assert_frame_is_strict(&state);
        }
    }
}
