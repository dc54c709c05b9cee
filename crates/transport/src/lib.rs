//! # srm-transport — SRM over live UDP sockets
//!
//! The bridge from reproduction to system: a wall-clock runtime that hosts
//! the *unmodified* [`SrmAgent`](srm::SrmAgent) — the exact protocol engine
//! every simulated figure runs — on real `std::net::UdpSocket`s, through
//! the [`srm::Driver`] seam.
//!
//! Pieces:
//!
//! - [`WallClock`]: monotonic elapsed time on the simulator's
//!   [`SimTime`](netsim::SimTime) axis.
//! - [`TimerWheel`]: min-heap one-shot timers with lazy cancellation — the
//!   real-time stand-in for the simulator's event queue.
//! - [`Envelope`]: the datagram frame carrying the simulator packet
//!   metadata (source, TTL, scope, flow) around the untouched
//!   [`srm::wire`] message encoding.
//! - `session.rs`: the one session core both hosts run — a `Session`
//!   (agent, timer wheel, seeded RNG, send filters, the single
//!   [`srm::Driver`] implementation), its send half, the GRO frame walker,
//!   the reactor loop and the supervised receive loop.
//! - [`ChaosPlan`] / [`ChaosState`]: scripted send-side faults — seeded
//!   loss, duplication, corruption and reordering, blackhole windows, and
//!   RNG-free drops of the nth frame of a flow for recovery tests.
//! - [`Node`] / [`NodeHandle`]: one session on its own socket — receive
//!   thread feeding a channel, reactor interleaving datagrams with
//!   [`TimerWheel`] deadlines.
//! - [`Hub`] / [`HubHandle`]: many sessions behind one shared socket,
//!   demuxed by group id to shard reactors running the same core.
//! - [`Mode`]: real IP multicast (`join_multicast_v4`) or a unicast
//!   loopback mesh (the CI-friendly stand-in for group delivery).
//! - [`Harness`]: in-process multi-node loopback sessions.
//!
//! The `srm-node` binary wraps all of this in a CLI (`join` / `send`,
//! `--trace FILE` for obs JSONL timelines); `srm-hub` wraps the hub.
//!
//! ## Example: two members on loopback
//!
//! ```no_run
//! use srm_transport::Harness;
//! use srm::{SrmConfig, SourceId, PageId};
//! use netsim::GroupId;
//! use bytes::Bytes;
//!
//! let cfg = SrmConfig::fixed(2);
//! let h = Harness::loopback(2, GroupId(1), &cfg, |_, _, _| {}).unwrap();
//! let page = PageId::new(SourceId(1), 0);
//! h.nodes[0].send_data(page, Bytes::from_static(b"over real sockets"));
//! std::thread::sleep(std::time::Duration::from_millis(200));
//! assert_eq!(h.nodes[1].take_delivered().len(), 1);
//! ```

// `deny`, not `forbid`: the one FFI module (`batch::ffi`, the
// recvmmsg/sendmmsg declarations) carries a scoped allow; everything else
// stays safe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod chaos;
pub mod clock;
pub mod control;
pub mod envelope;
pub mod harness;
pub mod hub;
pub mod monitor;
pub mod pool;
pub mod runtime;
mod session;
pub mod shard;
pub mod soak;
pub mod supervise;
pub mod wheel;

pub use batch::{
    configure_socket_buffers, enter_batch_scheduling, make_backend, BatchOptions, BatchSocket,
    PortableSocket, RecvFrame, SendFrame,
};
pub use chaos::{parse_spec, ChaosPlan, ChaosState, DelayQueue};
pub use clock::WallClock;
pub use control::{handle_line, parse_command, Command, GroupSpec};
pub use envelope::{Envelope, EnvelopeError, EnvelopeView};
pub use harness::{harvest_summary, harvest_timeline, Harness};
pub use hub::{shard_of, CreateOutcome, Hub, HubHandle, HubOptions, HubStats};
pub use monitor::{GroupMonitor, MemberHealth};
pub use pool::{BufferPool, PoolBuf};
pub use runtime::{Mode, Node, NodeHandle, NodeOptions, StoreOptions, TransportStats};
pub use shard::{group_seed, DrainOutcome, GroupStats};
pub use soak::{SoakOptions, SoakReport};
pub use supervise::{
    classify, run_supervised, ErrorClass, ExitReason, StepOutcome, SupervisePolicy,
    SupervisionEvent,
};
pub use wheel::TimerWheel;
