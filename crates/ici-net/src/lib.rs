//! Discrete-event network simulation substrate.
//!
//! The paper's evaluation compares storage strategies on simulated
//! wide-area networks; this crate is that simulator:
//!
//! * [`time`] — microsecond virtual clock types;
//! * [`node`] — dense node identifiers;
//! * [`topology`] — 2-D latency-space placement (uniform or regional);
//! * [`link`] — propagation + serialization + deterministic jitter;
//! * [`queue`] — the deterministic discrete-event queue;
//! * [`metrics`] — per-class, per-node traffic metering;
//! * [`cost`] — CPU cost model for verification and execution;
//! * [`network`] — the facade protocols send through, with crash/recover
//!   failure injection;
//! * [`faults`] — deterministic message faults (drop, delay, duplicate,
//!   partition) on the send path, driven by the `ici-faults` schedules.
//!
//! # Examples
//!
//! ```
//! use ici_net::link::LinkModel;
//! use ici_net::metrics::MessageKind;
//! use ici_net::network::Network;
//! use ici_net::node::NodeId;
//! use ici_net::queue::EventQueue;
//! use ici_net::topology::{Placement, Topology};
//!
//! let topo = Topology::generate(16, &Placement::default(), 42);
//! let mut net = Network::new(topo, LinkModel::default());
//! let mut queue = EventQueue::new();
//!
//! // One simulated transmission: schedule its delivery event.
//! let from = NodeId::new(0);
//! let to = NodeId::new(5);
//! if let Some(delay) = net.send(from, to, MessageKind::BlockHeader, 145).delay() {
//!     queue.schedule(queue.now() + delay, (to, "header"));
//! }
//! let (arrival, (node, what)) = queue.pop().expect("scheduled");
//! assert_eq!((node, what), (to, "header"));
//! assert!(arrival > ici_net::time::SimTime::ZERO);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod faults;
pub mod link;
mod liveness;
pub mod metrics;
pub mod network;
pub mod node;
pub mod queue;
pub mod time;
pub mod topology;

pub use faults::{FaultConfig, MessageFaultSpec, PartitionSpec, SendFault};
pub use link::LinkModel;
pub use metrics::{MessageKind, TrafficMeter};
pub use network::{Network, SendOutcome};
pub use node::NodeId;
pub use queue::EventQueue;
pub use time::{Duration, SimTime};
pub use topology::{Coord, Placement, Topology};
