//! # fg-dist — the Forgiving Graph as a message-passing protocol
//!
//! The distributed face of *The Forgiving Graph* (Hayes, Saia, Trehan;
//! PODC 2009, [arXiv:0902.2501]) and the subject of its Lemma 4: repairing
//! a deletion of a degree-`d` node takes `O(d log n)` messages of
//! `O(log n)` bits each, in `O(log d · log n)` rounds.
//!
//! A [`Network`] is a set of per-node actors exchanging typed messages
//! through a deterministic round-based scheduler. Each actor owns exactly
//! the virtual tree nodes its processor simulates (paper Table 1); a
//! deletion triggers the repair choreography — failure detection from the
//! victim's replicated will, an upward taint climb, the shatter walk that
//! strips the broken reconstruction trees into complete fragments, bucket
//! routing, and the bottom-up `BT_v` merge, whose blueprint is the *same*
//! pure `fg_core::plan::plan_compute_haft` computation the sequential
//! engine executes. That shared planner is what makes the two
//! implementations provably convergent: the differential suite replays
//! identical adversarial traces through both and asserts image, ghost and
//! forest equality after every event.
//!
//! The scheduler is one sequential round loop. Each round delivers its
//! messages in a canonical total order, and the loop visits only the
//! processors a repair touches, so simulating a repair costs the order of
//! the messages Lemma 4 counts rather than the size of the network
//! (DESIGN.md §9).
//!
//! Every repair returns a [`RepairCost`] with the Lemma 4 observables —
//! message count, rounds, total bits, and the largest single message —
//! plus normalizations against the paper envelopes. See DESIGN.md §3–§4
//! for the protocol walkthrough and the simulator's modelling assumptions
//! (what the will covers, which messages are free, how rounds are
//! counted).
//!
//! [arXiv:0902.2501]: https://arxiv.org/abs/0902.2501
//!
//! ## Example
//!
//! ```
//! use fg_core::{ForgivingGraph, PlacementPolicy};
//! use fg_dist::Network;
//! use fg_graph::{generators, NodeId};
//!
//! // The protocol and the sequential engine converge to identical state.
//! let g = generators::star(17);
//! let mut net = Network::from_graph(&g, PlacementPolicy::Adjacent);
//! let mut fg = ForgivingGraph::from_graph(&g)?;
//! let cost = net.delete(NodeId::new(0))?;
//! fg.delete(NodeId::new(0))?;
//! assert_eq!(net.image(), fg.image());
//! // Lemma 4: messages O(d log n), every message O(log n) bits.
//! assert!(cost.normalized_messages() < 16.0);
//! assert!(cost.max_message_bits <= 16 * 5);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cost;
mod healer;
mod message;
mod network;
mod processor;

pub use cost::RepairCost;
pub use healer::DistHealer;
pub use network::Network;
