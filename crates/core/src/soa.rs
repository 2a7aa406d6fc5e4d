//! Struct-of-arrays hot node state.
//!
//! The dispatch loop's per-node reads — position, liveness, carrier
//! state, queue depth — used to be scattered across the big [`Node`]
//! assemblies (radios, MAC queues, AODV tables), so the grid-query →
//! candidate-filter → gain-lookup path and the metrics probe walked
//! pointer-rich structs for a handful of scalars each. [`HotState`]
//! splits exactly those fields into parallel arrays indexed by node id:
//! the hot path reads contiguous memory.
//!
//! The `busy`/`queue_len`/`alive` entries are *mirrors* of the
//! authoritative cold state, synced by the dispatcher after every
//! event (all mutations of a node's radio/MAC state happen while an
//! event addressed to that node is dispatched — `Simulator::sync_hot`
//! documents the one global exception). `positions`/`mobility` are
//! authoritative: the cold [`Node`] no longer carries movement state.
//!
//! [`Node`]: crate::node::Node

use pcmac_engine::{Point, SimTime};
use pcmac_mobility::Mobility;

/// The per-node parallel arrays the dispatch loop touches. All vectors
/// have length N.
#[derive(Debug)]
pub(crate) struct HotState {
    /// Current (possibly index-stale, see lazy refresh) position.
    pub(crate) positions: Vec<Point>,
    /// Movement model per node (authoritative; moved out of `Node`).
    pub(crate) mobility: Vec<Mobility>,
    /// Mirror of `!faults.down[i]` (all-true without a fault plan).
    pub(crate) alive: Vec<bool>,
    /// Mirror of `radio.carrier_busy()`.
    pub(crate) busy: Vec<bool>,
    /// Mirror of `mac.queue_len()`.
    pub(crate) queue_len: Vec<u32>,
    /// Last data-channel transmit power (mW); 0 before the first tx.
    pub(crate) tx_power_mw: Vec<f64>,
    /// Last instant the node was sampled *exactly* (lazy refresh).
    pub(crate) sampled_at: Vec<SimTime>,
    /// Active refresh deadline per node (lazy + grid mode).
    pub(crate) deadline: Vec<SimTime>,
    /// Per-node transmission-key counters: key = `(node << 32) | ctr`.
    pub(crate) tx_key_ctr: Vec<u32>,
}
