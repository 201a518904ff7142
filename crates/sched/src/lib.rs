//! Scheduling policies for the GPU execution engine.
//!
//! The paper separates mechanisms from policies (§3): the execution engine
//! (crate `gpreempt-gpu`) provides preemption and per-SM assignment, and the
//! policies in this crate decide *when* and *where* kernels run:
//!
//! * [`FcfsPolicy`] — the baseline behaviour of current GPUs (§2.3),
//! * [`NpqPolicy`] — non-preemptive priority queues,
//! * [`PpqPolicy`] — preemptive priority queues, in exclusive-access and
//!   shared-access variants (§4.2, §4.3),
//! * [`DssPolicy`] — Dynamic Spatial Sharing, the token-based dynamic
//!   partitioning policy (§3.4, Algorithm 1),
//! * [`GcapsPolicy`] — context-aware preemptive priority scheduling
//!   (Wang et al. 2024): deadline-refined urgency plus a preemption-cost
//!   gate fed by the engine's online estimates,
//! * [`EdfPolicy`] — the earliest-deadline-first real-time baseline,
//! * [`RoundRobinPolicy`] — quantum-driven time slicing: FCFS placement
//!   plus SM rotation toward starved co-runners on every quantum tick.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod dss;
pub mod edf;
pub mod fcfs;
pub mod gcaps;
pub mod policy;
pub mod priority;
pub mod rr;
#[cfg(test)]
pub(crate) mod testutil;

pub use dss::DssPolicy;
pub use edf::EdfPolicy;
pub use fcfs::FcfsPolicy;
pub use gcaps::GcapsPolicy;
pub use policy::{assign_idle_sms, ReleaseInfo, SchedulingPolicy};
pub use priority::{NpqPolicy, PpqAccess, PpqPolicy};
pub use rr::RoundRobinPolicy;

#[cfg(test)]
mod proptests;
