//! # fg-metrics — measuring the Forgiving Graph's guarantees
//!
//! Executable versions of the paper's success metrics (Figure 1):
//!
//! 1. **Degree increase** — [`degree_stats`] / [`ratio_histogram`]
//!    (Theorem 1.1: factor ≤ 3; this implementation's hard envelope is 4,
//!    see DESIGN.md §2),
//! 2. **Network stretch** — [`stretch_exact`] / [`stretch_sampled`]
//!    (Theorem 1.2: factor ≤ ⌈log₂ n⌉),
//! 3. **Repair cost** — [`cost_stats`] over the engine's repair reports
//!    (Theorem 1.3: `O(d log n)` work),
//!
//! plus [`measure`] for one-call health summaries and [`Table`] for the
//! markdown tables the experiment binaries (DESIGN.md §5) print.
//!
//! ## Example
//!
//! ```
//! use fg_core::ForgivingGraph;
//! use fg_graph::{generators, NodeId};
//!
//! let mut fg = ForgivingGraph::from_graph(&generators::star(17))?;
//! fg.delete(NodeId::new(0))?;
//! let health = fg_metrics::measure(&fg);
//! assert!(health.connected);
//! assert!(health.stretch.max <= fg.stretch_bound() as f64);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod degree;
mod repair;
mod stretch;
mod summary;
mod table;

pub use degree::{degree_stats, ratio_histogram, DegreeStats};
pub use repair::{cost_stats, CostStats};
pub use stretch::{
    stretch_auto, stretch_exact, stretch_from_sources, stretch_sampled, StretchStats,
};
pub use summary::{
    measure, measure_sampled, HealthSummary, DEFAULT_EXACT_THRESHOLD, DEFAULT_STRETCH_SAMPLES,
};
pub use table::{f2, f3, Table};
