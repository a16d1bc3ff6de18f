//! Errors surfaced by the fallible query API ([`crate::Engine::query`]).
//!
//! The old `Engine::knn` panicked when a required index or the object set was
//! missing; [`EngineError`] turns every such condition into a value the caller
//! can match on, which is what a server in front of the engine needs.

use std::error::Error;
use std::fmt;

use rnknn_graph::NodeId;

use crate::engine::Method;
use crate::query::{IndexKind, QueryStats};

/// Why the engine could not answer a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineError {
    /// The method needs a road-network index that was not built by the current
    /// [`crate::EngineConfig`] (check [`crate::Engine::supports`] first).
    ///
    /// Both fields are the typed values (not display strings), so callers can match
    /// on them, rebuild the engine with the right [`crate::EngineConfig`] flag, or
    /// map them to their own error vocabulary. [`Engine::supports`] and this error
    /// derive from the same declaration ([`required_indexes`]), so the two can
    /// never drift apart.
    ///
    /// [`Engine::supports`]: crate::Engine::supports
    /// [`required_indexes`]: crate::Method::required_indexes
    MissingIndex {
        /// The requested method.
        method: Method,
        /// The absent index.
        index: IndexKind,
    },
    /// No object set was injected; call [`crate::Engine::set_objects`] first.
    NoObjects,
    /// The query vertex is outside the road network.
    InvalidVertex {
        /// The offending vertex id.
        vertex: NodeId,
        /// Number of vertices in the road network.
        num_vertices: usize,
    },
    /// `k` must be at least 1.
    InvalidK {
        /// The offending value.
        k: usize,
    },
    /// The query's [`QueryBudget`] (deadline or step quota) exhausted before the
    /// search completed. The search unwound cooperatively — no thread was killed
    /// and its scratch pools remain reusable — and the truncated result was
    /// discarded (a partial kNN list is not a valid answer), but the operation
    /// counters accumulated up to the cancellation point are kept here so
    /// callers can see how much work the doomed query performed.
    ///
    /// [`QueryBudget`]: rnknn_pathfinding::QueryBudget
    DeadlineExceeded {
        /// Counters at the moment the budget exhausted (`elapsed_micros` is
        /// stamped by the engine like on the success path).
        partial: QueryStats,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::MissingIndex { method, index } => {
                write!(
                    f,
                    "method {} requires the {} index, which was not built",
                    method.name(),
                    index.name()
                )
            }
            EngineError::NoObjects => {
                write!(f, "no object set injected (call Engine::set_objects before querying)")
            }
            EngineError::InvalidVertex { vertex, num_vertices } => {
                write!(
                    f,
                    "query vertex {vertex} is out of range (network has {num_vertices} vertices)"
                )
            }
            EngineError::InvalidK { k } => write!(f, "k must be at least 1 (got {k})"),
            EngineError::DeadlineExceeded { partial } => {
                write!(
                    f,
                    "query budget exhausted after {} expansions / {} heap operations",
                    partial.nodes_expanded, partial.heap_operations
                )
            }
        }
    }
}

impl Error for EngineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_name_the_missing_pieces() {
        let e = EngineError::MissingIndex { method: Method::IerPhl, index: IndexKind::Phl };
        assert!(e.to_string().contains("IER-PHL"));
        assert!(e.to_string().contains("PHL"));
        assert!(EngineError::NoObjects.to_string().contains("set_objects"));
        let e = EngineError::InvalidVertex { vertex: 99, num_vertices: 10 };
        assert!(e.to_string().contains("99"));
        assert!(EngineError::InvalidK { k: 0 }.to_string().contains('0'));
        let e = EngineError::DeadlineExceeded {
            partial: QueryStats { nodes_expanded: 7, ..Default::default() },
        };
        assert!(e.to_string().contains("budget exhausted"));
        assert!(e.to_string().contains('7'));
    }
}
