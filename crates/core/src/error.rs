//! Error handling for the hydra crates.

use std::fmt;

/// Result alias used throughout the hydra crates.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced by the similarity search library.
#[derive(Debug)]
pub enum Error {
    /// A query or candidate series does not match the expected length.
    LengthMismatch {
        /// The length expected by the index / dataset.
        expected: usize,
        /// The length that was provided.
        actual: usize,
    },
    /// An operation was attempted on an empty dataset or index.
    EmptyDataset,
    /// A parameter was outside its valid range.
    InvalidParameter {
        /// Human-readable name of the parameter.
        name: &'static str,
        /// Description of the constraint that was violated.
        message: String,
    },
    /// The requested series, node, or page does not exist.
    NotFound(String),
    /// An underlying I/O error (real files or the simulated store).
    ///
    /// `retriable` classifies the fault for the engine's
    /// [`crate::engine::RetryPolicy`]: transient faults (interrupted reads,
    /// bit-flips detected by a checksum) are worth retrying, while structural
    /// faults (missing files, permission errors) are not. `attempts` records
    /// how many times the operation was tried before the error was surfaced.
    Io {
        /// The underlying I/O error.
        source: std::io::Error,
        /// Whether retrying the operation may succeed.
        retriable: bool,
        /// How many attempts were made (including the failing one).
        attempts: u32,
    },
    /// An internal fault captured at the engine boundary (e.g. a panic caught
    /// by `catch_unwind` inside `answer_workload`). Never retriable.
    Internal(String),
    /// An index invariant was violated (indicates a bug in the index).
    CorruptIndex(String),
    /// A snapshot file is malformed or damaged: bad magic, unsupported
    /// format version, checksum mismatch, or truncation.
    InvalidSnapshot(String),
    /// A structurally valid snapshot that does not describe the requested
    /// index: different method, dataset fingerprint, or build options.
    StaleSnapshot(String),
    /// The method cannot answer queries in the requested
    /// [`crate::query::AnswerMode`]; the engine never substitutes another
    /// mode.
    UnsupportedMode {
        /// The method that rejected the query.
        method: &'static str,
        /// The requested answering mode.
        mode: crate::query::AnswerMode,
    },
    /// The method cannot answer this kind of query at all (e.g. a range query
    /// posed to a k-NN-only method).
    UnsupportedQuery {
        /// The method that rejected the query.
        method: &'static str,
        /// Why the query is unanswerable.
        reason: String,
    },
    /// The serving layer's admission queue is full: the request was shed
    /// before any work was done on it. Clients may retry after backoff; the
    /// request itself was never partially executed.
    Overloaded {
        /// The admission-queue capacity that was exceeded.
        capacity: usize,
    },
}

impl Error {
    /// Convenience constructor for invalid-parameter errors.
    pub fn invalid_parameter(name: &'static str, message: impl Into<String>) -> Self {
        Error::InvalidParameter {
            name,
            message: message.into(),
        }
    }

    /// Convenience constructor for unsupported-mode errors.
    pub fn unsupported_mode(method: &'static str, mode: crate::query::AnswerMode) -> Self {
        Error::UnsupportedMode { method, mode }
    }

    /// Convenience constructor for unsupported-query errors.
    pub fn unsupported_query(method: &'static str, reason: impl Into<String>) -> Self {
        Error::UnsupportedQuery {
            method,
            reason: reason.into(),
        }
    }

    /// Wraps an I/O error as a *retriable* fault (a transient failure the
    /// engine's retry policy may re-attempt).
    pub fn retriable_io(source: std::io::Error) -> Self {
        Error::Io {
            source,
            retriable: true,
            attempts: 1,
        }
    }

    /// Whether a retry of the failed operation may succeed.
    ///
    /// This is the single retriability classification every retry loop
    /// consults — the engine's [`crate::engine::RetryPolicy`], the serving
    /// layer's per-shard retries, and client-side backoff alike:
    ///
    /// * transient I/O faults ([`Error::Io`] with `retriable: true` — the
    ///   classification the storage layer stamps on interrupted reads and
    ///   detected bit-flips) clear after a bounded number of attempts;
    /// * [`Error::Overloaded`] rejected the request *before* any work
    ///   happened, so resubmitting after backoff is always safe and
    ///   eventually succeeds once pressure drains;
    /// * everything else — structural I/O faults, [`Error::UnsupportedMode`],
    ///   [`Error::InvalidSnapshot`], corrupt indexes, invalid parameters — is
    ///   deterministic: retrying reproduces the same failure.
    #[inline]
    pub fn is_retriable(&self) -> bool {
        matches!(
            self,
            Error::Io {
                retriable: true,
                ..
            } | Error::Overloaded { .. }
        )
    }

    /// For [`Error::Io`], overwrites the recorded attempt count (used by the
    /// engine after exhausting its retry budget); other variants are returned
    /// unchanged.
    pub fn with_attempts(self, attempts: u32) -> Self {
        match self {
            Error::Io {
                source, retriable, ..
            } => Error::Io {
                source,
                retriable,
                attempts,
            },
            other => other,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::LengthMismatch { expected, actual } => {
                write!(
                    f,
                    "series length mismatch: expected {expected}, got {actual}"
                )
            }
            Error::EmptyDataset => write!(f, "operation requires a non-empty dataset"),
            Error::InvalidParameter { name, message } => {
                write!(f, "invalid parameter `{name}`: {message}")
            }
            Error::NotFound(what) => write!(f, "not found: {what}"),
            Error::Io {
                source, attempts, ..
            } => {
                if *attempts > 1 {
                    write!(f, "I/O error: {source} (after {attempts} attempts)")
                } else {
                    write!(f, "I/O error: {source}")
                }
            }
            Error::Internal(msg) => write!(f, "internal error: {msg}"),
            Error::CorruptIndex(msg) => write!(f, "corrupt index: {msg}"),
            Error::InvalidSnapshot(msg) => write!(f, "invalid snapshot: {msg}"),
            Error::StaleSnapshot(msg) => write!(f, "stale snapshot: {msg}"),
            Error::UnsupportedMode { method, mode } => {
                write!(f, "{method} does not support {mode} answering")
            }
            Error::UnsupportedQuery { method, reason } => {
                write!(f, "{method} cannot answer this query: {reason}")
            }
            Error::Overloaded { capacity } => {
                write!(
                    f,
                    "service overloaded: admission queue at capacity ({capacity} in flight)"
                )
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(source: std::io::Error) -> Self {
        Error::Io {
            source,
            retriable: false,
            attempts: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = Error::LengthMismatch {
            expected: 256,
            actual: 128,
        };
        assert!(e.to_string().contains("256"));
        assert!(e.to_string().contains("128"));

        let e = Error::invalid_parameter("leaf_capacity", "must be positive");
        assert!(e.to_string().contains("leaf_capacity"));
        assert!(e.to_string().contains("must be positive"));

        assert!(Error::EmptyDataset.to_string().contains("non-empty"));
        assert!(Error::NotFound("node 7".into())
            .to_string()
            .contains("node 7"));
        assert!(Error::CorruptIndex("bad fanout".into())
            .to_string()
            .contains("bad fanout"));
        assert!(Error::InvalidSnapshot("checksum mismatch".into())
            .to_string()
            .contains("checksum mismatch"));
        assert!(Error::StaleSnapshot("dataset fingerprint".into())
            .to_string()
            .contains("dataset fingerprint"));

        let e = Error::unsupported_mode("UCR-Suite", crate::query::AnswerMode::NgApproximate);
        assert!(e.to_string().contains("UCR-Suite"));
        assert!(e.to_string().contains("ng"));

        let e = Error::unsupported_query("M-tree", "range queries are not supported");
        assert!(e.to_string().contains("M-tree"));
        assert!(e.to_string().contains("range"));

        let e = Error::Overloaded { capacity: 64 };
        assert!(e.to_string().contains("overloaded"));
        assert!(e.to_string().contains("64"));
    }

    #[test]
    fn retriability_classification_is_unified() {
        // A pre-execution rejection: nothing ran, a backed-off retry is safe.
        assert!(Error::Overloaded { capacity: 8 }.is_retriable());
        // Transient I/O clears within its planned attempts.
        assert!(Error::retriable_io(std::io::Error::other("hiccup")).is_retriable());
        // Deterministic failures reproduce on retry: never retriable.
        assert!(
            !Error::unsupported_mode("scan", crate::query::AnswerMode::NgApproximate)
                .is_retriable()
        );
        assert!(!Error::InvalidSnapshot("bad magic".into()).is_retriable());
        assert!(!Error::StaleSnapshot("fingerprint".into()).is_retriable());
        assert!(!Error::CorruptIndex("fanout".into()).is_retriable());
        assert!(!Error::EmptyDataset.is_retriable());
        assert!(!Error::from(std::io::Error::other("structural")).is_retriable());
    }

    #[test]
    fn io_errors_convert_and_chain() {
        let io = std::io::Error::other("boom");
        let e: Error = io.into();
        assert!(e.to_string().contains("boom"));
        assert!(std::error::Error::source(&e).is_some());
        assert!(!e.is_retriable());
    }

    #[test]
    fn retriable_io_classification_and_attempts() {
        let e = Error::retriable_io(std::io::Error::new(
            std::io::ErrorKind::Interrupted,
            "transient",
        ));
        assert!(e.is_retriable());
        let e = e.with_attempts(3);
        match &e {
            Error::Io {
                retriable,
                attempts,
                ..
            } => {
                assert!(*retriable);
                assert_eq!(*attempts, 3);
            }
            other => panic!("expected Io, got {other:?}"),
        }
        assert!(e.to_string().contains("3 attempts"));
        // Non-Io variants pass through with_attempts unchanged.
        assert!(matches!(
            Error::EmptyDataset.with_attempts(5),
            Error::EmptyDataset
        ));
        assert!(!Error::Internal("poisoned".into()).is_retriable());
        assert!(Error::Internal("poisoned".into())
            .to_string()
            .contains("poisoned"));
    }

    #[test]
    fn question_mark_works_against_box_dyn_error() {
        fn inner() -> Result<()> {
            Err(Error::retriable_io(std::io::Error::other("disk hiccup")))
        }
        fn outer() -> std::result::Result<(), Box<dyn std::error::Error>> {
            inner()?;
            Ok(())
        }
        let err = outer().unwrap_err();
        assert!(err.to_string().contains("disk hiccup"));
        assert!(err.source().is_some());
    }
}
