use std::error::Error;
use std::fmt;

/// Error type for trace generation and corpus manipulation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TraceError {
    /// Generator or corpus configuration is invalid.
    InvalidConfig {
        /// Description of the violation.
        detail: String,
    },
    /// An operation referenced an unknown botnet family.
    UnknownFamily(crate::family::FamilyId),
    /// An operation referenced an unknown target.
    UnknownTarget(crate::targets::TargetId),
    /// The corpus is empty where data was required.
    EmptyCorpus,
    /// A split fraction was outside (0, 1).
    BadSplit(f64),
    /// The corpus has fewer attacks than the operation needs.
    TooFewAttacks {
        /// Attacks the operation needs.
        required: usize,
        /// Attacks the corpus holds.
        actual: usize,
    },
    /// An underlying topology operation failed.
    Topology(ddos_astopo::TopoError),
    /// An underlying statistical operation failed.
    Stats(ddos_stats::StatsError),
    /// A CSV field failed validation. `row` is the 0-based data-row
    /// index (excluding the header), `column` the schema column name.
    CsvField {
        /// 0-based data-row index.
        row: usize,
        /// Schema column name.
        column: &'static str,
        /// What was wrong with the value.
        detail: String,
    },
    /// A columnar trace file failed structural decoding.
    Codec(ddos_stats::codec::CodecError),
    /// A columnar trace file envelope was malformed (bad magic, version,
    /// checksum, or section framing).
    Format {
        /// Description of the malformation.
        detail: String,
    },
    /// An I/O failure, rendered to text so the error stays `Clone`.
    Io(String),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::InvalidConfig { detail } => write!(f, "invalid trace config: {detail}"),
            TraceError::UnknownFamily(id) => write!(f, "unknown botnet family {id}"),
            TraceError::UnknownTarget(id) => write!(f, "unknown target {id}"),
            TraceError::EmptyCorpus => write!(f, "corpus contains no attacks"),
            TraceError::BadSplit(frac) => {
                write!(f, "split fraction {frac} must lie strictly between 0 and 1")
            }
            TraceError::TooFewAttacks { required, actual } => {
                write!(f, "corpus holds {actual} attack(s), {required} required")
            }
            TraceError::Topology(e) => write!(f, "topology error: {e}"),
            TraceError::Stats(e) => write!(f, "stats error: {e}"),
            TraceError::CsvField { row, column, detail } => {
                write!(f, "CSV row {row}, column {column}: {detail}")
            }
            TraceError::Codec(e) => write!(f, "trace decoding error: {e}"),
            TraceError::Format { detail } => write!(f, "malformed trace file: {detail}"),
            TraceError::Io(detail) => write!(f, "I/O error: {detail}"),
        }
    }
}

impl Error for TraceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TraceError::Topology(e) => Some(e),
            TraceError::Stats(e) => Some(e),
            TraceError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ddos_stats::codec::CodecError> for TraceError {
    fn from(e: ddos_stats::codec::CodecError) -> Self {
        TraceError::Codec(e)
    }
}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e.to_string())
    }
}

impl From<ddos_astopo::TopoError> for TraceError {
    fn from(e: ddos_astopo::TopoError) -> Self {
        TraceError::Topology(e)
    }
}

impl From<ddos_stats::StatsError> for TraceError {
    fn from(e: ddos_stats::StatsError) -> Self {
        TraceError::Stats(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(TraceError::EmptyCorpus.to_string().contains("no attacks"));
        assert!(TraceError::BadSplit(1.5).to_string().contains("1.5"));
    }

    #[test]
    fn source_chains() {
        let e = TraceError::Stats(ddos_stats::StatsError::EmptyInput);
        assert!(e.source().is_some());
        assert!(TraceError::EmptyCorpus.source().is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TraceError>();
    }
}
