//! Plain-text CSV export of corpus data.
//!
//! Downstream analysis (plotting the figures, notebook exploration) wants
//! flat files. The writers here are dependency-free (hand-rolled CSV —
//! every exported field is numeric or a bare identifier, so no quoting is
//! required) and the attack export round-trips through
//! [`parse_attacks_csv`] for lossless interchange of the record skeleton
//! (per-bot lists are not exported).

use crate::attack::AttackId;
use crate::dataset::Corpus;
use crate::family::FamilyId;
use crate::targets::TargetId;
use crate::time::Timestamp;
use crate::{Result, TraceError};
use ddos_astopo::Asn;
use std::fmt::Write as _;

/// Header of the attack CSV schema.
pub const ATTACKS_CSV_HEADER: &str =
    "id,family,target,target_asn,start_secs,duration_secs,magnitude,multistage,vector";

/// Serializes the corpus's attack records (without per-bot detail).
pub fn attacks_to_csv(corpus: &Corpus) -> String {
    let mut out = String::with_capacity(corpus.len() * 48);
    out.push_str(ATTACKS_CSV_HEADER);
    out.push('\n');
    for a in corpus.attacks() {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{}",
            a.id.0,
            a.family.0,
            a.target.0,
            a.target_asn.0,
            a.start.as_secs(),
            a.duration_secs,
            a.magnitude(),
            u8::from(a.multistage),
            a.vector.index(),
        );
    }
    out
}

/// A parsed attack-skeleton row (the CSV does not carry per-bot lists;
/// `magnitude` preserves the bot count).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttackRow {
    /// Attack id.
    pub id: AttackId,
    /// Launching family.
    pub family: FamilyId,
    /// Victim.
    pub target: TargetId,
    /// Victim AS.
    pub target_asn: Asn,
    /// Launch time.
    pub start: Timestamp,
    /// Duration, seconds.
    pub duration_secs: u64,
    /// Distinct-bot count.
    pub magnitude: u32,
    /// Multistage flag.
    pub multistage: bool,
    /// Traffic mechanism.
    pub vector: crate::attack::AttackVector,
}

/// Column names of the attack CSV schema, in field order.
const ATTACKS_CSV_COLUMNS: [&str; 9] = [
    "id",
    "family",
    "target",
    "target_asn",
    "start_secs",
    "duration_secs",
    "magnitude",
    "multistage",
    "vector",
];

/// Parses [`attacks_to_csv`] output.
///
/// Every numeric field is validated for range, not just syntax: a value
/// that parses as `u64` but does not fit the destination type (`u32`
/// target/ASN/magnitude, the 0/1 multistage flag, the vector index) is a
/// typed [`TraceError::CsvField`] carrying the row and column — never a
/// silent wrap-around. Fractional or negative inputs already fail the
/// integer parse and report the same way.
///
/// # Errors
///
/// Returns [`TraceError::InvalidConfig`] for a malformed header or row
/// shape, [`TraceError::CsvField`] for a field-level violation.
pub fn parse_attacks_csv(csv: &str) -> Result<Vec<AttackRow>> {
    let mut lines = csv.lines();
    match lines.next() {
        Some(h) if h == ATTACKS_CSV_HEADER => {}
        other => {
            return Err(TraceError::InvalidConfig { detail: format!("bad CSV header: {other:?}") })
        }
    }
    let mut out = Vec::new();
    for (lineno, line) in lines.enumerate() {
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != 9 {
            return Err(TraceError::InvalidConfig {
                detail: format!("row {lineno}: expected 9 fields, got {}", fields.len()),
            });
        }
        let num = |i: usize| -> Result<u64> {
            fields[i].parse().map_err(|_| TraceError::CsvField {
                row: lineno,
                column: ATTACKS_CSV_COLUMNS[i],
                detail: format!("{:?} is not a non-negative integer", fields[i]),
            })
        };
        let num_u32 = |i: usize| -> Result<u32> {
            let v = num(i)?;
            u32::try_from(v).map_err(|_| TraceError::CsvField {
                row: lineno,
                column: ATTACKS_CSV_COLUMNS[i],
                detail: format!("{v} exceeds u32::MAX"),
            })
        };
        let multistage = match num(7)? {
            0 => false,
            1 => true,
            v => {
                return Err(TraceError::CsvField {
                    row: lineno,
                    column: ATTACKS_CSV_COLUMNS[7],
                    detail: format!("flag must be 0 or 1, got {v}"),
                })
            }
        };
        let vector_idx = num(8)?;
        let vector = usize::try_from(vector_idx)
            .ok()
            .and_then(|i| crate::attack::AttackVector::ALL.get(i))
            .copied()
            .ok_or_else(|| TraceError::CsvField {
                row: lineno,
                column: ATTACKS_CSV_COLUMNS[8],
                detail: format!(
                    "vector index {vector_idx} out of range 0..{}",
                    crate::attack::AttackVector::ALL.len()
                ),
            })?;
        out.push(AttackRow {
            id: AttackId(num(0)?),
            family: FamilyId(usize::try_from(num(1)?).map_err(|_| TraceError::CsvField {
                row: lineno,
                column: ATTACKS_CSV_COLUMNS[1],
                detail: "family id overflows usize".to_string(),
            })?),
            target: TargetId(num_u32(2)?),
            target_asn: Asn(num_u32(3)?),
            start: Timestamp(num(4)?),
            duration_secs: num(5)?,
            magnitude: num_u32(6)?,
            multistage,
            vector,
        });
    }
    Ok(out)
}

/// Serializes a truth-vs-prediction series (`index,truth,predicted`) —
/// the flat file behind a Fig. 1/2-style plot.
pub fn series_to_csv(truth: &[f64], predicted: &[f64]) -> Result<String> {
    if truth.len() != predicted.len() {
        return Err(TraceError::InvalidConfig {
            detail: format!("series lengths differ: {} vs {}", truth.len(), predicted.len()),
        });
    }
    let mut out = String::from("index,truth,predicted\n");
    for (i, (t, p)) in truth.iter().zip(predicted).enumerate() {
        let _ = writeln!(out, "{i},{t},{p}");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{CorpusConfig, TraceGenerator};

    fn corpus() -> Corpus {
        TraceGenerator::new(CorpusConfig::small(), 181).generate().unwrap()
    }

    #[test]
    fn attacks_round_trip() {
        let c = corpus();
        let csv = attacks_to_csv(&c);
        let rows = parse_attacks_csv(&csv).unwrap();
        assert_eq!(rows.len(), c.len());
        for (row, attack) in rows.iter().zip(c.attacks()) {
            assert_eq!(row.id, attack.id);
            assert_eq!(row.family, attack.family);
            assert_eq!(row.target, attack.target);
            assert_eq!(row.target_asn, attack.target_asn);
            assert_eq!(row.start, attack.start);
            assert_eq!(row.duration_secs, attack.duration_secs);
            assert_eq!(row.magnitude as usize, attack.magnitude());
            assert_eq!(row.multistage, attack.multistage);
            assert_eq!(row.vector, attack.vector);
        }
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(parse_attacks_csv("nope\n1,2,3").is_err());
        let bad_width = format!("{ATTACKS_CSV_HEADER}\n1,2,3\n");
        assert!(parse_attacks_csv(&bad_width).is_err());
        let bad_number = format!("{ATTACKS_CSV_HEADER}\n1,2,3,4,x,6,7,8,0\n");
        assert!(parse_attacks_csv(&bad_number).is_err());
        let bad_vector = format!("{ATTACKS_CSV_HEADER}\n1,2,3,4,5,6,7,0,9\n");
        assert!(parse_attacks_csv(&bad_vector).is_err());
        // Empty body parses to zero rows.
        assert!(parse_attacks_csv(&format!("{ATTACKS_CSV_HEADER}\n")).unwrap().is_empty());
    }

    #[test]
    fn out_of_range_fields_are_typed_errors_not_wraparound() {
        // 2^32 + 7 used to wrap to 7 through `as u32`; it must now be a
        // CsvField error naming the row and column.
        let overflow = 4_294_967_303u64;
        let csv = format!("{ATTACKS_CSV_HEADER}\n0,1,{overflow},4,5,6,7,0,0\n");
        match parse_attacks_csv(&csv) {
            Err(TraceError::CsvField { row: 0, column: "target", .. }) => {}
            other => panic!("expected CsvField target error, got {other:?}"),
        }
        let csv = format!("{ATTACKS_CSV_HEADER}\n0,1,2,{overflow},5,6,7,0,0\n");
        match parse_attacks_csv(&csv) {
            Err(TraceError::CsvField { row: 0, column: "target_asn", .. }) => {}
            other => panic!("expected CsvField target_asn error, got {other:?}"),
        }
        let csv = format!("{ATTACKS_CSV_HEADER}\n0,1,2,3,5,6,{overflow},0,0\n");
        match parse_attacks_csv(&csv) {
            Err(TraceError::CsvField { row: 0, column: "magnitude", .. }) => {}
            other => panic!("expected CsvField magnitude error, got {other:?}"),
        }
        // Fractional values fail integer parsing with the same context.
        let csv = format!("{ATTACKS_CSV_HEADER}\n0,1,2,3,5,6,7.5,0,0\n");
        match parse_attacks_csv(&csv) {
            Err(TraceError::CsvField { row: 0, column: "magnitude", .. }) => {}
            other => panic!("expected CsvField magnitude error, got {other:?}"),
        }
        // A multistage flag outside {0, 1} is rejected, not truthy-coerced.
        let csv = format!("{ATTACKS_CSV_HEADER}\n0,1,2,3,5,6,7,2,0\n");
        match parse_attacks_csv(&csv) {
            Err(TraceError::CsvField { row: 0, column: "multistage", .. }) => {}
            other => panic!("expected CsvField multistage error, got {other:?}"),
        }
    }

    #[test]
    fn series_csv_shape() {
        let csv = series_to_csv(&[1.0, 2.0], &[1.5, 2.5]).unwrap();
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.contains("1,2,2.5"));
        assert!(series_to_csv(&[1.0], &[1.0, 2.0]).is_err());
    }
}
