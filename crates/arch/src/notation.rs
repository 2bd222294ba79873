//! Textual notation for multiple-CE accelerators (§III-B).
//!
//! Grammar (whitespace-insensitive, one-based indices as in the paper):
//!
//! ```text
//! spec       := '{' entry (',' entry)* '}'
//! entry      := layers ':' block schedule?
//! layers     := 'L' index | 'L' index '-' ('L' index | 'Last')
//! block      := 'CE' index | 'CE' index '-' 'CE' index
//! schedule   := '@' 'df' index
//! ```
//!
//! Examples from the paper: `{L1-L4: CE1, L5-L6: CE2, L7-L9: CE3,
//! L10-L12: CE4}` (Segmented) and `{L1-Last: CE1-CE4}` (SegmentedRR).
//! The `@df<n>` suffix (not in the paper) marks a single-CE block as
//! depth-first scheduled with fuse depth `n`: `{L1-L4: CE1 @df2}` fuses
//! the block's layers pairwise. Layer-by-layer blocks carry no suffix.
//!
//! The textual form does not carry the coarse-pipelining flag;
//! [`parse`] infers it (`true` when more than one distinct block exists).

use std::fmt::Write as _;

use crate::error::ArchError;
use crate::spec::{AcceleratorSpec, Assignment, BlockSpec, LayerRange, Schedule};

/// Formats a spec in the paper's notation.
///
/// # Examples
///
/// ```
/// use mccm_arch::notation;
/// use mccm_arch::{AcceleratorSpec, Assignment, BlockSpec, LayerRange};
///
/// let spec = AcceleratorSpec::new(
///     vec![Assignment::new(
///         LayerRange::through_last(0),
///         BlockSpec::Pipelined { first_ce: 0, last_ce: 3 },
///     )],
///     false,
/// );
/// assert_eq!(notation::format(&spec), "{L1-Last: CE1-CE4}");
/// ```
pub fn format(spec: &AcceleratorSpec) -> String {
    let mut out = String::from("{");
    for (i, a) in spec.assignments.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        match (a.range.first, a.range.last) {
            (f, Some(l)) if f == l => {
                let _ = write!(out, "L{}", f + 1);
            }
            (f, Some(l)) => {
                let _ = write!(out, "L{}-L{}", f + 1, l + 1);
            }
            (f, None) => {
                let _ = write!(out, "L{}-Last", f + 1);
            }
        }
        out.push_str(": ");
        match a.block {
            BlockSpec::Single(ce) => {
                let _ = write!(out, "CE{}", ce + 1);
            }
            BlockSpec::Pipelined { first_ce, last_ce } => {
                let _ = write!(out, "CE{}-CE{}", first_ce + 1, last_ce + 1);
            }
        }
        if let Schedule::DepthFirst { fuse_depth } = a.schedule {
            let _ = write!(out, " @df{fuse_depth}");
        }
    }
    out.push('}');
    out
}

/// Parses the paper's notation, inferring coarse pipelining (`true` iff the
/// spec has more than one assignment).
///
/// # Errors
///
/// Returns [`ArchError::Parse`] on malformed input. Semantic validation
/// (coverage, CE roles) happens later in
/// [`AcceleratorSpec::segments`](crate::AcceleratorSpec::segments).
pub fn parse(input: &str) -> Result<AcceleratorSpec, ArchError> {
    let assignments = parse_assignments(input)?;
    let coarse = assignments.len() > 1;
    Ok(AcceleratorSpec::new(assignments, coarse))
}

struct Cursor<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(input: &'a str) -> Self {
        Self { input, pos: 0 }
    }

    fn skip_ws(&mut self) {
        while self.input[self.pos..].starts_with(|c: char| c.is_whitespace()) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, token: &str) -> bool {
        self.skip_ws();
        if self.input[self.pos..].starts_with(token) {
            self.pos += token.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, token: &str) -> Result<(), ArchError> {
        if self.eat(token) {
            Ok(())
        } else {
            Err(self.error(format!("expected `{token}`")))
        }
    }

    fn eat_keyword_ci(&mut self, word: &str) -> bool {
        self.skip_ws();
        let rest = &self.input[self.pos..];
        if rest.len() >= word.len() && rest[..word.len()].eq_ignore_ascii_case(word) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    fn number(&mut self) -> Result<usize, ArchError> {
        self.skip_ws();
        let rest = &self.input[self.pos..];
        let len = rest.bytes().take_while(u8::is_ascii_digit).count();
        if len == 0 {
            return Err(self.error("expected a number".into()));
        }
        let n: usize = rest[..len]
            .parse()
            .map_err(|_| self.error("number too large".into()))?;
        self.pos += len;
        if n == 0 {
            return Err(self.error("indices are one-based".into()));
        }
        Ok(n)
    }

    fn error(&self, detail: String) -> ArchError {
        ArchError::Parse {
            offset: self.pos,
            detail,
        }
    }

    fn at_end(&mut self) -> bool {
        self.skip_ws();
        self.pos == self.input.len()
    }
}

fn parse_assignments(input: &str) -> Result<Vec<Assignment>, ArchError> {
    let mut c = Cursor::new(input);
    c.expect("{")?;
    let mut assignments = Vec::new();
    loop {
        // Layer range.
        if !c.eat_keyword_ci("L") {
            return Err(c.error("expected `L<n>`".into()));
        }
        let first = c.number()? - 1;
        let range = if c.eat("-") {
            if c.eat_keyword_ci("Last") {
                LayerRange::through_last(first)
            } else {
                if !c.eat_keyword_ci("L") {
                    return Err(c.error("expected `L<n>` or `Last` after `-`".into()));
                }
                let last = c.number()? - 1;
                if last < first {
                    return Err(c.error("inverted layer range".into()));
                }
                LayerRange::new(first, last)
            }
        } else {
            LayerRange::single(first)
        };
        c.expect(":")?;
        // Block.
        if !c.eat_keyword_ci("CE") {
            return Err(c.error("expected `CE<n>`".into()));
        }
        let first_ce = c.number()? - 1;
        let block = if c.eat("-") {
            if !c.eat_keyword_ci("CE") {
                return Err(c.error("expected `CE<n>` after `-`".into()));
            }
            let last_ce = c.number()? - 1;
            if last_ce < first_ce {
                return Err(c.error("inverted CE range".into()));
            }
            BlockSpec::Pipelined { first_ce, last_ce }
        } else {
            BlockSpec::Single(first_ce)
        };
        let schedule = if c.eat("@") {
            if !c.eat_keyword_ci("df") {
                return Err(c.error("expected `df<n>` after `@`".into()));
            }
            Schedule::DepthFirst {
                fuse_depth: c.number()?,
            }
        } else {
            Schedule::LayerByLayer
        };
        assignments.push(Assignment {
            range,
            block,
            schedule,
        });
        if c.eat(",") {
            continue;
        }
        c.expect("}")?;
        break;
    }
    if !c.at_end() {
        return Err(c.error("trailing input after `}`".into()));
    }
    Ok(assignments)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_segmented_example() {
        let spec = parse("{L1-L4: CE1, L5-L6: CE2, L7-L9: CE3, L10-L12: CE4}").unwrap();
        assert_eq!(spec.assignments.len(), 4);
        assert!(spec.coarse_pipeline);
        assert_eq!(spec.assignments[0].range, LayerRange::new(0, 3));
        assert_eq!(spec.assignments[3].block, BlockSpec::Single(3));
    }

    #[test]
    fn parses_paper_segmented_rr_example() {
        let spec = parse("{L1-Last: CE1-CE4}").unwrap();
        assert!(!spec.coarse_pipeline); // single block -> inferred false
        assert_eq!(
            spec.assignments[0].block,
            BlockSpec::Pipelined {
                first_ce: 0,
                last_ce: 3
            }
        );
        assert_eq!(spec.assignments[0].range, LayerRange::through_last(0));
    }

    #[test]
    fn parses_single_layer_special_case() {
        // {Lx : CEz} special case from §III-B.
        let spec = parse("{L3: CE2, L4-Last: CE1}").unwrap();
        assert_eq!(spec.assignments[0].range, LayerRange::single(2));
    }

    #[test]
    fn round_trips() {
        for text in [
            "{L1-L4: CE1, L5-L6: CE2, L7-L9: CE3, L10-L12: CE4}",
            "{L1-Last: CE1-CE4}",
            "{L1: CE1, L2-L3: CE2-CE3, L4-Last: CE4}",
        ] {
            let spec = parse(text).unwrap();
            assert_eq!(format(&spec), text);
            assert_eq!(parse(&format(&spec)).unwrap(), spec);
        }
    }

    #[test]
    fn parses_depth_first_suffix() {
        let spec = parse("{L1-L4: CE1 @df2, L5-Last: CE2}").unwrap();
        assert_eq!(
            spec.assignments[0].schedule,
            Schedule::DepthFirst { fuse_depth: 2 }
        );
        assert_eq!(spec.assignments[1].schedule, Schedule::LayerByLayer);
    }

    #[test]
    fn depth_first_round_trips() {
        for text in [
            "{L1-L4: CE1 @df2, L5-Last: CE2}",
            "{L1-L4: CE1 @df1, L5-Last: CE2 @df3}",
            "{L1-L3: CE1-CE3, L4-Last: CE4 @df4}",
        ] {
            let spec = parse(text).unwrap();
            assert_eq!(format(&spec), text);
            assert_eq!(parse(&format(&spec)).unwrap(), spec);
        }
        // Case- and whitespace-insensitive like the rest of the grammar.
        assert_eq!(
            parse("{ l1 - l4 : ce1 @ DF2 , l5 - last : ce2 }").unwrap(),
            parse("{L1-L4: CE1 @df2, L5-Last: CE2}").unwrap()
        );
    }

    #[test]
    fn rejects_malformed_schedules() {
        for bad in [
            "{L1-L4: CE1 @df0, L5-Last: CE2}",
            "{L1-L4: CE1 @df, L5-Last: CE2}",
            "{L1-L4: CE1 @lbl, L5-Last: CE2}",
            "{L1-L4: CE1 @, L5-Last: CE2}",
        ] {
            assert!(parse(bad).is_err(), "should reject `{bad}`");
        }
    }

    #[test]
    fn whitespace_and_case_insensitive() {
        let a = parse("{ l1 - last : ce1 - ce4 }").unwrap();
        let b = parse("{L1-Last: CE1-CE4}").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "",
            "{",
            "{}",
            "{L1-L4 CE1}",
            "{L0-L4: CE1}",
            "{L4-L1: CE1}",
            "{L1-L4: CE2-CE1}",
            "{L1-L4: CE1} trailing",
            "L1-L4: CE1",
            "{L1-: CE1}",
        ] {
            assert!(parse(bad).is_err(), "should reject `{bad}`");
        }
    }

    #[test]
    fn parse_errors_carry_offsets() {
        let err = parse("{L1-L4; CE1}").unwrap_err();
        assert!(matches!(err, ArchError::Parse { offset, .. } if offset > 0));
    }
}
