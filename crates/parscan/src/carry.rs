//! The carry-lookahead monoid (paper §3.1).
//!
//! For each bit position of the addition `n1 + n2` the paper derives the carry
//! *generator* `g_i = a_i ∧ b_i` and *propagator* `p_i = a_i ⊕ b_i`; the carry
//! recurrence `c_i = g_i ∨ (p_i ∧ c_{i-1})` is a prefix computation over the
//! classic Kill/Propagate/Generate status monoid, which is how the carries are
//! obtained in `O(log log n + (log n)/p)` EREW time.

use crate::seq;
use std::fmt;

/// A machine word that does not encode any [`CarryStatus`] — malformed
/// input surfaces as a typed error instead of aborting the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CarryError {
    /// The malformed encoded word.
    pub word: i64,
}

impl fmt::Display for CarryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid carry status word {}", self.word)
    }
}

impl std::error::Error for CarryError {}

/// Sentinel the word-level composition emits once either operand is
/// malformed; it is itself malformed, so poison propagates through a whole
/// scan and is caught by a single [`CarryStatus::try_from_word`] at decode
/// time — keeping scan closures total without hiding the corruption.
pub const POISON_WORD: i64 = -1;

/// Carry status of a bit position (also the scan element).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CarryStatus {
    /// `a_i = b_i = 0`: the position kills any incoming carry.
    Kill,
    /// `a_i ⊕ b_i = 1`: the position propagates the incoming carry.
    Propagate,
    /// `a_i = b_i = 1`: the position generates a carry regardless of input.
    Generate,
}

impl CarryStatus {
    /// Encode as a machine word for PRAM-hosted scans.
    pub fn to_word(self) -> i64 {
        match self {
            CarryStatus::Kill => 0,
            CarryStatus::Propagate => 1,
            CarryStatus::Generate => 2,
        }
    }

    /// Decode from a machine word.
    pub fn try_from_word(w: i64) -> Result<CarryStatus, CarryError> {
        match w {
            0 => Ok(CarryStatus::Kill),
            1 => Ok(CarryStatus::Propagate),
            2 => Ok(CarryStatus::Generate),
            word => Err(CarryError { word }),
        }
    }
}

/// Word-level monoid composition for scan hosts whose combine closures must
/// be total (PRAM memory cells, prefix tuples). Well-formed operands compose
/// exactly like [`compose_status`]; any malformed operand yields
/// [`POISON_WORD`], which the caller detects when decoding the scan output.
pub fn compose_status_words(l: i64, r: i64) -> i64 {
    match (CarryStatus::try_from_word(l), CarryStatus::try_from_word(r)) {
        (Ok(a), Ok(b)) => compose_status(a, b).to_word(),
        _ => POISON_WORD,
    }
}

/// Status of position `i` given the presence bits `a_i`, `b_i`.
pub fn carry_status(a: bool, b: bool) -> CarryStatus {
    match (a, b) {
        (true, true) => CarryStatus::Generate,
        (false, false) => CarryStatus::Kill,
        _ => CarryStatus::Propagate,
    }
}

/// Monoid composition, `l` for the less significant positions, `r` more
/// significant: a propagating position passes `l` through, anything else
/// decides on its own. Identity element: [`CarryStatus::Propagate`].
pub fn compose_status(l: CarryStatus, r: CarryStatus) -> CarryStatus {
    match r {
        CarryStatus::Propagate => l,
        decided => decided,
    }
}

/// Sequential carry chain (the ripple adder): `carries[i] = c_i`, the carry
/// *out* of position `i`, with `c_{-1} = 0`.
pub fn carries_ripple(a: &[bool], b: &[bool]) -> Vec<bool> {
    assert_eq!(a.len(), b.len());
    let mut out = Vec::with_capacity(a.len());
    let mut c = false;
    for i in 0..a.len() {
        c = (a[i] && b[i]) || ((a[i] ^ b[i]) && c);
        out.push(c);
    }
    out
}

/// Carries via the status-monoid prefix scan (sequential execution; the PRAM
/// execution uses the same operator through its scan primitives).
pub fn carries_by_scan(a: &[bool], b: &[bool]) -> Vec<bool> {
    assert_eq!(a.len(), b.len());
    let statuses: Vec<CarryStatus> = a.iter().zip(b).map(|(&x, &y)| carry_status(x, y)).collect();
    seq::scan_inclusive(&statuses, compose_status)
        .into_iter()
        .map(|s| s == CarryStatus::Generate)
        .collect()
}

/// Sum bits `s_i = a_i ⊕ b_i ⊕ c_{i-1}` given the carry array (note the carry
/// array has one more significant position than either input if the addition
/// overflows; callers size the arrays with the extra slot as the paper does).
pub fn sum_bits(a: &[bool], b: &[bool], carries: &[bool]) -> Vec<bool> {
    assert_eq!(a.len(), b.len());
    assert_eq!(a.len(), carries.len());
    (0..a.len())
        .map(|i| {
            let c_in = i > 0 && carries[i - 1];
            a[i] ^ b[i] ^ c_in
        })
        .collect()
}

/// Helper: little-endian bit vector of `n`, padded/truncated to `len`.
pub fn bits_of(n: usize, len: usize) -> Vec<bool> {
    (0..len).map(|i| n >> i & 1 == 1).collect()
}

/// Helper: reassemble a little-endian bit vector into a number.
pub fn bits_to_usize(bits: &[bool]) -> usize {
    bits.iter()
        .enumerate()
        .fold(0usize, |acc, (i, &b)| acc | ((b as usize) << i))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn status_classification() {
        assert_eq!(carry_status(true, true), CarryStatus::Generate);
        assert_eq!(carry_status(false, false), CarryStatus::Kill);
        assert_eq!(carry_status(true, false), CarryStatus::Propagate);
        assert_eq!(carry_status(false, true), CarryStatus::Propagate);
    }

    #[test]
    fn composition_is_associative() {
        use CarryStatus::*;
        for x in [Kill, Propagate, Generate] {
            for y in [Kill, Propagate, Generate] {
                for z in [Kill, Propagate, Generate] {
                    assert_eq!(
                        compose_status(compose_status(x, y), z),
                        compose_status(x, compose_status(y, z))
                    );
                }
            }
        }
    }

    #[test]
    fn propagate_is_identity() {
        use CarryStatus::*;
        for x in [Kill, Propagate, Generate] {
            assert_eq!(compose_status(Propagate, x), x);
            assert_eq!(compose_status(x, Propagate), x);
        }
    }

    #[test]
    fn scan_matches_ripple_exhaustively_small() {
        for n1 in 0..64usize {
            for n2 in 0..64usize {
                let a = bits_of(n1, 8);
                let b = bits_of(n2, 8);
                assert_eq!(carries_by_scan(&a, &b), carries_ripple(&a, &b));
            }
        }
    }

    #[test]
    fn addition_via_sum_bits() {
        for n1 in 0..64usize {
            for n2 in 0..64usize {
                let a = bits_of(n1, 8);
                let b = bits_of(n2, 8);
                let c = carries_by_scan(&a, &b);
                let mut s = sum_bits(&a, &b, &c);
                // overflow bit (cannot happen at 8 bits for 6-bit inputs)
                s.push(false);
                assert_eq!(bits_to_usize(&s), n1 + n2);
            }
        }
    }

    #[test]
    fn word_roundtrip() {
        use CarryStatus::*;
        for s in [Kill, Propagate, Generate] {
            assert_eq!(CarryStatus::try_from_word(s.to_word()), Ok(s));
        }
    }

    #[test]
    fn malformed_word_is_a_typed_error_not_a_panic() {
        for w in [-1i64, 3, 99, i64::MIN, i64::MAX] {
            assert_eq!(CarryStatus::try_from_word(w), Err(CarryError { word: w }));
        }
        assert_eq!(
            CarryError { word: 3 }.to_string(),
            "invalid carry status word 3"
        );
    }

    #[test]
    fn word_composition_matches_and_poisons() {
        use CarryStatus::*;
        for x in [Kill, Propagate, Generate] {
            for y in [Kill, Propagate, Generate] {
                assert_eq!(
                    compose_status_words(x.to_word(), y.to_word()),
                    compose_status(x, y).to_word()
                );
            }
            // Poison absorbs from either side and self-propagates.
            assert_eq!(compose_status_words(POISON_WORD, x.to_word()), POISON_WORD);
            assert_eq!(compose_status_words(x.to_word(), 57), POISON_WORD);
        }
        assert_eq!(compose_status_words(POISON_WORD, POISON_WORD), POISON_WORD);
    }

    #[test]
    fn figure1_carry_row() {
        // Figure 1: H1 = {B1,B3,B5,B6}, H2 = {B0,B1,B2,B5}; positions 0..=7.
        let a = bits_of(0b0110_1010, 8); // B1,B3,B5,B6
        let b = bits_of(0b0010_0111, 8); // B0,B1,B2,B5
        let c = carries_by_scan(&a, &b);
        // Paper's c row (positions 7..0): 0 1 1 0 1 1 1 0  → little-endian:
        assert_eq!(c, [false, true, true, true, false, true, true, false]);
    }
}
