//! The TEVoT variability feature encoding.
//!
//! Sec. IV-B1 of the paper: the feature vector is
//! `{V, T, x[t], x[t-1]}` — the operating condition plus the bit-level
//! current input and the bit-level *previous* input, because "the previous
//! input sets the state and current input toggles the circuit nodes based
//! on current state". For a two-operand 32-bit FU that is 64 + 64 + 2 = 130
//! features (Eq. 3). The TEVoT-NH ablation drops the history half.
//!
//! Two forms carry the same values. [`FeatureEncoding::encode_into`]
//! writes an `f64` row, the form datasets are built from.
//! [`FeatureEncoding::pack`] keeps the operand bits in one `u128` and
//! reads any feature on demand, the form inference walks the forest with:
//! no allocation and no per-bit writes.

use tevot_timing::OperatingCondition;

/// Feature layout: whether the history input `x[t-1]` is included.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeatureEncoding {
    history: bool,
}

impl FeatureEncoding {
    /// The full TEVoT encoding: `{bits(x[t]), bits(x[t-1]), V, T}`.
    pub fn with_history() -> Self {
        FeatureEncoding { history: true }
    }

    /// The TEVoT-NH ablation: `{bits(x[t]), V, T}` only.
    pub fn without_history() -> Self {
        FeatureEncoding { history: false }
    }

    /// Whether history features are included.
    pub fn has_history(self) -> bool {
        self.history
    }

    /// Total feature dimension (130 with history, 66 without).
    pub fn num_features(self) -> usize {
        self.num_bit_features() as usize + 2
    }

    /// Number of operand-bit features (128 with history, 64 without);
    /// `V` and `T` follow them.
    fn num_bit_features(self) -> u32 {
        if self.history {
            128
        } else {
            64
        }
    }

    /// Encodes one cycle into `out` (cleared first).
    ///
    /// Layout, matching Eq. 3: the 64 bits of `x[t]` (operand `a` LSB
    /// first, then operand `b`), then — with history — the 64 bits of
    /// `x[t-1]`, then `V` (volts) and `T` (degrees Celsius).
    pub fn encode_into(
        self,
        cond: OperatingCondition,
        current: (u32, u32),
        previous: (u32, u32),
        out: &mut Vec<f64>,
    ) {
        out.clear();
        out.reserve(self.num_features());
        push_bits(out, current.0);
        push_bits(out, current.1);
        if self.history {
            push_bits(out, previous.0);
            push_bits(out, previous.1);
        }
        out.push(cond.voltage());
        out.push(cond.temperature());
        tevot_obs::metrics::CORE_ROWS_FEATURIZED.incr();
    }

    /// Allocating convenience form of [`Self::encode_into`].
    pub fn encode(
        self,
        cond: OperatingCondition,
        current: (u32, u32),
        previous: (u32, u32),
    ) -> Vec<f64> {
        let mut out = Vec::new();
        self.encode_into(cond, current, previous, &mut out);
        out
    }

    /// Packs one cycle's features without materializing the row:
    /// `a | b << 32 | a' << 64 | b' << 96` for `x[t] = (a, b)` and
    /// `x[t-1] = (a', b')`, plus the condition. [`PackedRow::feature`]
    /// then reads the value [`Self::encode_into`] would write at any
    /// index.
    #[inline]
    pub(crate) fn pack(
        self,
        cond: OperatingCondition,
        current: (u32, u32),
        previous: (u32, u32),
    ) -> PackedRow {
        let bits = u128::from(current.0)
            | u128::from(current.1) << 32
            | u128::from(previous.0) << 64
            | u128::from(previous.1) << 96;
        PackedRow {
            bits,
            num_bits: self.num_bit_features(),
            voltage: cond.voltage(),
            temperature: cond.temperature(),
        }
    }
}

/// One cycle's features in packed form; see [`FeatureEncoding::pack`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PackedRow {
    bits: u128,
    num_bits: u32,
    voltage: f64,
    temperature: f64,
}

impl PackedRow {
    /// Feature `f` of the Eq. 3 row: an operand bit as `0.0`/`1.0` below
    /// the bit count, then `V`, then `T` (any larger index also reads
    /// `T`; a model's width is checked against its encoding on load).
    #[inline]
    pub(crate) fn feature(&self, f: u32) -> f64 {
        if f < self.num_bits {
            (self.bits >> f & 1) as f64
        } else if f == self.num_bits {
            self.voltage
        } else {
            self.temperature
        }
    }
}

fn push_bits(out: &mut Vec<f64>, word: u32) {
    for i in 0..32 {
        out.push((word >> i & 1) as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dimensions_match_eq3() {
        assert_eq!(FeatureEncoding::with_history().num_features(), 130);
        assert_eq!(FeatureEncoding::without_history().num_features(), 66);
    }

    #[test]
    fn layout_is_bits_then_condition() {
        let cond = OperatingCondition::new(0.85, 75.0);
        let f = FeatureEncoding::with_history().encode(cond, (0b101, 0), (u32::MAX, 1));
        assert_eq!(f.len(), 130);
        // x[t] operand a: bits 0..32.
        assert_eq!(&f[0..3], &[1.0, 0.0, 1.0]);
        // x[t] operand b: all zero.
        assert!(f[32..64].iter().all(|&b| b == 0.0));
        // x[t-1] operand a: all ones.
        assert!(f[64..96].iter().all(|&b| b == 1.0));
        // x[t-1] operand b: bit 0 only.
        assert_eq!(f[96], 1.0);
        assert!(f[97..128].iter().all(|&b| b == 0.0));
        // Condition tail.
        assert_eq!(f[128], 0.85);
        assert_eq!(f[129], 75.0);
    }

    #[test]
    fn no_history_drops_previous_input() {
        let cond = OperatingCondition::new(1.0, 0.0);
        let a = FeatureEncoding::without_history().encode(cond, (7, 8), (9, 10));
        let b = FeatureEncoding::without_history().encode(cond, (7, 8), (999, 999));
        assert_eq!(a, b, "history must not influence the NH encoding");
        assert_eq!(a.len(), 66);
    }

    #[test]
    fn packed_row_reads_every_encoded_feature() {
        let cond = OperatingCondition::new(0.87, 33.5);
        let (cur, prev) = ((0xdead_beef, 0x0123_4567), (0x8000_0001, u32::MAX));
        for enc in [FeatureEncoding::with_history(), FeatureEncoding::without_history()] {
            let row = enc.encode(cond, cur, prev);
            let packed = enc.pack(cond, cur, prev);
            for (f, &x) in row.iter().enumerate() {
                assert_eq!(packed.feature(f as u32).to_bits(), x.to_bits(), "feature {f}");
            }
        }
    }

    #[test]
    fn encode_into_reuses_buffer() {
        let cond = OperatingCondition::nominal();
        let enc = FeatureEncoding::with_history();
        let mut buf = vec![1.0; 7];
        enc.encode_into(cond, (1, 2), (3, 4), &mut buf);
        assert_eq!(buf.len(), 130);
        assert_eq!(buf, enc.encode(cond, (1, 2), (3, 4)));
    }
}
