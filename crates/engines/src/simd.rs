//! Runtime-dispatched SIMD kernels for the hot loops of the per-guide
//! CPU engines: the blocked window verifier (XOR + even-lane collapse +
//! per-lane POPCNT over 8 candidate windows at once) and the 256-bit
//! blocked PAM-bitmap intersection (which lives in
//! [`crispr_genome::pamindex`] as width-generic portable code — profiling
//! shows the compiler already lowers it well, so explicit intrinsics are
//! reserved for the lane popcount codegen cannot reach). The batched
//! kernel ([`crate::multiseed`]) verifies one proposed window at a time
//! and does not dispatch.
//!
//! Backends are selected **once per `prepare()`** via [`resolve`]:
//! an explicit engine override beats the `OFFTARGET_SIMD` environment
//! variable, which beats runtime feature detection
//! (`is_x86_feature_detected!("avx2")` / the aarch64 NEON equivalent).
//! A requested ISA the host lacks degrades to [`SimdBackend::Portable`]
//! rather than crashing, and every resolution emits a `dispatch:simd`
//! trace instant so timelines record which path actually ran.
//!
//! Correctness contract: every kernel here is *exact* — bit-identical
//! output and identical counter events to the scalar path. SIMD changes
//! how many lanes a loop touches per iteration, never what a lane means;
//! the differential-oracle suite runs the same workloads through forced
//! `portable` twins to pin that.

use crispr_genome::hamming_lanes;

/// Candidate windows verified per blocked-verifier iteration.
pub(crate) const BLOCK: usize = 8;

/// The instruction set a prepared search's kernels dispatch to.
///
/// `Scalar` reproduces the pre-SIMD code paths exactly (one window per
/// iteration); the other three run the blocked kernels, differing only in
/// how a block is computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdBackend {
    /// The original one-lane-at-a-time loops; the differential baseline.
    Scalar,
    /// Blocked kernels in plain `u64` code —`u64×4`/`u64×8` loops the
    /// autovectorizer can widen, and the exact fallback semantics the
    /// explicit ISAs must match.
    Portable,
    /// x86_64 AVX2: 256-bit XOR/AND and a nibble-LUT popcount.
    Avx2,
    /// aarch64 NEON: 128-bit pairs with `vcnt`+`vpaddl` popcount chains.
    Neon,
}

impl SimdBackend {
    /// Every backend, in gauge-code order.
    pub const ALL: [SimdBackend; 4] =
        [SimdBackend::Scalar, SimdBackend::Portable, SimdBackend::Avx2, SimdBackend::Neon];

    /// The `OFFTARGET_SIMD` spelling of this backend.
    pub fn name(self) -> &'static str {
        match self {
            SimdBackend::Scalar => "scalar",
            SimdBackend::Portable => "portable",
            SimdBackend::Avx2 => "avx2",
            SimdBackend::Neon => "neon",
        }
    }

    /// Stable numeric encoding for the `simd_backend` metrics gauge and
    /// the `dispatch:simd` trace instant: 0 scalar, 1 portable, 2 avx2,
    /// 3 neon.
    pub fn gauge(self) -> f64 {
        match self {
            SimdBackend::Scalar => 0.0,
            SimdBackend::Portable => 1.0,
            SimdBackend::Avx2 => 2.0,
            SimdBackend::Neon => 3.0,
        }
    }

    /// The best backend the host supports, probed at runtime.
    pub fn detect() -> SimdBackend {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                return SimdBackend::Avx2;
            }
        }
        #[cfg(target_arch = "aarch64")]
        {
            if std::arch::is_aarch64_feature_detected!("neon") {
                return SimdBackend::Neon;
            }
        }
        SimdBackend::Portable
    }

    /// Whether this backend can run on the current host.
    pub fn available(self) -> bool {
        match self {
            SimdBackend::Scalar | SimdBackend::Portable => true,
            #[cfg(target_arch = "x86_64")]
            SimdBackend::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "aarch64")]
            SimdBackend::Neon => std::arch::is_aarch64_feature_detected!("neon"),
            #[allow(unreachable_patterns)]
            _ => false,
        }
    }

    /// Parses an `OFFTARGET_SIMD` value. `auto` — and, deliberately, any
    /// unrecognized spelling — defers to detection; a named ISA the host
    /// lacks degrades to `portable` instead of failing a production run.
    pub fn from_env_value(value: &str) -> SimdBackend {
        let choice = match value.trim().to_ascii_lowercase().as_str() {
            "scalar" => SimdBackend::Scalar,
            "portable" => SimdBackend::Portable,
            "avx2" => SimdBackend::Avx2,
            "neon" => SimdBackend::Neon,
            _ => SimdBackend::detect(),
        };
        if choice.available() {
            choice
        } else {
            SimdBackend::Portable
        }
    }
}

/// Resolves the backend for one `prepare()` call — explicit engine
/// override first, then `OFFTARGET_SIMD`, then detection — and emits the
/// `dispatch:simd` trace instant (arg0 = gauge code) so traces record
/// which path ran.
pub(crate) fn resolve(preference: Option<SimdBackend>) -> SimdBackend {
    let backend = match preference {
        Some(choice) if choice.available() => choice,
        Some(_) => SimdBackend::Portable,
        None => match std::env::var("OFFTARGET_SIMD") {
            Ok(value) => SimdBackend::from_env_value(&value),
            Err(_) => SimdBackend::detect(),
        },
    };
    crispr_trace::instant("dispatch:simd", backend.gauge() as u64, 0);
    backend
}

/// Per-lane mismatch counts for one block of extracted window words
/// against one right-aligned 2-bit pattern word. Exact on every backend;
/// only the lane grouping differs.
#[inline]
pub(crate) fn mismatch_counts(
    backend: SimdBackend,
    windows: &[u64; BLOCK],
    pattern: u64,
    out: &mut [u32; BLOCK],
) {
    match backend {
        #[cfg(target_arch = "x86_64")]
        SimdBackend::Avx2 => unsafe { avx2::mismatch_counts(windows, pattern, out) },
        #[cfg(target_arch = "aarch64")]
        SimdBackend::Neon => unsafe { neon::mismatch_counts(windows, pattern, out) },
        _ => *out = hamming_lanes(windows, pattern),
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::BLOCK;
    use std::arch::x86_64::*;

    /// AVX2 lane verifier: two 4×64 halves; XOR against the broadcast
    /// pattern, collapse each 2-bit base lane to its low bit, then count
    /// with the nibble-LUT `vpshufb` popcount + `vpsadbw` horizontal sum
    /// (AVX2 has no per-lane POPCNT instruction).
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available.
    #[target_feature(enable = "avx2")]
    pub unsafe fn mismatch_counts(windows: &[u64; BLOCK], pattern: u64, out: &mut [u32; BLOCK]) {
        let pat = _mm256_set1_epi64x(pattern as i64);
        let even = _mm256_set1_epi64x(0x5555_5555_5555_5555u64 as i64);
        let low_nibble = _mm256_set1_epi8(0x0F);
        #[rustfmt::skip]
        let lut = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        );
        for half in 0..2 {
            let v = _mm256_loadu_si256(windows.as_ptr().add(4 * half) as *const __m256i);
            let diff = _mm256_xor_si256(v, pat);
            let lanes = _mm256_and_si256(_mm256_or_si256(diff, _mm256_srli_epi64::<1>(diff)), even);
            let lo = _mm256_and_si256(lanes, low_nibble);
            let hi = _mm256_and_si256(_mm256_srli_epi16::<4>(lanes), low_nibble);
            let counts =
                _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
            // Per-64-bit-lane byte sums land in the low 16 bits of each lane.
            let sums = _mm256_sad_epu8(counts, _mm256_setzero_si256());
            let mut lanes_out = [0u64; 4];
            _mm256_storeu_si256(lanes_out.as_mut_ptr() as *mut __m256i, sums);
            for (j, &sum) in lanes_out.iter().enumerate() {
                out[4 * half + j] = sum as u32;
            }
        }
    }
}

#[cfg(target_arch = "aarch64")]
mod neon {
    use super::BLOCK;
    use std::arch::aarch64::*;

    /// NEON lane verifier: four 2×64 pairs; XOR against the broadcast
    /// pattern, collapse 2-bit base lanes, then the byte-popcount +
    /// pairwise-widening-add chain (`vcnt` → `vpaddl×3`) yields per-64
    /// counts.
    ///
    /// # Safety
    ///
    /// Caller must ensure NEON is available.
    #[target_feature(enable = "neon")]
    pub unsafe fn mismatch_counts(windows: &[u64; BLOCK], pattern: u64, out: &mut [u32; BLOCK]) {
        let pat = vdupq_n_u64(pattern);
        let even = vdupq_n_u64(0x5555_5555_5555_5555);
        for pair in 0..4 {
            let v = vld1q_u64(windows.as_ptr().add(2 * pair));
            let diff = veorq_u64(v, pat);
            let lanes = vandq_u64(vorrq_u64(diff, vshrq_n_u64::<1>(diff)), even);
            let bytes = vcntq_u8(vreinterpretq_u8_u64(lanes));
            let sums = vpaddlq_u32(vpaddlq_u16(vpaddlq_u8(bytes)));
            out[2 * pair] = vgetq_lane_u64::<0>(sums) as u32;
            out[2 * pair + 1] = vgetq_lane_u64::<1>(sums) as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crispr_genome::{DnaSeq, PackedSeq};

    fn packed(text: &str) -> PackedSeq {
        PackedSeq::from_seq(&text.parse::<DnaSeq>().unwrap())
    }

    /// Pseudo-random base stream for kernel-equivalence checks.
    fn synth(len: usize, seed: u64) -> PackedSeq {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                crispr_genome::Base::from_code((state >> 33) as u8)
            })
            .collect()
    }

    #[test]
    fn env_value_parsing() {
        assert_eq!(SimdBackend::from_env_value("scalar"), SimdBackend::Scalar);
        assert_eq!(SimdBackend::from_env_value(" Portable "), SimdBackend::Portable);
        // auto and junk both defer to detection.
        assert_eq!(SimdBackend::from_env_value("auto"), SimdBackend::detect());
        assert_eq!(SimdBackend::from_env_value("warp-drive"), SimdBackend::detect());
        // A named ISA never resolves to something the host lacks.
        for value in ["avx2", "neon"] {
            assert!(SimdBackend::from_env_value(value).available(), "{value}");
        }
    }

    #[test]
    fn gauge_codes_are_stable_and_distinct() {
        let codes: Vec<f64> = SimdBackend::ALL.iter().map(|b| b.gauge()).collect();
        assert_eq!(codes, vec![0.0, 1.0, 2.0, 3.0]);
        assert_eq!(SimdBackend::ALL.map(|b| b.name()), ["scalar", "portable", "avx2", "neon"]);
    }

    #[test]
    fn detected_backend_is_available() {
        assert!(SimdBackend::detect().available());
    }

    #[test]
    fn mismatch_counts_all_backends_agree() {
        let genome = synth(512, 0x9E37_79B9);
        let pattern_src = synth(20, 0xBF58_476D);
        let pattern = pattern_src.window_word(0, 20);
        for block_start in [0usize, 3, 31, 64, 200, 460] {
            let starts: [usize; BLOCK] = std::array::from_fn(|j| block_start + 4 * j);
            let windows = starts.map(|start| genome.window_word(start, 20));
            let reference = hamming_lanes(&windows, pattern);
            for backend in SimdBackend::ALL {
                if !backend.available() {
                    continue;
                }
                let mut got = [0u32; BLOCK];
                mismatch_counts(backend, &windows, pattern, &mut got);
                assert_eq!(got, reference, "backend {} block {block_start}", backend.name());
            }
        }
    }

    #[test]
    fn window_block_verify_on_handwritten_case() {
        let genome = packed(&"ACGTAGGT".repeat(16));
        let pat = packed("ACGTAGGT").window_word(0, 8);
        let starts: [usize; BLOCK] = std::array::from_fn(|j| 8 * j);
        let windows = starts.map(|start| genome.window_word(start, 8));
        let counts = hamming_lanes(&windows, pat);
        assert_eq!(counts, [0u32; BLOCK]);
        let offset_starts: [usize; BLOCK] = std::array::from_fn(|j| 8 * j + 1);
        let shifted = offset_starts.map(|start| genome.window_word(start, 8));
        let shifted_counts = hamming_lanes(&shifted, pat);
        assert!(shifted_counts.iter().all(|&c| c > 0));
    }
}
