//! Deterministic randomness.
//!
//! Every source of randomness in the simulator derives from a single master
//! seed, so a run is exactly reproducible. Each process gets its own stream
//! (seeded from the master seed and its [`ProcessId`]) so that adding or
//! removing one process does not perturb the random draws of the others.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::ids::ProcessId;

/// A deterministic random stream handed to processes via
/// [`SysApi::rng`](crate::SysApi::rng).
///
/// Wraps a seeded [`StdRng`]; the newtype keeps the concrete generator out
/// of the public API (C-NEWTYPE-HIDE) while still implementing [`RngCore`]
/// so the full `rand` adapter ecosystem works on it.
#[derive(Clone, Debug)]
pub struct SimRng(StdRng);

impl SimRng {
    /// Creates the stream for `pid` under `master_seed`.
    pub fn for_process(master_seed: u64, pid: ProcessId) -> Self {
        SimRng(StdRng::seed_from_u64(mix(master_seed, pid.raw())))
    }

    /// Creates an auxiliary kernel stream (latency sampling etc.) under
    /// `master_seed`, differentiated by `stream`.
    pub fn for_kernel(master_seed: u64, stream: u64) -> Self {
        SimRng(StdRng::seed_from_u64(mix(master_seed, stream ^ 0xD15_7A4C)))
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        self.0.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.0.fill_bytes(dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.0.try_fill_bytes(dest)
    }
}

/// SplitMix64-style mixing so nearby seeds yield unrelated streams.
fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::for_process(7, ProcessId(3));
        let mut b = SimRng::for_process(7, ProcessId(3));
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_pids_differ() {
        let mut a = SimRng::for_process(7, ProcessId(3));
        let mut b = SimRng::for_process(7, ProcessId(4));
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn kernel_stream_differs_from_process_stream() {
        let mut a = SimRng::for_kernel(7, 3);
        let mut b = SimRng::for_process(7, ProcessId(3));
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn mix_spreads_sequential_inputs() {
        // Sequential seeds should not produce sequential outputs.
        let a = mix(1, 1);
        let b = mix(1, 2);
        assert!(a.abs_diff(b) > 1 << 32);
    }
}
