//! Host-speed probe: a fixed piece of single-threaded work, timed in the
//! CPU time of its own thread, that says how fast this host runs right now.
//!
//! A shared host's speed drifts while the hypervisor steals nothing (caches,
//! memory bandwidth and clock shared with other tenants): on the 2-vCPU
//! reference VM, ten back-to-back runs of `smallbank_hotspot` read
//! `txn_per_cpu_s` from 4805 down to 3400 within five minutes, and ten of
//! `ycsb_partial_durable` from 855 to 2133. So the benchmark runs the probe
//! beside the clients through each untraced window, one unit every
//! [`PERIOD`], and scales the round's time metrics by the median unit time
//! against [`REFERENCE_UNIT_NS`]: when the host is slower, the units take
//! longer too, and the scaled figures stay put.
//!
//! The probe shares the caches with the deployment, so a program change that
//! grows the deployment's cache footprint also slows the probe a little and
//! is partly scaled away; a change in the program's own CPU work is not.
//!
//! The work mirrors what a transaction costs: row-sized allocations and
//! copies, hash-map and ordered-map inserts and lookups, and a dependent
//! walk over 2 MiB that misses the private caches.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Duration;

/// CPU time of one probe unit on the reference host when it runs fast: the
/// host speed every `ref_` metric (and `setup_s`) is scaled to.
pub const REFERENCE_UNIT_NS: f64 = 5_000_000.0;

/// Pause between probe units.
pub const PERIOD: Duration = Duration::from_millis(100);

/// Entries of the map work in one unit.
const MAP_ENTRIES: u64 = 4_096;
/// Bytes of a row payload.
const ROW_BYTES: usize = 100;
/// Slots of the dependent walk (4 B each).
const WALK_SLOTS: usize = 1 << 19;
/// Steps of the dependent walk in one unit.
const WALK_STEPS: usize = 1 << 16;

/// CPU time the calling thread has run, in ns (`/proc/thread-self/schedstat`;
/// 0 if it cannot be read).
fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// The probe's fixed data, built once per run and shared by its rounds.
pub struct Probe {
    /// A single-cycle permutation of the walk's slots.
    next: Vec<u32>,
}

impl Probe {
    /// Builds the walk: the same on every run.
    pub fn new() -> Probe {
        // Sattolo's algorithm over a fixed LCG: one cycle through all slots.
        let mut order: Vec<u32> = (0..WALK_SLOTS as u32).collect();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for i in (1..WALK_SLOTS).rev() {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let j = ((x >> 33) as usize) % i;
            order.swap(i, j);
        }
        let mut next = vec![0u32; WALK_SLOTS];
        for w in 0..WALK_SLOTS {
            next[order[w] as usize] = order[(w + 1) % WALK_SLOTS];
        }
        Probe { next }
    }

    /// Runs one unit of work and returns the CPU time it took, in ns.
    pub fn unit_ns(&self) -> u64 {
        let start = thread_cpu_ns();
        let mut hashed: HashMap<u64, Vec<u8>> = HashMap::with_capacity(MAP_ENTRIES as usize);
        let mut ordered: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        let mut key: u64 = 1;
        for i in 0..MAP_ENTRIES {
            key = key.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(i);
            let row = vec![(i & 0xff) as u8; ROW_BYTES];
            hashed.insert(key, row.clone());
            ordered.insert(key >> 8, row);
        }
        let mut sum = 0u64;
        for (k, row) in &hashed {
            sum = sum.wrapping_add(u64::from(row[0]));
            if let Some(r) = ordered.get(&(k >> 8)) {
                sum = sum.wrapping_add(r.len() as u64);
            }
        }
        let mut slot = 0u32;
        for _ in 0..WALK_STEPS {
            slot = self.next[slot as usize];
        }
        black_box((sum, slot, hashed.len(), ordered.len()));
        thread_cpu_ns().saturating_sub(start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_walk_visits_every_slot_before_it_repeats() {
        let probe = Probe::new();
        let mut slot = probe.next[0];
        let mut steps = 1;
        while slot != 0 {
            slot = probe.next[slot as usize];
            steps += 1;
        }
        assert_eq!(steps, WALK_SLOTS);
    }

    #[test]
    fn a_unit_takes_cpu_time() {
        assert!(Probe::new().unit_ns() > 0);
    }
}
