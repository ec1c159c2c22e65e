//! Helpers shared by the root integration tests.

use plaid_mapper::Mapping;

/// FNV-1a over a word stream; stable across platforms and runs.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// Canonical content hash of a mapping: II, placements sorted by node id,
/// routes sorted by edge id with their full hop sequences.
pub fn mapping_fingerprint(mapping: &Mapping) -> u64 {
    let mut h = Fnv::new();
    h.word(u64::from(mapping.ii));
    let mut placements: Vec<_> = mapping.placements.iter().collect();
    placements.sort_by_key(|(n, _)| n.0);
    for (n, p) in placements {
        h.word(u64::from(n.0));
        h.word(u64::from(p.fu.0));
        h.word(u64::from(p.cycle));
    }
    let mut routes: Vec<_> = mapping.routes.iter().collect();
    routes.sort_by_key(|(e, _)| e.0);
    for (e, route) in routes {
        h.word(u64::from(e.0));
        for hop in &route.hops {
            h.word(u64::from(hop.resource.0));
            h.word(u64::from(hop.cycle));
        }
    }
    h.0
}
