// Fixture: seeded RNG and simulated hours only — calls no method the
// deterministic crates' `clippy.toml` disallows.
pub fn epoch_seed(seed: u64, hour: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(hour)
}
