//! The fleet engine's metric families, as cached handles into the global
//! [`p7_obs`] registry — the same accessor idiom as `p7_sim::telemetry`.
//!
//! Shard scheduling families deserve one caveat: *which worker* claims or
//! steals a shard depends on thread timing, so `ags_fleet_shards_stolen_total`
//! is legitimately jobs-variant (it counts scheduling events, not results).
//! Everything the fleet *reports* stays byte-identical at any worker count;
//! only these scheduling counters (and `*_seconds` families elsewhere) see
//! the machine.

use p7_obs::metrics::{global, Counter};
use std::sync::{Arc, OnceLock};

macro_rules! counter_accessor {
    ($(#[$doc:meta])* $fn_name:ident, $name:literal, $help:literal) => {
        $(#[$doc])*
        pub fn $fn_name() -> &'static Arc<Counter> {
            static HANDLE: OnceLock<Arc<Counter>> = OnceLock::new();
            HANDLE.get_or_init(|| global().counter($name, $help))
        }
    };
}

counter_accessor!(
    /// Shards claimed by fleet workers (from their own range or stolen).
    shards_claimed,
    "ags_fleet_shards_claimed_total",
    "Fleet shards claimed by workers, own-range and stolen combined"
);

counter_accessor!(
    /// Shards a worker took from another worker's range after draining its
    /// own. Jobs-variant by nature: stealing is a scheduling event.
    shards_stolen,
    "ags_fleet_shards_stolen_total",
    "Fleet shards claimed from another worker's range (work stealing)"
);

counter_accessor!(
    /// Server-epochs simulated or served from the solve cache.
    server_epochs,
    "ags_fleet_server_epochs_total",
    "Active fleet server-epochs resolved (simulated or cache-served)"
);

counter_accessor!(
    /// Server-epochs spent suspended (zero assigned threads or draining).
    idle_server_epochs,
    "ags_fleet_idle_server_epochs_total",
    "Fleet server-epochs spent in standby (idle or draining)"
);

/// Touches every fleet metric family so exporters see the full schema
/// (zero-valued included) before any fleet campaign runs.
pub fn register_all() {
    let _ = shards_claimed();
    let _ = shards_stolen();
    let _ = server_epochs();
    let _ = idle_server_epochs();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_return_stable_handles() {
        register_all();
        let enabled_before = global().is_enabled();
        global().set_enabled(true);
        let before = shards_stolen().get();
        shards_stolen().inc();
        assert_eq!(shards_stolen().get(), before + 1);
        global().set_enabled(enabled_before);
    }
}
