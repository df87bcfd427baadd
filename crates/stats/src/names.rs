//! The schema's stat names, interned.
//!
//! Every node, counter and metric name a timing model, the energy model
//! or the scheduler writes is one of the literals below. A [`StatSet`]
//! stores such a name as a borrowed `&'static str` that points into
//! [`SCHEMA`], so building, cloning and dropping a tree allocates nothing
//! per name. A name outside the table (a hostile document, a future
//! counter) is stored as an owned string: it still round-trips exactly,
//! and the table never grows at run time. Names compare by content,
//! whichever way they are stored.
//!
//! [`StatSet`]: crate::StatSet

use std::borrow::Cow;

/// A stat name: borrowed from [`SCHEMA`] when it is a schema name, owned
/// otherwise.
pub(crate) type Name = Cow<'static, str>;

macro_rules! schema {
    ($($name:literal)*) => {
        /// Every stat name of the schema, each once.
        pub static SCHEMA: &[&str] = &[$($name),*];

        /// The slot of `name` in [`SCHEMA`], if it has one: one literal
        /// comparison per name, like a `match`. A binary search over a
        /// sorted table measured slower than the allocation it saves.
        #[allow(unused_assignments)]
        fn slot(name: &str) -> Option<usize> {
            let mut i = 0;
            $(
                if name == $name {
                    return Some(i);
                }
                i += 1;
            )*
            None
        }
    };
}

schema! {
    // Nodes.
    "system" "gpp" "mix" "dcache" "lpsu" "stalls" "energy" "supervisor" "sampling"
    "profile" "store" "sched"
    // `system`.
    "cycles" "instret" "lpsu_cycles" "scans" "scan_instrs" "xloops_specialized"
    "xloops_fallback" "adaptive_to_gpp" "adaptive_to_lpsu" "ipc" "energy_nj"
    // `gpp`, `gpp.mix`, `gpp.dcache`.
    "mispredicts" "alu" "llfu" "loads" "stores" "amos" "branches" "branches_taken" "jumps"
    "xloops" "xis" "syncs" "total" "read_hits" "read_misses" "write_hits" "write_misses"
    "miss_rate"
    // `lpsu`, `lpsu.stalls`.
    "lane_cycles" "exec" "squash" "idle" "iterations" "squashed_iters" "squashed_instrs"
    "mem_accesses" "llfu_ops" "xi_ops" "cir_transfers" "lsq_events" "raw" "mem_port" "cir"
    "lsq"
    // `energy`.
    "icache_fetches" "ibuf_fetches" "alu_ops" "dcache_accesses" "rf_reads" "rf_writes"
    "ooo_instrs" "xi_muls"
    // `supervisor`.
    "checkpoints" "rewinds" "retries" "degraded" "injected_faults"
    // `sampling`.
    "intervals" "measured_cycles" "measured_instrs" "ff_instrs" "warm_instrs" "warm_cycles"
    "extrapolated_cycles" "rel_stderr"
    // `profile`, `profile.store`, `profile.sched`.
    "gpp_ns" "scan_ns" "engine_ns" "handoffs" "hits" "misses" "corrupt" "bytes_read"
    "bytes_written" "job" "simulated"
}

/// `name` as the [`SCHEMA`] literal equal to it, if there is one.
pub fn schema_name(name: &str) -> Option<&'static str> {
    slot(name).map(|i| SCHEMA[i])
}

/// `name` as a [`Name`]: the schema's own literal when it has one, an
/// owned copy otherwise.
pub(crate) fn intern(name: &str) -> Name {
    match schema_name(name) {
        Some(known) => Cow::Borrowed(known),
        None => Cow::Owned(name.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_schema_name_is_its_own_slot() {
        // A duplicate literal would never be found: `slot` stops at the first.
        for (i, name) in SCHEMA.iter().enumerate() {
            assert_eq!(slot(name), Some(i), "{name}");
        }
        assert_eq!(slot("nope"), None);
        assert_eq!(slot(""), None);
    }

    #[test]
    fn schema_names_are_borrowed_and_others_owned() {
        let (a, b) = (intern("cycles"), intern(&String::from("cycles")));
        assert!(matches!(a, Cow::Borrowed(_)));
        assert_eq!(a, b);
        assert_ne!(a, intern("instret"));
        let (x, y) = (intern("not-a-stat"), intern("not-a-stat"));
        assert!(matches!(x, Cow::Owned(_)));
        assert_eq!(x, y);
        assert_ne!(x, a);
    }
}
