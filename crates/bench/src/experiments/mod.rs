//! One function per figure/table of the paper's evaluation.
//!
//! Every function evaluates the workspace's models at paper scale and returns
//! a plain-text report with the same rows/series as the corresponding figure
//! or table. The binaries under `src/bin/` are thin wrappers over these
//! functions; [`all`] concatenates the complete suite (what
//! `cargo run -p megis-bench --bin all_experiments` prints and what
//! EXPERIMENTS.md records).

mod accuracy;
mod comparison;
mod energy;
mod engine;
mod fault_recovery;
mod hardware;
mod hotpath;
mod motivation;
mod presence;
mod queue;
mod scaling;
mod step3_scaling;
mod trace_overhead;

pub use accuracy::accuracy_analysis;
pub use comparison::{
    fig18_cost_efficiency, fig19_pim_comparison, fig20_abundance, fig21_multi_sample,
};
pub use energy::energy_analysis;
pub use engine::{fig15_sharded_engine, fig21_batch_engine, streaming_load_analysis};
pub use fault_recovery::{fault_recovery, fault_recovery_measure, FaultRecoveryMeasurement};
pub use hardware::{kss_size_analysis, table1_ssd_configs, table2_area_power};
pub use hotpath::{hotpath, hotpath_measure, HotpathMeasurement};
pub use motivation::fig03_io_overhead;
pub use presence::{fig12_presence_speedup, fig13_time_breakdown, fig14_database_size};
pub use queue::{
    queue_depth_sweep, queue_depth_sweep_measure, QueueDepthMeasurement, QueueDepthRow,
};
pub use scaling::{fig15_multi_ssd, fig16_dram_capacity, fig17_internal_bandwidth};
pub use step3_scaling::{
    step3_scaling, step3_scaling_measure, step3_trace_measure, Step3ScalingMeasurement,
    Step3TraceMeasurement, CLOSURE_GATE,
};
pub use trace_overhead::{
    trace_overhead, trace_overhead_measure, TraceOverheadMeasurement, OVERHEAD_GATE,
};

/// Runs every experiment and concatenates the reports in paper order.
pub fn all() -> String {
    [
        fig03_io_overhead(),
        table1_ssd_configs(),
        fig12_presence_speedup(),
        fig13_time_breakdown(),
        fig14_database_size(),
        fig15_multi_ssd(),
        fig15_sharded_engine(),
        fig16_dram_capacity(),
        fig17_internal_bandwidth(),
        fig18_cost_efficiency(),
        fig19_pim_comparison(),
        fig20_abundance(),
        fig21_multi_sample(),
        fig21_batch_engine(),
        streaming_load_analysis(),
        queue_depth_sweep(),
        step3_scaling(),
        trace_overhead(),
        fault_recovery(),
        hotpath(),
        table2_area_power(),
        kss_size_analysis(),
        energy_analysis(),
        accuracy_analysis(),
    ]
    .concat()
}

/// The two reference single-SSD systems of the evaluation (§5).
pub(crate) fn reference_systems() -> Vec<megis_host::system::SystemConfig> {
    vec![
        megis_host::system::SystemConfig::reference(megis_ssd::config::SsdConfig::ssd_c()),
        megis_host::system::SystemConfig::reference(megis_ssd::config::SsdConfig::ssd_p()),
    ]
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_experiment_produces_output() {
        for (name, text) in [
            ("fig03", super::fig03_io_overhead()),
            ("table1", super::table1_ssd_configs()),
            ("fig12", super::fig12_presence_speedup()),
            ("fig13", super::fig13_time_breakdown()),
            ("fig14", super::fig14_database_size()),
            ("fig15", super::fig15_multi_ssd()),
            ("fig15-engine", super::fig15_sharded_engine()),
            ("fig16", super::fig16_dram_capacity()),
            ("fig17", super::fig17_internal_bandwidth()),
            ("fig18", super::fig18_cost_efficiency()),
            ("fig19", super::fig19_pim_comparison()),
            ("fig20", super::fig20_abundance()),
            ("fig21", super::fig21_multi_sample()),
            ("fig21-engine", super::fig21_batch_engine()),
            ("streaming-load", super::streaming_load_analysis()),
            // `hotpath`, `step3_scaling`, `trace_overhead`, and
            // `fault_recovery` are deliberately absent: the first's
            // cache-oversized fixture makes a full measurement expensive,
            // the others sleep simulated device streams, and all four have
            // test modules that already run (and assert on) one
            // measurement — duplicating them here would pay that cost twice
            // per test run for a non-emptiness check.
            ("table2", super::table2_area_power()),
            ("kss", super::kss_size_analysis()),
            ("energy", super::energy_analysis()),
        ] {
            assert!(text.len() > 200, "{name} report looks empty");
            assert!(
                text.contains("Figure") || text.contains("Table") || text.contains("analysis"),
                "{name} report misses expected content"
            );
        }
    }
}
