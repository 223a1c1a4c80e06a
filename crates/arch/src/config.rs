//! Architectural parameters (paper Table III) and CPU-generation
//! scaling (paper Fig 20).

use accelflow_sim::time::{Frequency, SimDuration};

/// Intel CPU generations modeled for the Fig 20 sensitivity study.
///
/// The paper models Haswell through Emerald Rapids. We capture each
/// generation as a frequency plus a single-thread performance factor
/// applied to *application-logic* cycles. Datacenter-tax operations are
/// memory/branch-bound and benefit far less from wider cores (this is
/// the paper's §VII-C4 observation), so tax cycles get a damped factor.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CpuGeneration {
    /// 2013-class core (narrow issue, small ROB).
    Haswell,
    /// 2015-class core.
    Skylake,
    /// The paper's baseline: Sunny Cove (Ice Lake server).
    IceLake,
    /// 2023-class core (Golden Cove).
    SapphireRapids,
    /// 2023/24-class core (Raptor Cove).
    EmeraldRapids,
}

impl CpuGeneration {
    /// All generations, oldest first (the Fig 20 x-axis).
    pub const ALL: [CpuGeneration; 5] = [
        CpuGeneration::Haswell,
        CpuGeneration::Skylake,
        CpuGeneration::IceLake,
        CpuGeneration::SapphireRapids,
        CpuGeneration::EmeraldRapids,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            CpuGeneration::Haswell => "Haswell",
            CpuGeneration::Skylake => "Skylake",
            CpuGeneration::IceLake => "IceLake",
            CpuGeneration::SapphireRapids => "SapphireRapids",
            CpuGeneration::EmeraldRapids => "EmeraldRapids",
        }
    }

    /// Single-thread speedup of application logic relative to IceLake.
    ///
    /// Synthesized from public SPECrate-class deltas between the
    /// generations; only the *relative ordering and rough magnitude*
    /// matter for Fig 20's shape.
    pub fn app_logic_factor(self) -> f64 {
        match self {
            CpuGeneration::Haswell => 0.68,
            CpuGeneration::Skylake => 0.84,
            CpuGeneration::IceLake => 1.00,
            CpuGeneration::SapphireRapids => 1.18,
            CpuGeneration::EmeraldRapids => 1.27,
        }
    }

    /// Single-thread speedup of datacenter-tax code relative to IceLake.
    ///
    /// Tax operations are dominated by memory movement, hashing, and
    /// branchy parsing; newer cores help them much less (§VII-C4: "newer
    /// processors ... offer less benefit to datacenter tax operations").
    pub fn tax_factor(self) -> f64 {
        match self {
            CpuGeneration::Haswell => 0.85,
            CpuGeneration::Skylake => 0.93,
            CpuGeneration::IceLake => 1.00,
            CpuGeneration::SapphireRapids => 1.06,
            CpuGeneration::EmeraldRapids => 1.09,
        }
    }
}

/// The full architectural parameter set (paper Table III plus the
/// orchestration-cost constants given in the text).
///
/// # Example
///
/// ```
/// use accelflow_arch::config::ArchConfig;
///
/// let cfg = ArchConfig::icelake();
/// assert_eq!(cfg.cores, 36);
/// assert_eq!(cfg.pes_per_accelerator, 8);
/// assert_eq!(cfg.input_queue_entries, 64);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct ArchConfig {
    // --- Processor parameters ---
    /// Number of CPU cores (paper: 36).
    pub cores: usize,
    /// Core clock (paper: 2.4 GHz).
    pub core_clock: Frequency,
    /// CPU generation (scales app-logic/tax cycle counts; Fig 20).
    pub generation: CpuGeneration,

    // --- AccelFlow parameters ---
    /// Entries in each accelerator input queue (paper: 64).
    pub input_queue_entries: usize,
    /// Entries in each accelerator output queue (paper: 64).
    pub output_queue_entries: usize,
    /// Inline data capacity of a queue entry in bytes (paper: 2 KB).
    pub queue_entry_inline_bytes: u64,
    /// Number of shared A-DMA engines (paper: 10).
    pub dma_engines: usize,
    /// Processing elements per accelerator (paper: 8; Fig 19 sweeps 2/4/8).
    pub pes_per_accelerator: usize,
    /// Scratchpad bytes per PE (paper: 64 KB).
    pub scratchpad_bytes: u64,
    /// Queue→scratchpad transfer latency (paper: 10 ns).
    pub queue_to_scratchpad_latency: SimDuration,
    /// Queue→scratchpad bandwidth in bytes/second (paper: 100 GB/s).
    pub queue_to_scratchpad_bw: f64,
    /// Accelerator→core user-level notification latency (paper: avg 80
    /// cycles).
    pub notification_cycles: f64,
    /// Intra-chiplet mesh hop latency in cycles (paper: 3).
    pub mesh_hop_cycles: f64,
    /// Intra-chiplet mesh link width in bytes (paper: 16 B).
    pub mesh_link_bytes: u64,
    /// Inter-chiplet link latency in cycles (paper: 60; §VII-C2 sweeps
    /// 20–100).
    pub inter_chiplet_cycles: f64,
    /// Inter-chiplet link bandwidth in bytes/second. Table III lists
    /// narrow per-link bandwidth (1 Gb/s/link class, after CDPU); we
    /// use an effective 2 GB/s per message path, which makes chiplet
    /// crossings µs-scale for 2 KB payloads — the effect Fig 18
    /// measures.
    pub inter_chiplet_bw: f64,
    /// Overflow area capacity, in entries, per input queue.
    pub overflow_entries: usize,

    // --- Translation ---
    /// Per-accelerator TLB entries (ATS devices keep a large IOTLB;
    /// Table III's L2 TLB is 2048 entries).
    pub accel_tlb_entries: usize,
    /// TLB associativity.
    pub accel_tlb_ways: usize,
    /// TLB hit latency in cycles (paper L1 TLB: 2-cycle round trip).
    pub tlb_hit_cycles: f64,
    /// IOMMU page-walk latency in cycles on TLB miss (radix walk; a few
    /// dependent memory accesses).
    pub iommu_walk_cycles: f64,
    /// Page size in bytes.
    pub page_bytes: u64,

    // --- Memory hierarchy ---
    /// LLC round-trip latency in cycles (paper: 36 per slice).
    pub llc_latency_cycles: f64,
    /// Main-memory round-trip latency in cycles.
    pub memory_latency_cycles: f64,
    /// Probability an accelerator/core payload access hits in the LLC.
    pub llc_hit_ratio: f64,
    /// Total memory bandwidth in bytes/second (paper: 4 controllers ×
    /// 102.4 GB/s).
    pub memory_bw: f64,

    // --- Orchestration costs (from the paper's text) ---
    /// Time for an accelerator completion interrupt to reach and be
    /// processed by a CPU core (CPU-Centric baseline; µs-scale).
    pub cpu_interrupt_overhead: SimDuration,
    /// CPU-side cost to prepare and submit one accelerator invocation.
    pub cpu_submit_overhead: SimDuration,
    /// RELIEF manager *occupancy* per accelerator completion: the
    /// serialized portion of the manager's work. The paper's §VII-A1
    /// quotes ≈1.5 µs to "get interrupted plus process"; most of that
    /// is interrupt delivery latency (pipelined across requests) — see
    /// `manager_latency` — while the serialized decision work is a few
    /// hundred ns. The manager saturates at 1/occupancy completions/s.
    pub manager_service_time: SimDuration,
    /// RELIEF manager interrupt-delivery + response latency added to
    /// every hop (non-occupying; the latency half of §VII-A1's 1.5 µs).
    pub manager_latency: SimDuration,
    /// Manager occupancy when a trace *falls back* to the manager for
    /// an operation outside its streamlined scheduling loop (branch
    /// resolution or data transformation in the Fig 13 ablation rungs,
    /// Memory-Pointer payload handling): a full interrupt + handling
    /// round (§VII-A1's 1.5 µs class of event).
    pub manager_fallback_time: SimDuration,
    /// Cohort's shared-memory software-queue handoff cost on the core.
    pub cohort_queue_overhead: SimDuration,
    /// Dispatcher clock period (dispatchers are small FSMs executing
    /// RISC-like glue instructions against SRAM queue entries; we clock
    /// them at a quarter of the core frequency, ~600 MHz).
    pub dispatcher_cycle: SimDuration,
    /// Core cycles for the user-mode `Enqueue` instruction plus A-DMA
    /// programming (AccelFlow's cheap submission path, §IV-A).
    pub enqueue_cycles: f64,
    /// Latency of one ATM read (on-chip SRAM).
    pub atm_read_latency: SimDuration,
    /// Core cycles to pick up a user-level completion notification
    /// (poll the flag, read the result pointer).
    pub pickup_cycles: f64,
    /// OS handling time for a page fault or other accelerator
    /// exception (the accelerator stops and interrupts a core, §IV-A).
    pub exception_handling: SimDuration,
}

impl ArchConfig {
    /// The paper's baseline configuration (Table III, IceLake-like).
    pub fn icelake() -> Self {
        let clock = Frequency::from_ghz(2.4);
        ArchConfig {
            cores: 36,
            core_clock: clock,
            generation: CpuGeneration::IceLake,

            input_queue_entries: 64,
            output_queue_entries: 64,
            queue_entry_inline_bytes: 2048,
            dma_engines: 10,
            pes_per_accelerator: 8,
            scratchpad_bytes: 64 * 1024,
            queue_to_scratchpad_latency: SimDuration::from_nanos(10),
            queue_to_scratchpad_bw: 100e9,
            notification_cycles: 80.0,
            mesh_hop_cycles: 3.0,
            mesh_link_bytes: 16,
            inter_chiplet_cycles: 60.0,
            inter_chiplet_bw: 2e9,
            overflow_entries: 256,

            accel_tlb_entries: 2048,
            accel_tlb_ways: 8,
            tlb_hit_cycles: 2.0,
            iommu_walk_cycles: 400.0,
            page_bytes: 4096,

            llc_latency_cycles: 36.0,
            memory_latency_cycles: 220.0,
            llc_hit_ratio: 0.85,
            memory_bw: 4.0 * 102.4e9,

            cpu_interrupt_overhead: SimDuration::from_nanos(3400),
            cpu_submit_overhead: SimDuration::from_nanos(1200),
            manager_service_time: SimDuration::from_nanos(110),
            manager_latency: SimDuration::from_nanos(1200),
            manager_fallback_time: SimDuration::from_nanos(270),
            cohort_queue_overhead: SimDuration::from_nanos(3900),
            dispatcher_cycle: clock.cycles(4.0),
            enqueue_cycles: 100.0,
            atm_read_latency: SimDuration::from_nanos(15),
            pickup_cycles: 250.0,
            exception_handling: SimDuration::from_micros(8),
        }
    }

    /// Baseline configuration for a given CPU generation (Fig 20): same
    /// uncore, different core performance factors.
    pub fn for_generation(generation: CpuGeneration) -> Self {
        ArchConfig {
            generation,
            ..Self::icelake()
        }
    }

    /// Duration of `n` core cycles.
    pub fn cycles(&self, n: f64) -> SimDuration {
        self.core_clock.cycles(n)
    }

    /// The accelerator→core notification latency.
    pub fn notification_latency(&self) -> SimDuration {
        self.cycles(self.notification_cycles)
    }

    /// Time to move `bytes` from a queue into a PE scratchpad
    /// (paper: 10 ns latency, 100 GB/s, pipelined).
    pub fn queue_to_scratchpad(&self, bytes: u64) -> SimDuration {
        self.queue_to_scratchpad_latency
            + SimDuration::from_secs_f64(bytes as f64 / self.queue_to_scratchpad_bw)
    }

    /// Expected latency for a payload access of `bytes` through the
    /// coherent LLC (hit) or memory (miss), serialized at line
    /// granularity but overlapped (we charge one access latency plus
    /// bandwidth-limited streaming).
    pub fn payload_access(&self, bytes: u64) -> SimDuration {
        let hit = self.llc_hit_ratio;
        let lat_cycles = hit * self.llc_latency_cycles + (1.0 - hit) * self.memory_latency_cycles;
        let stream = SimDuration::from_secs_f64(bytes as f64 / self.memory_bw);
        self.cycles(lat_cycles) + stream
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.cores == 0 {
            return Err("config needs at least one core".into());
        }
        if self.pes_per_accelerator == 0 {
            return Err("config needs at least one PE per accelerator".into());
        }
        if self.dma_engines == 0 {
            return Err("config needs at least one DMA engine".into());
        }
        if self.input_queue_entries == 0 || self.output_queue_entries == 0 {
            return Err("queues need at least one entry".into());
        }
        if !(0.0..=1.0).contains(&self.llc_hit_ratio) {
            return Err("llc_hit_ratio must be within [0, 1]".into());
        }
        if self.accel_tlb_ways == 0 || !self.accel_tlb_entries.is_multiple_of(self.accel_tlb_ways) {
            return Err("TLB entries must be divisible by associativity".into());
        }
        if self.accel_tlb_entries.max(self.accel_tlb_ways) > crate::tlb::MAX_ENTRIES {
            return Err(format!(
                "TLB entries and ways must not exceed {}",
                crate::tlb::MAX_ENTRIES
            ));
        }
        if !self.page_bytes.is_power_of_two() {
            return Err("page size must be a power of two".into());
        }
        Ok(())
    }
}

impl Default for ArchConfig {
    fn default() -> Self {
        Self::icelake()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table_iii() {
        let cfg = ArchConfig::icelake();
        assert_eq!(cfg.cores, 36);
        assert!((cfg.core_clock.as_ghz() - 2.4).abs() < 1e-9);
        assert_eq!(cfg.input_queue_entries, 64);
        assert_eq!(cfg.output_queue_entries, 64);
        assert_eq!(cfg.queue_entry_inline_bytes, 2048);
        assert_eq!(cfg.dma_engines, 10);
        assert_eq!(cfg.pes_per_accelerator, 8);
        assert_eq!(cfg.scratchpad_bytes, 64 * 1024);
        assert_eq!(cfg.mesh_hop_cycles, 3.0);
        assert_eq!(cfg.inter_chiplet_cycles, 60.0);
        assert_eq!(cfg.notification_cycles, 80.0);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn generations_are_monotonic() {
        let mut last_app = 0.0;
        let mut last_tax = 0.0;
        for g in CpuGeneration::ALL {
            assert!(g.app_logic_factor() > last_app, "{:?}", g);
            assert!(g.tax_factor() > last_tax, "{:?}", g);
            last_app = g.app_logic_factor();
            last_tax = g.tax_factor();
        }
        // Tax benefits less than app logic from newer cores.
        for g in CpuGeneration::ALL {
            if g > CpuGeneration::IceLake {
                assert!(g.tax_factor() < g.app_logic_factor());
            }
            if g < CpuGeneration::IceLake {
                assert!(g.tax_factor() > g.app_logic_factor());
            }
        }
    }

    #[test]
    fn queue_to_scratchpad_matches_paper_example() {
        let cfg = ArchConfig::icelake();
        // Paper: "10 ns latency and 100 GB/s BW for 1KB msgs".
        let t = cfg.queue_to_scratchpad(1024);
        assert!((t.as_nanos_f64() - 20.24).abs() < 0.5, "{t}");
    }

    #[test]
    fn payload_access_scales_with_size() {
        let cfg = ArchConfig::icelake();
        let small = cfg.payload_access(64);
        let large = cfg.payload_access(64 * 1024);
        assert!(large > small);
        // Latency floor: at least an LLC access.
        assert!(small >= cfg.cycles(cfg.llc_latency_cycles) * 0.8);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut cfg = ArchConfig::icelake();
        cfg.llc_hit_ratio = 1.5;
        assert!(cfg.validate().is_err());
        let mut cfg = ArchConfig::icelake();
        cfg.accel_tlb_ways = 3; // 2048 % 3 != 0
        assert!(cfg.validate().is_err());
        let mut cfg = ArchConfig::icelake();
        cfg.accel_tlb_entries = crate::tlb::MAX_ENTRIES * 2;
        assert!(cfg.validate().is_err());
        let mut cfg = ArchConfig::icelake();
        cfg.page_bytes = 3000;
        assert!(cfg.validate().is_err());
        let mut cfg = ArchConfig::icelake();
        cfg.cores = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn generation_config_only_changes_generation() {
        let a = ArchConfig::for_generation(CpuGeneration::Haswell);
        assert_eq!(a.generation, CpuGeneration::Haswell);
        assert_eq!(a.cores, 36);
        assert_eq!(CpuGeneration::Haswell.name(), "Haswell");
    }
}
