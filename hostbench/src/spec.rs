//! The four workloads: which machine, how many tasks, which observers.

use ssmp_engine::Tracer;
use ssmp_machine::{Machine, MachineBuilder, MachineConfig, Workload};
use ssmp_workload::{Grain, WorkQueue, WorkQueueParams};

/// Which machine preset a workload runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// `MachineConfig::wbi`: WBI directory, TTS locks, software barrier.
    Wbi,
    /// `MachineConfig::bc_cbl`: RIC, CBL locks, hardware barrier, BC.
    BcCbl,
}

/// Which observers a run arms.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Arm {
    /// The protocol profiler.
    pub profile: bool,
    /// Span stitching.
    pub spans: bool,
    /// The coherence sanitizer.
    pub check: bool,
}

impl Arm {
    /// No observer.
    pub const NONE: Arm = Arm {
        profile: false,
        spans: false,
        check: false,
    };
    /// Profiler, spans and sanitizer together.
    pub const ALL: Arm = Arm {
        profile: true,
        spans: true,
        check: true,
    };
}

/// One benchmark workload: the work-queue model (strong scaling, fine
/// grain) on one machine.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// Machine preset.
    pub preset: Preset,
    /// Processors.
    pub nodes: usize,
    /// Total tasks of the measured run.
    pub tasks: usize,
    /// Observers armed on the measured run.
    pub arm: Arm,
    /// Nodes and tasks of the smaller run on which observer slowdowns and
    /// fold costs are measured: the span fold keeps state for every
    /// message, so the full sizes would need gigabytes. At 512 nodes even
    /// one task sends 1.5 M messages, so that workload's observer run
    /// uses 128 nodes.
    pub observer: (usize, usize),
}

/// Every workload. `BENCHMARK.json` gates all but `wq-wbi-512`, whose
/// one-second simulations leave too few samples per run to be steady on a
/// shared host; it runs on demand with `--workload wq-wbi-512`.
pub const SPECS: [Spec; 4] = [
    Spec {
        name: "wq-wbi-64",
        preset: Preset::Wbi,
        nodes: 64,
        tasks: 1024,
        arm: Arm::NONE,
        observer: (64, 128),
    },
    Spec {
        name: "wq-bccbl-64",
        preset: Preset::BcCbl,
        nodes: 64,
        tasks: 8192,
        arm: Arm::NONE,
        observer: (64, 2048),
    },
    Spec {
        name: "wq-wbi-512",
        preset: Preset::Wbi,
        nodes: 512,
        tasks: 64,
        arm: Arm::NONE,
        observer: (128, 16),
    },
    Spec {
        name: "wq-bccbl-16-observed",
        preset: Preset::BcCbl,
        nodes: 16,
        tasks: 4096,
        arm: Arm::ALL,
        observer: (16, 4096),
    },
];

impl Spec {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Spec> {
        SPECS.iter().find(|s| s.name == name)
    }

    /// Whether the measured run itself arms the observers.
    pub fn observed(&self) -> bool {
        self.arm != Arm::NONE
    }

    /// The machine configuration; `seed` drives the machine's RNG streams.
    pub fn config(&self, seed: u64) -> MachineConfig {
        let mut cfg = match self.preset {
            Preset::Wbi => MachineConfig::wbi(self.nodes),
            Preset::BcCbl => MachineConfig::bc_cbl(self.nodes),
        };
        cfg.seed = seed;
        cfg
    }

    /// The observer run: this workload at the `observer` size.
    pub fn observer_run(&self) -> Spec {
        Spec {
            nodes: self.observer.0,
            tasks: self.observer.1,
            ..*self
        }
    }

    /// The `fingerprints.tsv` label of the observer run.
    pub fn observer_label(&self) -> String {
        format!("{}.observer", self.name)
    }

    /// The workload generator; `seed` drives its content.
    pub fn workload(&self, seed: u64) -> WorkQueue {
        let mut p = WorkQueueParams::strong(self.nodes, Grain::Fine, self.tasks);
        p.seed = seed;
        WorkQueue::new(p)
    }

    /// A builder at `seed` with `arm` observers, `tracer` attached, and
    /// the workload passed through `wrap` (the traced run's timing shim;
    /// the identity otherwise).
    pub fn builder_with(
        &self,
        seed: u64,
        arm: Arm,
        tracer: Tracer,
        wrap: impl FnOnce(Box<dyn Workload>) -> Box<dyn Workload>,
    ) -> MachineBuilder {
        let wl = self.workload(seed);
        let locks = wl.machine_locks();
        Machine::builder(self.config(seed))
            .workload(wrap(Box::new(wl)))
            .locks(locks)
            .tracer(tracer)
            .profile(arm.profile)
            .spans(arm.spans)
            .check(arm.check)
    }

    /// Builds the machine at `seed` with `arm`.
    pub fn build(&self, seed: u64, arm: Arm) -> Machine {
        self.builder_with(seed, arm, Tracer::off(), |w| w)
            .build()
            .expect("benchmark machine configurations are valid")
    }
}
