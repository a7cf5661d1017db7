//! Deterministic discrete-event simulation of a multi-core SGX machine.
//!
//! The host running this reproduction has a single core, while the
//! paper's experiments need eight logical CPUs saturated with
//! busy-waiting worker threads. This crate therefore simulates the
//! *machine* — cores, preemptive scheduling, spin-waits, sleeps — in
//! virtual time, and runs the switchless-call protocols on top:
//!
//! * [`kernel`] — the discrete-event engine: virtual cores, a FIFO run
//!   queue with round-robin preemption at quantum boundaries, doorbells
//!   (the one spin-wait rendezvous) on which spinners hold their cores, and
//!   park/unpark. Time jumps from one armed event to the next, so the
//!   same kernel runs the paper's 8 vCPUs and 128+ (DESIGN.md §11).
//! * [`ocall`] — the three mechanisms under study as virtual-thread
//!   protocols: regular ocalls, the Intel switchless mechanism
//!   (task pool, `rbf`/`rbs`) and ZC-SWITCHLESS (idle-worker handoff,
//!   immediate fallback, adaptive scheduler).
//! * [`workload`] — caller behaviours: closed-loop call mixes, the
//!   phase-driven dynamic load of the lmbench experiment, and seeded
//!   open-loop stochastic traffic ([`arrival`]) with client-side
//!   deadline shedding for overload studies.
//! * [`sim`] — experiment assembly: build a machine + mechanism +
//!   workload, run it, collect a [`sim::SimReport`].
//! * [`fleet`] — multi-tenant assembly: M ZC shard stacks as bulkhead
//!   fault domains in one kernel, with per-tenant counters and a global
//!   worker-budget allocator actor ([`fleet::run_fleet`]).
//!
//! What the model shares with the real runtimes it calls rather than
//! mirrors (DESIGN.md §11): the constants of [`switchless_core::config`],
//! `PolicyParams::new`, [`zc_telemetry::SchedulerDriver::step`] and
//! [`switchless_core::FleetController`]; the actors here only supply
//! virtual time, simulation counters and `Sleep` syscalls.
//!
//! All results are in cycles of the modelled CPU and bit-for-bit
//! reproducible across hosts.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arrival;
pub mod fleet;
pub mod kernel;
pub mod metrics;
pub mod ocall;
pub mod sim;
pub mod workload;

pub use arrival::{ArrivalGen, ArrivalProcess, ServiceDist, ServiceSampler};
pub use fleet::{run_fleet, FleetReport, FleetSpec, TenantSimReport, TenantSimSpec};
pub use kernel::{Actor, Bell, Kernel, StepCx, Syscall, SyscallResult, Tid};
pub use ocall::zc::ZcSimFaults;
pub use ocall::{CallDesc, CostModel, Dispatcher, Step};
pub use sim::{
    run, FaultRecovery, KernelMode, Mechanism, RecoveryLatencies, SimConfig, SimReport, ZcSimParams,
};
pub use workload::{CallClass, OpenLoad, PhasedLoad, WorkloadSpec};
