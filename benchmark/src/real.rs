//! The five real-thread workloads. Each builds its system through the
//! crates' public constructors only, on the machine model
//! `CpuSpec::paper_machine().with_logical_cpus(2)` and the real clock:
//! one ZC / Intel worker and one closed-loop caller (this thread), so at
//! most two busy-spinning threads on a two-core host.

use crate::harness::{Instance, OpResult, Window};
use crate::report::Findings;
use crate::spans::{path_tag, traced_table, SpanLog, TracedDispatcher};
use intel_switchless::IntelSwitchless;
use sgx_sim::{Enclave, FsFuncs, HostFs};
use std::sync::Arc;
use std::time::Instant;
use switchless_core::{
    CallStatsSnapshot, CpuSpec, FuncId, IntelConfig, OcallDispatcher, OcallRequest, OcallTable,
    OverloadParams, SplitMix64, SuperviseParams, ZcConfig, MAX_OCALL_ARGS,
};
use zc_switchless::ZcRuntime;
use zc_telemetry::{ProfileSnapshot, Telemetry};
use zc_workloads::{EnclaveIo, KissDb};

/// Telemetry ring capacity (events) wherever a hub is attached.
const RING_EVENTS: usize = 65_536;

/// Warm-up ops of the call workloads / of `kissdb_mixed`.
pub const WARMUP_CALL_OPS: u64 = 100_000;
/// Warm-up ops of `kissdb_mixed`.
pub const WARMUP_KISSDB_OPS: u64 = 10_000;
/// Keys preloaded into the store (and the working set of the mixed ops).
const KISSDB_KEYS: usize = 8_192;

/// The machine every real-thread workload models: the paper's CPU cut
/// down to two logical CPUs, which gives ZC exactly one worker.
#[must_use]
pub fn machine() -> CpuSpec {
    CpuSpec::paper_machine().with_logical_cpus(2)
}

/// Caller-side watchdog deadline wherever supervision is on. The
/// machine-derived default is one 10 ms quantum, which a hypervisor
/// that deschedules the worker's vCPU overruns: the watchdog then takes
/// the worker for hung, and three such verdicts blacklist `nop` to the
/// regular-ocall path for the rest of the instance. The benchmark
/// measures what supervision costs a healthy call, not that ladder.
const WATCHDOG_MS: u64 = 1_000;

/// Which robustness planes a ZC runtime is started with.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Planes {
    /// Telemetry hub attached (`start_with_telemetry`).
    pub telemetry: bool,
    /// Overload admission on the hot path.
    pub overload: bool,
    /// Call journal on the hot path.
    pub recovery: bool,
    /// Supervisor thread and caller-side watchdog.
    pub supervision: bool,
}

impl Planes {
    /// Every plane on (`zc_planes`).
    pub const ALL: Planes = Planes {
        telemetry: true,
        overload: true,
        recovery: true,
        supervision: true,
    };
}

/// What a run needs to know to build an instance.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload seed (inputs only; the program never sees it).
    pub seed: u64,
    /// Span log of a traced run.
    pub spans: Option<Arc<SpanLog>>,
}

/// The measuring code an instance is handed to.
pub type Body<'b> = &'b mut dyn FnMut(&mut dyn Instance);

/// Build the named workload's instance, run `body` on it, shut it down.
/// Returns the shutdown time in ms (threads joined), or `None` for a name
/// that is not a real-thread workload.
pub fn with_instance(workload: &str, ctx: &Ctx, body: Body<'_>) -> Option<f64> {
    Some(match workload {
        "zc_nop" => zc_calls(ctx, Planes::default(), false, body),
        "zc_payload" => zc_calls(ctx, Planes::default(), true, body),
        "zc_planes" => zc_calls(ctx, Planes::ALL, false, body),
        "intel_nop" => intel_nop(ctx, body),
        "kissdb_mixed" => kissdb_mixed(ctx, body),
        _ => return None,
    })
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The nop (`arg0 + 1`) and echo host functions, wrapped for a traced run.
fn call_table(spans: Option<&Arc<SpanLog>>) -> (Arc<OcallTable>, FuncId, FuncId) {
    let mut table = OcallTable::new();
    let nop = table.register(
        "nop",
        |args: &[u64; MAX_OCALL_ARGS], _: &[u8], _: &mut Vec<u8>| args[0] as i64 + 1,
    );
    let echo = table.register(
        "echo",
        |_: &[u64; MAX_OCALL_ARGS], pin: &[u8], pout: &mut Vec<u8>| {
            pout.extend_from_slice(pin);
            pin.len() as i64
        },
    );
    let table = match spans {
        Some(log) => traced_table(table, log),
        None => table,
    };
    (Arc::new(table), nop, echo)
}

/// Start a ZC runtime with the given planes; a hub is attached when the
/// telemetry plane is on or the run is traced (the six-phase breakdown
/// is read from it).
///
/// `OverloadParams::for_cpu` sustains one call per 4 x T_es (about
/// 70 k/s) and would shed ~90% of a lone closed-loop caller; the bucket
/// is sized so it never runs dry, because this benchmark measures the
/// admit path, not shedding.
pub fn start_zc(
    planes: Planes,
    table: Arc<OcallTable>,
    traced: bool,
) -> (ZcRuntime, Option<Arc<Telemetry>>, f64) {
    let cpu = machine();
    let mut config = ZcConfig::for_cpu(cpu);
    if planes.supervision {
        config = config.with_supervise_params(
            SuperviseParams::for_cpu(cpu).with_watchdog_cycles(cpu.quantum_cycles(WATCHDOG_MS)),
        );
    }
    if planes.recovery {
        config = config.with_recovery();
    }
    if planes.overload {
        config = config.with_overload_params(OverloadParams::for_cpu(&cpu).with_bucket(1 << 20, 1));
    }
    let hub = (planes.telemetry || traced).then(|| Telemetry::with_capacity(RING_EVENTS));
    let t0 = Instant::now();
    let enclave = Enclave::new(cpu);
    let rt = match &hub {
        Some(hub) => ZcRuntime::start_with_telemetry(config, table, enclave, Arc::clone(hub), None),
        None => ZcRuntime::start(config, table, enclave),
    }
    .expect("the two-CPU machine model yields one worker");
    let start_ms = ms_since(t0);
    (rt, hub, start_ms)
}

/// The `zc_nop` op on a runtime with any combination of planes (the
/// plane-cost probe pairs these against the bare runtime).
pub fn zc_nop_with(ctx: &Ctx, planes: Planes, body: Body<'_>) -> f64 {
    zc_calls(ctx, planes, false, body)
}

fn zc_calls(ctx: &Ctx, planes: Planes, echo: bool, body: Body<'_>) -> f64 {
    let (table, nop, echo_fn) = call_table(ctx.spans.as_ref());
    let (rt, hub, start_ms) = start_zc(planes, table, ctx.spans.is_some());
    let traced = ctx
        .spans
        .as_ref()
        .map(|log| TracedDispatcher::new(&rt, Arc::clone(log)));
    let disp: &dyn OcallDispatcher = match &traced {
        Some(t) => t,
        None => &rt,
    };
    let mut inst = CallInstance::new(
        disp,
        Runtime::Zc(&rt),
        planes,
        hub,
        start_ms,
        if echo { echo_fn } else { nop },
        echo.then(|| seeded_bytes(ctx.seed, 16 * 1024 + 8)),
    );
    body(&mut inst);
    drop(inst);
    let t0 = Instant::now();
    rt.shutdown();
    ms_since(t0)
}

fn intel_nop(ctx: &Ctx, body: Body<'_>) -> f64 {
    let (table, nop, _) = call_table(ctx.spans.as_ref());
    let cpu = machine();
    let config = IntelConfig::new(1, [nop]);
    let hub = ctx
        .spans
        .as_ref()
        .map(|_| Telemetry::with_capacity(RING_EVENTS));
    let t0 = Instant::now();
    let enclave = Enclave::new(cpu);
    let rt = match &hub {
        Some(hub) => {
            IntelSwitchless::start_with_telemetry(config, table, enclave, Arc::clone(hub), None)
        }
        None => IntelSwitchless::start(config, table, enclave),
    }
    .expect("one worker for one switchless function is a valid configuration");
    let start_ms = ms_since(t0);
    let traced = ctx
        .spans
        .as_ref()
        .map(|log| TracedDispatcher::new(&rt, Arc::clone(log)));
    let disp: &dyn OcallDispatcher = match &traced {
        Some(t) => t,
        None => &rt,
    };
    let mut inst = CallInstance::new(
        disp,
        Runtime::Intel(&rt),
        Planes::default(),
        hub,
        start_ms,
        nop,
        None,
    );
    body(&mut inst);
    drop(inst);
    let t0 = Instant::now();
    rt.shutdown();
    ms_since(t0)
}

fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed ^ 0x5eed_b17e5);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

enum Runtime<'a> {
    Zc(&'a ZcRuntime),
    Intel(&'a IntelSwitchless),
}

impl Runtime<'_> {
    fn layer(&self) -> &'static str {
        match self {
            Runtime::Zc(_) => "zc-switchless",
            Runtime::Intel(_) => "intel-switchless",
        }
    }

    fn stats(&self) -> CallStatsSnapshot {
        match self {
            Runtime::Zc(rt) => rt.stats().snapshot(),
            Runtime::Intel(rt) => rt.stats().snapshot(),
        }
    }
}

/// Counters read at the start of the timed window.
struct Before {
    stats: CallStatsSnapshot,
    residency_cycles: Vec<u64>,
    decisions: u64,
    profile: Option<ProfileSnapshot>,
    dropped: u64,
}

fn before(runtime: &Runtime<'_>, hub: Option<&Arc<Telemetry>>) -> Before {
    let (residency_cycles, decisions) = match runtime {
        Runtime::Zc(rt) => (rt.residency().cycles().to_vec(), rt.scheduler_decisions()),
        Runtime::Intel(_) => (Vec::new(), 0),
    };
    Before {
        stats: runtime.stats(),
        residency_cycles,
        decisions,
        profile: hub.map(|h| h.profile().snapshot()),
        dropped: hub.map_or(0, |h| h.tracer().dropped()),
    }
}

/// Per-layer metrics every runtime-backed instance reports: path shares,
/// modelled transition cost, ZC scheduler residency, worker CPU, and on a
/// traced run the six-phase breakdown from the hub's profiler.
fn runtime_metrics(
    runtime: &Runtime<'_>,
    hub: Option<&Arc<Telemetry>>,
    before: &Before,
    w: &Window,
    traced: bool,
    out: &mut Findings,
) {
    let layer = runtime.layer();
    let cpu = machine();
    let total = runtime.stats();
    let delta = total.delta_since(&before.stats);
    let wall_s = w.wall_ns as f64 / 1e9;
    let attempts = delta.switchless + delta.fallback + delta.cancelled;
    if attempts > 0 {
        out.layer(
            &format!("{layer}.switchless_share"),
            delta.switchless as f64 / attempts as f64,
        );
    }
    out.layer(
        &format!("{layer}.worker_cpu_share"),
        w.cpu_all_ns.saturating_sub(w.cpu_main_ns) as f64 / w.wall_ns as f64,
    );
    out.layer(
        "sgx-sim.modelled_ns_per_op",
        (delta.transitions() * cpu.cycles_to_ns(cpu.t_es_cycles)) as f64 / w.ops as f64,
    );
    if let Runtime::Zc(rt) = runtime {
        out.layer(
            "zc-switchless.pool_reallocs_per_kop",
            delta.pool_reallocs as f64 * 1e3 / w.ops as f64,
        );
        let now = rt.residency();
        let spent: Vec<u64> = now
            .cycles()
            .iter()
            .zip(before.residency_cycles.iter().chain(std::iter::repeat(&0)))
            .map(|(a, b)| a.saturating_sub(*b))
            .collect();
        let cycles: u64 = spent.iter().sum();
        if cycles > 0 {
            let weighted: f64 = spent
                .iter()
                .enumerate()
                .map(|(m, c)| m as f64 * *c as f64)
                .sum();
            out.layer(
                "zc-switchless.mean_active_workers",
                weighted / cycles as f64,
            );
        }
        out.layer(
            "zc-switchless.scheduler_decisions_per_s",
            (rt.scheduler_decisions() - before.decisions) as f64 / wall_s,
        );
    }
    out.check(
        "call_stats_conserved",
        total.is_conserved(),
        format!(
            "issued {} == switchless {} + fallback {} + regular {} + cancelled {}",
            total.issued, total.switchless, total.fallback, total.regular, total.cancelled
        ),
    );
    if let (true, Some(hub), Some(p0)) = (traced, hub, &before.profile) {
        let p1 = hub.profile().snapshot();
        let (mut calls, mut phase_cycles, mut total_cycles) =
            (0u64, [0u64; zc_telemetry::PHASES], 0u64);
        for (a, b) in p1.paths.iter().zip(&p0.paths) {
            calls += a.total.count - b.total.count;
            total_cycles += a.total.sum - b.total.sum;
            for (i, sum) in phase_cycles.iter_mut().enumerate() {
                *sum += a.phases[i].sum - b.phases[i].sum;
            }
        }
        if calls > 0 {
            let ns = |cycles: u64| cycles as f64 * 1e9 / cpu.freq_hz as f64 / calls as f64;
            for phase in zc_telemetry::Phase::ALL {
                out.layer(
                    &format!("{layer}.phase.{}_ns_mean", phase.name()),
                    ns(phase_cycles[phase.index()]),
                );
            }
        }
        out.check(
            "profiler_saw_every_call",
            calls == delta.total_calls() && phase_cycles.iter().sum::<u64>() == total_cycles,
            format!(
                "profiled {calls} of {} calls; phases sum to {} of {total_cycles} cycles",
                delta.total_calls(),
                phase_cycles.iter().sum::<u64>()
            ),
        );
        // Handed to the span analysis through the findings: the profiled
        // whole-call time, for `benchmark.span.phase_sum_ratio`.
        out.profiled_call_ns = Some(total_cycles as f64 * 1e9 / cpu.freq_hz as f64);
    }
}

/// Drain the hub's ring; returns the number of events taken.
fn drain(hub: Option<&Arc<Telemetry>>) -> u64 {
    hub.map_or(0, |h| h.tracer().drain().len() as u64)
}

/// `zc_nop`, `zc_payload`, `zc_planes` and `intel_nop`: one dispatch per
/// op, latency class = the `CallPath` it returned.
struct CallInstance<'a> {
    disp: &'a dyn OcallDispatcher,
    runtime: Runtime<'a>,
    planes: Planes,
    hub: Option<Arc<Telemetry>>,
    start_ms: f64,
    func: FuncId,
    /// Echo workload: the seeded source the payloads are cut from.
    echo_src: Option<Vec<u8>>,
    counter: u64,
    out: Vec<u8>,
    before: Option<Before>,
    drained_events: u64,
}

impl<'a> CallInstance<'a> {
    fn new(
        disp: &'a dyn OcallDispatcher,
        runtime: Runtime<'a>,
        planes: Planes,
        hub: Option<Arc<Telemetry>>,
        start_ms: f64,
        func: FuncId,
        echo_src: Option<Vec<u8>>,
    ) -> Self {
        CallInstance {
            disp,
            runtime,
            planes,
            hub,
            start_ms,
            func,
            echo_src,
            counter: 0,
            out: Vec::new(),
            before: None,
            drained_events: 0,
        }
    }
}

impl Instance for CallInstance<'_> {
    fn op(&mut self, rng: &mut SplitMix64) -> OpResult {
        self.counter += 1;
        let arg = self.counter & 0xffff_ffff;
        let mut req = OcallRequest::new(self.func, &[arg]);
        if self.planes.recovery {
            req = req.with_idempotent();
        }
        let payload: &[u8] = match &self.echo_src {
            None => &[],
            Some(src) => {
                // 64 B 25%, 4 KiB 50%, 16 KiB 25%; source offset mod 8.
                let r = rng.next_u64();
                let len = [64, 4096, 4096, 16_384][(r & 3) as usize];
                let offset = ((r >> 8) & 7) as usize;
                &src[offset..offset + len]
            }
        };
        let start = Instant::now();
        let result = self.disp.dispatch(&req, payload, &mut self.out);
        let end = Instant::now();
        let (class, ok) = match result {
            Ok((ret, path)) => {
                let right = if self.echo_src.is_some() {
                    ret == payload.len() as i64 && self.out == payload
                } else {
                    ret == arg as i64 + 1
                };
                (path_tag(path), right)
            }
            Err(_) => (0, false),
        };
        OpResult {
            start,
            end,
            class,
            ok,
        }
    }

    fn pause_every(&self) -> u64 {
        // A nop call leaves about six events in the ring (routed, phases,
        // four worker state edges); draining every 4096 ops keeps the
        // 65 536-event ring under half full.
        if self.hub.is_some() {
            4096
        } else {
            u64::MAX
        }
    }

    fn paused_work(&mut self) {
        self.drained_events += drain(self.hub.as_ref());
    }

    fn begin_window(&mut self) {
        self.drained_events = 0;
        self.before = Some(before(&self.runtime, self.hub.as_ref()));
    }

    fn end_window(&mut self, w: &Window, out: &mut Findings) {
        self.drained_events += drain(self.hub.as_ref());
        let before = self.before.take().expect("begin_window ran");
        let layer = self.runtime.layer();
        runtime_metrics(
            &self.runtime,
            self.hub.as_ref(),
            &before,
            w,
            out.traced,
            out,
        );
        out.layer(&format!("{layer}.start_ms"), self.start_ms);
        if let Some(p50) = w.class_p50_ns[0] {
            out.layer(&format!("{layer}.switchless_ns_p50"), p50);
        }
        if let Some(p50) = w.class_p50_ns[1] {
            out.layer(&format!("{layer}.fallback_ns_p50"), p50);
        }
        let total = self.runtime.stats();
        out.check(
            "every_op_is_one_call",
            total.total_calls() == w.warmup_ops + w.ops,
            format!(
                "{} calls for {} warm-up + {} timed ops",
                total.total_calls(),
                w.warmup_ops,
                w.ops
            ),
        );
        if let Runtime::Zc(rt) = &self.runtime {
            if let Some(o) = rt.overload_snapshot() {
                out.check(
                    "overload_ledger_conserves_without_sheds",
                    o.conserves(total.total_calls()) && o.shed_total() == 0,
                    format!(
                        "offered {} admitted {} shed {}",
                        o.offered,
                        o.admitted,
                        o.shed_total()
                    ),
                );
            }
            if let Some(s) = rt.supervisor_state() {
                out.check(
                    "supervisor_took_no_worker_for_failed",
                    s.respawns() == 0 && s.blacklisted().is_empty(),
                    format!(
                        "{} respawns, {} blacklisted call shapes",
                        s.respawns(),
                        s.blacklisted().len()
                    ),
                );
            }
            if let Some(r) = rt.recovery_snapshot() {
                out.check(
                    "recovery_ledger_is_quiet",
                    r.crashes == 0
                        && r.refused_non_idempotent == 0
                        && r.journal_dropped == 0
                        && r.journal_live == 0,
                    format!(
                        "crashes {} refused {} journal dropped {} live {}",
                        r.crashes, r.refused_non_idempotent, r.journal_dropped, r.journal_live
                    ),
                );
            }
        }
        if let Some(hub) = &self.hub {
            let dropped = hub.tracer().dropped() - before.dropped;
            out.layer(
                "zc-telemetry.events_per_op",
                self.drained_events as f64 / w.ops as f64,
            );
            out.layer(
                "zc-telemetry.ring.dropped_share",
                dropped as f64 / (self.drained_events + dropped).max(1) as f64,
            );
            out.check(
                "telemetry_ring_dropped_nothing",
                dropped == 0,
                format!("{dropped} events dropped"),
            );
        }
    }
}

fn kissdb_mixed(ctx: &Ctx, body: Body<'_>) -> f64 {
    let fs = HostFs::new();
    let mut table = OcallTable::new();
    let funcs = FsFuncs::register(&mut table, &fs);
    let table = match &ctx.spans {
        Some(log) => traced_table(table, log),
        None => table,
    };
    let (rt, hub, start_ms) = start_zc(Planes::default(), Arc::new(table), ctx.spans.is_some());
    let traced = ctx
        .spans
        .as_ref()
        .map(|log| TracedDispatcher::new(&rt, Arc::clone(log)));
    let disp: &dyn OcallDispatcher = match &traced {
        Some(t) => t,
        None => &rt,
    };

    // Preload: seeded distinct keys, value = the key's first version.
    let t0 = Instant::now();
    let mut rng = SplitMix64::new(ctx.seed ^ 0x6b69_7373_6462);
    let mut keys: Vec<[u8; 8]> = Vec::with_capacity(KISSDB_KEYS);
    let mut seen = std::collections::HashSet::new();
    while keys.len() < KISSDB_KEYS {
        let k = rng.next_u64().to_le_bytes();
        if seen.insert(k) {
            keys.push(k);
        }
    }
    let mut db = KissDb::open(EnclaveIo::new(disp, funcs), "/bench.db", 1024, 8, 8)
        .expect("a fresh in-memory file opens");
    let mut shadow: Vec<[u8; 8]> = Vec::with_capacity(KISSDB_KEYS);
    for k in &keys {
        let v = rng.next_u64().to_le_bytes();
        db.put(k, &v).expect("preload put");
        shadow.push(v);
    }
    drain(hub.as_ref());
    let preload_ms = ms_since(t0);

    let mut inst = KissDbInstance {
        db,
        runtime: Runtime::Zc(&rt),
        hub,
        fs: fs.clone(),
        keys,
        shadow,
        start_ms,
        preload_ms,
        before: None,
        fs_before: (0, 0, 0),
    };
    body(&mut inst);
    let closed = inst.db.close();
    assert!(closed.is_ok(), "closing the store failed: {closed:?}");
    let t0 = Instant::now();
    rt.shutdown();
    ms_since(t0)
}

/// `kissdb_mixed`: op = seeded 50/50 `get` of a preloaded key / `put`
/// overwriting one (file size stationary); class 0 = get, 1 = put.
struct KissDbInstance<'a> {
    db: KissDb<'a>,
    runtime: Runtime<'a>,
    hub: Option<Arc<Telemetry>>,
    fs: HostFs,
    keys: Vec<[u8; 8]>,
    shadow: Vec<[u8; 8]>,
    start_ms: f64,
    preload_ms: f64,
    before: Option<Before>,
    fs_before: (u64, u64, u64),
}

impl Instance for KissDbInstance<'_> {
    fn op(&mut self, rng: &mut SplitMix64) -> OpResult {
        let r = rng.next_u64();
        let i = (r >> 1) as usize % self.keys.len();
        let key = self.keys[i];
        if r & 1 == 0 {
            let start = Instant::now();
            let got = self.db.get(&key);
            let end = Instant::now();
            let ok = matches!(got, Ok(Some(v)) if v == self.shadow[i]);
            OpResult {
                start,
                end,
                class: 0,
                ok,
            }
        } else {
            let value = rng.next_u64().to_le_bytes();
            let start = Instant::now();
            let put = self.db.put(&key, &value);
            let end = Instant::now();
            self.shadow[i] = value;
            OpResult {
                start,
                end,
                class: 1,
                ok: put.is_ok(),
            }
        }
    }

    fn pause_every(&self) -> u64 {
        // ~12 ocalls an op, ~6 events a call.
        if self.hub.is_some() {
            256
        } else {
            u64::MAX
        }
    }

    fn paused_work(&mut self) {
        drain(self.hub.as_ref());
    }

    fn begin_window(&mut self) {
        self.before = Some(before(&self.runtime, self.hub.as_ref()));
        self.fs_before = self.fs.op_counts();
    }

    fn end_window(&mut self, w: &Window, out: &mut Findings) {
        drain(self.hub.as_ref());
        let before = self.before.take().expect("begin_window ran");
        runtime_metrics(
            &self.runtime,
            self.hub.as_ref(),
            &before,
            w,
            out.traced,
            out,
        );
        let calls = self
            .runtime
            .stats()
            .delta_since(&before.stats)
            .total_calls();
        out.layer("zc-switchless.start_ms", self.start_ms);
        out.layer(
            "zc-workloads.kissdb.ocalls_per_op",
            calls as f64 / w.ops as f64,
        );
        out.layer("zc-workloads.kissdb.preload_ms", self.preload_ms);
        if let Some(p50) = w.class_p50_ns[0] {
            out.layer("zc-workloads.kissdb.get_ns_p50", p50);
        }
        if let Some(p50) = w.class_p50_ns[1] {
            out.layer("zc-workloads.kissdb.put_ns_p50", p50);
        }
        // In the window the store only seeks, reads and writes; the host
        // file system must have seen exactly the calls the runtime routed.
        let (r1, w1, s1) = self.fs.op_counts();
        let (r0, w0, s0) = self.fs_before;
        let host_ops = (r1 - r0) + (w1 - w0) + (s1 - s0);
        out.check(
            "hostfs_saw_every_routed_call",
            host_ops == calls,
            format!(
                "{host_ops} host fs ops (reads {}, writes {}, seeks {}) for {calls} routed calls",
                r1 - r0,
                w1 - w0,
                s1 - s0
            ),
        );
        // Every key still reads back as the shadow map says.
        let mut wrong = 0;
        for (k, v) in self.keys.iter().zip(&self.shadow) {
            if !matches!(self.db.get(k), Ok(Some(got)) if got == *v) {
                wrong += 1;
            }
        }
        out.check(
            "store_matches_shadow_map",
            wrong == 0,
            format!("{wrong} of {} keys differ after the run", self.keys.len()),
        );
    }
}
