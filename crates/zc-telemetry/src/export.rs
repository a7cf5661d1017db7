//! Exporters: JSON-lines event dumps and Chrome `trace_event` JSON
//! (viewable in `about://tracing` and Perfetto).
//!
//! All serialisation is hand-rolled: the workspace `serde` is an
//! offline no-op shim, and the formats involved are simple enough that
//! a string builder is clearer than a serialisation framework anyway.

use crate::event::{Event, Origin, RecordedEvent};
use std::fmt::Write as _;

/// Escape a string for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn u64_list(vals: &[u64]) -> String {
    let mut s = String::from("[");
    for (i, v) in vals.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{v}");
    }
    s.push(']');
    s
}

/// Event payload as a JSON fragment (the fields after `kind`, starting
/// with a comma, or an empty string).
fn event_fields(event: &Event) -> String {
    match event {
        Event::PhaseStart {
            kind,
            workers,
            duration_cycles,
        } => format!(
            ",\"phase\":\"{}\",\"workers\":{workers},\"duration_cycles\":{duration_cycles}",
            kind.name()
        ),
        Event::Decision { decision } => {
            let mut probes = String::from("[");
            for (i, p) in decision.probes.iter().enumerate() {
                if i > 0 {
                    probes.push(',');
                }
                let _ = write!(
                    probes,
                    "{{\"workers\":{},\"fallbacks\":{}}}",
                    p.workers, p.fallbacks
                );
            }
            probes.push(']');
            format!(
                ",\"chosen_workers\":{},\"probes\":{},\"costs\":{}",
                decision.chosen_workers,
                probes,
                u64_list(&decision.costs)
            )
        }
        Event::WorkerTransition { worker, from, to } => format!(
            ",\"worker\":{worker},\"from\":\"{}\",\"to\":\"{}\"",
            from.name(),
            to.name()
        ),
        Event::CallRouted {
            func,
            path,
            start_cycles,
            duration_cycles,
        } => format!(
            ",\"func\":{func},\"path\":\"{}\",\"start_cycles\":{start_cycles},\"duration_cycles\":{duration_cycles}",
            path.name()
        ),
        Event::PoolRealloc {
            call,
            worker,
            bytes,
        } => format!(",\"call\":{call},\"worker\":{worker},\"bytes\":{bytes}"),
        Event::Fault { kind } => format!(",\"fault\":\"{}\"", kind.name()),
        Event::Drain { drained, abandoned } => {
            format!(",\"drained\":{drained},\"abandoned\":{abandoned}")
        }
        Event::WorkerAbandoned { worker } => format!(",\"worker\":{worker}"),
        Event::WorkerRespawned { worker, generation } => {
            format!(",\"worker\":{worker},\"generation\":{generation}")
        }
        Event::WorkerHealed { worker } => format!(",\"worker\":{worker}"),
        Event::WatchdogCancel {
            call,
            worker,
            func,
            waited_cycles,
        } => format!(
            ",\"call\":{call},\"worker\":{worker},\"func\":{func},\"waited_cycles\":{waited_cycles}"
        ),
        Event::GuardViolation { call, worker, kind } => format!(
            ",\"call\":{call},\"worker\":{worker},\"guard\":\"{}\"",
            kind.name()
        ),
        Event::Blacklisted { func, shape } => format!(",\"func\":{func},\"shape\":{shape}"),
        Event::CallPhases {
            call,
            func,
            path,
            phases,
        } => format!(
            ",\"call\":{call},\"func\":{func},\"path\":\"{}\",\"phases\":{}",
            path.name(),
            u64_list(phases)
        ),
        Event::Converged {
            from_workers,
            to_workers,
            decisions,
            settle_cycles,
        } => format!(
            ",\"from_workers\":{from_workers},\"to_workers\":{to_workers},\"decisions\":{decisions},\"settle_cycles\":{settle_cycles}"
        ),
        Event::CallShed { call, func, reason } => format!(
            ",\"call\":{call},\"func\":{func},\"reason\":\"{}\"",
            reason.name()
        ),
        Event::EnclaveCrash { epoch } => format!(",\"epoch\":{epoch}"),
        Event::JournalReplay { seq } => format!(",\"seq\":{seq}"),
        Event::CallRedelivered { seq } => format!(",\"seq\":{seq}"),
        Event::CallRefused { seq } => format!(",\"seq\":{seq}"),
        Event::Marker { label } => format!(",\"label\":\"{}\"", json_escape(label)),
    }
}

/// One event as a JSON object (one JSONL line, without the newline).
/// With `with_timestamps == false` the `t` field is omitted — the form
/// used for run-to-run determinism comparisons, where cycle timestamps
/// may race on the shared virtual clock.
pub fn event_jsonl_line(ev: &RecordedEvent, with_timestamps: bool) -> String {
    let t = if with_timestamps {
        format!("\"t\":{},", ev.t_cycles)
    } else {
        String::new()
    };
    format!(
        "{{{t}\"origin\":\"{}\",\"kind\":\"{}\"{}}}",
        ev.origin.label(),
        ev.event.kind_name(),
        event_fields(&ev.event)
    )
}

/// Full JSONL dump (timestamps included), one event per line.
pub fn events_to_jsonl(events: &[RecordedEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&event_jsonl_line(ev, true));
        out.push('\n');
    }
    out
}

/// Canonical JSONL projection for determinism checks: timestamps are
/// stripped and only events matching `keep` are emitted, in ring
/// admission order. Causally-ordered event kinds (faults, drains) are
/// byte-identical across reruns of a deterministic scenario; see
/// DESIGN.md §8 for the exact contract.
pub fn canonical_jsonl<F>(events: &[RecordedEvent], keep: F) -> String
where
    F: Fn(&RecordedEvent) -> bool,
{
    let mut out = String::new();
    for ev in events.iter().filter(|e| keep(e)) {
        out.push_str(&event_jsonl_line(ev, false));
        out.push('\n');
    }
    out
}

/// Convert cycles to integer microseconds at `freq_hz` (for trace `ts`).
fn cycles_to_us(cycles: u64, freq_hz: u64) -> u64 {
    ((cycles as u128) * 1_000_000 / (freq_hz.max(1) as u128)) as u64
}

/// Chrome `trace_event` JSON for a batch of events.
///
/// `freq_hz` converts cycle timestamps to the microsecond `ts` field.
/// Output shape: `{"traceEvents":[...],"displayTimeUnit":"ms"}` with
/// - `M` thread-name metadata per distinct origin,
/// - `X` complete events for call spans (one per `call_phases` or
///   `call_routed`), named `ocall-<func>`,
/// - `C` counter events tracking the scheduler's active worker count
///   (one per `phase_start`, beside its instant),
/// - `i` instant events for every other event, named by its kind.
///
/// Every record's `args` are the event's JSONL fields, so the trace
/// carries everything the JSONL line does.
pub fn to_chrome_trace(events: &[RecordedEvent], freq_hz: u64) -> String {
    let mut lines: Vec<String> = Vec::new();

    // Thread-name metadata, one per distinct origin, stable order.
    let mut origins: Vec<Origin> = Vec::new();
    for ev in events {
        if !origins.contains(&ev.origin) {
            origins.push(ev.origin);
        }
    }
    origins.sort_by_key(|o| o.tid());
    for o in &origins {
        lines.push(format!(
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":\"{}\"}}}}",
            o.tid(),
            json_escape(&o.label())
        ));
    }

    for ev in events {
        let tid = ev.origin.tid();
        let ts = cycles_to_us(ev.t_cycles, freq_hz);
        let fields = event_fields(&ev.event);
        let args = fields.strip_prefix(',').unwrap_or(&fields);
        let span = match &ev.event {
            Event::CallRouted {
                func,
                path,
                start_cycles,
                duration_cycles,
            } => Some((*func, *path, *start_cycles, *duration_cycles)),
            // Recorded at completion; the phases sum to the call's
            // latency, so they also say when it began.
            Event::CallPhases {
                func, path, phases, ..
            } => {
                let cycles: u64 = phases.iter().sum();
                Some((*func, *path, ev.t_cycles.saturating_sub(cycles), cycles))
            }
            _ => None,
        };
        if let Some((func, path, start_cycles, cycles)) = span {
            let start_us = cycles_to_us(start_cycles, freq_hz);
            // Sub-microsecond spans still get dur 1 so they render.
            let dur_us = cycles_to_us(cycles, freq_hz).max(1);
            lines.push(format!(
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{start_us},\"dur\":{dur_us},\"name\":\"ocall-{func}\",\"cat\":\"{}\",\"args\":{{{args}}}}}",
                path.name()
            ));
            continue;
        }
        if let Event::PhaseStart { workers, .. } = ev.event {
            lines.push(format!(
                "{{\"ph\":\"C\",\"pid\":1,\"tid\":{tid},\"ts\":{ts},\"name\":\"active_workers\",\"args\":{{\"workers\":{workers}}}}}"
            ));
        }
        lines.push(format!(
            "{{\"ph\":\"i\",\"pid\":1,\"tid\":{tid},\"ts\":{ts},\"s\":\"t\",\"name\":\"{}\",\"args\":{{{args}}}}}",
            ev.event.kind_name()
        ));
    }

    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, line) in lines.iter().enumerate() {
        out.push_str(line);
        if i + 1 != lines.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::PhaseKind;
    use std::collections::BTreeSet;
    use switchless_core::policy::{DecisionRecord, MicroQuantumReport};
    use switchless_core::{CallPath, Fault, GuardKind, ShedReason, WorkerState};

    /// One event of every `Event` kind (the first four are the ones the
    /// field-level assertions below name).
    fn sample_events() -> Vec<RecordedEvent> {
        let at = |t_cycles, origin, event| RecordedEvent {
            t_cycles,
            origin,
            event,
        };
        let mut evs = vec![
            RecordedEvent {
                t_cycles: 100,
                origin: Origin::Scheduler,
                event: Event::PhaseStart {
                    kind: PhaseKind::Probe,
                    workers: 2,
                    duration_cycles: 50,
                },
            },
            RecordedEvent {
                t_cycles: 200,
                origin: Origin::Scheduler,
                event: Event::Decision {
                    decision: DecisionRecord {
                        chosen_workers: 1,
                        probes: vec![
                            MicroQuantumReport {
                                workers: 0,
                                fallbacks: 9,
                            },
                            MicroQuantumReport {
                                workers: 1,
                                fallbacks: 0,
                            },
                        ],
                        costs: vec![720, 34],
                    },
                },
            },
            RecordedEvent {
                t_cycles: 300,
                origin: Origin::Caller(0),
                event: Event::CallPhases {
                    call: 7,
                    func: 3,
                    path: CallPath::Switchless,
                    phases: [5, 5, 5, 10, 20, 5],
                },
            },
            RecordedEvent {
                t_cycles: 400,
                origin: Origin::Worker(1),
                event: Event::Fault {
                    kind: Fault::WorkerCrash,
                },
            },
        ];
        let (caller, worker, sched) = (Origin::Caller(0), Origin::Worker(1), Origin::Scheduler);
        evs.extend([
            at(
                500,
                worker,
                Event::WorkerTransition {
                    worker: 1,
                    from: WorkerState::Unused,
                    to: WorkerState::Paused,
                },
            ),
            at(
                2_600,
                caller,
                Event::CallRouted {
                    func: 2,
                    path: CallPath::Fallback,
                    start_cycles: 600,
                    duration_cycles: 2_000,
                },
            ),
            at(
                700,
                caller,
                Event::PoolRealloc {
                    call: 8,
                    worker: 1,
                    bytes: 4_096,
                },
            ),
            at(
                800,
                Origin::Sim,
                Event::Drain {
                    drained: 3,
                    abandoned: 1,
                },
            ),
            at(900, Origin::Sim, Event::WorkerAbandoned { worker: 1 }),
            at(
                1_000,
                Origin::Sim,
                Event::WorkerRespawned {
                    worker: 1,
                    generation: 2,
                },
            ),
            at(1_100, Origin::Sim, Event::WorkerHealed { worker: 1 }),
            at(
                1_200,
                caller,
                Event::WatchdogCancel {
                    call: 9,
                    worker: 1,
                    func: 3,
                    waited_cycles: 5_000,
                },
            ),
            at(
                1_300,
                caller,
                Event::GuardViolation {
                    call: 10,
                    worker: 1,
                    kind: GuardKind::StaleSequence,
                },
            ),
            at(1_400, Origin::Sim, Event::Blacklisted { func: 3, shape: 6 }),
            at(
                1_500,
                sched,
                Event::Converged {
                    from_workers: 1,
                    to_workers: 2,
                    decisions: 3,
                    settle_cycles: 9_000,
                },
            ),
            at(
                1_600,
                caller,
                Event::CallShed {
                    call: 11,
                    func: 3,
                    reason: ShedReason::QueueFull,
                },
            ),
            at(1_900, caller, Event::EnclaveCrash { epoch: 2 }),
            at(2_000, caller, Event::JournalReplay { seq: 12 }),
            at(2_100, caller, Event::CallRedelivered { seq: 13 }),
            at(2_200, caller, Event::CallRefused { seq: 14 }),
            at(
                2_300,
                Origin::Sim,
                Event::Marker {
                    label: "warm \"up\"",
                },
            ),
        ]);
        evs
    }

    #[test]
    fn sample_holds_every_event_kind() {
        let evs = sample_events();
        for ev in &evs {
            // No wildcard: a new variant stops this compiling until it
            // is listed here and given a sample above.
            match ev.event {
                Event::PhaseStart { .. }
                | Event::Decision { .. }
                | Event::WorkerTransition { .. }
                | Event::CallRouted { .. }
                | Event::PoolRealloc { .. }
                | Event::Fault { .. }
                | Event::Drain { .. }
                | Event::WorkerAbandoned { .. }
                | Event::WorkerRespawned { .. }
                | Event::WorkerHealed { .. }
                | Event::WatchdogCancel { .. }
                | Event::GuardViolation { .. }
                | Event::Blacklisted { .. }
                | Event::CallPhases { .. }
                | Event::Converged { .. }
                | Event::CallShed { .. }
                | Event::EnclaveCrash { .. }
                | Event::JournalReplay { .. }
                | Event::CallRedelivered { .. }
                | Event::CallRefused { .. }
                | Event::Marker { .. } => {}
            }
        }
        let kinds: BTreeSet<_> = evs.iter().map(|e| e.event.kind_name()).collect();
        assert_eq!(kinds.len(), 21, "one sample per event kind: {kinds:?}");
        assert_eq!(evs.len(), kinds.len());
    }

    #[test]
    fn jsonl_lines_are_json_objects_with_expected_fields() {
        let out = events_to_jsonl(&sample_events());
        let lines: Vec<_> = out.lines().collect();
        assert_eq!(lines.len(), sample_events().len());
        for l in &lines {
            assert!(l.starts_with('{') && l.ends_with('}'));
        }
        assert!(lines[1].contains("\"kind\":\"decision\""));
        assert!(lines[1].contains("\"probes\":[{\"workers\":0,\"fallbacks\":9}"));
        assert!(lines[1].contains("\"costs\":[720,34]"));
        assert!(lines[2].contains(
            "\"kind\":\"call_phases\",\"call\":7,\"func\":3,\"path\":\"switchless\",\"phases\":[5,5,5,10,20,5]"
        ));
        assert!(lines[3].contains("\"fault\":\"worker_crash\""));
    }

    #[test]
    fn guard_violation_exports_worker_and_kind() {
        let evs = vec![RecordedEvent {
            t_cycles: 500,
            origin: Origin::Caller(2),
            event: Event::GuardViolation {
                call: 9,
                worker: 1,
                kind: switchless_core::GuardKind::StaleSequence,
            },
        }];
        let jsonl = events_to_jsonl(&evs);
        assert!(jsonl.contains("\"kind\":\"guard_violation\""));
        assert!(jsonl.contains("\"call\":9,\"worker\":1,\"guard\":\"stale_sequence\""));
        let trace = to_chrome_trace(&evs, 1_000_000_000);
        assert!(trace.contains(
            "\"name\":\"guard_violation\",\"args\":{\"call\":9,\"worker\":1,\"guard\":\"stale_sequence\"}"
        ));
    }

    #[test]
    fn recovery_events_export_their_fields() {
        let evs = vec![
            RecordedEvent {
                t_cycles: 10,
                origin: Origin::Caller(0),
                event: Event::EnclaveCrash { epoch: 2 },
            },
            RecordedEvent {
                t_cycles: 20,
                origin: Origin::Caller(1),
                event: Event::JournalReplay { seq: 41 },
            },
            RecordedEvent {
                t_cycles: 30,
                origin: Origin::Caller(1),
                event: Event::CallRedelivered { seq: 41 },
            },
            RecordedEvent {
                t_cycles: 40,
                origin: Origin::Caller(2),
                event: Event::CallRefused { seq: 42 },
            },
        ];
        let jsonl = events_to_jsonl(&evs);
        assert!(jsonl.contains("\"kind\":\"enclave_crash\",\"epoch\":2"));
        assert!(jsonl.contains("\"kind\":\"journal_replay\",\"seq\":41"));
        assert!(jsonl.contains("\"kind\":\"call_redelivered\",\"seq\":41"));
        assert!(jsonl.contains("\"kind\":\"call_refused\",\"seq\":42"));
        let trace = to_chrome_trace(&evs, 1_000_000_000);
        assert!(trace.contains("\"name\":\"enclave_crash\""));
        assert!(trace.contains("\"name\":\"journal_replay\""));
        assert!(trace.contains("\"name\":\"call_redelivered\""));
        assert!(trace.contains("\"name\":\"call_refused\""));
        assert!(to_chrome_trace(
            &[RecordedEvent {
                t_cycles: 5,
                origin: Origin::Sim,
                event: Event::Fault {
                    kind: Fault::EnclaveStall,
                },
            }],
            1_000_000_000
        )
        .contains("\"name\":\"fault\",\"args\":{\"fault\":\"enclave_stall\"}"));
    }

    #[test]
    fn canonical_projection_strips_timestamps() {
        let evs = sample_events();
        let canon = canonical_jsonl(&evs, |e| matches!(e.event, Event::Fault { .. }));
        assert_eq!(
            canon,
            "{\"origin\":\"worker-1\",\"kind\":\"fault\",\"fault\":\"worker_crash\"}\n"
        );
    }

    #[test]
    fn chrome_trace_wraps_and_converts_timestamps() {
        // 1 GHz -> 1000 cycles per microsecond.
        let trace = to_chrome_trace(&sample_events(), 1_000_000_000);
        assert!(trace.starts_with("{\"traceEvents\":["));
        assert!(trace.trim_end().ends_with("],\"displayTimeUnit\":\"ms\"}"));
        assert!(trace.contains("\"ph\":\"X\""), "call span present");
        assert!(trace.contains("\"ph\":\"C\""), "worker counter present");
        assert!(trace.contains("\"ph\":\"M\""), "thread names present");
        assert!(trace.contains("\"name\":\"scheduler\""));
        // The call completed at 300 after 50 cycles: it began at 250 ->
        // ts 0us (sub-us), dur >= 1.
        assert!(trace.contains("\"ts\":0,\"dur\":1,\"name\":\"ocall-3\""));
        assert!(trace.contains(
            "\"args\":{\"call\":7,\"func\":3,\"path\":\"switchless\",\"phases\":[5,5,5,10,20,5]}"
        ));
        // One record per event (the counter beside each `phase_start`
        // aside), in order, whose `args` are its JSONL line's fields.
        let records: Vec<&str> = trace
            .lines()
            .map(|l| l.trim_end_matches(','))
            .filter(|l| l.starts_with("{\"ph\":\"i\"") || l.starts_with("{\"ph\":\"X\""))
            .collect();
        let evs = sample_events();
        assert_eq!(records.len(), evs.len());
        for (ev, record) in evs.iter().zip(records) {
            let line = event_jsonl_line(ev, false);
            let head = format!(
                "{{\"origin\":\"{}\",\"kind\":\"{}\"",
                ev.origin.label(),
                ev.event.kind_name()
            );
            let fields = &line[head.len()..line.len() - 1];
            let args = format!("{{{}}}", fields.strip_prefix(',').unwrap_or(fields));
            assert!(
                record.ends_with(&format!("\"args\":{args}}}")),
                "{record} does not carry {line}"
            );
        }
    }
}
