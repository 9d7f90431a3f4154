//! Trace exporters: canonical JSON event log and Chrome trace-event.
//!
//! Both renderers are pure functions of a [`TraceSnapshot`] — no IO,
//! no wall clock, no platform state — so an export of a pinned-seed
//! run is byte-reproducible anywhere. Hand-rolled JSON like the rest
//! of the workspace (the build is std-only by policy).
//!
//! # Canonical log
//!
//! One compact object per event, in sequence order, wrapped with the
//! ring capacity and the dropped-event count so loss is never silent:
//!
//! ```json
//! {"seq": 0, "kind": "stage", "name": "core/block", "at_us": 10, ...}
//! ```
//!
//! # Chrome trace-event
//!
//! A `{"traceEvents": [...]}` document loadable in `chrome://tracing`
//! or Perfetto. Virtual microseconds map directly to the `ts`/`dur`
//! fields (the format's native unit). One *process* per cluster
//! (`pid = cluster + 1`, pid 0 = unscoped) and one *thread* per node
//! (`tid = node + 1`, tid 0 = control). Stages and sends render as
//! complete (`"X"`) slices, marks as thread-scoped instants (`"i"`).
//! Events are sorted by `(ts, pid, tid, seq)`, so timestamps are
//! monotone within every thread track.

use std::collections::BTreeSet;

use crate::{TraceKind, TraceSnapshot, EVENT_CAPACITY};

fn push_escaped(out: &mut String, raw: &str) {
    for ch in raw.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

fn push_field(out: &mut String, first: &mut bool, key: &str, value: &str) {
    if !*first {
        out.push_str(", ");
    }
    *first = false;
    out.push('"');
    out.push_str(key);
    out.push_str("\": ");
    out.push_str(value);
}

fn push_num(out: &mut String, first: &mut bool, key: &str, value: u64) {
    push_field(out, first, key, &value.to_string());
}

fn push_str_field(out: &mut String, first: &mut bool, key: &str, value: &str) {
    if !*first {
        out.push_str(", ");
    }
    *first = false;
    out.push('"');
    out.push_str(key);
    out.push_str("\": \"");
    push_escaped(out, value);
    out.push('"');
}

fn hex_id(id: u64) -> String {
    format!("{id:016x}")
}

/// Renders the canonical JSON event log for `id` (e.g. `TRACE_e1`).
pub fn canonical_json(id: &str, snap: &TraceSnapshot) -> String {
    let mut out = String::with_capacity(64 + snap.events.len() * 160);
    out.push_str("{\n");
    out.push_str(&format!("  \"id\": \"{id}\",\n"));
    out.push_str(&format!("  \"event_capacity\": {EVENT_CAPACITY},\n"));
    out.push_str(&format!("  \"dropped\": {},\n", snap.dropped));
    out.push_str("  \"events\": [");
    for (i, event) in snap.events.iter().enumerate() {
        out.push_str(if i == 0 { "\n    {" } else { ",\n    {" });
        let mut first = true;
        push_num(&mut out, &mut first, "seq", event.seq);
        push_str_field(&mut out, &mut first, "kind", event.kind.name());
        push_str_field(&mut out, &mut first, "name", event.name);
        push_num(&mut out, &mut first, "at_us", event.at_us);
        push_num(&mut out, &mut first, "dur_us", event.dur_us);
        push_num(&mut out, &mut first, "height", event.height);
        if let Some(cluster) = event.cluster {
            push_num(&mut out, &mut first, "cluster", cluster);
        }
        if let Some(node) = event.node {
            push_num(&mut out, &mut first, "node", node);
        }
        if let Some(peer) = event.peer {
            push_num(&mut out, &mut first, "peer", peer);
        }
        if event.bytes > 0 {
            push_num(&mut out, &mut first, "bytes", event.bytes);
        }
        push_str_field(&mut out, &mut first, "id", &hex_id(event.id));
        if event.parent != 0 {
            push_str_field(&mut out, &mut first, "parent", &hex_id(event.parent));
        }
        out.push('}');
    }
    if snap.events.is_empty() {
        out.push_str("]\n}\n");
    } else {
        out.push_str("\n  ]\n}\n");
    }
    out
}

fn pid_of(cluster: Option<u64>) -> u64 {
    cluster.map_or(0, |c| c + 1)
}

fn tid_of(node: Option<u64>) -> u64 {
    node.map_or(0, |n| n + 1)
}

/// Renders a Chrome trace-event document for the snapshot.
pub fn chrome_json(snap: &TraceSnapshot) -> String {
    // Deterministic track metadata: the sorted set of (pid, tid)
    // pairs the events actually touch.
    let mut tracks: BTreeSet<(u64, u64)> = BTreeSet::new();
    for event in &snap.events {
        tracks.insert((pid_of(event.cluster), tid_of(event.node)));
    }
    let mut order: Vec<usize> = (0..snap.events.len()).collect();
    order.sort_by_key(|&i| {
        let e = &snap.events[i];
        (e.at_us, pid_of(e.cluster), tid_of(e.node), e.seq)
    });

    let mut out = String::with_capacity(128 + snap.events.len() * 190);
    out.push_str("{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [");
    let mut wrote = false;
    let emit = |out: &mut String, wrote: &mut bool, line: &str| {
        out.push_str(if *wrote { ",\n    " } else { "\n    " });
        *wrote = true;
        out.push_str(line);
    };

    let mut named_pids: BTreeSet<u64> = BTreeSet::new();
    for &(pid, tid) in &tracks {
        if named_pids.insert(pid) {
            let pname = if pid == 0 {
                String::from("unscoped")
            } else {
                format!("cluster {}", pid - 1)
            };
            emit(
                &mut out,
                &mut wrote,
                &format!(
                    "{{\"ph\": \"M\", \"pid\": {pid}, \"name\": \"process_name\", \
                     \"args\": {{\"name\": \"{pname}\"}}}}"
                ),
            );
        }
        let tname = if tid == 0 {
            String::from("control")
        } else {
            format!("node {}", tid - 1)
        };
        emit(
            &mut out,
            &mut wrote,
            &format!(
                "{{\"ph\": \"M\", \"pid\": {pid}, \"tid\": {tid}, \
                 \"name\": \"thread_name\", \"args\": {{\"name\": \"{tname}\"}}}}"
            ),
        );
    }

    for &i in &order {
        let event = &snap.events[i];
        let pid = pid_of(event.cluster);
        let tid = tid_of(event.node);
        let mut line = String::with_capacity(190);
        line.push('{');
        let mut first = true;
        if event.kind == TraceKind::Mark {
            push_str_field(&mut line, &mut first, "ph", "i");
            push_str_field(&mut line, &mut first, "s", "t");
        } else {
            push_str_field(&mut line, &mut first, "ph", "X");
            push_num(&mut line, &mut first, "dur", event.dur_us);
        }
        push_num(&mut line, &mut first, "ts", event.at_us);
        push_num(&mut line, &mut first, "pid", pid);
        push_num(&mut line, &mut first, "tid", tid);
        push_str_field(&mut line, &mut first, "cat", event.kind.name());
        push_str_field(&mut line, &mut first, "name", event.name);
        line.push_str(", \"args\": {");
        let mut afirst = true;
        push_num(&mut line, &mut afirst, "seq", event.seq);
        push_num(&mut line, &mut afirst, "height", event.height);
        if let Some(peer) = event.peer {
            push_num(&mut line, &mut afirst, "to", peer);
        }
        if event.bytes > 0 {
            push_num(&mut line, &mut afirst, "bytes", event.bytes);
        }
        push_str_field(&mut line, &mut afirst, "id", &hex_id(event.id));
        if event.parent != 0 {
            push_str_field(&mut line, &mut afirst, "parent", &hex_id(event.parent));
        }
        line.push_str("}}");
        emit(&mut out, &mut wrote, &line);
    }

    if wrote {
        out.push_str("\n  ]\n}\n");
    } else {
        out.push_str("]\n}\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceEvent;

    fn event(
        seq: u64,
        kind: TraceKind,
        name: &'static str,
        at_us: u64,
        cluster: Option<u64>,
        node: Option<u64>,
    ) -> TraceEvent {
        TraceEvent {
            seq,
            kind,
            name,
            at_us,
            dur_us: if kind == TraceKind::Mark { 0 } else { 7 },
            height: 2,
            cluster,
            node,
            peer: if kind == TraceKind::Send {
                Some(9)
            } else {
                None
            },
            bytes: if kind == TraceKind::Mark { 0 } else { 512 },
            id: crate::send_id(seq),
            parent: if seq == 0 { 0 } else { crate::send_id(seq - 1) },
        }
    }

    fn sample() -> TraceSnapshot {
        TraceSnapshot {
            events: vec![
                event(0, TraceKind::Stage, "core/block", 10, Some(1), Some(4)),
                event(1, TraceKind::Send, "BlockFull", 10, Some(1), Some(4)),
                event(
                    2,
                    TraceKind::Stage,
                    "consensus/commit",
                    40,
                    Some(2),
                    Some(8),
                ),
                event(3, TraceKind::Mark, "faults/crash", 25, None, Some(8)),
            ],
            dropped: 0,
        }
    }

    #[test]
    fn canonical_is_stable_and_complete() {
        let json = canonical_json("TRACE_test", &sample());
        assert!(json.starts_with("{\n  \"id\": \"TRACE_test\",\n"));
        assert!(json.contains("\"event_capacity\": 65536"));
        assert!(json.contains("\"dropped\": 0"));
        assert!(json.contains(
            "{\"seq\": 1, \"kind\": \"send\", \"name\": \"BlockFull\", \
             \"at_us\": 10, \"dur_us\": 7, \"height\": 2, \"cluster\": 1, \
             \"node\": 4, \"peer\": 9, \"bytes\": 512"
        ));
        // Root events omit "parent"; children carry the parent's id.
        let root = json.lines().find(|l| l.contains("\"seq\": 0")).unwrap();
        assert!(!root.contains("\"parent\""));
        let child = json.lines().find(|l| l.contains("\"seq\": 1")).unwrap();
        assert!(child.contains(&format!("\"parent\": \"{}\"", hex_id(crate::send_id(0)))));
        assert_eq!(canonical_json("TRACE_test", &sample()), json);
    }

    #[test]
    fn canonical_empty_snapshot_renders() {
        let json = canonical_json("TRACE_empty", &TraceSnapshot::default());
        assert!(json.contains("\"events\": []"));
    }

    #[test]
    fn chrome_names_every_track_before_events() {
        let json = chrome_json(&sample());
        assert!(json.contains("\"displayTimeUnit\": \"ms\""));
        assert!(json.contains(
            "{\"ph\": \"M\", \"pid\": 2, \"name\": \"process_name\", \
             \"args\": {\"name\": \"cluster 1\"}}"
        ));
        assert!(json.contains(
            "{\"ph\": \"M\", \"pid\": 2, \"tid\": 5, \"name\": \"thread_name\", \
             \"args\": {\"name\": \"node 4\"}}"
        ));
        assert!(json.contains("\"args\": {\"name\": \"unscoped\"}"));
        let last_meta = json.rfind("\"ph\": \"M\"").unwrap();
        let first_slice = json.find("\"ph\": \"X\"").unwrap();
        assert!(last_meta < first_slice, "metadata precedes slices");
    }

    #[test]
    fn chrome_slices_are_time_sorted_and_marks_are_instants() {
        let json = chrome_json(&sample());
        // The mark at ts=25 must render between the ts=10 pair and the
        // ts=40 commit, as a thread-scoped instant.
        let mark = json
            .find("\"ph\": \"i\", \"s\": \"t\", \"ts\": 25")
            .unwrap();
        let commit = json.find("\"name\": \"consensus/commit\"").unwrap();
        let block = json.find("\"name\": \"core/block\"").unwrap();
        assert!(block < mark && mark < commit);
        // Send events expose the receiver in args.
        assert!(json.contains("\"to\": 9"));
    }

    #[test]
    fn chrome_timestamps_are_monotone_per_track() {
        let mut snap = sample();
        // Shuffle record order; the exporter must still sort by time.
        snap.events.reverse();
        let json = chrome_json(&snap);
        let mut last: std::collections::BTreeMap<(u64, u64), u64> = Default::default();
        for line in json.lines().filter(|l| l.contains("\"ph\": \"X\"")) {
            let grab = |key: &str| -> u64 {
                let tail = &line[line.find(key).unwrap() + key.len()..];
                tail[..tail.find([',', '}']).unwrap()]
                    .trim()
                    .parse()
                    .unwrap()
            };
            let key = (grab("\"pid\": "), grab("\"tid\": "));
            let ts = grab("\"ts\": ");
            if let Some(prev) = last.insert(key, ts) {
                assert!(prev <= ts, "track {key:?} went backwards");
            }
        }
        assert!(!last.is_empty());
    }
}
