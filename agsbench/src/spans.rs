//! Self-time accounting over collected spans.
//!
//! A span's self time is its duration minus the part of its interval
//! that its child spans cover. Children may run on other threads and
//! overlap each other, so the covered part is the length of the union
//! of the children's intervals, clipped to the parent's.

use ags::obs::trace::TraceEvent;
use std::collections::{BTreeMap, HashMap};

/// Aggregated time of every span of one name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerRow {
    /// Spans recorded under this name.
    pub count: u64,
    /// Sum of their durations, microseconds.
    pub total_us: u64,
    /// Sum of their self times, microseconds.
    pub self_us: u64,
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(cursor);
        let end = end.min(hi);
        if end > start {
            total += end - start;
            cursor = end;
        }
    }
    total
}

/// Adds the events' per-name totals and self times to `rows`. Instants
/// are ignored; a child whose parent was not collected counts only
/// toward its own row.
pub fn add_self_times(rows: &mut BTreeMap<&'static str, LayerRow>, events: &[TraceEvent]) {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for e in events.iter().filter(|e| !e.instant && e.parent != 0) {
        children
            .entry(e.parent)
            .or_default()
            .push((e.start_us, e.start_us + e.dur_us));
    }
    for e in events.iter().filter(|e| !e.instant) {
        let end = e.start_us + e.dur_us;
        let child_time = children
            .get_mut(&e.span)
            .filter(|_| e.span != 0)
            .map_or(0, |kids| covered(kids, e.start_us, end));
        let row = rows.entry(e.name).or_default();
        row.count += 1;
        row.total_us += e.dur_us;
        row.self_us += e.dur_us.saturating_sub(child_time);
    }
}

/// The self-time table, largest self time first.
#[must_use]
pub fn render_table(rows: &BTreeMap<&'static str, LayerRow>) -> String {
    use std::fmt::Write as _;
    let mut sorted: Vec<(&&str, &LayerRow)> = rows.iter().collect();
    sorted.sort_by(|a, b| b.1.self_us.cmp(&a.1.self_us).then(a.0.cmp(b.0)));
    let mut out = format!(
        "{:<34} {:>9} {:>12} {:>12}\n",
        "span", "count", "total ms", "self ms"
    );
    for (name, row) in sorted {
        #[allow(clippy::cast_precision_loss)]
        let _ = writeln!(
            out,
            "{:<34} {:>9} {:>12.3} {:>12.3}",
            name,
            row.count,
            row.total_us as f64 / 1e3,
            row.self_us as f64 / 1e3
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u64, parent: u64, start: u64, dur: u64) -> TraceEvent {
        TraceEvent {
            name,
            span: id,
            parent,
            start_us: start,
            dur_us: dur,
            ..TraceEvent::default()
        }
    }

    fn self_times(events: &[TraceEvent]) -> BTreeMap<&'static str, LayerRow> {
        let mut rows = BTreeMap::new();
        add_self_times(&mut rows, events);
        rows
    }

    #[test]
    fn rows_accumulate_across_collections() {
        let mut rows = BTreeMap::new();
        add_self_times(&mut rows, &[span("run", 1, 0, 0, 10)]);
        add_self_times(&mut rows, &[span("run", 2, 0, 5, 20)]);
        assert_eq!(rows["run"].count, 2);
        assert_eq!(rows["run"].self_us, 30);
    }

    #[test]
    fn self_time_subtracts_children() {
        let events = [
            span("root", 1, 0, 0, 100),
            span("a", 2, 1, 10, 20),
            span("b", 3, 1, 50, 10),
            span("leaf", 4, 2, 12, 5),
        ];
        let rows = self_times(&events);
        assert_eq!(rows["root"].self_us, 70);
        assert_eq!(rows["root"].total_us, 100);
        assert_eq!(rows["a"].self_us, 15);
        assert_eq!(rows["b"].self_us, 10);
        assert_eq!(rows["leaf"].self_us, 5);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        // Two parallel workers overlap in [30, 40); one child overhangs
        // the parent's end and is clipped.
        let events = [
            span("parent", 1, 0, 0, 100),
            span("worker", 2, 1, 20, 20),
            span("worker", 3, 1, 30, 20),
            span("worker", 4, 1, 90, 30),
        ];
        let rows = self_times(&events);
        assert_eq!(rows["parent"].self_us, 100 - 30 - 10);
        assert_eq!(rows["worker"].count, 3);
        assert_eq!(rows["worker"].total_us, 70);
    }

    #[test]
    fn instants_and_orphans() {
        let mut marker = span("marker", 0, 1, 5, 0);
        marker.instant = true;
        let events = [
            span("root", 1, 0, 0, 10),
            marker,
            span("orphan", 9, 77, 0, 4),
        ];
        let rows = self_times(&events);
        assert_eq!(rows["root"].self_us, 10);
        assert!(!rows.contains_key("marker"));
        assert_eq!(rows["orphan"].self_us, 4);
        assert!(render_table(&rows)
            .lines()
            .nth(1)
            .unwrap()
            .starts_with("root"));
    }
}
