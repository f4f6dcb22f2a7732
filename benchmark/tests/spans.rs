//! Span self time, and the tracer's nesting discipline.

use lva_benchmark::spans::{self_times, Span, Tracer};

fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span { name: name.into(), start_ns, end_ns, parent, request: None }
}

#[test]
fn self_time_subtracts_direct_children_only() {
    let spans = [
        span("root", 0, 100, None),
        span("child", 10, 30, Some(0)),
        span("grandchild", 12, 20, Some(1)),
        span("second child", 50, 60, Some(0)),
    ];
    assert_eq!(self_times(&spans), vec![70, 12, 8, 10]);
}

#[test]
fn overlapping_children_count_once() {
    let spans = [
        span("root", 0, 100, None),
        span("a", 10, 50, Some(0)),
        span("b", 40, 70, Some(0)),
        span("inside a", 20, 30, Some(0)),
    ];
    // Union of [10,50), [40,70) and [20,30) is [10,70).
    assert_eq!(self_times(&spans)[0], 40);
}

#[test]
fn children_are_clipped_to_the_parent() {
    let spans =
        [span("root", 0, 100, None), span("late", 90, 120, Some(0)), span("early", 0, 5, Some(0))];
    assert_eq!(self_times(&spans)[0], 85);
}

#[test]
fn tracer_nests_and_closes_children_with_their_parent() {
    let mut t = Tracer::new(true);
    let outer = t.enter("outer", Some(7));
    let inner = t.enter("inner", None);
    std::hint::black_box((0..10_000).sum::<u64>());
    let _dangling = t.enter("dangling", None);
    t.exit(outer);
    t.exit(inner); // already closed with its parent: a no-op
    let s = t.spans();
    assert_eq!(s.len(), 3);
    assert_eq!(s[1].parent, Some(0));
    assert_eq!(s[2].parent, Some(1));
    // Children inherit the request id and never outlive their parent.
    assert!(s.iter().all(|x| x.request == Some(7)));
    for x in &s[1..] {
        let p = &s[x.parent.expect("nested")];
        assert!(x.start_ns >= p.start_ns && x.end_ns <= p.end_ns);
    }
    let own = self_times(s);
    assert_eq!(own[0] + own[1] + own[2], s[0].duration_ns());
}

#[test]
fn disabled_tracer_records_nothing() {
    let mut t = Tracer::new(false);
    let id = t.enter("x", Some(1));
    t.exit(id);
    assert!(id.is_none() && t.spans().is_empty());
}
